"""Exception hierarchy shared by all ergokit modules.

Every error raised on a documented failure path derives from ErgokitError so
callers (and the CLI) can catch the whole family and map each subtype to a
distinct diagnostic. Missing data is no failure: NaN, or None for a summary.
"""


class ErgokitError(Exception):
    """Base class for all ergokit errors."""


# --- domain / series errors -------------------------------------------------

class TooShort(ErgokitError):
    pass


class TooLong(ErgokitError):
    """A series would have more samples than one array can index."""


# --- ingest errors ----------------------------------------------------------

class EmptyFile(ErgokitError):
    pass


class EncodingError(ErgokitError):
    """The input is not UTF-8 text."""


class MalformedHeader(ErgokitError):
    pass


class MissingColumn(ErgokitError):
    pass


class MalformedRecord(ErgokitError):
    def __init__(self, message, line_number=None):
        super().__init__(message if line_number is None
                         else f"line {line_number}: {message}")
        self.line_number = line_number


class NonMonotonicTimestamps(ErgokitError):
    pass


class IrregularTimestamps(ErgokitError):
    pass


class NonFiniteTimes(ErgokitError):
    """A series' rate or sample times leave the float range."""


class OverlappingIntervals(ErgokitError):
    pass


class InvertedInterval(ErgokitError):
    pass


class InvalidForceValue(ErgokitError):
    pass


# --- geometry errors --------------------------------------------------------

class NoCompleteFrames(ErgokitError):
    pass


# --- scoring errors ---------------------------------------------------------

class IncompleteFrame(ErgokitError):
    pass


class EmptyTimeline(ErgokitError):
    pass


class ConfigError(ErgokitError):
    """Invalid scoring configuration or angle definitions; carries the full
    violation listing."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


# --- comparison errors ------------------------------------------------------

class NoValidPairs(ErgokitError):
    pass


class ZeroVariance(ErgokitError):
    pass


class InsufficientOverlap(ErgokitError):
    pass


class SampleRateMismatch(ErgokitError):
    pass


class ReferenceChannelMissing(ErgokitError):
    pass


class ChannelSetMismatch(ErgokitError):
    pass


# --- reporting errors -------------------------------------------------------

class EmptyInput(ErgokitError):
    pass
