"""The config checksum: SHA-256 of the canonical JSON, computed with
CPython's built-in hash module so that no ergokit process loads OpenSSL.

``hashlib`` is the reference here; the package itself must not import it
where the built-in module exists. The two guards run in a fresh interpreter,
since this test process may have loaded ``hashlib`` already.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ergokit.ingest import format_imu_joint_csv, format_keypoint_stream, read_config_json
from ergokit.rula import config_checksum, default_config, table_checksums
from ergokit.synthetic import work_cycle_recording

from recordings import neutral_angle_series

SHIPPED_CHECKSUM = "ca4f5c9e067cb26b"
SRC = Path(__file__).resolve().parent.parent / "src"


def _hashlib_digest(value, digits):
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:digits]


def _run_fresh(code: str, *args: str) -> dict:
    """Run ``code`` in a new interpreter importing ergokit from src/; it
    prints one JSON document as its last line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_shipped_checksums_match_hashlib():
    raw = read_config_json(None)
    assert default_config().checksum == config_checksum(raw) == SHIPPED_CHECKSUM
    assert config_checksum(raw) == _hashlib_digest(raw, 16)
    assert table_checksums(raw) == {
        name: _hashlib_digest(raw[name], 12) for name in ("table_a", "table_b", "table_c")}


_NO_OPENSSL = """
import contextlib, io, json, sys
import numpy
numpy_loaded_it = "_hashlib" in sys.modules
from ergokit.cli import main
imu, stream, config, out = sys.argv[1:]
runs = (["score", imu, "--out", out + "/imu"],
        ["score", stream, "--kind", "keypoints", "--out", out + "/kp"],
        ["compare", imu, imu, "--out", out + "/cmp"],
        ["convert", stream, "--out", out + "/conv"],
        ["check-config", config])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in runs]
print(json.dumps({"numpy_loaded_it": numpy_loaded_it, "codes": codes,
                  "loaded": sorted({"hashlib", "_hashlib"} & set(sys.modules))}))
"""


def test_no_command_loads_openssl(tmp_path):
    """score (IMU CSV and keypoints), compare, convert and check-config run
    without importing hashlib, whose _hashlib links OpenSSL's libcrypto."""
    imu = tmp_path / "imu.csv"
    imu.write_text(format_imu_joint_csv(neutral_angle_series(1500, 100.0)))
    stream = tmp_path / "stream.jsonl"
    stream.write_text(format_keypoint_stream(work_cycle_recording(n_frames=90)))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(read_config_json(None)))
    result = _run_fresh(_NO_OPENSSL, str(imu), str(stream), str(config), str(tmp_path))
    if result["numpy_loaded_it"]:
        pytest.skip("importing numpy alone loads _hashlib here, so ergokit cannot avoid it")
    assert result["codes"] == [0] * 5
    assert result["loaded"] == []


_FALLBACK = """
import json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from ergokit.ingest import read_config_json
from ergokit.rula import default_config, table_checksums
print(json.dumps({"checksum": default_config().checksum,
                  "tables": table_checksums(read_config_json(None)),
                  "hashlib": "hashlib" in sys.modules}))
"""


def test_hashlib_fallback_gives_the_same_checksums():
    """Without the built-in module, the checksums come from hashlib and are
    the same."""
    result = _run_fresh(_FALLBACK)
    assert result["hashlib"]
    assert result["checksum"] == SHIPPED_CHECKSUM
    assert result["tables"] == table_checksums(read_config_json(None))
