"""Every exception class of ``ergokit.errors`` is raised by the package: a
check that is deleted must take its class with it, not leave it dead."""
import ast
from pathlib import Path

from ergokit import errors


def _raised_names(tree: ast.AST) -> set[str]:
    """The class names that the ``raise`` statements of ``tree`` raise:
    ``raise X``, ``raise X(...)`` and ``raise module.X(...)``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_error_class_is_raised():
    package = Path(errors.__file__).parent
    raised = set().union(*(_raised_names(ast.parse(path.read_text(encoding="utf-8")))
                           for path in sorted(package.glob("*.py"))))
    defined = {name for name, value in vars(errors).items() if isinstance(value, type)
               and issubclass(value, errors.ErgokitError) and value is not errors.ErgokitError}
    assert len(defined) > 20
    assert sorted(defined - raised) == []
