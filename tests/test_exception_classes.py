"""The package fails in two ways: an infeasible outcome raises
`InfeasibleError` (exit 1 with a record) and a usage error raises
`ValueError` (exit 2), and only `cli.run` turns them into exit codes. Beside
them only the resource limit `ResourceBudgetError` and `SieveRangeError`, a
`ValueError` kept by name, may be defined; another class would be a second
name for one of these outcomes."""

import ast
import builtins
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "harmsum"
ALLOWED = {"InfeasibleError", "ResourceBudgetError", "SieveRangeError"}


def _base_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def test_package_defines_only_the_allowed_exception_classes():
    classes = []  # (module, class name, base names)
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                classes.append((path.name, node.name, {_base_name(b) for b in node.bases}))
    exceptions = {
        name
        for name, obj in vars(builtins).items()
        if isinstance(obj, type) and issubclass(obj, BaseException)
    }
    found: set[tuple[str, str]] = set()
    while True:  # a subclass of a package exception is an exception too
        more = {(mod, name) for mod, name, bases in classes if bases & exceptions} - found
        if not more:
            break
        found |= more
        exceptions |= {name for _, name in more}
    extra = sorted(f"{mod}:{name}" for mod, name in found if name not in ALLOWED)
    assert not extra, f"exception classes beyond {sorted(ALLOWED)}: {extra}"
