"""Code that only its own unit test calls is deleted, not kept: every public
function, method and class of the package must be reached by the package
itself or by perfbench, or be named in a short allowlist with its reason."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "harmsum"
PERFBENCH = ROOT / "perfbench"

ALLOWED = {
    "upper_density_scales": "the paper's first theorem, to be run by a command (ROADMAP item 9)",
    "sign_of": "reads one sign of upper_density_scales' sequence (ROADMAP item 9)",
    "evaluate": "f(n) by factorization, the tests' independent check of values_range",
    "liouville_table": "lambda from the Omega table, the tests' independent check of lambda",
    "contains": "BigFixed interval membership, the tests' check of every error bound",
    "gaussian_cos_bound": "its tests pin GAUSSIAN_BOUND_VALID_LIMIT, which density_profile uses",
    "mc_probability": "the Monte-Carlo side of acceptance criterion 6",
    "chi3_star_check": "acceptance criterion 3, the chi3* partial-sum identity",
    "locality_check": "the locality clause of acceptance criterion 9",
    "multiplicativity_check": "the multiplicativity clause of acceptance criterion 9",
}


def _trees(root):
    return [ast.parse(p.read_text(), filename=str(p)) for p in sorted(root.rglob("*.py"))]


def _public_defs(tree):
    """Public module-level defs and classes, and the public methods of classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield item.name


def _references(tree, strings: bool):
    """Names read, attributes, imports and __all__ entries; with `strings`,
    every string constant too (perfbench's tracing names methods by string)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            yield from (c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _defined_and_reached():
    src, bench = _trees(PACKAGE), _trees(PERFBENCH)
    defined = {name for tree in src for name in _public_defs(tree)}
    reached = {name for tree in src for name in _references(tree, strings=False)}
    reached |= {name for tree in bench for name in _references(tree, strings=True)}
    return defined, reached


def test_every_public_name_is_reached():
    defined, reached = _defined_and_reached()
    unreached = sorted(defined - reached - set(ALLOWED))
    assert not unreached, f"only tests reach {unreached}; delete them or allow them with a reason"


def test_allowlist_is_short_and_current():
    defined, reached = _defined_and_reached()
    assert len(ALLOWED) <= 10
    stale = sorted(name for name in ALLOWED if name not in defined or name in reached)
    assert not stale, f"allowed names that are gone or now reached: {stale}"
