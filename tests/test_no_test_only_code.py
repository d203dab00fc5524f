"""Code that only its own unit test calls is deleted, not kept: every public
function, method and class of the package must be reached by the package
itself or by perfbench, or be named in a short allowlist with its reason, and
every private one must be reached from outside its own body."""

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
    "gaussian_cos_bound": "its tests pin GAUSSIAN_BOUND_VALID_LIMIT, which the decay "
    "certificate's bound_log column uses",
    "mc_probability": "the Monte-Carlo side of acceptance criterion 6",
    "chi3_star_check": "acceptance criterion 3, the chi3* partial-sum identity",
    "locality_check": "the locality clause of acceptance criterion 9",
    "multiplicativity_check": "the multiplicativity clause of acceptance criterion 9",
}


def _trees(root):
    return [ast.parse(p.read_text(), filename=str(p)) for p in sorted(root.rglob("*.py"))]


def _public_defs(tree):
    """(name, is_method) for public module-level defs and classes, and for
    the public methods of classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield item.name, True


def _foreign_modules(tree):
    """Names bound by `import x` or `import x as y` to a module outside harmsum."""
    return {
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.partition(".")[0] != "harmsum"
    }


def _references(tree):
    """(name, is_attribute) for names read, imports, __all__ entries and
    attributes read off any base but a foreign module: `math.lcm` reaches no
    harmsum `lcm`."""
    foreign = _foreign_modules(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, False
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id in foreign):
                yield node.attr, True
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], False
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            for c in ast.walk(node.value):
                if isinstance(c, ast.Constant):
                    yield c.value, False


def _traced_methods():
    """perfbench's tracing.METHODS, which names the methods it wraps as strings."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "METHODS":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no METHODS")


def _unreached():
    """Public names of the package that nothing reaches. A method is
    reached only as an attribute (a local variable `lcm` reaches no method
    `lcm`) or through tracing.METHODS."""
    src, bench = _trees(PACKAGE), _trees(PERFBENCH)
    defined = {d for tree in src for d in _public_defs(tree)}
    refs = {r for tree in src + bench for r in _references(tree)}
    attrs = {name for name, is_attr in refs if is_attr}
    attrs |= {attr for _, _, attr, _ in _traced_methods()}
    names = {name for name, is_attr in refs if not is_attr}
    return {
        name for name, is_method in defined
        if name not in attrs and (is_method or name not in names)
    }


def test_every_public_name_is_reached():
    unreached = sorted(_unreached() - set(ALLOWED))
    assert not unreached, f"only tests reach {unreached}; delete them or allow them with a reason"


def test_allowlist_is_short_and_current():
    unreached = _unreached()
    assert len(ALLOWED) <= 10
    stale = sorted(name for name in ALLOWED if name not in unreached)
    assert not stale, f"allowed names that are gone or now reached: {stale}"


def _private_defs(tree):
    """(name, is_method, node) for private module-level defs and classes, and
    for the private methods of classes; dunders are not private."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def private(node):
        return isinstance(node, defs) and node.name.startswith("_") and not (
            node.name.startswith("__") and node.name.endswith("__")
        )

    for node in tree.body:
        if private(node):
            yield node.name, False, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if private(item):
                    yield item.name, True, item


def test_every_private_def_is_reached_outside_its_body():
    """A private def is reached by a name (a module-level def) or an
    attribute read in the package or perfbench, outside the def itself: a
    recursive call does not keep it, and a docstring that names it, being no
    AST name, does not either."""
    src = _trees(PACKAGE)
    trees = src + _trees(PERFBENCH)
    refs = [
        (getattr(node, "id", None) or node.attr, isinstance(node, ast.Attribute), node)
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    unreached = []
    for tree in src:
        for name, is_method, node in _private_defs(tree):
            inside = {id(n) for n in ast.walk(node)}
            if not any(
                ref == name and (is_attr or not is_method) and id(ref_node) not in inside
                for ref, is_attr, ref_node in refs
            ):
                unreached.append(name)
    assert not unreached, f"private defs nothing else reaches: {sorted(unreached)}"
