"""The two engines share no arithmetic: that is the paper's check, so the
imports that would break it are refused here, read off the source."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "curvecount"


def only(*names):
    return lambda name: name in names


def never(*names):
    return lambda name: name != "*" and name not in names


NOTHING = only()

MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")

# module: {a module of the package: which names it may read there}
BOUNDARIES = {
    "bott": {
        "chow": NOTHING,
        "chern": NOTHING,
        "symfunc": only("elementary_symmetric", "sym_power_roots"),
        "expr": never("evaluate"),
    },
    **{module: {"bott": NOTHING} for module in ("chow", "chern", "symfunc", "expr")},
    # the spaces and bundle trees both engines read
    "bundles": {module: NOTHING for module in MODULES if module != "bundles"},
    # the command line integrates through counts.integral alone
    "cli": {
        "expr": never("degree", "evaluate"),
        "chow": NOTHING,
        "bott": never("bott_integrate"),
    },
    # the 1/d^3 cover check is a third route: it borrows weight vectors only
    "gwdt": {
        "bott": only("weight_search"),
        **{module: NOTHING for module in ("chow", "chern", "symfunc", "counts")},
    },
}


def names_read(module: str, source: str) -> set[str]:
    """The names `module` reads from the package's module `source`: those it
    imports from it, and the attributes it reads off it when imported whole;
    "*" when the whole module is used as a value, or imported and not read."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    names, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == source:
                names.update(a.name for a in node.names)
            elif node.module is None:
                aliases.update(a.asname or a.name for a in node.names if a.name == source)
    attribute_bases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            names.add(node.attr)
            attribute_bases.add(id(node.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in aliases \
                and id(node) not in attribute_bases:
            names.add("*")
    if aliases and not names:
        names.add("*")
    return names


@pytest.mark.parametrize(
    "module,source,allowed",
    [(m, s, allowed) for m, rules in BOUNDARIES.items() for s, allowed in rules.items()],
    ids=[f"{m}-{s}" for m, rules in BOUNDARIES.items() for s in rules],
)
def test_engine_boundary(module, source, allowed):
    assert {name for name in names_read(module, source) if not allowed(name)} == set()


def test_names_read_sees_every_import_form():
    assert {"ChowElement", "pullback"} <= names_read("counts", "chow")
    assert "Grassmannian" in names_read("counts", "bundles")
    assert {"degree", "evaluate"} <= names_read("counts", "expr")
    assert "bott_integrate" in names_read("counts", "bott")
    assert "weight_search" in names_read("gwdt", "bott")
    assert names_read("bott", "chern") == set()


def test_one_package_import_sits_inside_a_function():
    # an import inside a function hides a cycle; the one left is the
    # tower's: its pushforward and its normal form read the bundle's Segre
    # classes, and chern builds them on the ring
    inner = {}
    for module in MODULES:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, ast.ImportFrom) and node.level == 1:
                        # keyed by node: a nested function is walked twice
                        inner.setdefault(id(node), (module, fn.name, node.module))
    assert list(inner.values()) == [("chow", "_segre_classes", "chern")]


def _defined(tree) -> set[str]:
    """The public names a module binds at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def _read(tree, strings: bool = False) -> set[str]:
    """The identifiers a module reads: loaded names, attributes, imported
    names and, with `strings`, the identifiers inside string constants."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(re.findall(r"\w+", node.value))
    return names


def test_every_public_name_is_read_outside_the_tests():
    # a name only the tests read is a second entry point to what the engine
    # runs; bench/ names some of its targets in strings, and README's code
    # blocks show the ones a user calls
    trees = {path: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    read = set().union(*map(_read, trees.values()))
    for path in (ROOT / "bench").glob("*.py"):
        read |= _read(ast.parse(path.read_text()), strings=True)
    for block in re.findall(r"```\w*\n(.*?)```", (ROOT / "README.md").read_text(), re.S):
        read.update(re.findall(r"\w+", block))
    unread = {f"{path.stem}.{name}" for path, tree in trees.items()
              for name in _defined(tree) - read}
    assert unread == set()
