"""Source hygiene: no module of the package and no test module imports a
name it never uses, only `gridfn._outer` builds an n-axis product grid (no
other `.outer` or `meshgrid`), no arithmetic takes a fresh `.copy()` as an
operand, only growth, norms and cli compare a `.variant`, norms sums blocks
(`_block_sum`) only inside `_morrey_of_array`, no module calls
`atomic_analyze`, and every def is read by name from the CLI, the benchmark
or the acceptance tests.  `tests/reach.py` checks the same by a call trace.

A stdlib-ast scan instead of a linter, so the check needs no extra
dependency.  A name counts as used when it is read anywhere in the module,
including inside string annotations.  `__init__.py` is skipped: its imports
are the package's public surface.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "morreykit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# the test modules (perfbench/ is left out: the benchmark owns it)
TESTS = sorted((SRC.parent.parent / "tests").glob("*.py"))


def _imported(tree):
    """(bound name, line) for every import outside `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield (a.asname or a.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield (a.asname or a.name), node.lineno


def _used(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # string annotations such as -> "GrowthFunction"
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return names


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    return [(name, line) for name, line in _imported(tree) if name not in used]


def test_modules_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def outer_uses(source):
    """Lines that reach for a `<ufunc>.outer` or `meshgrid`."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if (isinstance(node, ast.Attribute)
                      and node.attr in ("outer", "meshgrid"))
                  or (isinstance(node, ast.Name) and node.id == "meshgrid"))


def test_grid_products_are_caught():
    assert outer_uses("a = np.multiply.outer(x, y)\nb = np.meshgrid(x, y)\n"
                      "c = meshgrid(x)\nd = np.outer\ne = x * y\n"
                      "f = outer(x, y)\n") == [1, 2, 3, 4]


def test_grid_products_only_in_gridfn():
    found = {p.name: outer_uses(p.read_text()) for p in MODULES}
    assert len(found.pop("gridfn.py")) == 1  # the fold inside _outer
    assert {name: lines for name, lines in found.items() if lines} == {}


def copy_operands(source):
    """Lines of a binary operation with a `.copy()` call as an operand.

    numpy computes such an expression in place in the copy once it holds at
    least 256 KiB (temporary elision), and below that size into a new
    array; with the operands swapped, as elision swaps them, a complex
    product rounds differently, so the result would depend on the size."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.BinOp)
            and any(isinstance(x, ast.Call) and isinstance(x.func, ast.Attribute)
                    and x.func.attr == "copy" for x in (node.left, node.right))]


def test_copy_operands_are_caught():
    assert copy_operands("a = b * c.copy()\nd = e.copy() + 1\n"
                         "f = g.copy()\nh = k(m.copy()) * 2\n") == [1, 2]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_arithmetic_on_fresh_copies(path):
    assert copy_operands(path.read_text()) == []


def variant_comparisons(source):
    """Lines that compare a `.variant` attribute.  The N/E rule is computed
    once, by `SpaceParams.m`; every other module reads that."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Compare)
                   and any(isinstance(x, ast.Attribute) and x.attr == "variant"
                           for x in (node.left, *node.comparators))})


def test_variant_comparisons_are_caught():
    assert variant_comparisons(
        'a = p.variant == "N"\nb = 1 if "E" != self.params.variant else 2\n'
        'c = f"{p.variant}"\nd = p.variant\ne = variant == "N"\n'
        'if x.variant in ("N", "E"):\n    pass\n') == [1, 2, 6]


# the space's own definition (growth), its N/E aggregation (norms) and the
# CLI's Nakai precondition
VARIANT_MODULES = {"growth.py", "norms.py", "cli.py"}


def test_variant_compared_only_where_the_rule_lives():
    found = {p.name: variant_comparisons(p.read_text()) for p in MODULES
             if p.name not in VARIANT_MODULES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def name_uses(source, name):
    """(enclosing top-level def or class, or None, line) for every read of
    `name`, called or not, so that an alias counts too; a def of that name
    and an import are not reads."""
    uses = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        uses += [(owner, node.lineno) for node in ast.walk(top)
                 if getattr(node, "id", getattr(node, "attr", None)) == name]
    return uses


def test_block_sum_uses_are_caught():
    assert name_uses(
        "from .gridfn import _block_sum\n"
        "def f(a):\n    return _block_sum(a, 2)\n"
        "g = gridfn._block_sum\n"
        "class C:\n    def m(self, y):\n"
        "        return [_block_sum(x, 1) for x in y]\n", "_block_sum") == [
            ("f", 3), (None, 4), ("C", 7)]


def test_norms_sums_blocks_only_in_the_morrey_sup():
    # _morrey_of_array sums exactly only the levels its pyramid bound keeps;
    # a Morrey sup written elsewhere in norms would sum every level
    uses = name_uses((SRC / "norms.py").read_text(), "_block_sum")
    assert uses and {owner for owner, _ in uses} == {"_morrey_of_array"}


def test_atomic_analyze_uses_are_caught():
    assert name_uses(
        "from .decomp import atomic_analyze\n"
        "def atomic_analyze(f, pair):\n    return 0\n"
        "def g(f, pair):\n    return atomic_analyze(f, pair)[0]\n"
        "h = decomp.atomic_analyze\n", "atomic_analyze") == [
            ("g", 5), (None, 6)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_calls_atomic_analyze(path):
    # atomic_analyze holds every level's atoms at once; the package's
    # decompositions go through decomp.round_trip, which holds one level
    assert name_uses(path.read_text(), "atomic_analyze") == []


ROOT = SRC.parent.parent
# what the package is for: the CLI and library modules, the benchmark's
# runner and workloads, and the paper's acceptance tests
REACHING = [*sorted(SRC.glob("*.py")), ROOT / "perfbench" / "run.py",
            ROOT / "perfbench" / "workloads.py",
            ROOT / "tests" / "test_acceptance.py"]
# defs that only tests/ reach, kept on purpose: name -> why
UNREACHED = {
    "contains_point": "the point-membership oracle that cube_mask is tested"
                      " against",
    "reproducing_residual": "a diagnostic planned for the norm and"
                            " decompose reports",
    "partition_residual": "a diagnostic planned for the quark reports",
}


def defined(source):
    """Names of every def and class, methods and nested defs included,
    dunders excluded."""
    return {node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def read_names(source):
    """Every name read in source: a Name, an Attribute or an import alias."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def unreached(defining, reaching):
    """Names defined in the `defining` sources that no `reaching` source
    reads.

    Name-based: a def counts as reached when any read anywhere has its
    name, so a def whose name collides with another read (`get`, a local
    variable) is missed, and so is a def read only in its own body;
    `tests/reach.py` finds those by a call trace."""
    defs = set().union(*map(defined, defining))
    reads = set().union(*map(read_names, reaching))
    return sorted(defs - reads)


def test_unreached_defs_are_caught():
    lib = ("class A:\n    def used(self):\n        return self.helper()\n"
           "    def helper(self):\n        return 1\n"
           "    def planted(self):\n        return 2\n"
           "    def __repr__(self):\n        return 'A'\n"
           "def traced():\n    pass\n"
           "def imported():\n    pass\n"
           "def orphan():\n    def inner():\n        pass\n    return inner\n")
    cli = "from .lib import A, imported\nprint(A().used())\n"
    # a name in a string, as in the benchmark tracer's table, is no read
    tracer = 'TRACED = {"lib": ["traced", "A.used"]}\n'
    assert unreached([lib], [lib, cli, tracer]) == [
        "orphan", "planted", "traced"]


def test_every_def_is_reached_or_kept():
    found = unreached([p.read_text() for p in MODULES],
                      [p.read_text() for p in REACHING])
    assert found == sorted(UNREACHED)
