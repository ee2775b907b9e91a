"""Every name a module imports is used in it, no function imports, every
local a function assigns is read (no linter is installed), only the
sampling layer evaluates expressions or applies a float rank rule, no
zero test reads a normal form built for it, and README's "Library layout"
table names every module.

``__init__.py`` is exempt from the import and evaluation scans: its imports
are the package's re-exports.  Locals whose names start with ``_`` are
exempt from the local scan.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "triflat"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == [
        (1, "os"),
        (2, "tau"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def function_imports(source):
    """(line, function) of each import inside a function: imports sit at
    module level, where an import cycle shows when the package loads."""
    out = []
    todo = [(ast.parse(source), None)]
    while todo:
        node, fn = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        elif fn is not None and isinstance(node, (ast.Import, ast.ImportFrom)):
            out.append((node.lineno, fn))
        todo.extend((child, fn) for child in ast.iter_child_nodes(node))
    return sorted(out)


def test_scan_finds_an_import_in_a_function():
    source = (
        "import os\n"
        "def f():\n"
        "    from .checks import g\n"
        "    def h():\n"
        "        import math\n"
        "    return g, h\n"
        "class C:\n"
        "    def m(self):\n"
        "        from . import x\n"
        "        return x\n"
    )
    assert function_imports(source) == [(3, "f"), (5, "h"), (9, "m")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    assert function_imports(path.read_text()) == []


def unused_locals(source):
    """(line, name) of each name a function binds and nothing in it reads.

    A read anywhere in the function counts, nested functions included, so a
    local that only a closure reads is used.  Bindings inside a nested
    function are checked with that function; class bodies are not scanned.
    """
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        declared, bound = set(), {}
        todo = list(fn.body)
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound[node.id] = min(node.lineno, bound.get(node.id, node.lineno))
            if not isinstance(node, _SCOPES):
                todo.extend(ast.iter_child_nodes(node))
        read = {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(line, name) for name, line in bound.items()
                if name not in read | declared and not name.startswith("_")]
    return sorted(out)


def test_scan_finds_an_unused_local():
    source = (
        "def f(xs):\n"
        "    a, b = xs\n"
        "    _c = 1\n"
        "    for i, x in enumerate(xs):\n"
        "        d = x\n"
        "    def g():\n"
        "        e = 2\n"
        "        return a\n"
        "    return g, x\n"
    )
    assert unused_locals(source) == [(2, "b"), (4, "i"), (5, "d"), (7, "e")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_locals(path):
    assert unused_locals(path.read_text()) == []


def references(source, name):
    """Lines at which a module imports, reads or looks up the attribute name."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            hit = any(alias.name == name for alias in node.names)
        else:
            hit = getattr(node, "id", None) == name or getattr(node, "attr", None) == name
        if hit:
            out.append(node.lineno)
    return sorted(out)


def test_scan_finds_a_reference():
    source = "from .expr import evaluate as ev\nv = m.evaluate\nevaluate(e)\nevaluated = 1\n"
    assert references(source, "evaluate") == [1, 2, 3]


def test_only_the_sampling_layer_evaluates():
    # every numeric value is read through a PointSet, whose columns evaluate
    for evaluator in ("evaluate", "evaluate_column"):
        evaluators = {p.name: references(p.read_text(), evaluator) for p in MODULES}
        assert {name for name, lines in evaluators.items() if lines} == {"expr.py", "sampling.py"}


RANK_INTERNALS = ("_ranks_of", "_svd_ranks", "_scaled")


def rank_rules(source):
    """Lines at which a module reads a rank helper of the sampling layer or
    calls a ``.max()`` method, the hand-written form of its generic-point
    rule (``sampling.generic``)."""
    out = [line for name in RANK_INTERNALS for line in references(source, name)]
    out += [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "max"]
    return sorted(out)


def test_scan_finds_a_rank_rule():
    source = (
        "from .sampling import _ranks_of, ranks\n"
        "r = sampling._svd_ranks(s, tol)\n"
        "s = _scaled(s, tol)\n"
        "top = ranks(s, tol).max()\n"
        "kept = np.max(r), max(r), r.argmax()\n"
    )
    assert rank_rules(source) == [1, 2, 3, 4, 5]


def test_only_the_sampling_layer_applies_a_rank_rule():
    rules = {p.name: rank_rules(p.read_text()) for p in MODULES}
    assert {name for name, lines in rules.items() if lines} == {"sampling.py"}


ZERO_TESTS = ("is_zero_generic", "all_zero_generic")


def _called(node):
    """The name a call node calls, plain or as an attribute."""
    if not isinstance(node, ast.Call):
        return None
    return getattr(node.func, "id", None) or getattr(node.func, "attr", None)


def normalized_zero_tests(source):
    """(line, function) of each zero test whose argument is a direct
    ``simplify(...)`` call or a comprehension of them: the sampled test reads
    raw expressions, so the normal form is work nothing prints."""
    out = []
    todo = [(ast.parse(source), None)]
    while todo:
        node, fn = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        todo.extend((child, fn) for child in ast.iter_child_nodes(node))
        if _called(node) not in ZERO_TESTS:
            continue
        for arg in node.args + [k.value for k in node.keywords]:
            if isinstance(arg, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
                arg = arg.elt
            if _called(arg) == "simplify":
                out.append((node.lineno, fn))
    return sorted(out)


def test_scan_finds_a_normalized_zero_test():
    source = (
        "def f(e, es, sp):\n"
        "    a = is_zero_generic(simplify(e), sp)\n"
        "    b = s.all_zero_generic([simplify(x) for x in es], sp)\n"
        "    c = all_zero_generic((simplify(x) for x in es), sp, extra_syms=es)\n"
        "    d = is_zero_generic(e, sp) or is_zero_generic(differentiate(e, 'x'), sp)\n"
        "    return a, b, c, d, is_zero_generic(simplify_all(e), sp)\n"
    )
    assert normalized_zero_tests(source) == [(2, "f"), (3, "f"), (4, "f")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_zero_test_reads_a_normal_form(path):
    assert normalized_zero_tests(path.read_text()) == []


README = SRC.parent.parent / "README.md"


def layout_modules(text):
    """The module names in the first cell of each row of README's "Library
    layout" table, in order."""
    section = text.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    return [name for row in rows for name in re.findall(r"`(\w+)`", row.split("|")[1])]


def test_scan_reads_the_layout_table():
    text = ("## Library layout\n\n| module | contents |\n| --- | --- |\n"
            "| `a`, `b` | `x` and `y` |\n| `c` | z |\n\n`d` is prose.\n\n## Next\n| `e` | f |\n")
    assert layout_modules(text) == ["a", "b", "c"]


def test_readme_layout_names_every_module_once():
    names = layout_modules(README.read_text())
    assert sorted(names) == [p.stem for p in MODULES]
