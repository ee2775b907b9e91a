"""Every function, method and class in ``src/triflat`` has a caller in ``src/``.

Code that only tests reach does not belong in the package: it is deleted,
or moved into ``tests/`` when a test uses it as a reference.  References are
matched by name.  A function or class counts as used when a ``Name``, an
attribute read or an imported name carries its name; a method only through
an attribute read, so a local variable of the same name does not keep it.
A ``Name`` read inside a function that defines a nested function of that
name is local: it keeps only that nested function.  The guard catches the
definitions whose name appears nowhere else.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "triflat"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

# Unreferenced in src/ on purpose, one reason each.
ALLOWED = {
    "generator.triangular_template": "builds the benchmark's generated instances",
    "trace.collect": "the collector that the --trace report activates (ROADMAP item 6)",
    "sampling.MatrixSampler.at": "perfbench/tracer.py wraps it by name",
    "sampling.Sampler.admissible_points": "perfbench/tracer.py wraps it by name",
    "sampling.numeric_rank": "perfbench/tracer.py wraps it by name",
}


def _definitions_and_references(src):
    defs = []  # (qualified name, bare name, module, first line, last line, is a method)
    # (name, module, line, is an attribute read, the function it is local to or None)
    refs = []
    for path in sorted(src.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, prefix, local):  # local: nested function name -> its definer
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (*FUNCTIONS, ast.ClassDef)):
                    qual = f"{prefix}.{child.name}"
                    method = isinstance(node, ast.ClassDef)
                    defs.append((qual, child.name, module, child.lineno, child.end_lineno, method))
                    inner = local
                    if isinstance(child, FUNCTIONS):
                        nested = {n.name for n in ast.walk(child)
                                  if n is not child and isinstance(n, FUNCTIONS)}
                        inner = {**local, **dict.fromkeys(nested, qual)}
                    visit(child, qual, inner)
                    continue
                if isinstance(child, ast.Name):
                    refs.append((child.id, module, child.lineno, False, local.get(child.id)))
                elif isinstance(child, ast.Attribute):
                    refs.append((child.attr, module, child.lineno,
                                 isinstance(child.ctx, ast.Load), None))
                elif isinstance(child, ast.ImportFrom):
                    refs.extend((a.name, module, child.lineno, False, None) for a in child.names)
                visit(child, prefix, local)

        visit(tree, module, {})
    return defs, refs


def _public_api(src):
    tree = ast.parse((src / "__init__.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    raise AssertionError("triflat/__init__.py defines no __all__")


def _unreferenced(src=SRC):
    defs, refs = _definitions_and_references(src)
    public = _public_api(src)
    by_name = {}
    for name, module, line, read, definer in refs:
        by_name.setdefault(name, []).append((module, line, read, definer))
    out = []
    for qual, name, module, first, last, method in defs:
        if (name.startswith("__") and name.endswith("__")) or name in public:
            continue
        if not any(
            not (m == module and first <= line <= last) and (read or not method)
            and (definer is None or qual.startswith(definer + "."))
            for m, line, read, definer in by_name.get(name, ())
        ):
            out.append(qual)
    return out


def test_scan_finds_a_definition_without_caller(tmp_path):
    (tmp_path / "__init__.py").write_text('__all__ = ["exported"]\n')
    (tmp_path / "a.py").write_text(
        "def exported():\n    pass\n\n"
        "def helper():\n    pass\n\n"
        "def dead():\n    dead()\n    helper()\n\n"
        "class Box:\n    def used(self):\n        pass\n\n"
        "    def unused(self):\n        self.used()\n"
    )
    (tmp_path / "b.py").write_text("from .a import Box\n")
    assert _unreferenced(tmp_path) == ["a.dead", "a.Box.unused"]


def test_a_method_is_used_only_through_an_attribute_read(tmp_path):
    # a local, a parameter or an attribute write of the method's name is no call
    (tmp_path / "__init__.py").write_text('__all__ = ["Box", "use"]\n')
    (tmp_path / "a.py").write_text(
        "class Box:\n    def rank(self):\n        pass\n\n"
        "    def scale(self):\n        pass\n\n"
        "    def rhs(self):\n        pass\n\n"
        "    def size(self):\n        pass\n\n"
        "def use(box, scale):\n    rank = 1\n    box.rhs = scale\n    return box.size(), rank\n"
    )
    assert _unreferenced(tmp_path) == ["a.Box.rank", "a.Box.scale", "a.Box.rhs"]


def test_a_nested_function_keeps_only_itself_alive(tmp_path):
    # the read of walk inside outer names its nested walk, not a.walk; a read in
    # a later function that defines no walk still names a.walk
    (tmp_path / "__init__.py").write_text('__all__ = ["outer", "later"]\n')
    source = ("def walk():\n    pass\n\n"
              "def outer(e):\n    def walk(e):\n        return e\n\n    return walk(e)\n\n"
              "def later():\n    {}\n")
    (tmp_path / "a.py").write_text(source.format("pass"))
    assert _unreferenced(tmp_path) == ["a.walk"]
    (tmp_path / "a.py").write_text(source.format("walk()"))
    assert _unreferenced(tmp_path) == []


def test_every_definition_has_a_caller_in_src():
    dead = [q for q in _unreferenced() if q not in ALLOWED]
    assert not dead, f"no reference in src/ (delete, or move into tests/): {dead}"


def test_allowlist_is_not_stale():
    defs, _refs = _definitions_and_references(SRC)
    defined = {qual for qual, *_rest in defs}
    assert set(ALLOWED) <= defined, sorted(set(ALLOWED) - defined)
    unreferenced = set(_unreferenced())
    assert set(ALLOWED) <= unreferenced, sorted(set(ALLOWED) - unreferenced)
