"""Golden normal forms: ``simplify`` reproduces every stored output exactly.

``data/simplify_golden.tsv.gz`` holds one tab-separated pair per line: an
input printed with ``to_str`` and ``to_str(simplify(parse_expr(input)))``.
The inputs are the 2,521 distinct expressions ``simplify`` received while
``check``, ``flat-output`` and ``transform`` ran at default flags on the six
positive corpus systems, each command in a fresh process.  The outputs were
recorded with the ``Fraction``-coefficient kernel, before integer
coefficients, the merged monomial product and the interned kernel table;
every later kernel gives the same output on every pair, also with the
kernel table cleared before each normalization and under another
``PYTHONHASHSEED``.  A kernel change that alters a normal form (an exact
gcd cancelling more, say) must list each changed pair in CHANGES.md.
"""

import gzip
import importlib
import os
import subprocess
import sys
from pathlib import Path

from triflat.expr import to_str
from triflat.parser import parse_expr
from triflat.simplify import simplify

GOLDEN = Path(__file__).parent / "data" / "simplify_golden.tsv.gz"


def golden_mismatches(fresh_table=False):
    """The (input, stored, computed) triples that differ, from an empty cache
    (the pairs were recorded so); with ``fresh_table`` the kernel table is
    also cleared before every normalization, so kernel ids differ."""
    simplify_module = importlib.import_module("triflat.simplify")
    with gzip.open(GOLDEN, "rt", encoding="utf-8") as f:
        pairs = [line.rstrip("\n").split("\t") for line in f]
    assert len(pairs) == 2521
    simplify_module._CACHE.clear()
    changed = []
    for s, want in pairs:
        if fresh_table:
            simplify_module._clear_kernels()
        got = to_str(simplify(parse_expr(s)))
        if got != want:
            changed.append((s, want, got))
    return changed


def test_golden_normal_forms():
    assert golden_mismatches() == []


def test_golden_normal_forms_fresh_kernel_table():
    assert golden_mismatches(fresh_table=True) == []


def test_golden_normal_forms_other_hash_seed():
    """Kernel interning must not depend on the order of str hashes."""
    import triflat

    src = str(Path(triflat.__file__).parents[1])
    path = os.pathsep.join([src, str(Path(__file__).parent)])
    code = "from test_simplify_golden import golden_mismatches as g; print(len(g()))"
    env = dict(os.environ, PYTHONHASHSEED="216", PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["0"]
