"""Golden normal forms: ``simplify`` reproduces every stored output exactly.

``data/simplify_golden.tsv.gz`` holds one tab-separated pair per line: an
input printed with ``to_str`` and ``to_str(simplify(parse_expr(input)))``.
The inputs are the 2,521 distinct expressions ``simplify`` received while
``check``, ``flat-output`` and ``transform`` ran at default flags on the six
positive corpus systems, each command in a fresh process.  The outputs were
recorded with the ``Fraction``-coefficient kernel, before integer
coefficients and the merged monomial product; both kernels give the same
output on every pair (checked under ``PYTHONHASHSEED`` 0 and 216).  A
kernel change that alters a normal form (an exact gcd cancelling more,
say) must list each changed pair in CHANGES.md.
"""

import gzip
import importlib
from pathlib import Path

from triflat.expr import to_str
from triflat.parser import parse_expr
from triflat.simplify import simplify

GOLDEN = Path(__file__).parent / "data" / "simplify_golden.tsv.gz"


def test_golden_normal_forms():
    with gzip.open(GOLDEN, "rt", encoding="utf-8") as f:
        pairs = [line.rstrip("\n").split("\t") for line in f]
    assert len(pairs) == 2521
    # the pairs were recorded starting from an empty cache
    importlib.import_module("triflat.simplify")._CACHE.clear()
    changed = [(s, want, got) for s, want in pairs
               if (got := to_str(simplify(parse_expr(s)))) != want]
    assert changed == []
