"""The trace collector and the gcd bail-out counters it reads."""

from triflat import trace
from triflat.parser import parse_expr
from triflat.simplify import as_fraction


def test_count_and_span_are_no_ops_without_a_collector():
    trace.count("anything")
    with trace.span("anything"):
        pass
    with trace.collect() as c:
        pass
    assert c.counts == {} and c.spans == {}


def test_collector_gathers_counts_and_spans():
    with trace.collect() as c:
        trace.count("a")
        trace.count("a", 2)
        for _ in range(3):
            with trace.span("s"):
                pass
    trace.count("a")  # after the block: not collected
    assert c.counts == {"a": 3}
    calls, seconds = c.spans["s"]
    assert calls == 3 and seconds >= 0.0


def test_wide_coefficient_gcd_bail_out_counts_under_bits():
    # neither side divides the other, so the gcd runs and gives up on the
    # 301-bit constant
    e = parse_expr(f"(x*y + {2**300})/(x*y + 1)")
    with trace.collect() as c:
        as_fraction(e)
    assert c.counts == {"simplify.gcd_bailout.bits": 1}


def test_ordinary_gcd_counts_no_bail_out():
    e = parse_expr("(x^2*y - y)/(x*y^2 + y^2)")
    with trace.collect() as c:
        num, den = as_fraction(e)
    assert c.counts == {}
    assert (num, den) == as_fraction(parse_expr("(x - 1)/y"))
