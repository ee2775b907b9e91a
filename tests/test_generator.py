"""Template instances as ground-truth positives."""

import pytest

from triflat.diffgeo import ad_iter, generic_rank, is_involutive
from triflat.direction_search import _normalized_candidate, compute_bracket_chain
from triflat.expr import ONE, Rat, ZERO
from triflat.fields import Distribution, coordinate_field
from triflat.generator import triangular_template
from triflat.sampling import Sampler
from triflat.triform import triangular_form_check

from reference import cauchy_flags, equal_chain_template, field_sum, scale, span_equal

SP = Sampler()


def test_dimension_bounds_enforced():
    with pytest.raises(ValueError):
        triangular_template(0, 0, 3, 1)
    with pytest.raises(ValueError):
        triangular_template(1, 1, 2, 1)
    with pytest.raises(ValueError):
        triangular_template(1, 1, 3, 0)


def test_state_count():
    inst = triangular_template(2, 1, 4, 3, seed=1)
    l1, l2, n2, n3 = inst.dims
    assert inst.system.n == l1 + l2 + n2 + 2 * n3 - 1


def test_iterated_bracket_reaches_core_bottom():
    """ad_a^depth of the long input is the core-bottom coordinate direction."""
    inst = triangular_template(1, 0, 4, 2, seed=5)
    s = inst.system
    n3 = 2
    v = ad_iter(s.drift, n3, s.b1)
    expected = scale(coordinate_field(s.frame, "y4"), Rat((-1) ** n3))
    diff = field_sum(v, scale(expected, Rat(-1)))
    from triflat.sampling import all_zero_generic
    from triflat.simplify import simplify

    assert all_zero_generic([simplify(c) for c in diff.components], SP)


def test_first_noninvolutive_member_facts():
    """Rank 2*depth+2, non-involutive, characteristics differ from the rung."""
    for combo, seed in (((1, 1, 4, 2), 7), ((0, 1, 3, 1), 8)):
        inst = triangular_template(*combo, seed=seed)
        chain = compute_bracket_chain(inst.system, SP)
        n3 = combo[3]
        assert chain.depth == n3
        assert generic_rank(chain.top, SP) == 2 * n3 + 2
        assert not is_involutive(chain.top, SP)
        assert chain.cauchy_ok


def test_characteristic_ladder_display():
    """C of the i-th flag member spans the rear block plus the deepest core
    coordinate directions."""
    inst = triangular_template(1, 1, 5, 1, seed=3)
    s = inst.system
    chain = compute_bracket_chain(s, SP)
    cand = _normalized_candidate(s, ONE, ZERO, "h")
    rep = triangular_form_check(s, cand, SP, chain)
    assert rep.verdict
    rear = ["z1_1"]
    core = ["y1", "y2", "y3", "y4", "y5"]
    for i, C in enumerate(cauchy_flags(rep, SP), start=1):
        expected = Distribution(
            s.frame,
            [coordinate_field(s.frame, x) for x in rear + core[len(core) - i:]],
        )
        assert span_equal(C, expected, SP)


def test_equal_template_dimensions():
    inst = equal_chain_template(3, 2, seed=2)
    assert inst.system.n == 3 + 2 * 2
