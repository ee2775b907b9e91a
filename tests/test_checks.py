"""Static feedback linearizability."""

import random

from triflat.checks import check_static_feedback_linearizable
from triflat.expr import Rat, Sym, mul
from triflat.parser import parse_expr
from triflat.sampling import Sampler
from triflat.systems import prolong, vector_field, AffineSystem

from reference import (
    chained_form,
    double_integrator_pair,
    extended_chained,
    feedback_transform,
)

SP = Sampler()


def test_double_integrators_linearizable():
    assert check_static_feedback_linearizable(double_integrator_pair(), SP).verdict


def test_vtol_not_linearizable(vtol_analysis):
    out = check_static_feedback_linearizable(vtol_analysis.system, vtol_analysis.sp)
    assert not out.verdict


def test_small_core_without_chains_is_linearizable():
    # core size three with no terminal chains collapses to a linear system
    frame = ("y1", "y2", "y3", "z1")
    drift = vector_field(
        frame,
        {"y2": mul(Sym("y1"), Sym("y3")), "y3": Sym("z1")},
    )
    b1 = vector_field(frame, {"z1": Rat(1)})
    b2 = vector_field(frame, {"y1": Rat(1), "y2": Sym("y3"), "y3": parse_expr("2*y1")})
    s = AffineSystem(frame, drift, b1, b2, ("u1", "u2"), name="core3")
    assert check_static_feedback_linearizable(s, SP).verdict


def test_chained_implies_prolonged_linearizable():
    for n in (4, 5):
        pro = prolong(chained_form(n), 1, n - 2)
        assert check_static_feedback_linearizable(pro, SP).verdict


def test_verdicts_invariant_under_feedback():
    # static feedback leaves linearizability alone, in either direction
    rng = random.Random(3)
    for s, expected in (
        (double_integrator_pair(), True),
        (extended_chained(4), False),
    ):
        assert check_static_feedback_linearizable(s, SP).verdict == expected
        for _ in range(3):
            beta = [
                [Rat(rng.randint(1, 2)), parse_expr(f"{rng.randint(0, 1)}*x2")],
                [Rat(0), Rat(rng.randint(1, 3))],
            ]
            gamma = (parse_expr(f"{rng.randint(0, 2)}*x1"), Rat(0))
            fb = feedback_transform(s, beta, gamma, SP)
            assert check_static_feedback_linearizable(fb, SP).verdict == expected
