"""Static feedback linearizability, and the reports of a drift flag that is
involutive throughout."""

import json
import os
import random

import pytest

from triflat import direction_search
from triflat.cli import main
from triflat.direction_search import check_static_feedback_linearizable
from triflat.expr import Rat, Sym, mul
from triflat.parser import parse_expr
from triflat.sampling import Sampler
from triflat.systems import prolong, vector_field, AffineSystem

from reference import (
    chained_form,
    counting,
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


CORPUS = os.path.join(os.path.dirname(__file__), "..", "src", "triflat", "corpus")
INPUTS = "[inputs]\nu1 u2\n"
STALLED = "[states]\nx y z\n" + INPUTS + "[drift]\n[b1]\nx = 1\n[b2]\ny = 1\n"
# b1 and b2 are parallel, so the flag grows one rank per step
LATE = "[states]\nx1 x2 x3\n" + INPUTS + "[drift]\nx1 = x2\nx2 = x3\n[b1]\nx3 = 1\n[b2]\nx3 = 2\n"
DOUBLE = ("[states]\nx1 x2 x3 x4\n" + INPUTS
          + "[drift]\nx1 = x2\nx3 = x4\n[b1]\nx2 = 1\n[b2]\nx4 = 1\n")
REACHES = ("chain of involutive distributions reaches the full tangent space; the system is "
           "static feedback linearizable")


@pytest.mark.parametrize("text, check, verify", [
    (STALLED,
     (1, {"verdict": False,
          "detail": "chain of involutive distributions stalls below the full space"}),
     (1, {"linearizable": False, "detail": "chain stalls below the full tangent space"})),
    (LATE,
     (1, {"verdict": "static-feedback-linearizable", "detail": REACHES, "linearizable": False}),
     (1, {"linearizable": False, "detail": "chain reaches full rank too late"})),
    (DOUBLE,
     (0, {"verdict": "static-feedback-linearizable", "detail": REACHES, "linearizable": True}),
     (0, {"linearizable": True, "detail": None})),
], ids=["stalled", "too-late", "linearizable"])
def test_an_involutive_drift_flag_ends_check_and_verify(tmp_path, capsys, text, check, verify):
    path = str(tmp_path / "system.sys")
    with open(path, "w") as fh:
        fh.write(text)
    header = ["command", "file", "system", "sampler", "prolonged"]
    for argv, (code, tail) in (([path], check), ([path, "--variant"], check)):
        assert main(["check", *argv]) == code
        out = json.loads(capsys.readouterr().out)
        assert list(out) == header + list(tail) and {k: out[k] for k in tail} == tail
    code, tail = verify
    assert main(["verify", path]) == code
    out = json.loads(capsys.readouterr().out)
    assert list(out) == [k for k in header if k != "system"] + list(tail)
    assert {k: out[k] for k in tail} == tail


def test_check_walks_the_drift_flag_once(tmp_path, capsys):
    linearizable = str(tmp_path / "double.sys")
    with open(linearizable, "w") as fh:
        fh.write(DOUBLE)
    for argv in (["check", os.path.join(CORPUS, "vtol.sys"), "--variant"],
                 ["check", linearizable]):
        with counting(direction_search, "drift_flag") as walks:
            main(argv)
        assert len(walks) == 1, argv
    capsys.readouterr()
