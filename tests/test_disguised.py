"""Ground truth off the normal form: disguised generated instances.

Each instance of acceptance criterion 5 is moved by a triangular polynomial
automorphism on k rows and a constant unimodular feedback with a polynomial
drift term (``reference.disguise``).  The paper's characterization is
invariant under both, so the template's verdict, case and block dimensions
are still the answer.  Outside NoX1, flat-output and transform must succeed
and the map must verify; for NoX1 the template's phi1 = y1, pulled back to
the new coordinates, is passed in.  Cases that fail today are strict xfails
naming their cause, so a fix has to flip them.
"""

import pytest

from triflat.cli import _analyze
from triflat.errors import EliminationError, IntegrationError, PipelineError
from triflat.expr import Sym
from triflat.flatout import flat_output_for_report
from triflat.generator import triangular_template
from triflat.sampling import Sampler
from triflat.transform import (
    prolonged_linearizability,
    transform_to_triangular,
    verify_transformation,
)

from reference import criterion5_combos, disguise

SP = Sampler()

KNOWN_FAILURES = {
    (0, 1): (IntegrationError, "flat-output: 1 of 3 integrals missing "
             "(ROADMAP item 9)"),
    (5, 3): (PipelineError, "transform: solve_map finds no pattern inverse of the "
             "ladder change (ROADMAP item 3)"),
    (6, 3): (PipelineError, "transform: straightening stalls at level cauchy1 with 1 "
             "of 5 integrals missing (ROADMAP item 9)"),
}


def _cases():
    for index, combo in enumerate(criterion5_combos()):
        for k in (1, 3):
            marks = ()
            if (index, k) in KNOWN_FAILURES:
                raises, reason = KNOWN_FAILURES[index, k]
                marks = pytest.mark.xfail(raises=raises, reason=reason, strict=True)
            yield pytest.param(index, combo, k, marks=marks,
                               id=f"{'-'.join(map(str, combo))}-seed{index}-k{k}")


@pytest.mark.parametrize("index, combo, k", _cases())
def test_disguised_instance_keeps_its_answer(index, combo, k):
    inst = triangular_template(*combo, seed=index)
    system, inverse = disguise(inst.system, k, seed=index)
    l1, l2, n2, n3 = combo
    rep = _analyze(system, SP)[3][0]
    assert (rep.verdict, rep.case, rep.n2, rep.depth, rep.chain_lengths) == (
        True, inst.case, n2, n3, (max(l1, l2), min(l1, l2)))
    phi1 = inverse["y1"] if rep.case == "NoX1" else None
    flat = flat_output_for_report(rep, SP, phi1=phi1)
    res = transform_to_triangular(system, rep, flat, SP)
    assert res.verified and res.final.structure_ok, res.final.structure_failures
    assert verify_transformation(system, res.change, res.final.system, SP)


# The evidence of ``verify --evidence``: prolonging the chain-side input of
# the normal form makes it static feedback linearizable.
@pytest.mark.parametrize("index, combo", [
    pytest.param(index, combo, id=f"{'-'.join(map(str, combo))}-seed{index}")
    for index, combo in enumerate(criterion5_combos())])
def test_generated_instance_is_prolonged_linearizable(index, combo):
    inst = triangular_template(*combo, seed=index)
    rep = _analyze(inst.system, SP)[3][0]
    flat = flat_output_for_report(rep, SP, phi1=Sym("y1") if rep.case == "NoX1" else None)
    res = transform_to_triangular(inst.system, rep, flat, SP)
    assert prolonged_linearizability(res, SP).verdict


@pytest.mark.xfail(raises=EliminationError, strict=True, reason=(
    "diffgeo.basis gives up on a drift step of the prolonged normal form: its greedy "
    "basis is near-singular at one kept point where the whole spanning set is not "
    "(ROADMAP item 12)"))
def test_disguised_instance_is_prolonged_linearizable():
    system, _inverse = disguise(triangular_template(1, 2, 3, 1, seed=9).system, 1, seed=9)
    rep = _analyze(system, SP)[3][0]
    res = transform_to_triangular(system, rep, flat_output_for_report(rep, SP), SP)
    assert prolonged_linearizability(res, SP).verdict
