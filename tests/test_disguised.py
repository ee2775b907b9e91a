"""Ground truth off the normal form: disguised generated instances.

Each instance of acceptance criterion 5 is moved by a triangular polynomial
automorphism on k rows and a constant unimodular feedback with a polynomial
drift term (``reference.disguise``).  The paper's characterization is
invariant under both, so the template's verdict, case and block dimensions
are still the answer.  Outside NoX1, flat-output and transform must succeed
and the map must verify; for NoX1 the template's phi1 = y1, pulled back to
the new coordinates, is passed in.  Cases that fail today are strict xfails
naming their cause, so a fix has to flip them.  So are the smallest known
failures of larger disguises (ROADMAP item 18's ladder): two wrong
verdicts and a transform whose ladder change finds no inverse.
The sha256 of each passing instance's outputs (``reference.instance_digest``)
must equal its entry in ``data/instance_digests.json``, as must each
generated instance's in ``test_transform.py``.  Re-record both with
``PYTHONPATH=src python tests/test_disguised.py``.
"""

import json
from dataclasses import replace

import pytest

from triflat import direction_search
from triflat.cli import _analyze, main
from triflat.diffgeo import extend, lie_bracket
from triflat.errors import IntegrationError, PipelineError
from triflat.expr import ZERO, Sym, to_str
from triflat.flatout import admits_phi1
from triflat.generator import triangular_template
from triflat.sampling import Sampler
from triflat.transform import (
    prolonged_linearizability,
    verify_transformation,
)

from reference import (
    INSTANCE_DIGESTS,
    criterion5_combos,
    disguise,
    exact_rank,
    generated_instances,
    instance_digest,
    instance_key,
    instance_outputs,
    recorded_instance_digests,
)

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
    rep, flat, res = instance_outputs(system, inverse["y1"], SP)
    assert (rep.verdict, rep.case, rep.n2, rep.depth, rep.chain_lengths) == _template_answer(
        inst, combo)
    assert res.verified and res.final.structure_ok, res.final.structure_failures
    assert verify_transformation(system, res.change, res.final.system, SP)
    key = instance_key(combo, index, k)
    assert instance_digest(rep, flat, res) == recorded_instance_digests().get(key), key


def _template_answer(inst, combo):
    l1, l2, n2, n3 = combo
    return True, inst.case, n2, n3, (max(l1, l2), min(l1, l2))


def _ladder(combo, seed, k, reason, raises=AssertionError):
    return pytest.param(combo, seed, k, id=f"{'-'.join(map(str, combo))}-seed{seed}-k{k}",
                        marks=pytest.mark.xfail(raises=raises, reason=reason, strict=True))


@pytest.mark.parametrize("combo, seed, k", [
    _ladder((0, 1, 4, 2), 0, 4, "check: False at (a), the characteristic distribution "
            "differs from the lower rung at the default sampler seed (ROADMAP item 12)"),
    _ladder((2, 2, 7, 4), 1, 5, "check: False at (d), extension step 1 is not involutive; "
            "the verdict follows the sampler seed (ROADMAP item 12)"),
])
def test_larger_disguise_keeps_its_verdict(combo, seed, k):
    inst = triangular_template(*combo, seed=seed)
    system, _inverse = disguise(inst.system, k, seed=seed)
    rep = _analyze(system, SP)[3][0]
    assert (rep.verdict, rep.case, rep.n2, rep.depth, rep.chain_lengths) == _template_answer(
        inst, combo), rep.failures


@pytest.mark.parametrize("combo, seed, k", [
    _ladder((0, 1, 4, 2), 2, 4, "transform: the ladder change is not invertible over the "
            "pattern set (ROADMAP item 3)", raises=PipelineError),
])
def test_larger_disguise_transforms(combo, seed, k):
    inst = triangular_template(*combo, seed=seed)
    system, inverse = disguise(inst.system, k, seed=seed)
    rep, _flat, res = instance_outputs(system, inverse["y1"], SP)
    assert (rep.verdict, rep.case, rep.n2, rep.depth, rep.chain_lengths) == _template_answer(
        inst, combo)
    assert res.verified and res.final.structure_ok, res.final.structure_failures


def _sysfile(system, phi1):
    """The text of a system-definition file for system, with phi1 as its hint."""
    lines = ["[states]", " ".join(system.frame), "[inputs]", "u1 u2"]
    for section, field in (("drift", system.drift), ("b1", system.b1), ("b2", system.b2)):
        lines.append(f"[{section}]")
        lines += [f"{x} = {to_str(c)}" for x, c in zip(system.frame, field.components)
                  if c != ZERO]
    return "\n".join(lines + ["[hints]", f"phi1 = {to_str(phi1)}"]) + "\n"


def test_phi1_goes_to_the_passing_root_that_admits_it(capsys, tmp_path):
    """With the inputs swapped, two quadratic roots pass and only the second
    admits the pulled-back y1; flat-output and transform use that root and
    give the unswapped order's flat output."""
    index = 8
    system, inverse = disguise(
        triangular_template(*criterion5_combos()[index], seed=index).system, 3, seed=index)
    phi1 = inverse["y1"]
    swapped = replace(system, b1=system.b2, b2=system.b1)
    passing = [r for r in _analyze(swapped, SP)[3] if r.verdict]
    assert [admits_phi1(r, SP, phi1) for r in passing] == [False, True]
    flats = []
    for name, sysm in (("plain", system), ("swapped", swapped)):
        path, saved = tmp_path / f"{name}.sys", tmp_path / f"{name}.json"
        path.write_text(_sysfile(sysm, phi1))
        assert main(["flat-output", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        flats.append((out["phi1"], out["phi2"]))
        assert main(["transform", str(path), "--save", str(saved)]) == 0
        assert main(["verify", str(path), "--transform", str(saved)]) == 0
        capsys.readouterr()
    assert flats == [("y1", "y2/4 + y3/4 + y4/2 + z1_1 + z1_2^2/2 - z2_1/2")] * 2


def assert_prolonged_linearizable(monkeypatch, system, phi1=None):
    """The evidence of ``verify --evidence`` holds: prolonging the chain-side
    input of the normal form makes it static feedback linearizable.  Each
    member of the prolonged drift flag, and the spanning set it was pruned
    from, has the rank over Q(x) that the float rank test gave it.  phi1 is
    passed on in the NoX1 case only."""
    _rep, _flat, res = instance_outputs(system, phi1, SP)
    prolonged, seen = [], []
    real = direction_search.drift_flag

    def spy(sys, sp):
        prolonged.append(sys)
        for member in real(sys, sp):
            seen.append(member)
            yield member

    monkeypatch.setattr(direction_search, "drift_flag", spy)
    assert prolonged_linearizability(res, SP).verdict
    (prolonged,) = prolonged
    spanning = prolonged.input_distribution()
    for D, rank in seen:
        assert exact_rank(spanning.matrix_rows()) == exact_rank(D.matrix_rows()) == rank
        spanning = extend(D, [lie_bracket(prolonged.drift, f) for f in D.fields])


@pytest.mark.parametrize("combo, seed", [
    pytest.param(combo, seed, id=f"{'-'.join(map(str, combo))}-seed{seed}")
    for combo, seed in generated_instances()])
def test_generated_instance_is_prolonged_linearizable(monkeypatch, combo, seed):
    system = triangular_template(*combo, seed=seed).system
    assert_prolonged_linearizable(monkeypatch, system, phi1=Sym("y1"))


def test_disguised_instance_is_prolonged_linearizable(monkeypatch):
    system, _inverse = disguise(triangular_template(1, 2, 3, 1, seed=9).system, 1, seed=9)
    assert_prolonged_linearizable(monkeypatch, system)


if __name__ == "__main__":
    table = {}
    for combo, seed in generated_instances():
        outputs = instance_outputs(triangular_template(*combo, seed=seed).system, Sym("y1"), SP)
        table[instance_key(combo, seed)] = instance_digest(*outputs)
    for index, combo in enumerate(criterion5_combos()):
        for k in (1, 3):
            if (index, k) not in KNOWN_FAILURES:
                system, inverse = disguise(triangular_template(*combo, seed=index).system, k,
                                           seed=index)
                outputs = instance_outputs(system, inverse["y1"], SP)
                table[instance_key(combo, index, k)] = instance_digest(*outputs)
    INSTANCE_DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
