"""Verdicts on the positive corpus do not depend on the sampler seed.

``check`` runs at seeds 0-7 with 8 and 16 sample points, ``flat-output`` at
seeds 0-7 with the default count.  Every run must exit 0 and report the same
decision: the case and block dimensions of each accepted direction.  The
admissible first outputs of a generated system with no terminal chain are
swept over the same seeds and sample counts.
``transform`` is not swept: the sqrt map is not found at most seeds yet.
"""

import contextlib
import io
import json
import os

import pytest

from triflat.cli import _analyze, main
from triflat.flatout import admissible_phi1
from triflat.generator import triangular_template
from triflat.sampling import Sampler

CORPUS = os.path.join(os.path.dirname(__file__), "..", "src", "triflat", "corpus")
POSITIVES = ["academic10", "product", "sin", "sqrt", "template", "vtol"]
SEEDS = range(8)


def run(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, json.loads(buf.getvalue())


def check_decision(report):
    return [
        (r["case"], r["n2"], r["depth_n3"], r["chain_lengths"])
        for r in report["reports"]
        if r["verdict"]
    ]


def flat_decision(report):
    return report["case"], report["dims"]


@pytest.mark.parametrize("name", POSITIVES)
def test_check_and_flat_output_hold_at_every_seed(name):
    path = os.path.join(CORPUS, name + ".sys")
    cells = {}
    for seed in SEEDS:
        for samples in (8, 16):
            cells["check", seed, samples] = run(
                "check", path, "--seed", str(seed), "--samples", str(samples)
            )
        cells["flat-output", seed, 16] = run("flat-output", path, "--seed", str(seed))
    failed = [cell for cell, (code, _report) in cells.items() if code != 0]
    assert not failed, f"{name}: nonzero exit at {failed}"
    _code, default_check = run("check", path)
    _code, default_flat = run("flat-output", path)
    for (command, seed, samples), (_code, report) in cells.items():
        if command == "check":
            assert check_decision(report) == check_decision(default_check), (seed, samples)
        else:
            assert flat_decision(report) == flat_decision(default_flat), seed


def test_admissible_phi1_holds_at_every_seed():
    sysm = triangular_template(0, 0, 4, 2, seed=7).system
    cells = {}
    for seed in SEEDS:
        for samples in (8, 16):
            sp = Sampler(seed=seed, samples=samples)
            rep = _analyze(sysm, sp)[3][0]
            cells[seed, samples] = rep.case, admissible_phi1(rep, sp)
    assert all(cell == ("NoX1", ["y1", "y2", "y3"]) for cell in cells.values()), cells
