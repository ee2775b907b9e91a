"""Verdicts on the positive corpus do not depend on the sampler seed.

``check`` runs at seeds 0-7 with 8 and 16 sample points, ``flat-output`` at
seeds 0-7 with the default count.  Every run must exit 0 and report the same
decision: the case and block dimensions of each accepted direction.  The
admissible first outputs of a generated system with no terminal chain are
swept over the same seeds and sample counts.
The sha256 of every swept ``check`` stdout, with the corpus path replaced by
``<corpus>``, must equal its entry in ``data/seed_sweep_digests.json``, so
byte identity is enforced off the default seed too.  Re-record with
``PYTHONPATH=src python tests/test_seed_sweep.py``.
``transform --save`` is swept over seeds 0-7 at the default count: the
sha256 of its stdout, stderr, exit code and saved map, with the paths
replaced by ``<corpus>`` and ``<tmp>``, is pinned in the same file.  The
sqrt map is not found at six of the eight seeds; those runs are pinned to
exit 3 with the reason.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from triflat.cli import _analyze, main
from triflat.flatout import admissible_phi1
from triflat.generator import triangular_template
from triflat.sampling import Sampler

CORPUS = os.path.join(os.path.dirname(__file__), "..", "src", "triflat", "corpus")
POSITIVES = ["academic10", "product", "sin", "sqrt", "template", "vtol"]
SEEDS = range(8)
DIGESTS = Path(__file__).parent / "data" / "seed_sweep_digests.json"
# the completion coordinate follows the seed, so the coupling stage's change
# cannot be inverted (ROADMAP item 3)
SQRT_FAILS = {0, 1, 2, 4, 5, 6}
SQRT_REASON = "coordinate change is not invertible over the pattern set"


def run(*argv):
    code, text = run_text(*argv)
    return code, json.loads(text)


def run_text(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def check_digest(name, seed, samples):
    """(key, exit code, report, sha256 of the stdout) of one swept check."""
    path = os.path.join(CORPUS, name + ".sys")
    code, text = run_text("check", path, "--seed", str(seed), "--samples", str(samples))
    digest = hashlib.sha256(text.replace(CORPUS, "<corpus>").encode()).hexdigest()
    return f"{name} seed={seed} samples={samples}", code, json.loads(text), digest


def transform_digest(name, seed):
    """(key, exit code, stderr, sha256 of the masked outputs) of one swept
    ``transform --save``: stdout, stderr, exit code and the saved map."""
    path = os.path.join(CORPUS, name + ".sys")
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        saved = os.path.join(tmp, "map.json")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["transform", path, "--seed", str(seed), "--save", saved])
        texts = [out.getvalue(), err.getvalue(),
                 Path(saved).read_text(encoding="utf-8") if os.path.exists(saved) else None]
        texts = [t and t.replace(CORPUS, "<corpus>").replace(tmp, "<tmp>") for t in texts]
    record = json.dumps({"exit": code, "stdout": texts[0], "stderr": texts[1], "saved": texts[2]})
    digest = hashlib.sha256(record.encode()).hexdigest()
    return f"{name} transform seed={seed}", code, texts[1], digest


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
    digests = {}
    for seed in SEEDS:
        for samples in (8, 16):
            key, code, report, digests[key] = check_digest(name, seed, samples)
            cells["check", seed, samples] = code, report
        cells["flat-output", seed, 16] = run("flat-output", path, "--seed", str(seed))
    failed = [cell for cell, (code, _report) in cells.items() if code != 0]
    assert not failed, f"{name}: nonzero exit at {failed}"
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert [key for key in digests if digests[key] != want.get(key)] == []
    _code, default_check = run("check", path)
    _code, default_flat = run("flat-output", path)
    for (command, seed, samples), (_code, report) in cells.items():
        if command == "check":
            assert check_decision(report) == check_decision(default_check), (seed, samples)
        else:
            assert flat_decision(report) == flat_decision(default_flat), seed


@pytest.mark.parametrize("name", POSITIVES)
def test_transform_outputs_hold_at_every_seed(name):
    digests = {}
    for seed in SEEDS:
        key, code, err, digests[key] = transform_digest(name, seed)
        if name == "sqrt" and seed in SQRT_FAILS:
            assert code == 3 and SQRT_REASON in err, (seed, err)
        else:
            assert code == 0, (seed, err)
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert [key for key in digests if digests[key] != want.get(key)] == []


def test_admissible_phi1_holds_at_every_seed():
    sysm = triangular_template(0, 0, 4, 2, seed=7).system
    cells = {}
    for seed in SEEDS:
        for samples in (8, 16):
            sp = Sampler(seed=seed, samples=samples)
            rep = _analyze(sysm, sp)[3][0]
            cells[seed, samples] = rep.case, admissible_phi1(rep, sp)
    assert all(cell == ("NoX1", ["y1", "y2", "y3"]) for cell in cells.values()), cells


if __name__ == "__main__":
    table = {}
    for name in POSITIVES:
        for seed in SEEDS:
            for samples in (8, 16):
                key, _code, _report, table[key] = check_digest(name, seed, samples)
            key, _code, _err, table[key] = transform_digest(name, seed)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
