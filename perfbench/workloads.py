"""The benchmark's three workloads.

Each workload turns the workload seed into a fixed list of jobs
(``prepare``), optionally fills caches (``warm_up``) and runs one job at a
time (``run_job``), returning a ``Row``.  Jobs run one after another from a
single process; no pool.

- ``corpus-cli``: the bundled ``.sys`` files through ``triflat.cli.main``,
  each command in a fresh forked child, so caches start cold as in a
  separate CLI run.  The commands use the CLI's default sampler flags, as a
  user would; the workload seed orders the systems.
- ``generated``: normal-form instances from ``generator.triangular_template``
  through the library, each in a forked child stopped at its budget.  The
  instance list is fixed: the ten draws of acceptance criterion 5 plus the
  three slow instances named in ``TAIL``, with the default sampler, as in
  criterion 5.  The workload seed orders the instances.  (A sampler seed
  drawn per run changed one instance's check time by up to 70%, too much
  for run-to-run comparison; seed-sweep covers sampler seeds.)
- ``seed-sweep``: ``check`` and ``verify --transform`` on the positive
  corpus systems over sampler seeds drawn from the workload seed and
  ``--samples`` 8 and 16, plus ``flat-output``, ``transform --save`` and
  ``verify --transform`` at the default flags, each in a child forked from
  this process after a warm-up pass in it has filled the symbolic caches,
  so every job starts from the same warm caches.  What remains is numeric
  work.  The warm default-flag commands give every end-to-end metric a
  value on this workload.

``pass_s`` is the nominal length of one pass, from which the harness
derives a fixed pass count.  ``tolerated(row)`` names the failures a run
may have and still be correct: only the ``TAIL`` instances of
``generated`` stopped at their budget.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import isolate
import known
import speed

# Jobs are timed in CPU time of the process that runs them.  The program is
# single-threaded (one BLAS thread) and never waits, so that is the time a
# user waits on an idle machine; time slices that other processes take on a
# shared CPU do not count.  Only a job stopped at its budget keeps wall time.
CLOCK = time.process_time
COMMANDS = ("check", "flat-output", "transform", "verify")
POSITIVES = ("academic10", "sqrt", "sin", "vtol", "template", "product")
CLI_BUDGET_S = 60.0  # one CLI command; only a hang gets near it
# verify takes milliseconds where the other commands take up to seconds; it
# is sampled this many times per pass so that its fastest run is as steady
VERIFY_REPEATS = 3


@dataclass
class Row:
    """One job as it ran: the per-job row of the results file."""

    system: str
    command: str
    seconds: float  # CPU time of the job (wall time if stopped at its budget)
    exit: int | None  # CLI exit code; None for library jobs
    digest: str | None  # hash of the deterministic report fields
    cmd_s: dict  # command -> seconds spent in it; finished commands only
    failure: str | None = None
    rss_mb: float = 0.0
    trace: dict | None = None  # tracer snapshot, traced runs only
    timed_out: bool = False
    stopped_in: str | None = None  # the command a stopped job was in
    speed: float = 1.0  # scale to the reference machine speed (speed.py)
    probes: list = field(default_factory=list)  # speed probes taken during the job

    @property
    def key(self):
        return self.system, self.command

    def public(self):
        out = {k: v for k, v in vars(self).items() if k != "trace"}
        out["seconds"] = round(self.seconds, 6)
        out["speed"] = round(self.speed, 4)
        out["cmd_s"] = {k: round(v, 6) for k, v in self.cmd_s.items()}
        out["probes"] = [round(v, 6) for v in self.probes]
        return out


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


PATH_KEYS = ("file", "saved", "transform_file")


def cli_call(system, argv, tracer=None):
    """Run one CLI command in this process and judge its report.

    Returns a JSON-ready dict; the digest leaves out the file paths."""
    command = argv[0]
    if tracer is not None:
        tracer.reset()
    out, err = io.StringIO(), io.StringIO()
    from triflat import cli

    start = CLOCK()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    seconds = CLOCK() - start
    text = out.getvalue()
    report = json.loads(text) if text.strip() else None
    reason = known.check_cli(system, command, code, report)
    if reason and not report and err.getvalue().strip():
        reason += f" ({err.getvalue().strip()[-300:]})"
    stripped = {k: v for k, v in (report or {}).items() if k not in PATH_KEYS}
    return {
        "exit": code,
        "s": seconds,
        "digest": digest(stripped) if report else None,
        "failure": reason,
        "trace": tracer.snapshot() if tracer is not None else None,
    }


def run_probed(job, budget_s, on_stop=None):
    """``isolate.run_isolated`` with speed probes taken while the job runs."""
    return isolate.run_isolated(job, budget_s, on_stop, tick=speed.probe,
                                tick_s=speed.DURING_S)


def run_cli_job(job, tracer=None):
    """One CLI command in a forked child, which starts with this process's
    caches: none for corpus-cli, the warmed ones for seed-sweep."""
    system, label, argv = job
    command = argv[0]
    if command == "transform":
        Path(argv[-1]).unlink(missing_ok=True)
    outcome = run_probed(lambda: cli_call(system, argv, tracer), CLI_BUDGET_S)
    res = outcome.result
    if res is not None:
        return Row(system, label, outcome.cpu_s, res["exit"], res["digest"],
                   {command: res["s"]}, res["failure"], outcome.maxrss_mb, res["trace"],
                   probes=outcome.ticks)
    if outcome.timed_out:
        return Row(system, label, outcome.elapsed_s, None, None, {}, "timeout",
                   outcome.maxrss_mb, timed_out=True, stopped_in=command, probes=outcome.ticks)
    return Row(system, label, outcome.cpu_s, None, None, {command: outcome.cpu_s},
               outcome.error, outcome.maxrss_mb, probes=outcome.ticks)


class CorpusCli:
    name = "corpus-cli"
    pass_s = 18.0

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.corpus = root / "src" / "triflat" / "corpus"
        self.seed = seed
        self.workdir = workdir

    def prepare(self):
        from triflat.sysfile import parse_sysfile  # parsing alone fills no cache

        systems = list(POSITIVES + known.NEGATIVES)
        for name in systems:
            path = self.corpus / f"{name}.sys"
            parse_sysfile(path.read_text(), name=name)
        random.Random(f"{self.name}|{self.seed}").shuffle(systems)
        self.derived = {"order": systems}
        self.jobs = []
        for name in systems:
            path = str(self.corpus / f"{name}.sys")
            mapfile = str(self.workdir / f"{name}.map.json")
            if name in known.NEGATIVES:
                self.jobs.append((name, "check", ["check", path]))
                continue
            self.jobs += [
                (name, "check", ["check", path]),
                (name, "flat-output", ["flat-output", path]),
                (name, "transform", ["transform", path, "--save", mapfile]),
            ]
            verify = (name, "verify", ["verify", path, "--transform", mapfile])
            self.jobs += [verify] * VERIFY_REPEATS
        return self.jobs

    def warm_up(self):
        pass

    def tolerated(self, row):
        return False

    def run_job(self, job, tracer=None):
        return run_cli_job(job, tracer)


# the ten instances of acceptance criterion 5: combos from Random(31), seed = index
CRITERION5_DRAW_SEED = 31
BUDGET_S = 15.0  # per criterion-5 instance; the slowest needs about 4.5 s
# Slow transforms, kept so that their cost and failures stay visible.  They
# take about 20 s, more than 30 s and minutes.  Each is stopped at
# TAIL_STOP_S, once its transform has started, and reports the stage it
# reached; a tail transform that gets under the budget then completes and
# lowers transform_s.  (Run to completion, the 20 s one moved job_max_s by
# a quartile spread of 0.25-0.27 over ten runs, too much for its bound.)
TAIL_STOP_S = 4.0
TAIL = [((1, 2, 5, 1), 11), ((0, 2, 4, 3), 19), ((0, 2, 5, 3), 12)]
TRANSFORM_STAGES = ("decompose", "normalize_first_core_equation",
                    "introduce_core_couplings", "rear_chains_to_integrators")


def criterion5_instances():
    rng = random.Random(CRITERION5_DRAW_SEED)
    combos = []
    while len(combos) < 10:
        combo = tuple(rng.choice(r) for r in ([0, 1, 2], [0, 1, 2], [3, 4, 5], [1, 2, 3]))
        if combo[2] == 3 and combo[0] == 0 and combo[1] == 0:
            continue
        combos.append(combo)
    return [(combo, index, BUDGET_S) for index, combo in enumerate(combos)]


def analyze(system, sp):
    """Chain, candidates and the best report, in the CLI's order."""
    from triflat.direction_search import (
        candidate_via_h, candidates_via_quadratic, compute_bracket_chain)
    from triflat.errors import NotApplicable
    from triflat.triform import triangular_form_check

    chain = compute_bracket_chain(system, sp)
    try:
        candidates = [candidate_via_h(system, chain, sp)]
    except NotApplicable:
        candidates = candidates_via_quadratic(system, chain, sp)
    reports = [triangular_form_check(system, c, sp, chain) for c in candidates]
    reports.sort(key=lambda r: not r.verdict)
    return reports[0]


def _announce_stages():
    """Make each transform stage report itself as progress (child only)."""
    import sys

    module = sys.modules["triflat.transform"]
    for name in TRANSFORM_STAGES:
        inner = getattr(module, name)

        def stage(*args, _inner=inner, _name=name, **kwargs):
            isolate.progress({"stage": f"transform:{_name}"})
            return _inner(*args, **kwargs)

        setattr(module, name, stage)


def pipeline(inst, sp, tracer=None):
    """check, flat-output, transform and verify on one instance (child side)."""
    from triflat.expr import Sym, to_str
    from triflat.flatout import flat_output_for_report
    from triflat.transform import transform_to_triangular, verify_transformation

    if tracer is not None:
        tracer.reset()
    _announce_stages()
    exp = known.for_instance(inst)
    cmd_s = {}
    def step(command, fn, repeats=1):
        isolate.progress({"stage": command})
        best = float("inf")
        for _ in range(repeats):
            start = CLOCK()
            value = fn()
            best = min(best, CLOCK() - start)
        cmd_s[command] = best
        isolate.progress({"done": command, "s": best})
        return value

    rep = step("check", lambda: analyze(inst.system, sp))
    fields = {"verdict": rep.verdict, "case": rep.case, "n2": rep.n2, "depth_n3": rep.depth,
              "chain_lengths": list(rep.chain_lengths) if rep.chain_lengths else None}
    result = {"cmd_s": cmd_s, "decision": fields}

    def finish(reason):
        result.update(failure=reason, digest=digest(fields),
                      trace=tracer.snapshot() if tracer is not None else None)
        return result

    reason = known.check_decision(fields, exp)
    if reason:
        return finish(f"check: {reason}")
    phi1 = Sym("y1") if rep.case == "NoX1" else None
    flat = step("flat-output", lambda: flat_output_for_report(rep, sp, phi1=phi1))
    fields["flat_output"] = [to_str(flat.phi1), to_str(flat.phi2)]
    res = step("transform", lambda: transform_to_triangular(inst.system, rep, flat, sp))
    fin = res.final
    fields["map"] = {k: to_str(v) for k, v in sorted(res.change.state_map.items())}
    fields["feedback"] = {k: to_str(v) for k, v in sorted(res.change.input_map.items())}
    ok = step("verify", lambda: verify_transformation(
        inst.system, res.change, fin.system, sp, tol=1e-7), VERIFY_REPEATS)
    final = {"chain_lengths": [len(c) for c in fin.chains], "structure_ok": fin.structure_ok,
             "core": len(fin.core), "rear_long": len(fin.rear_long),
             "rear_short": len(fin.rear_short)}
    fields["final"] = final
    reason = known.check_transform(final, bool(res.verified and ok), exp)
    return finish(f"transform: {reason}" if reason else None)


class Generated:
    name = "generated"
    pass_s = 20.0

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.seed = seed

    def prepare(self):
        from triflat.generator import triangular_template  # builds no cache
        from triflat.sampling import Sampler

        specs = criterion5_instances() + [(combo, g, TAIL_STOP_S) for combo, g in TAIL]
        random.Random(f"{self.name}|{self.seed}").shuffle(specs)
        sp = Sampler()
        self.jobs = [(triangular_template(*combo, seed=g), sp, budget)
                     for combo, g, budget in specs]
        self.derived = {"order": [inst.system.name for inst, _sp, _b in self.jobs]}
        self.tail = {triangular_template(*combo, seed=g).system.name for combo, g in TAIL}
        return self.jobs

    def warm_up(self):
        pass

    def tolerated(self, row):
        return row.timed_out and row.system in self.tail

    def run_job(self, job, tracer=None):
        inst, sp, budget = job
        on_stop = None
        if tracer is not None:
            def on_stop():
                tracer.flush_open()
                return tracer.snapshot()
        outcome = run_probed(lambda: pipeline(inst, sp, tracer), budget, on_stop)
        name = inst.system.name
        res = outcome.result
        if res is not None:
            return Row(name, "pipeline", outcome.cpu_s, None, res["digest"], res["cmd_s"],
                       res["failure"], outcome.maxrss_mb, res["trace"], probes=outcome.ticks)
        cmd_s = {p["done"]: p["s"] for p in outcome.progress if "done" in p}
        stages = [p["stage"] for p in outcome.progress if "stage" in p]
        reached = stages[-1] if stages else "start"
        running = next((c for c in COMMANDS if c not in cmd_s), COMMANDS[-1])
        if outcome.timed_out:
            return Row(name, "pipeline", outcome.elapsed_s, None, None, cmd_s,
                       f"timeout after {budget:g} s in {reached}", outcome.maxrss_mb,
                       outcome.stopped, timed_out=True, stopped_in=running,
                       probes=outcome.ticks)
        return Row(name, "pipeline", outcome.cpu_s, None, None, cmd_s,
                   f"{outcome.error} in {reached}", outcome.maxrss_mb, probes=outcome.ticks)


SWEEP_SEEDS = 2
SWEEP_SAMPLES = (8, 16)


class SeedSweep:
    name = "seed-sweep"
    pass_s = 18.0

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.corpus = root / "src" / "triflat" / "corpus"
        self.seed = seed
        self.workdir = workdir

    def prepare(self):
        from triflat.sysfile import load_sysfile

        for name in POSITIVES:
            load_sysfile(self.corpus / f"{name}.sys").system()
        rng = random.Random(f"{self.name}|{self.seed}")
        self.sampler_seeds = rng.sample(range(1_000_000), SWEEP_SEEDS)
        self.derived = {"sampler_seeds": self.sampler_seeds, "samples": list(SWEEP_SAMPLES)}
        self.jobs = []
        sweep = [(f" seed={s} samples={k}", ["--seed", str(s), "--samples", str(k)])
                 for s in self.sampler_seeds for k in SWEEP_SAMPLES]
        for name in POSITIVES:
            path = str(self.corpus / f"{name}.sys")
            mapfile = str(self.workdir / f"{name}.map.json")
            self.jobs += [(name, "check" + tag, ["check", path, *flags]) for tag, flags in sweep]
            self.jobs += [
                (name, "flat-output", ["flat-output", path]),
                (name, "transform", ["transform", path, "--save", mapfile]),
            ]
            self.jobs += [(name, "verify" + tag, ["verify", path, "--transform", mapfile, *flags])
                          for tag, flags in [("", [])] + sweep]
        return self.jobs

    def warm_up(self):
        """One untimed run in this process of every distinct command, so
        that the symbolic caches the forked jobs start from are full.

        The warm heap is then frozen: a collection during a timed job would
        otherwise walk every cached expression, which put 50-80 ms pauses
        into single 12 ms verify runs, depending on which job it hit."""
        seen = set()
        for system, _label, argv in self.jobs:
            if (system, argv[0]) not in seen:
                seen.add((system, argv[0]))
                if argv[0] == "transform":
                    Path(argv[-1]).unlink(missing_ok=True)
                cli_call(system, argv)
        gc.collect()
        gc.freeze()

    def tolerated(self, row):
        return False

    def run_job(self, job, tracer=None):
        return run_cli_job(job, tracer)


WORKLOADS = {w.name: w for w in (CorpusCli, Generated, SeedSweep)}
