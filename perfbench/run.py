"""triflat benchmark: time the four commands users wait on, check every answer.

    python3 perfbench/run.py --workload corpus-cli --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The package is imported from ``src/``
of that checkout and nowhere else.

Workloads (see ``workloads.py``): ``corpus-cli`` (cold CLI runs on the
bundled corpus), ``generated`` (normal-form instances, each under a time
budget) and ``seed-sweep`` (jobs forked from a warm process, numeric work
over sampler seeds).

A run makes a fixed number of passes over the workload's job list:
``--seconds`` divided by the workload's nominal pass length, rounded, at
least one.  The count depends on the arguments alone, never on the speed
being measured, so every job gets the same number of runs.  A job's time
is the CPU time of the process that ran it (``workloads.CLOCK``), scaled
to a reference machine speed by the probes taken around and during it
(``speed.py``), and its fastest run counts (other load on the machine only
ever adds time).  A metric sums or maxes those times over one pass; the
result file keeps each run's raw seconds, probes and scale:

- ``setup_s``: CPU time of import plus input preparation in a fresh
  interpreter, scaled like a job, median of ``SETUP_PROBES`` of them;
- ``wall_s``: the job times of a pass summed;
- ``check_s``, ``flat_output_s``, ``transform_s``, ``verify_s``: time per
  command summed over the pass (a job stopped at its budget adds the rest
  of the budget to the command it was in);
- ``job_max_s``: the slowest job of the pass;
- ``peak_rss_mb``: peak resident memory of the process that ran a job;
- ``failed_frac``: failed jobs / attempted jobs (on the summary lines and
  in the result file; the last line carries it as ``failed``/``attempted``).

With ``--trace 1`` the run makes one untraced pass and one traced pass (see
``tracer.py``) and prints the per-layer metrics plus
``trace.overhead_frac``; the traced verdicts and digests must equal the
untraced ones.

A job fails on an exception, a timeout, exit code 3, or an answer that
differs from ``known.py``.  Any failure makes the run incorrect, except
the ones the workload tolerates: a ``generated`` tail instance stopped at
its budget.

Every run writes ``.perfbench_out/<workload>-seed<seed>-trace<t>.json``
with the environment, one row per job and every failure.  The last line of
standard output is the result object.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"  # nproc is small; one process, one BLAS thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7

UNITS = {
    "setup_s": "s", "wall_s": "s", "check_s": "s", "flat_output_s": "s",
    "transform_s": "s", "verify_s": "s", "job_max_s": "s", "peak_rss_mb": "MB",
}
COMMAND_METRIC = {"check": "check_s", "flat-output": "flat_output_s",
                  "transform": "transform_s", "verify": "verify_s"}


def import_package():
    """Import triflat from this checkout's src/, or exit with an error."""
    if not (SRC / "triflat" / "__init__.py").is_file():
        sys.exit(f"perfbench: no triflat package under {SRC}")
    sys.path.insert(0, str(SRC))
    import triflat

    if Path(triflat.__file__).resolve().parent != (SRC / "triflat").resolve():
        sys.exit(f"perfbench: triflat imported from {triflat.__file__}, not {SRC}")
    import triflat.cli  # noqa: F401  (the import users pay for)


def setup(workload_cls, seed, workdir):
    """Import and input preparation; returns the prepared workload."""
    import_package()
    workload = workload_cls(ROOT, seed, workdir)
    workload.prepare()
    return workload


def make_workdir(workload, seed):
    """A new directory of this run's own under ``OUT/work``.

    Runs of one seed in one checkout at the same time must not share their
    files, and a pid does not tell them apart: runs in separate PID
    namespaces can have the same one."""
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=OUT / "work"))


def write_record(path, record):
    """Write the result file whole, so that a run writing the same file at
    the same time cannot interleave with it."""
    with tempfile.NamedTemporaryFile("w", dir=path.parent, suffix=".tmp", delete=False) as fh:
        json.dump(record, fh, indent=1)
    os.replace(fh.name, path)


def current_cpu():
    """The CPU this process is running on now, or None if unknown."""
    try:
        with open("/proc/self/stat") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def pin_to_one_cpu():
    """Keep this process and the children it forks to one CPU, so that a
    probe gauges the CPU its job runs on.  The CPU is the one the process
    is on now: runs started side by side then keep to different CPUs where
    the scheduler had placed them apart."""
    cpus = os.sched_getaffinity(0)
    cpu = current_cpu()
    os.sched_setaffinity(0, {cpu if cpu in cpus else min(cpus)})


def measure_setup(args):
    """Median setup time over fresh interpreters, each scaled like a job by
    the speed probes taken around it."""
    import speed

    times = []
    for _ in range(SETUP_PROBES):
        before = speed.probe()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        seconds = float(proc.stdout.strip().splitlines()[-1])
        times.append(seconds * speed.factor(before, speed.probe()))
    return statistics.median(times), times


def pass_count(workload_cls, seconds):
    return max(1, round(seconds / workload_cls.pass_s))


def run_jobs(workload, jobs, tracer=None):
    """Run the jobs in order, probing the machine's speed before each job
    and after the last."""
    import speed

    rows, probes = [], [speed.probe()]
    for job in jobs:
        rows.append(workload.run_job(job, tracer))
        probes.append(speed.probe())
    for row, before, after in zip(rows, probes, probes[1:]):
        row.speed = speed.factor(before, after, row.probes)
    return rows


def job_seconds(row):
    """A job's scaled time; a stopped job took its budget at any speed."""
    return row.seconds if row.timed_out else row.seconds * row.speed


def command_seconds(row):
    """Scaled time per command of one job.  The command a stopped job was
    in takes the rest of its budget, so the job's commands sum to it."""
    out = {c: s * row.speed for c, s in row.cmd_s.items()}
    if row.timed_out:
        out[row.stopped_in] = row.seconds - sum(out.values())
    return out


def judge(workload, rows, mismatch):
    """Whether a run is correct: no trace mismatch and no failure the
    workload does not tolerate."""
    return not mismatch and all(workload.tolerated(r) for r in rows if r.failure)


def pass_metrics(rows):
    """End-to-end metrics of one pass, each job at its fastest scaled run.

    The jobs are deterministic, so their runs differ only by what other
    load on the machine added; the fastest run is the steadiest estimate."""
    by_job = {}
    for r in rows:
        by_job.setdefault(r.key, []).append(r)
    out = {m: 0.0 for m in UNITS if m != "setup_s"}
    for runs in by_job.values():
        seconds = min(job_seconds(r) for r in runs)
        out["wall_s"] += seconds
        out["job_max_s"] = max(out["job_max_s"], seconds)
        per_run = [command_seconds(r) for r in runs]
        for command, metric in COMMAND_METRIC.items():
            if any(command in c for c in per_run):
                out[metric] += min(c.get(command, 0.0) for c in per_run)
    out["peak_rss_mb"] = max(r.rss_mb for r in rows)
    return out


def source_identity():
    """The commit, when there is one, and a hash of every file under src/."""
    files = sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    h = hashlib.sha256()
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    commit = None  # a checkout without .git is identified by the source hash alone
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "src_sha256": h.hexdigest()}


def environment(args, workload):
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "derived": workload.derived,
        "seconds": args.seconds,
        "trace": args.trace,
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        **source_identity(),
    }


def measure_traced(workload):
    """One untraced and one traced pass: per-layer metrics and mismatches."""
    from tracer import Tracer, unit

    rows = run_jobs(workload, workload.jobs)
    tracer = Tracer()
    with tracer:
        tracer.reset()
        traced = run_jobs(workload, workload.jobs, tracer)
    for r in traced:
        if r.trace:  # figures recorded in a child process
            tracer.merge(r.trace)
    layer = tracer.metrics()
    # a job stopped at its budget takes the budget either way; leave it out
    both = [(a, b) for a, b in zip(rows, traced) if not (a.timed_out or b.timed_out)]
    layer["trace.overhead_frac"] = (
        sum(b.seconds for _a, b in both) / sum(a.seconds for a, _b in both) - 1.0)
    mismatch = [
        f"{a.system} {a.command}: untraced {a.digest}/{a.exit}, traced {b.digest}/{b.exit}"
        for a, b in both if (a.key, a.digest, a.exit) != (b.key, b.digest, b.exit)
    ]
    metrics = {k: {"value": v, "unit": unit(k)} for k, v in layer.items()}
    return metrics, rows + traced, mismatch


def parse_args(argv=None):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def hash_seed(seed):
    """The ``PYTHONHASHSEED`` of a run, drawn from the workload seed.

    The program iterates sets of expressions, whose order follows string
    hashes, so the hash seed sets the order in which it tries candidates,
    and for a few seeds whether it finds one: ``flat-output`` and
    ``transform`` on sqrt.sys exit 3 under ``PYTHONHASHSEED=216``.  Drawn
    from the workload seed, it makes a run repeatable and still varies from
    seed to seed, as it does between users' processes."""
    return str(random.Random(f"hash|{seed}").randrange(2**32))


def run_under_hash_seed(args):
    """Start this program again under the run's hash seed, unless it has it."""
    want = hash_seed(args.seed)
    if os.environ.get("PYTHONHASHSEED") != want:
        os.environ["PYTHONHASHSEED"] = want
        sys.stdout.flush()
        os.execv(sys.executable, [sys.executable, *sys.argv])


def main(argv=None):
    import workloads

    args = parse_args(argv)
    cls = workloads.WORKLOADS[args.workload]

    if args.setup_probe:
        start = time.process_time()
        setup(cls, args.seed, OUT / "work" / "probe")  # only names files there
        print(time.process_time() - start)
        return 0

    pin_to_one_cpu()
    workdir = make_workdir(args.workload, args.seed)
    try:
        workload = setup(cls, args.seed, workdir)
        env = environment(args, workload)
        if not args.trace:
            setup_s, env["setup_samples"] = measure_setup(args)
        workload.warm_up()
        start = time.perf_counter()
        if args.trace:
            passes = 1
            metrics, rows, mismatch = measure_traced(workload)
        else:
            passes = pass_count(cls, args.seconds)
            rows = run_jobs(workload, workload.jobs * passes)
            values = {"setup_s": setup_s, **pass_metrics(rows)}
            metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in UNITS}
            mismatch = []
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in rows if r.failure]
    correct = judge(workload, rows, mismatch)
    record = {
        "env": env,
        "passes": passes,
        "measured_s": elapsed,
        "metrics": metrics,
        "failed_frac": len(failed) / len(rows),
        "failures": [{"system": r.system, "command": r.command, "reason": r.failure,
                      "tolerated": workload.tolerated(r)}
                     for r in failed],
        "trace_mismatches": mismatch,
        "rows": [r.public() for r in rows],
    }
    write_record(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record)
    for r in failed:
        print(f"FAILED {r.system} {r.command}: {r.failure}", file=sys.stderr)
    for m in mismatch:
        print(f"TRACE MISMATCH {m}", file=sys.stderr)
    for k, v in metrics.items():
        print(f"{k} = {v['value']:.6g} {v['unit']}")
    print(f"failed_frac = {record['failed_frac']:.6g} ratio ({len(failed)}/{len(rows)} jobs, "
          f"{passes} pass(es))")
    print(json.dumps({"correct": correct, "attempted": len(rows), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    run_under_hash_seed(parse_args())
    sys.exit(main())
