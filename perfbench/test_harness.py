"""Tests of the benchmark harness itself (not part of the package's suite).

    python3 -m pytest -q perfbench

The last test runs every workload traced, so the file takes a few minutes.
"""

import json
import subprocess
import sys
import time

import pytest

import run

run.import_package()

import isolate  # noqa: E402
import known  # noqa: E402
import speed  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402

TEMPLATE = str(run.SRC / "triflat" / "corpus" / "template.sys")
# No workload input has a denominator that vanishes at a sampled point, so
# this counter stays 0; test_resamples_and_points_counted shows it counts.
ZERO_ON_ALL_WORKLOADS = ("sampling.resamples.division",)


def _bindings():
    """key -> (original, [(owner, name)]) for every wrapped function."""
    modules = tr.triflat_modules()
    out = {}
    for key in tr.WRAPPED:
        owner, attr, func = tr.resolve(key)
        if isinstance(owner, type):
            places = [(owner, attr)]
        else:
            skip = owner if key in tr.TOP_LEVEL_ONLY else None
            places = tr.module_bindings(modules, func, skip)
        out[key] = (func, places)
    return out


def test_every_binding_wrapped_then_restored():
    before = _bindings()
    assert all(places for _func, places in before.values())
    with tr.Tracer():
        for key, (func, places) in before.items():
            for owner, name in places:
                bound = owner.__dict__[name]
                assert bound is not func and bound.__wrapped__ is func, (key, owner, name)
        modules = tr.triflat_modules()
        for key, (func, _places) in before.items():
            owner = tr.resolve(key)[0]
            skip = owner if key in tr.TOP_LEVEL_ONLY else None
            assert not tr.module_bindings(modules, func, skip), key
    for key, (func, places) in before.items():
        for owner, name in places:
            assert owner.__dict__[name] is func, (key, owner, name)
    classes = [tr.resolve(k)[0] for k in tr.WRAPPED if isinstance(tr.resolve(k)[0], type)]
    spaces = list(tr.triflat_modules().values()) + classes
    assert not any(hasattr(v, "traced_key") for m in spaces for v in vars(m).values())
    assert not hasattr(sys.modules["triflat.sampling"].Sampler.point_stream, "traced_key")


def test_evaluate_recursion_stays_unwrapped():
    import triflat.expr as expr

    original = expr.evaluate
    with tr.Tracer():
        assert expr.evaluate is original
        assert sys.modules["triflat.sampling"].evaluate is not original


def test_nested_calls_split_self_time():
    t = tr.Tracer()
    with t:
        from triflat.parser import parse_expr
        from triflat.simplify import differentiate

        differentiate(parse_expr("x*y^2 + sin(x)"), "x")
    calls, incl, own = t.calls, t.incl, t.self_s
    assert calls["simplify.differentiate"] == 1 and calls["simplify.simplify"] >= 1
    assert own["simplify.differentiate"] < incl["simplify.differentiate"]
    assert incl["simplify.differentiate"] >= incl["simplify.simplify"]


def test_resamples_and_points_counted():
    from triflat.errors import EvalError, SamplerExhausted
    from triflat.parser import parse_expr
    from triflat.sampling import Sampler

    t = tr.Tracer()
    with t:
        sampling = sys.modules["triflat.sampling"]
        with pytest.raises(EvalError):
            sampling.evaluate(parse_expr("1/x"), {"x": 0.0})
        sp = Sampler(domains={"x": (-2.0, -1.0)}, max_resamples=5)
        with pytest.raises(SamplerExhausted):
            sampling.is_zero_generic(parse_expr("log(x)"), sp)
    m = t.metrics()
    assert m["sampling.resamples.division"] == 1
    assert m["sampling.resamples.domain"] == sp.samples + 5
    assert m["sampling.points_drawn"] == sp.samples + 6


CLI_JOBS = [("template", ["check", TEMPLATE]), ("template", ["flat-output", TEMPLATE])]


def test_traced_cli_reports_equal_untraced():
    untraced = [isolate.run_isolated(lambda j=j: workloads.cli_call(*j), 60).result
                for j in CLI_JOBS]
    t = tr.Tracer()
    with t:
        traced = [isolate.run_isolated(lambda j=j: workloads.cli_call(*j, tracer=t), 60).result
                  for j in CLI_JOBS]
    for a, b in zip(untraced, traced):
        assert (a["exit"], a["digest"], a["failure"]) == (b["exit"], b["digest"], b["failure"])
        assert a["failure"] is None
        assert b["trace"]["calls"]["triform.triangular_form_check"] == 1


def test_traced_pipeline_equals_untraced():
    from triflat.generator import triangular_template
    from triflat.sampling import Sampler

    inst = triangular_template(2, 0, 3, 1, seed=4)
    job = lambda tracer=None: workloads.pipeline(inst, Sampler(seed=5), tracer)  # noqa: E731
    plain = isolate.run_isolated(job, 60)
    t = tr.Tracer()
    with t:
        traced = isolate.run_isolated(lambda: job(t), 60)
    assert plain.result["failure"] is None
    assert plain.result["digest"] == traced.result["digest"]
    assert traced.result["trace"]["calls"]["transform.decompose"] == 1
    stages = [p["stage"] for p in plain.progress if "stage" in p]
    assert stages[:2] == ["check", "flat-output"] and "transform:decompose" in stages


def test_stopped_child_reports_progress_and_trace():
    def job():
        isolate.progress({"stage": "spin"})
        while True:
            pass

    out = isolate.run_isolated(job, 0.5, on_stop=lambda: {"stopped": True})
    assert out.timed_out and out.result is None
    assert out.progress == [{"stage": "spin"}] and out.stopped == {"stopped": True}


def test_speed_probed_while_the_child_runs():
    def job():
        end = time.process_time() + 0.4
        while time.process_time() < end:
            pass
        return "done"

    out = isolate.run_isolated(job, 5, tick=lambda: 0.1, tick_s=0.1)
    assert out.result == "done" and out.ticks and set(out.ticks) == {0.1}
    assert out.cpu_s >= 0.4
    assert speed.factor(0.1, 0.1, out.ticks) == pytest.approx(speed.REF_S / 0.1)


def test_hash_seed_drawn_from_the_workload_seed():
    assert run.hash_seed(7) == run.hash_seed(7) != run.hash_seed(8)
    assert 0 <= int(run.hash_seed(7)) < 2**32


def test_known_answers_reject_a_wrong_report():
    good = {"verdict": True, "case": "TwoChains", "n2": 3, "depth_n3": 1, "chain_lengths": [1, 1]}
    assert known.check_decision(good, known.POSITIVES["vtol"]) is None
    bad = dict(good, n2=4)
    assert "n2" in known.check_decision(bad, known.POSITIVES["vtol"])
    assert known.check_cli("chained4", "check", 0, {"verdict": True})
    assert known.check_cli("sqrt", "transform", 3, None)


def test_fast_exit3_job_fails_the_run(tmp_path, monkeypatch):
    import triflat.cli

    monkeypatch.setattr(triflat.cli, "main", lambda argv: 3)  # gives up at once
    for cls in (workloads.CorpusCli, workloads.SeedSweep):
        wl = cls(run.ROOT, 1, tmp_path)
        wl.prepare()
        row = wl.run_job(("sqrt", "transform", ["transform", TEMPLATE, "--save",
                                                str(tmp_path / "map.json")]))
        assert row.exit == 3 and row.failure == "exit 3, expected 0"
        assert not run.judge(wl, [row], [])


def test_runs_of_one_seed_get_their_own_workdir(tmp_path, monkeypatch):
    # a shared one let a run delete the transform files of another
    monkeypatch.setattr(run, "OUT", tmp_path)
    first, second = run.make_workdir("corpus-cli", 1), run.make_workdir("corpus-cli", 1)
    assert first != second and first.is_dir() and second.is_dir()


def test_only_stopped_tail_instances_are_tolerated():
    wl = workloads.Generated(run.ROOT, 1, None)
    wl.prepare()
    tail = next(iter(wl.tail))
    normal = next(inst.system.name for inst, _sp, _b in wl.jobs
                  if inst.system.name not in wl.tail)

    def row(system, timed_out, failure):
        return workloads.Row(system, "pipeline", 1.0, None, None, {}, failure,
                             timed_out=timed_out)

    assert run.judge(wl, [row(tail, True, "timeout"), row(normal, False, None)], [])
    assert not run.judge(wl, [row(tail, False, "PipelineError in transform")], [])
    assert not run.judge(wl, [row(normal, True, "timeout")], [])
    assert not run.judge(wl, [row(normal, False, None)], ["a trace mismatch"])


def test_jobs_scaled_stopped_jobs_take_their_budget():
    class Stub:
        def run_job(self, job, tracer=None):
            if job == "stopped":  # check finished, stopped in transform at a 1 s budget
                return workloads.Row(job, "pipeline", 1.0, None, None, {"check": 0.01},
                                     timed_out=True, stopped_in="transform")
            return workloads.Row(job, "check", 0.01, 0, "d", {"check": 0.01})

    done, stopped = run.run_jobs(Stub(), ["done", "stopped"])
    assert speed.factor(2 * speed.REF_S, 2 * speed.REF_S) == 0.5
    m = run.pass_metrics([done, stopped])
    assert m["check_s"] == pytest.approx(0.01 * (done.speed + stopped.speed))
    assert m["transform_s"] == pytest.approx(1.0 - 0.01 * stopped.speed)
    assert m["wall_s"] == pytest.approx(0.01 * done.speed + 1.0)
    assert m["job_max_s"] == 1.0


def test_every_layer_metric_nonzero_somewhere():
    seen = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", name,
             "--seed", "3", "--seconds", "1", "--trace", "1"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr[-2000:]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"], proc.stdout[-2000:]
        assert set(result["metrics"]) == set(tr.METRICS) | {"trace.overhead_frac"}
        for k, v in result["metrics"].items():
            seen[k] = seen.get(k, 0) or v["value"]
    assert [k for k, v in seen.items() if not v] == list(ZERO_ON_ALL_WORKLOADS)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
