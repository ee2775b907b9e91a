"""Per-layer timing of triflat from outside the program.

``Tracer.install()`` replaces every binding of the wrapped functions in the
loaded ``triflat.*`` modules (the defining module and every module that
imported the name) with a timing wrapper, and ``restore()`` puts the
originals back.  Methods are wrapped on their class.  ``expr.evaluate`` is
wrapped only where other modules bind it: its own recursion goes through
the defining module's name and stays unwrapped.

For each wrapped function the tracer keeps ``calls``, ``s`` (inclusive
time of outermost calls, so recursion is not counted twice) and
``self_s`` (time not spent inside another wrapped call).  A few probes
add counters: simplify cache hits and Lie-bracket memo hits (read from the
module's cache before the call), successful returns of functions that
signal "not found" by raising, points drawn from ``Sampler.point_stream``
and evaluation failures by ``EvalError.kind``.  The resample counters see
only the ``EvalError`` exceptions that leave a wrapped call: the near-singular
values that ``is_zero_generic`` and ``all_zero_generic`` reject inside
their own frame are not counted.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time

# layer -> [(module, qualified name)]
LAYERS = {
    "simplify": [("simplify", "simplify"), ("simplify", "differentiate")],
    "sampling": [
        ("expr", "evaluate"),
        ("sampling", "MatrixSampler.at"),
        ("sampling", "Sampler.admissible_points"),
        ("sampling", "numeric_rank"),
        ("sampling", "is_zero_generic"),
        ("sampling", "all_zero_generic"),
    ],
    "elimination": [("elimination", "row_reduce"), ("elimination", "nullspace")],
    "diffgeo": [
        ("diffgeo", "lie_bracket"),
        ("diffgeo", "cauchy_characteristics"),
        ("diffgeo", "basis"),
        ("diffgeo", "generic_rank"),
        ("diffgeo", "annihilator"),
    ],
    "decision": [
        ("direction_search", "compute_bracket_chain"),
        ("direction_search", "candidate_via_h"),
        ("direction_search", "candidates_via_quadratic"),
        ("triform", "triangular_form_check"),
    ],
    "flatout": [
        ("integrate", "integrate_codistribution"),
        ("flatout", "flat_output_for_report"),
    ],
    "transform": [
        ("transform", "decompose"),
        ("transform", "normalize_first_core_equation"),
        ("transform", "introduce_core_couplings"),
        ("transform", "rear_chains_to_integrators"),
        ("transform", "verify_transformation"),
    ],
    "sysfile": [("sysfile", "load_sysfile")],
}
WRAPPED = [f"{mod}.{name}" for specs in LAYERS.values() for mod, name in specs]
TOP_LEVEL_ONLY = {"expr.evaluate"}
# functions that report "no result" by raising; ok_ratio = returns / calls
OK_RATIO = ("direction_search.candidate_via_h", "integrate.integrate_codistribution")
COUNTS = ["sampling.points_drawn", "sampling.resamples.division", "sampling.resamples.domain"]
EXTRA = [
    "simplify.cache_hit_ratio",
    "diffgeo.lie_bracket.memo_hit_ratio",
    "direction_search.candidate_via_h.ok_ratio",
    "integrate.integrate_codistribution.ok_ratio",
] + COUNTS
METRICS = [f"{k}.{part}" for k in WRAPPED for part in ("calls", "s", "self_s")] + EXTRA


def unit(metric):
    if metric.endswith(".calls") or metric in COUNTS:
        return "count"
    if metric.endswith((".s", "_s")):
        return "s"
    return "ratio"


def triflat_modules():
    """Every ``triflat`` module, imported if not loaded yet."""
    pkg = importlib.import_module("triflat")
    for info in pkgutil.iter_modules(pkg.__path__, "triflat."):
        importlib.import_module(info.name)
    return {n: m for n, m in sys.modules.items() if n == "triflat" or n.startswith("triflat.")}


def resolve(key):
    """(owner, attribute, original) for a wrapped function's definition."""
    mod, _, qual = key.partition(".")
    owner = sys.modules[f"triflat.{mod}"]
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


def module_bindings(modules, func, skip=None):
    """(module, name) pairs of every module attribute bound to ``func``."""
    return [
        (m, name)
        for m in modules.values()
        if m is not skip
        for name, value in list(vars(m).items())
        if value is func
    ]


class Tracer:
    def __init__(self):
        self.counts = {}
        self.oks = {}
        self.reset()
        self._patches = []  # (owner, attribute, original)
        self._stack = []  # time spent in wrapped callees, one entry per open call
        self._opened = []  # (key, start) per open call, for flushing at a stop
        self._depth = {}  # key -> open calls, to find outermost ones
        self._last_error = None

    def reset(self):
        """Zero every figure (in place: the wrappers hold these dicts)."""
        self.calls = dict.fromkeys(WRAPPED, 0)
        self.incl = dict.fromkeys(WRAPPED, 0.0)
        self.self_s = dict.fromkeys(WRAPPED, 0.0)
        self.counts.update(dict.fromkeys(
            ("simplify.hits", "lie_bracket.hits", "points_drawn", "division", "domain"), 0))
        self.oks.update(dict.fromkeys(OK_RATIO, 0))

    # -- installation ------------------------------------------------------
    def install(self):
        modules = triflat_modules()
        from triflat.errors import EvalError

        self._eval_error = EvalError
        simplify_mod = sys.modules["triflat.simplify"]
        diffgeo_mod = sys.modules["triflat.diffgeo"]
        probes = {
            "simplify.simplify": lambda a, kw: "simplify.hits"
            if a[0] in getattr(simplify_mod, "_CACHE", ()) else None,
            "diffgeo.lie_bracket": lambda a, kw: "lie_bracket.hits"
            if (a[0].frame, a[0].components, a[1].components)
            in getattr(diffgeo_mod, "_BRACKET_MEMO", ()) else None,
        }
        for key in WRAPPED:
            owner, attr, func = resolve(key)
            wrapper = self._wrap(key, func, probes.get(key))
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            skip = owner if key in TOP_LEVEL_ONLY else None
            for m, name in module_bindings(modules, func, skip):
                self._patch(m, name, wrapper)
        sampler_cls = sys.modules["triflat.sampling"].Sampler
        stream = sampler_cls.__dict__["point_stream"]
        counts = self.counts

        def point_stream(sp, syms):
            for point in stream(sp, syms):
                counts["points_drawn"] += 1
                yield point

        self._patch(sampler_cls, "point_stream", point_stream)
        return self

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    # -- the wrapper -------------------------------------------------------
    def _wrap(self, key, func, probe):
        stack, opened, depth = self._stack, self._opened, self._depth
        counts, oks = self.counts, self.oks
        clock = time.perf_counter
        track_ok = key in OK_RATIO
        depth[key] = 0

        def wrapper(*args, **kwargs):
            if probe is not None:
                hit = probe(args, kwargs)
                if hit:
                    counts[hit] += 1
            depth[key] += 1
            stack.append(0.0)
            start = clock()
            opened.append((key, start))
            try:
                out = func(*args, **kwargs)
            except self._eval_error as e:
                if e is not self._last_error:
                    self._last_error = e
                    if e.kind in counts:
                        counts[e.kind] += 1
                raise
            finally:
                opened.pop()
                self._close(key, clock() - start)
            if track_ok:
                oks[key] += 1
            return out

        wrapper.__wrapped__ = func
        wrapper.traced_key = key
        wrapper.__name__ = getattr(func, "__name__", key)
        wrapper.__doc__ = getattr(func, "__doc__", None)
        return wrapper

    def _close(self, key, dt):
        inner = self._stack.pop()
        self._depth[key] -= 1
        self.calls[key] += 1
        self.self_s[key] += dt - inner
        if self._depth[key] == 0:
            self.incl[key] += dt
        if self._stack:
            self._stack[-1] += dt

    def flush_open(self):
        """Account for calls still open, as if they returned now (used when a
        job is stopped at its budget)."""
        now = time.perf_counter()
        while self._opened:
            key, start = self._opened.pop()
            self._close(key, now - start)

    # -- results -----------------------------------------------------------
    def snapshot(self):
        return {"calls": dict(self.calls), "s": dict(self.incl), "self_s": dict(self.self_s),
                "counts": dict(self.counts), "oks": dict(self.oks)}

    def merge(self, snap):
        for k in WRAPPED:
            self.calls[k] += snap["calls"][k]
            self.incl[k] += snap["s"][k]
            self.self_s[k] += snap["self_s"][k]
        for k, v in snap["counts"].items():
            self.counts[k] += v
        for k, v in snap["oks"].items():
            self.oks[k] += v

    def metrics(self):
        out = {}
        for k in WRAPPED:
            out[f"{k}.calls"] = self.calls[k]
            out[f"{k}.s"] = self.incl[k]
            out[f"{k}.self_s"] = self.self_s[k]

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        out["simplify.cache_hit_ratio"] = ratio(c["simplify.hits"], self.calls["simplify.simplify"])
        out["diffgeo.lie_bracket.memo_hit_ratio"] = ratio(
            c["lie_bracket.hits"], self.calls["diffgeo.lie_bracket"])
        for k in OK_RATIO:
            out[f"{k}.ok_ratio"] = ratio(self.oks[k], self.calls[k])
        out["sampling.points_drawn"] = c["points_drawn"]
        out["sampling.resamples.division"] = c["division"]
        out["sampling.resamples.domain"] = c["domain"]
        return out
