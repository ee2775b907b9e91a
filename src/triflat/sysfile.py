"""Line-oriented system-definition files.

Sections: [states], [inputs], [drift], [b1], [b2], [params], [domain],
[hints]; '#' starts a comment.  Component sections use ``name = expression``
lines in the package expression grammar; [params] entries are either bare
symbols (sampled) or ``name = value`` (fixed); [domain] entries read
``name = lo : hi`` and name no fixed parameter.  A component, a domain and
``phi1`` may each be given once.  A ``general = true`` line in [inputs]
declares a general (non-affine) system whose drift may mention the input
symbols; it is made affine by prolonging every control once, and no
[b1]/[b2] sections are allowed then.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .errors import ExprSyntaxError, TriflatError
from .expr import Expr, Sym, ZERO, free_symbols
from .parser import parse_expr
from .sampling import Sampler
from .systems import AffineSystem, make_affine, vector_field


class SysFileError(TriflatError):
    def __init__(self, message, line_no=None):
        where = f" (line {line_no})" if line_no else ""
        super().__init__(message + where)
        self.line_no = line_no


@dataclass
class SystemDefinition:
    name: str
    states: List[str]
    inputs: List[str]
    drift: Dict[str, Expr]
    b1: Dict[str, Expr]
    b2: Dict[str, Expr]
    params: Dict[str, Optional[float]]  # value None: sampled symbol
    domains: Dict[str, Tuple[float, float]]
    hints: List[Expr] = field(default_factory=list)
    phi1: Optional[Expr] = None
    general: bool = False

    def system(self) -> AffineSystem:
        if self.general:
            rhs = [self.drift.get(x, ZERO) for x in self.states]
            return make_affine(
                tuple(self.states),
                rhs,
                tuple(self.inputs),
                params=tuple(self.params),
                name=self.name,
            )
        frame = tuple(self.states)
        return AffineSystem(
            frame=frame,
            drift=vector_field(frame, self.drift),
            b1=vector_field(frame, self.b1),
            b2=vector_field(frame, self.b2),
            input_syms=tuple(self.inputs),
            params=tuple(self.params),
            name=self.name,
        )

    def sampler(self, seed=42, samples=16, tol=1e-9) -> Sampler:
        domains = dict(self.domains)
        for p, v in self.params.items():
            if v is not None:
                eps = max(abs(v) * 1e-9, 1e-12)
                domains[p] = (v - eps, v + eps)
        return Sampler(seed=seed, samples=samples, tol=tol, domains=domains)


def check_names(*groups):
    """Every name must read back through the grammar as its own symbol, and
    no name may appear twice within or across the groups."""
    names = [name for group in groups for name in group]
    for name in names:
        try:
            named = parse_expr(name) == Sym(name)
        except ExprSyntaxError:
            named = False
        if not named:
            raise SysFileError(f"{name!r} is not an identifier")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise SysFileError(f"states, inputs and parameters must be distinct: {repeated}")


_SECTIONS = ("states", "inputs", "drift", "b1", "b2", "params", "domain", "hints")


def parse_sysfile(text: str, name: str = "system") -> SystemDefinition:
    section = None
    data = {s: [] for s in _SECTIONS}
    meta = {"name": name, "general": False}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise SysFileError(f"unknown section [{section}]", line_no)
            continue
        if section is None:
            if "=" in line:
                key, val = (p.strip() for p in line.split("=", 1))
                if key == "name":
                    meta["name"] = val
                    continue
            raise SysFileError("content before the first section", line_no)
        data[section].append((line_no, line))
    return _assemble(data, meta)


def _assemble(data, meta) -> SystemDefinition:
    states = []
    for line_no, line in data["states"]:
        states.extend(line.replace(",", " ").split())
    inputs = []
    general = False
    for line_no, line in data["inputs"]:
        if "=" in line:
            key, val = (p.strip() for p in line.split("=", 1))
            if key == "general":
                general = val.lower() in ("1", "true", "yes")
                continue
            raise SysFileError("unexpected assignment in [inputs]", line_no)
        inputs.extend(line.replace(",", " ").split())
    if len(inputs) != 2:
        raise SysFileError(f"exactly two inputs required, got {len(inputs)}")
    if not states:
        raise SysFileError("no states declared")

    def component_map(key):
        out = {}
        for line_no, line in data[key]:
            if "=" not in line:
                raise SysFileError(f"expected 'state = expression' in [{key}]", line_no)
            sym, text = (p.strip() for p in line.split("=", 1))
            if sym not in states:
                raise SysFileError(f"unknown state {sym!r} in [{key}]", line_no)
            if sym in out:
                raise SysFileError(f"repeated component {sym!r} in [{key}]", line_no)
            out[sym] = _expression(text, line_no)
        return out

    drift = component_map("drift")
    b1 = component_map("b1")
    b2 = component_map("b2")
    if general and (b1 or b2):
        raise SysFileError("a general system must not declare [b1]/[b2]")

    declared = []
    for line_no, line in data["params"]:
        if "=" in line:
            sym, val = (p.strip() for p in line.split("=", 1))
            try:
                declared.append((sym, float(val)))
            except ValueError:
                raise SysFileError(f"bad parameter value {val!r}", line_no) from None
        else:
            declared.extend((sym, None) for sym in line.replace(",", " ").split())
    check_names(states, inputs, [sym for sym, _ in declared])
    params: Dict[str, Optional[float]] = dict(declared)
    names = {*states, *inputs, *params}

    domains = {}
    for line_no, line in data["domain"]:
        if "=" not in line or ":" not in line:
            raise SysFileError("expected 'name = lo : hi' in [domain]", line_no)
        sym, rng = (p.strip() for p in line.split("=", 1))
        lo_s, hi_s = (p.strip() for p in rng.split(":", 1))
        try:
            lo, hi = float(lo_s), float(hi_s)
        except ValueError:
            raise SysFileError("domain bounds must be numbers", line_no) from None
        if not -math.inf < lo < hi < math.inf:
            raise SysFileError("domain must be finite with positive length", line_no)
        if sym not in names:
            raise SysFileError(f"[domain] names {sym!r}, which is no state, input or "
                               "parameter", line_no)
        if params.get(sym) is not None:
            raise SysFileError(f"[domain] names {sym!r}, a fixed parameter, which takes no "
                               "domain", line_no)
        if sym in domains:
            raise SysFileError(f"repeated [domain] entry for {sym!r}", line_no)
        domains[sym] = (lo, hi)

    hints: List[Expr] = []
    phi1 = None
    for line_no, line in data["hints"]:
        if "=" in line:
            key, val = (p.strip() for p in line.split("=", 1))
            if key == "phi1":
                if phi1 is not None:
                    raise SysFileError("repeated 'phi1' in [hints]", line_no)
                phi1 = _expression(val, line_no)
                continue
            raise SysFileError("only 'phi1 = expr' assignments allowed in [hints]", line_no)
        hints.append(_expression(line, line_no))

    allowed = set(states) | set(params) | (set(inputs) if general else set())
    for key, comp in (("drift", drift), ("b1", b1), ("b2", b2)):
        for sym, e in comp.items():
            extra = free_symbols(e) - allowed
            if extra:
                raise SysFileError(
                    f"[{key}] component for {sym} uses undeclared symbols {sorted(extra)}"
                )
    return SystemDefinition(
        name=meta["name"],
        states=states,
        inputs=inputs,
        drift=drift,
        b1=b1,
        b2=b2,
        params=params,
        domains=domains,
        hints=hints,
        phi1=phi1,
        general=general,
    )


def _expression(text: str, line_no: int) -> Expr:
    try:
        return parse_expr(text)
    except ExprSyntaxError as err:
        raise SysFileError(str(err), line_no) from None


def load_sysfile(path) -> SystemDefinition:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as err:
            raise SysFileError(f"{path} is not UTF-8 text: {err.reason} at byte {err.start}") \
                from None
    return parse_sysfile(text, name=os.path.splitext(os.path.basename(path))[0])
