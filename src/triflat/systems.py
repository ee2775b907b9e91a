"""Two-input affine systems and static transformations acting on them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .errors import FrameMismatch, TriflatError
from .expr import Call, Sym, ZERO, add, free_symbols, mul
from .fields import Distribution, VectorField, coordinate_field
from .simplify import simplify


@dataclass(frozen=True)
class AffineSystem:
    """dx/dt = a(x) + b1(x) u1 + b2(x) u2 on named state coordinates."""

    frame: Tuple[str, ...]
    drift: VectorField
    b1: VectorField
    b2: VectorField
    input_syms: Tuple[str, str]
    params: Tuple[str, ...] = ()
    name: str = "system"

    def __post_init__(self):
        allowed = set(self.frame) | set(self.params)
        for fld in (self.drift, self.b1, self.b2):
            if fld.frame != tuple(self.frame):
                raise FrameMismatch("system fields must share the state frame")
            for c in fld.components:
                extra = free_symbols(c) - allowed
                if extra:
                    raise TriflatError(
                        f"non-state symbols {sorted(extra)} in system {self.name!r}"
                    )
        if len(set(self.frame) | set(self.input_syms)) != len(self.frame) + 2:
            raise TriflatError("state and input symbols must be disjoint")

    @property
    def n(self):
        return len(self.frame)

    def call_arguments(self):
        """Arguments of the elementary-function calls that are whole
        components of the drift, b1 and b2, in component order."""
        return [
            c.arg for f in (self.drift, self.b1, self.b2) for c in f.components
            if isinstance(c, Call)
        ]

    def input_distribution(self) -> Distribution:
        return Distribution(self.frame, [self.b1, self.b2])


def vector_field(frame, mapping) -> VectorField:
    """Vector field from a {coordinate: Expr} mapping."""
    return VectorField.from_dict(frame, mapping)


def _fresh(name, taken):
    while name in taken:
        name = name + "_"
    return name


def prolong(sys: AffineSystem, which: int, k: int) -> AffineSystem:
    """Add k integrators on the chosen input; the new input is its k-th derivative."""
    if k == 0:
        return sys
    if which not in (0, 1):
        raise ValueError("which must be 0 or 1")
    u = sys.input_syms[which]
    taken = set(sys.frame) | set(sys.input_syms) | set(sys.params)
    chain = [u]
    for i in range(1, k + 1):
        chain.append(_fresh(f"{u}_{i}", taken))
    new_states = chain[:-1]
    new_input = chain[-1]
    frame = tuple(sys.frame) + tuple(new_states)

    def ext(f, extra):
        return VectorField(frame, tuple(f.components) + tuple(extra))

    b_pro = sys.b1 if which == 0 else sys.b2
    b_other = sys.b2 if which == 0 else sys.b1
    drift_comps = [
        add(a, mul(c, Sym(u))) for a, c in zip(sys.drift.components, b_pro.components)
    ]
    drift_extra = [Sym(s) for s in chain[1:-1]] + [ZERO]
    drift = VectorField(frame, tuple(simplify(c) for c in drift_comps) + tuple(drift_extra))
    b_pro_new = coordinate_field(frame, new_states[-1])
    b_other_new = ext(b_other, [ZERO] * len(new_states))
    b1, b2 = (b_pro_new, b_other_new) if which == 0 else (b_other_new, b_pro_new)
    u_new = (new_input, sys.input_syms[1]) if which == 0 else (sys.input_syms[0], new_input)
    return AffineSystem(
        frame=frame,
        drift=drift,
        b1=b1,
        b2=b2,
        input_syms=u_new,
        params=sys.params,
        name=f"{sys.name}+prolong({u},{k})",
    )


def make_affine(frame, rhs_components, input_syms, params=(), name="system") -> AffineSystem:
    """Affine representation of a general system dx/dt = f(x, u).

    Every control is prolonged once: the old inputs become states, the input
    vector fields become the corresponding coordinate fields, and the new
    inputs are the first derivatives of the old ones.
    """
    u1, u2 = input_syms
    taken = set(frame) | set(input_syms) | set(params)
    new_inputs = (_fresh(f"{u1}_1", taken), _fresh(f"{u2}_1", taken))
    new_frame = tuple(frame) + (u1, u2)
    drift = VectorField(new_frame, tuple(simplify(c) for c in rhs_components) + (ZERO, ZERO))
    return AffineSystem(
        frame=new_frame,
        drift=drift,
        b1=coordinate_field(new_frame, u1),
        b2=coordinate_field(new_frame, u2),
        input_syms=new_inputs,
        params=tuple(params),
        name=name,
    )
