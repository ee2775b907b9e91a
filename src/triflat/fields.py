"""Vector fields, one-forms and their spans on a fixed coordinate frame."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from .errors import FrameMismatch
from .expr import ONE, Expr, ZERO, add, mul


@dataclass(frozen=True)
class VectorField:
    """Components of a vector field with respect to an ordered frame."""

    frame: Tuple[str, ...]
    components: Tuple[Expr, ...]

    def __post_init__(self):
        if len(self.frame) != len(self.components):
            raise FrameMismatch(
                f"{len(self.components)} components on a frame of length {len(self.frame)}"
            )

    @staticmethod
    def from_dict(frame, parts) -> "VectorField":
        frame = tuple(frame)
        return VectorField(frame, tuple(parts.get(x, ZERO) for x in frame))

    def is_zero(self) -> bool:
        return all(c == ZERO for c in self.components)

    def __str__(self):
        parts = [f"{c}*d/d{x}" for x, c in zip(self.frame, self.components) if c != ZERO]
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class OneForm:
    """Coefficients of a one-form with respect to an ordered frame."""

    frame: Tuple[str, ...]
    coefficients: Tuple[Expr, ...]

    def __post_init__(self):
        if len(self.frame) != len(self.coefficients):
            raise FrameMismatch(
                f"{len(self.coefficients)} coefficients on a frame of length {len(self.frame)}"
            )

    def pair(self, v: VectorField) -> Expr:
        """Natural pairing <omega, v>."""
        if self.frame != v.frame:
            raise FrameMismatch("pairing across different frames")
        return add(*(mul(a, b) for a, b in zip(self.coefficients, v.components)))

    def __str__(self):
        parts = [f"{c}*d{x}" for x, c in zip(self.frame, self.coefficients) if c != ZERO]
        return " + ".join(parts) if parts else "0"


class Distribution:
    """Span of vector fields; the spanning set may be redundant.

    A generic basis and involutivity are kept per sampler configuration; a
    grown flag member's ``_grown`` is set by ``diffgeo.grow``.
    """

    def __init__(self, frame, fields: Sequence[VectorField]):
        self.frame = tuple(frame)
        self.fields = tuple(f for f in fields if not f.is_zero())
        for f in self.fields:
            if f.frame != self.frame:
                raise FrameMismatch("spanning field on a different frame")
        self._basis = self._involutive = self._grown = None

    def matrix_rows(self):
        return [list(f.components) for f in self.fields]

    def __str__(self):
        return "span{" + ", ".join(str(f) for f in self.fields) + "}"


class Codistribution:
    """Span of one-forms; mirrors Distribution.

    ``forms`` may be a callable returning the spanning forms, called on the
    first read of ``forms``; ``kernel`` is then the distribution the forms
    annihilate, from which rank and membership are decided without them.
    ``kernel`` may be a callable too, called on its first read.  ``sampled``,
    when set, is (point set, point indices, the forms' (K, rank, n) values at
    those points), from which rank and membership are decided first.
    """

    def __init__(self, frame, forms, kernel=None):
        self.frame = tuple(frame)
        self._kernel = kernel
        self.sampled = None
        self._forms = forms if callable(forms) else self._nonzero(forms)

    def _nonzero(self, forms) -> Tuple[OneForm, ...]:
        forms = tuple(w for w in forms if any(c != ZERO for c in w.coefficients))
        for w in forms:
            if w.frame != self.frame:
                raise FrameMismatch("spanning form on a different frame")
        return forms

    @property
    def kernel(self) -> Distribution:
        if callable(self._kernel):
            self._kernel = self._kernel()
        return self._kernel

    @property
    def forms(self) -> Tuple[OneForm, ...]:
        if callable(self._forms):
            self._forms = self._nonzero(self._forms())
        return self._forms

    def matrix_rows(self):
        return [list(w.coefficients) for w in self.forms]

    def __str__(self):
        return "span{" + ", ".join(str(w) for w in self.forms) + "}"


def coordinate_field(frame, name) -> VectorField:
    return VectorField.from_dict(frame, {name: ONE})
