"""Shared fixtures: corpus systems analyzed once per test session."""

import os

import pytest

from triflat.direction_search import (
    candidate_via_h,
    candidates_via_quadratic,
    compute_bracket_chain,
)
from triflat.errors import NotApplicable
from triflat.flatout import flat_output_for_report
from triflat.sysfile import load_sysfile
from triflat.triform import triangular_form_check

CORPUS = os.path.join(os.path.dirname(__file__), "..", "src", "triflat", "corpus")


class Analysis:
    def __init__(self, system, sp, phi1=None):
        self.system = system
        self.sp = sp
        self.chain = compute_bracket_chain(system, sp)
        try:
            self.h_candidate = candidate_via_h(system, self.chain, sp)
            self.candidates = [self.h_candidate]
        except NotApplicable:
            self.h_candidate = None
            self.candidates = candidates_via_quadratic(system, self.chain, sp)
        self.reports = [
            triangular_form_check(system, c, sp, self.chain) for c in self.candidates
        ]
        self.report = next(r for r in self.reports if r.verdict)
        self.flat = flat_output_for_report(self.report, sp, phi1=phi1)
        self._transform = None

    @property
    def transform(self):
        from triflat.transform import transform_to_triangular

        if self._transform is None:
            self._transform = transform_to_triangular(
                self.system, self.report, self.flat, self.sp
            )
        return self._transform


def _make(name):
    """The bundled system at its default sampler, with its phi1 hint if any."""
    definition = load_sysfile(os.path.join(CORPUS, name + ".sys"))
    return Analysis(definition.system(), definition.sampler(), phi1=definition.phi1)


@pytest.fixture(scope="session")
def template_analysis():
    return _make("template")


@pytest.fixture(scope="session")
def vtol_analysis():
    return _make("vtol")


@pytest.fixture(scope="session")
def sin_analysis():
    return _make("sin")


@pytest.fixture(scope="session")
def academic10_analysis():
    return _make("academic10")


@pytest.fixture(scope="session")
def sqrt_analysis():
    return _make("sqrt")


@pytest.fixture(scope="session")
def product_analysis():
    return _make("product")
