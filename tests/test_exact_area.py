"""The fits judged by the reference plant's closed forms (see exact_area.py),
not by the Monte Carlo samples they were fitted on."""

from dataclasses import replace

import pytest

from cbfsynth.system import identity_candidate

from conftest import AREA_FEASIBLE, AREA_Z, REFERENCE_BOUNDS
from exact_area import (V_CAP, exact_area, fit_problems, fitted_polygon, kernel_area,
                        outside_kernel)
from test_fitter import CAP_CANDIDATE


def test_closed_form_areas():
    assert kernel_area(REFERENCE_BOUNDS) == pytest.approx(719.44, abs=0.005)
    assert exact_area([identity_candidate(2)], REFERENCE_BOUNDS) == pytest.approx(AREA_Z)
    pair = [identity_candidate(2), CAP_CANDIDATE]
    assert exact_area(pair, REFERENCE_BOUNDS) == pytest.approx(AREA_FEASIBLE)
    assert not outside_kernel(pair, REFERENCE_BOUNDS)
    assert outside_kernel([identity_candidate(2)], REFERENCE_BOUNDS)


def test_reference_fits_exact(reference_run, reference_fits):
    """The multi set covers at least 622.25 exactly, every fitted polygon lies
    in the kernel, and each objective is within 3 standard errors of its set's
    exact area."""
    assert fit_problems(reference_fits, REFERENCE_BOUNDS, len(reference_run)) == []


def test_kernel_check_catches_a_raised_cap(reference_fits):
    """Raising the offset of the fitted velocity cap lifts the multi set's top
    corner at the wall past v = 30; the kernel check fails before that corner
    reaches the top of the box. The fit's margin keeps the corner inside the
    kernel for the first few units above 30."""
    box = REFERENCE_BOUNDS

    def top(cands):
        return max(p[1] for p in fitted_polygon(cands, box))

    raised = list(reference_fits["multi"].candidates)
    j = min(range(len(raised)), key=lambda i: top(raised[i:i + 1]))
    while not outside_kernel(raised, box) and top(raised) < box.upper[1]:
        raised[j] = replace(raised[j], offset=raised[j].offset + 0.01)
    assert V_CAP < top(raised) < box.upper[1]
    assert outside_kernel(raised, box)
