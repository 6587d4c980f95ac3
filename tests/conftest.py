"""Shared fixtures: the double-integrator reference study, computed once."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from cbfsynth import (BoxSet, HardConstraint, SystemModel, auto_epsilon, barrier,
                      build_system, draw_batch, extract_boundary, run_sampling)
from cbfsynth.fitter import FitConfig, fit_multi, fit_nonuniform, fit_uniform
from cbfsynth.simulator import _grid, hdot_rate_bound
from cbfsynth.system import stack_candidates

REFERENCE_BOUNDS = BoxSet([-10.0, -40.0], [0.0, 40.0])
REFERENCE_SEED = 3

# closed-form set areas for the reference constraint over the sampling box
AREA_BOX = 800.0
AREA_Z = 720.0           # z >= 0
AREA_FEASIBLE = 655.0    # input-feasible portion (velocity cap at 30)
AREA_UNIFORM = 245.0     # best single uniformly-scaled set
AREA_NONUNIFORM = 550.0  # best single per-axis-scaled set

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str, *args: str) -> str:
    """Run `code` in a new interpreter with `src` on the path and `args` as
    `sys.argv[1:]`, and return its stdout. A nonzero exit fails the calling
    test with the child's stderr.

    The test process has imported whatever earlier tests imported; what a
    fresh process loads can only be seen in one."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def interior_grid(cands, region: BoxSet, sys: SystemModel, input_box: BoxSet,
                  per_axis: int, dt: float, safety_factor: float = 1.5) -> np.ndarray:
    """Grid of start states strictly inside the candidate set.

    Interior means every barrier clears eta_j = safety_factor dt sup|hdot_j|,
    the distance h_j can travel before the discrete filter reacts; grid points
    closer to the boundary than one step cannot be certified by a sampled-time
    filter and are excluded.
    """
    eta = safety_factor * dt * hdot_rate_bound(cands, region, sys, input_box)
    grid = _grid(region, per_axis)
    params = [p[:, None] for p in stack_candidates(cands)]
    return grid[np.all(barrier(sys.hcf, grid, params) >= eta[:, None], axis=0)]


# input box of the two-input plant below
TWO_INPUT_BOX = BoxSet([-1.0, -0.5], [0.5, 2.0])


def two_input_system() -> SystemModel:
    """n = 2, m = 2: z = 4 - x0^2 - 2 x1^2 with state-dependent actuation."""
    def gradient(x):
        x = np.asarray(x, dtype=float)
        return np.stack([-2.0 * x[..., 0], -4.0 * x[..., 1]], axis=-1)

    def actuation(x):
        x = np.asarray(x, dtype=float)
        g = np.zeros(x.shape + (2,))
        g[..., 0, 0] = 1.0
        g[..., 1, 0] = 0.3 * x[..., 0]
        g[..., 1, 1] = 1.0
        return g

    hcf = HardConstraint(
        value=lambda x: 4.0 - np.asarray(x)[..., 0] ** 2 - 2.0 * np.asarray(x)[..., 1] ** 2,
        gradient=gradient)
    return SystemModel(
        n=2, m=2,
        drift=lambda x: np.stack([np.asarray(x)[..., 1],
                                  -np.asarray(x)[..., 0] - np.asarray(x)[..., 1]], axis=-1),
        actuation=actuation, hcf=hcf, name="two_input")


def two_input_states() -> np.ndarray:
    """400 seeded states of the two-input plant; the first three are the
    origin, where the gradient of z vanishes and the input does not enter."""
    rng = np.random.Generator(np.random.Philox(key=21))
    states = draw_batch(BoxSet([-2.0, -1.5], [2.0, 1.5]), 400, rng)
    states[:3] = 0.0
    return states


@pytest.fixture(scope="session")
def di():
    """Reference double integrator and its input box."""
    return build_system("double_integrator", {})


@pytest.fixture(scope="session")
def reference_run(di):
    sysm, input_box = di
    s = run_sampling(sysm, input_box, REFERENCE_BOUNDS, n_min=1000, delta=0.001,
                     growth=3.0, seed=REFERENCE_SEED)
    assert s.converged
    return s


@pytest.fixture(scope="session")
def reference_boundary(reference_run):
    return extract_boundary(reference_run, auto_epsilon(reference_run))


@pytest.fixture(scope="session")
def reference_fits(di, reference_run, reference_boundary):
    """Uniform, nonuniform and multi fits with the safety margin enabled."""
    sysm, input_box = di
    margin = reference_boundary.epsilon
    base = dict(margin=margin, restarts=8, iterations=300, population=32, seed=0)
    uni = fit_uniform(reference_run, reference_boundary, sysm, input_box,
                      FitConfig(mode="uniform", **base))
    non = fit_nonuniform(reference_run, reference_boundary, sysm, input_box,
                         FitConfig(mode="nonuniform", **base),
                         warm=[tuple(uni.candidates)])
    multi = fit_multi(reference_run, reference_boundary, sysm, input_box,
                      FitConfig(mode="multi", num_cbfs=2, **base),
                      warm=[tuple(non.candidates)])
    for res in (uni, non, multi):
        assert res.feasible
    return {"uniform": uni, "nonuniform": non, "multi": multi}
