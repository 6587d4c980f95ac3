"""Acceptance suite for the double-integrator reference study.

Each test prints one PASS line (visible with `pytest -s` or `-v` by test
name) and enforces the stated tolerance. Expected values come from closed
form geometry of the damped constraint over the sampling box, cross-checked
by an independent Monte Carlo below, never from the code under test.
"""

import time
import numpy as np
import pytest

from cbfsynth.cli import main
from cbfsynth.fitter import load_fit
from cbfsynth.qp import QpStatus, solve_box_qp
from cbfsynth.sampler import read_header, run_sampling
from cbfsynth.simulator import (FilterConfig, SimConfig, check_invariance, horizon_steps,
                                safety_filter_many, simulate, step)
from cbfsynth.system import CbfCandidate, eval_h_batch, identity_candidate, stack_candidates

from conftest import AREA_FEASIBLE, REFERENCE_BOUNDS, REFERENCE_SEED, interior_grid
from exact_area import exact_area, fit_problems
from qp_oracle import grid_oracle, random_problem

J_ORACLE = 655.0 / 800.0
CAP_CANDIDATE = CbfCandidate([0.0, 10.0], [0.0, 0.0], 30.0)      # v <= 30
STEEP = CbfCandidate([1.0, 10.0 / 3.0], [0.0, 0.0], 0.0)          # slope-1/3 set
REFERENCE_PAIR = [identity_candidate(2), CAP_CANDIDATE]


def _report(criterion: int, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def test_criterion_1_jaccard_convergence(di):
    """Sampling converges by 3^11 with the feasible fraction at its area ratio."""
    sysm, input_box = di
    t0 = time.perf_counter()
    s = run_sampling(sysm, input_box, REFERENCE_BOUNDS, n_min=1000, delta=0.001,
                     growth=3.0, seed=REFERENCE_SEED)
    elapsed = time.perf_counter() - t0
    j = s.jaccard

    # independent oracle: exact area ratio 655/800, cross-checked by Monte Carlo
    rng = np.random.default_rng(20240817)
    x = rng.uniform(-10.0, 0.0, 1_000_000)
    v = rng.uniform(-40.0, 40.0, 1_000_000)
    feasible = (v < 0) | (((-x - (v > 0) * 0.1 * v) >= 0) & (v <= 30.0))
    mc = float(np.mean(feasible))
    assert abs(mc - J_ORACLE) <= 0.002

    assert s.converged
    assert len(s) <= 3 ** 11
    assert abs(j - 0.819) <= 0.02
    assert elapsed <= 60.0
    _report(1, f"n={len(s)}, J={j:.5f} (oracle {J_ORACLE:.5f}, MC {mc:.5f}), "
               f"{elapsed:.1f} s")


def test_criterion_2_velocity_cap(reference_boundary):
    """The extracted boundary exposes the input-limited velocity cap."""
    pts = reference_boundary.points
    cap = float(pts[pts[:, 0] < -3.5][:, 1].max())
    assert cap == pytest.approx(30.0, abs=1.5)
    _report(2, f"velocity cap estimate {cap:.3f} (target 30 +/- 1.5)")


def test_criterion_3_qp_oracle_suite():
    """500 random QPs against the dense-grid enumeration oracle."""
    rng = np.random.default_rng(424242)
    t0 = time.perf_counter()
    counts = {1: 324, 2: 168, 3: 8}
    n_infeasible = 0
    worst_gap = 0.0
    worst_kkt = 0.0
    for m, cnt in counts.items():
        for _ in range(cnt):
            k = int(rng.integers(0, 3))
            p = random_problem(rng, m, k)
            sol = solve_box_qp(p)
            status, objective = grid_oracle(p)
            assert sol.status is status
            if status is QpStatus.INFEASIBLE:
                n_infeasible += 1
                continue
            worst_gap = max(worst_gap, abs(sol.objective - objective))
            worst_kkt = max(worst_kkt, sol.kkt_residual(p))
            assert abs(sol.objective - objective) <= 1e-3
            assert sol.kkt_residual(p) <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed <= 10.0
    _report(3, f"500 QPs ({n_infeasible} infeasible), max objective gap "
               f"{worst_gap:.2e}, max KKT residual {worst_kkt:.2e}, {elapsed:.1f} s")


def test_criterion_4_fit_mode_ordering(di, reference_fits):
    """Objectives ordered multi >= nonuniform >= uniform (2% slack) and the
    multi intersection covers at least 95% of the feasible area."""
    sysm, _ = di
    uni = reference_fits["uniform"].objective_value
    non = reference_fits["nonuniform"].objective_value
    multi = reference_fits["multi"].objective_value
    assert multi >= non - 0.02 * non
    assert non >= uni - 0.02 * uni
    assert multi >= 0.95 * AREA_FEASIBLE

    # one fitted candidate realizes the velocity cap: its zero crossing along
    # the velocity axis sits at 30 regardless of position
    def v_crossing(cand, x_pos):
        lo, hi = -40.0, 40.0
        if (eval_h_batch(cand, sysm.hcf, [x_pos, lo]) < 0
                or eval_h_batch(cand, sysm.hcf, [x_pos, hi]) > 0):
            return None
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if eval_h_batch(cand, sysm.hcf, [x_pos, mid]) >= 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    cap_found = None
    for cand in reference_fits["multi"].candidates:
        crossings = [v_crossing(cand, x_pos) for x_pos in (-9.0, -5.0, -1.0)]
        if all(c is not None and abs(c - 30.0) <= 1.5 for c in crossings):
            cap_found = crossings
    assert cap_found is not None
    _report(4, f"objectives uniform={uni:.1f}, nonuniform={non:.1f}, multi={multi:.1f} "
               f"(>= {0.95 * AREA_FEASIBLE:.1f}); cap crossings {np.round(cap_found, 3)}")


def test_criterion_5_closed_loop_safety(di, reference_fits):
    """Filtered runs from the four reference starts stay safe; under the multi
    candidates every start is admissible and reaches the goal neighborhood."""
    sysm, input_box = di
    starts = [(-9.0, 15.0), (-9.0, 0.0), (-7.0, -5.0), (-4.0, 20.0)]
    summary = []
    for mode in ("uniform", "nonuniform", "multi"):
        cands = reference_fits[mode].candidates
        fc = FilterConfig(alphas=[5.0], input_box=input_box)
        admissible = 0
        for x0 in starts:
            if min(eval_h_batch(c, sysm.hcf, x0) for c in cands) < 0.0:
                assert mode != "multi", "all reference starts must be admissible under multi"
                continue
            admissible += 1
            cfg = SimConfig(x_init=x0, x_goal=[0.0, 0.0], horizon_T=10.0, dt=0.01,
                            kp=10.0)
            t0 = time.perf_counter()
            traj = simulate(cfg, sysm, cands, fc)
            elapsed = time.perf_counter() - t0
            rep = check_invariance(traj, cands, sysm.hcf, tol_h=1e-6, tol_z=1e-6)
            assert rep.h_breach_steps == 0, (mode, x0)
            assert rep.z_breach_steps == 0, (mode, x0)
            assert rep.infeasible_steps == 0, (mode, x0)
            assert elapsed <= 5.0
            if mode == "multi":
                assert abs(traj.states[-1][0]) <= 0.5, (mode, x0)
        summary.append(f"{mode}:{admissible}/4 starts")
    _report(5, "no breaches, no infeasible steps, multi terminals within 0.5 "
               f"({'; '.join(summary)})")


def test_criterion_6_motivating_failure(di):
    """Bounded input cannot save the unfiltered loop; the filter can."""
    sysm, input_box = di
    fc = FilterConfig(alphas=[5.0], input_box=input_box)
    unfiltered_cfg = SimConfig(x_init=[-9.0, 15.0], x_goal=[0.0, 0.0], horizon_T=10.0,
                               dt=0.01, kp=10.0, require_safe_start=False)
    unfiltered = simulate(unfiltered_cfg, sysm, [], fc)
    rep_unfiltered = check_invariance(unfiltered, [], sysm.hcf)
    assert rep_unfiltered.z_breach_steps > 0
    assert rep_unfiltered.min_z < 0.0

    filtered_cfg = SimConfig(x_init=[-9.0, 15.0], x_goal=[0.0, 0.0], horizon_T=10.0,
                             dt=0.01, kp=10.0)
    filtered = simulate(filtered_cfg, sysm, REFERENCE_PAIR, fc)
    rep_filtered = check_invariance(filtered, REFERENCE_PAIR, sysm.hcf)
    assert rep_filtered.z_breach_steps == 0 and rep_filtered.h_breach_steps == 0
    _report(6, f"unfiltered min z = {rep_unfiltered.min_z:.3f} (breach), "
               f"filtered min z = {rep_filtered.min_z:.2e} (safe)")


@pytest.mark.parametrize("label,cands", [
    ("steeper-damped", [STEEP]),
    ("pair-with-cap", REFERENCE_PAIR),
])
def test_criterion_7_adversarial_invariance(di, label, cands):
    """Full-throttle nominal input from a 20 x 20 interior grid: the filter
    alone keeps every barrier nonnegative with no infeasible steps. The whole
    grid is stepped at once through the batched filter and RK4 step."""
    sysm, input_box = di
    fc = FilterConfig(alphas=[5.0] * len(cands), input_box=input_box)
    starts = interior_grid(cands, REFERENCE_BOUNDS, sysm, input_box, per_axis=20,
                           dt=0.01)
    assert starts.shape[0] >= 150
    u_nom = np.full((len(starts), 1), float(input_box.upper[0]))
    stacked = stack_candidates(cands)
    steps_count = horizon_steps(10.0, 0.01)
    breaches = infeasible = 0
    worst_h = np.inf
    x = starts
    for k in range(steps_count + 1):
        u, bad, h = safety_filter_many(x, u_nom, stacked, sysm, fc)
        breaches += int(np.sum(h.min(axis=1) < -1e-6))
        infeasible += int(bad.sum())
        worst_h = min(worst_h, float(h.min()))
        if k < steps_count:
            x = step(sysm, x, u, 0.01)
    assert breaches == 0
    assert infeasible == 0
    _report(7, f"{label}: {starts.shape[0]} starts x 10 s, zero breaches, "
               f"zero infeasible steps, min h = {worst_h:.2e}")


def test_criterion_8_pipeline_determinism(tmp_path):
    """Two pipeline runs with the same seed write byte-identical artifacts,
    and the fits pass the closed-form checks of the reference fits."""
    config = f"""
[system]
name = double_integrator

[sampling]
lower = -10.0, -40.0
upper = 0.0, 40.0
n_min = 1000
delta = 0.001
growth = 3.0
n_start = 243
seed = {REFERENCE_SEED}

[fit]
modes = uniform, nonuniform, multi
num_cbfs = 2
margin = auto
restarts = 2
iterations = 100
population = 8

[simulate]
x_init = -9, 15; -7, -5
x_goal = 0.0, 0.0
horizon = 2.0

[output]
dir = out
"""
    cfg_path = tmp_path / "ref.cfg"
    cfg_path.write_text(config)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    fits = {mode: load_fit(out_a / f"candidates_{mode}.json")[0]
            for mode in ("uniform", "nonuniform", "multi")}
    n = read_header(out_a / "samples.jsonl").n
    assert fit_problems(fits, REFERENCE_BOUNDS, n) == []
    multi = exact_area(fits["multi"].candidates, REFERENCE_BOUNDS)
    _report(8, f"{len(files_a)} artifacts byte-identical across repeated runs; "
               f"exact multi area {multi:.2f}, every fitted set in the kernel")
