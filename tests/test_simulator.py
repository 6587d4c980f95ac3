import numpy as np
import pytest

from cbfsynth import simulator
from cbfsynth.simulator import (FilterConfig, SimConfig, check_invariance,
                                hdot_rate_bound, nominal_controller,
                                reference_spline, safety_filter_many,
                                simulate, simulate_many, step,
                                STATUS_NOMINAL, STATUS_OPTIMAL)
from cbfsynth.qp import QpProblem, QpStatus
from cbfsynth.system import (BoxSet, CbfCandidate, HardConstraint, SystemModel,
                             eval_h_batch, identity_candidate, stack_candidates)

from conftest import REFERENCE_BOUNDS, TWO_INPUT_BOX, interior_grid, two_input_system
from qp_oracle import grid_oracle

CAP_CANDIDATE = CbfCandidate([0.0, 10.0], [0.0, 0.0], 30.0)
STEEP = CbfCandidate([1.0, 10.0 / 3.0], [0.0, 0.0], 0.0)   # slope-1/3 damped set
# uniform-mode safe set: the damped edge shifted 7 units inward, indicator
# threshold moved to v = -70 so the slant covers the whole box
UNIFORM_SET = CbfCandidate([1.0, 1.0], [0.0, 70.0], 0.0)


def test_spline_constant_when_origin_is_goal():
    xi = reference_spline([3.0, 0.0], [3.0, 0.0], 5.0)
    for t in (0.0, 1.3, 5.0, 9.0):
        assert xi(t)[0] == 3.0


def test_spline_midpoint_and_endpoints():
    xi = reference_spline([-9.0, 15.0], [0.0, 0.0], 4.0)
    assert xi(0.0)[0] == pytest.approx(-9.0)
    assert xi(2.0)[0] == pytest.approx(-4.5)
    assert xi(4.0)[0] == pytest.approx(0.0)
    assert xi(10.0)[0] == pytest.approx(0.0)   # held after the horizon
    eps = 1e-6
    assert (xi(eps)[0] - xi(0.0)[0]) / eps == pytest.approx(0.0, abs=1e-4)
    assert (xi(4.0)[0] - xi(4.0 - eps)[0]) / eps == pytest.approx(0.0, abs=1e-4)


def test_nominal_controller():
    assert nominal_controller(np.array([-9.0, 15.0]), np.array([-9.0]), 10.0)[0] == 0.0
    assert nominal_controller(np.array([-9.0, 15.0]), np.array([-4.0]), 10.0)[0] == \
        pytest.approx(50.0)
    assert nominal_controller(np.array([-0.5, 3.0]), np.array([0.0]), 10.0)[0] == \
        pytest.approx(5.0)


@pytest.fixture
def fc(di):
    _, input_box = di
    return FilterConfig(alphas=[5.0], input_box=input_box)


def test_filter_inactive_returns_nominal_exactly(di, fc):
    sysm, _ = di
    u, infeasible, _ = safety_filter_many(np.array([[-9.0, 0.0]]), np.array([[12.5]]),
                                          stack_candidates([identity_candidate(2)]), sysm, fc)
    assert not infeasible[0]
    assert u[0, 0] == 12.5


def test_filter_active_row_closed_form(di, fc):
    sysm, _ = di
    x = np.array([-3.0, 9.0])
    assert eval_h_batch(STEEP, sysm.hcf, x) == pytest.approx(0.0)
    u, infeasible, _ = safety_filter_many(x[None], np.array([[100.0]]),
                                          stack_candidates([STEEP]), sysm, fc)
    assert not infeasible[0]
    assert u[0, 0] == pytest.approx(-27.0)
    # grid oracle over the input axis
    grid = np.linspace(-300.0, 300.0, 60001)
    hdot = -9.0 - grid / 3.0
    feas = hdot >= -5.0 * 0.0
    best = grid[feas][np.argmin((grid[feas] - 100.0) ** 2)]
    assert u[0, 0] == pytest.approx(best, abs=0.01)


def test_filter_box_clamp(di, fc):
    sysm, _ = di
    u, infeasible, _ = safety_filter_many(np.array([[-9.0, -5.0]]), np.array([[-400.0]]),
                                          stack_candidates([identity_candidate(2)]), sysm, fc)
    assert not infeasible[0]
    assert u[0, 0] == -300.0


def test_filter_infeasible_zero_row(di, fc):
    sysm, _ = di
    # outside the set with the input column vanished: no input can help
    u, infeasible, _ = safety_filter_many(np.array([[0.5, -1.0]]), np.array([[0.0]]),
                                          stack_candidates([identity_candidate(2)]), sysm, fc)
    assert infeasible[0]
    assert -300.0 <= u[0, 0] <= 300.0


def test_filter_idempotent_off_constraint(di, fc):
    sysm, _ = di
    rng = np.random.default_rng(0)
    cands = [identity_candidate(2), CAP_CANDIDATE]
    fc2 = FilterConfig(alphas=[5.0, 5.0], input_box=fc.input_box)
    checked = 0
    while checked < 200:
        x = rng.uniform(REFERENCE_BOUNDS.lower, REFERENCE_BOUNDS.upper)
        u_nom = rng.uniform(-300.0, 300.0)
        slacks = []
        for j, c in enumerate(cands):
            grad = sysm.hcf.gradient(x * c.scale + c.shift) * c.scale
            hdot = grad @ (sysm.drift(x) + sysm.actuation(x) @ np.array([u_nom]))
            slacks.append(hdot + fc2.alphas[j % len(fc2.alphas)] * eval_h_batch(c, sysm.hcf, x))
        if min(slacks) < 1e-9:
            continue
        checked += 1
        u, infeasible, _ = safety_filter_many(x[None], np.array([[u_nom]]),
                                              stack_candidates(cands), sysm, fc2)
        assert not infeasible[0]
        assert abs(u[0, 0] - u_nom) <= 1e-12


def test_filter_minimal_deviation(di, fc):
    sysm, _ = di
    rng = np.random.default_rng(1)
    x = np.array([-3.0, 9.0])
    u_nom = 100.0
    u_star, _, _ = safety_filter_many(x[None], np.array([[u_nom]]),
                                      stack_candidates([STEEP]), sysm, fc)
    candidates = rng.uniform(-300.0, -27.0, 1000)   # feasible inputs at this state
    assert np.all(np.abs(u_star[0, 0] - u_nom) <= np.abs(candidates - u_nom) + 1e-9)


def _scalar_clamp(rows, rhs, u_nom, box):
    """One input, row by row: a bound moves only when a row beats it, as max
    and min do; None when the rows leave no interval."""
    lo, hi = float(box.lower[0]), float(box.upper[0])
    for a, b in zip(rows, rhs):
        if a > 0.0:
            lo = max(lo, b / a)
        elif a < 0.0:
            hi = min(hi, b / a)
        elif b > 0.0:
            return None
    return min(max(u_nom, lo), hi) if lo <= hi else None


def test_filter_many_clamp_matches_scalar_rule_bit_for_bit(di, fc):
    """The batched one-input clamp gives the scalar rule's bits, on random
    states and on bounds that tie at +0.0 and -0.0, where the row order
    decides the sign."""
    sysm, _ = di
    cands = [identity_candidate(2), CAP_CANDIDATE, STEEP]
    fc3 = FilterConfig(alphas=[5.0, 2.0, 7.0], input_box=fc.input_box)
    rng = np.random.default_rng(3)
    x = rng.uniform(REFERENCE_BOUNDS.lower, REFERENCE_BOUNDS.upper, (300, 2))
    u_nom = rng.uniform(-400.0, 400.0, (300, 1))
    u, infeasible, h = safety_filter_many(x, u_nom, stack_candidates(cands), sysm, fc3)
    clamped = 0
    for i in range(len(x)):
        grads = [sysm.hcf.gradient(x[i] * c.scale + c.shift) * c.scale for c in cands]
        hs = [sysm.hcf.value(x[i] * c.scale + c.shift) + c.offset for c in cands]
        assert h[i].tolist() == hs
        want = _scalar_clamp([gr @ sysm.actuation(x[i])[:, 0] for gr in grads],
                             [-fc3.alphas[j % len(fc3.alphas)] * hj - gr @ sysm.drift(x[i])
                              for j, (gr, hj) in enumerate(zip(grads, hs))],
                             float(u_nom[i, 0]), fc3.input_box)
        if want is not None:
            clamped += 1
            assert not infeasible[i] and u[i, 0].tobytes() == np.float64(want).tobytes()
    assert clamped > 200

    # z = x2 with no drift: rows a = 1 and rhs = -kappa h, so h = -0.0 and
    # h = +0.0 give lower bounds +0.0 and -0.0, and the first row's sign wins
    def actuation(s):
        g = np.zeros(np.shape(s) + (1,))
        g[..., 1, 0] = 1.0
        return g

    plant = SystemModel(n=2, m=1, drift=np.zeros_like, actuation=actuation,
                        hcf=HardConstraint(value=lambda s: s[..., 1],
                                           gradient=lambda s: np.zeros_like(s) + [0.0, 1.0]))
    minus = CbfCandidate([1.0, 1.0], [0.0, -0.0], -0.0)
    plus = identity_candidate(2)
    box = FilterConfig(alphas=[1.0], input_box=BoxSet([-1.0], [1.0]))
    for pair, sign in (([minus, plus], False), ([plus, minus], True)):
        u, _, _ = safety_filter_many(np.array([[0.0, -0.0]]), np.array([[-0.5]]),
                                     stack_candidates(pair), plant, box)
        assert u[0, 0] == 0.0 and bool(np.signbit(u[0, 0])) is sign


def test_filter_two_inputs_matches_grid_oracle():
    """The m = 2 filter with two candidates against the dense-grid oracle,
    on rows and right-hand sides built here from the plant's callables."""
    sysm = two_input_system()
    box = BoxSet([-0.4, -0.3], [0.2, 0.3])
    cands = [identity_candidate(2), CbfCandidate([0.5, 1.5], [0.3, -0.2], 0.5)]
    fc = FilterConfig(alphas=[1.0, 2.0], input_box=box)
    rng = np.random.default_rng(0)
    infeasible = active = 0
    for _ in range(50):
        x = rng.uniform([-2.2, -1.6], [2.2, 1.6])
        u_nom = rng.uniform(box.lower - 0.1, box.upper + 0.1)
        rows, rhs = np.empty((2, 2)), np.empty(2)
        for j, c in enumerate(cands):
            grad_h = sysm.hcf.gradient(x * c.scale + c.shift) * c.scale
            h = sysm.hcf.value(x * c.scale + c.shift) + c.offset
            rows[j] = grad_h @ sysm.actuation(x)
            rhs[j] = -fc.alphas[j % len(fc.alphas)] * h - grad_h @ sysm.drift(x)
        status, best = grid_oracle(QpProblem(hessian=2.0 * np.eye(2), linear=-2.0 * u_nom,
                                             ineq_rows=rows, ineq_rhs=rhs, box=box,
                                             constant=u_nom @ u_nom))
        u, got, _ = safety_filter_many(x[None], u_nom[None], stack_candidates(cands), sysm, fc)
        u = u[0]
        assert box.contains(u)
        assert got[0] == (status is QpStatus.INFEASIBLE)
        if got[0]:
            infeasible += 1
            continue
        assert abs(np.sum((u - u_nom) ** 2) - best) <= 1e-3
        active += np.min(np.abs(rows @ u - rhs)) <= 1e-9
    assert infeasible > 0 and active > 0


def test_step_exact_for_double_integrator(di):
    sysm, _ = di
    out = step(sysm, np.array([0.0, 1.0]), np.array([0.0]), 0.1)
    assert np.allclose(out, [0.1, 1.0], atol=1e-15)
    out = step(sysm, np.array([0.0, 0.0]), np.array([2.0]), 0.1)
    assert np.allclose(out, [0.01, 0.2], atol=1e-15)
    with pytest.raises(ValueError, match="dt must be positive"):
        SimConfig(x_init=[0.0, 0.0], x_goal=[0.0, 0.0], horizon_T=1.0, dt=0.0, kp=1.0)


def test_step_matches_closed_form_flow(di):
    sysm, _ = di
    rng = np.random.default_rng(2)
    x = np.array([-5.0, 3.0])
    dt = 0.01
    for _ in range(500):
        u = rng.uniform(-300.0, 300.0)
        expected = np.array([x[0] + x[1] * dt + 0.5 * u * dt * dt, x[1] + u * dt])
        x = step(sysm, x, np.array([u]), dt)
        assert np.max(np.abs(x - expected)) <= 1e-12


def test_simulate_zero_horizon(di, fc):
    sysm, _ = di
    cfg = SimConfig(x_init=[-5.0, 2.0], x_goal=[0.0, 0.0], horizon_T=0.0, dt=0.01,
                    kp=10.0)
    traj = simulate(cfg, sysm, [identity_candidate(2)], fc)
    assert len(traj) == 1
    assert np.allclose(traj.states[0], [-5.0, 2.0])


def test_simulate_rejects_unsafe_start(di, fc):
    sysm, _ = di
    cfg = SimConfig(x_init=[-4.0, 20.0], x_goal=[0.0, 0.0], horizon_T=1.0, dt=0.01,
                    kp=10.0)
    assert eval_h_batch(UNIFORM_SET, sysm.hcf, [-4.0, 20.0]) < 0.0
    with pytest.raises(ValueError):
        simulate(cfg, sysm, [UNIFORM_SET], fc)
    relaxed = SimConfig(x_init=[-4.0, 20.0], x_goal=[0.0, 0.0], horizon_T=0.2,
                        dt=0.01, kp=10.0, require_safe_start=False)
    traj = simulate(relaxed, sysm, [UNIFORM_SET], fc)
    assert len(traj) == 21


def test_simulate_unfiltered_clamps_to_box(di, fc):
    sysm, _ = di
    cfg = SimConfig(x_init=[-9.0, 15.0], x_goal=[0.0, 0.0], horizon_T=2.0, dt=0.01,
                    kp=10.0, require_safe_start=False)
    traj = simulate(cfg, sysm, [], fc)
    assert traj.h_values.shape == (201, 0)
    assert set(traj.qp_statuses) == {STATUS_NOMINAL}
    assert np.all(traj.filtered_inputs >= -300.0) and np.all(traj.filtered_inputs <= 300.0)


def test_simulate_invariance_and_goal(di, fc):
    sysm, _ = di
    pair = [identity_candidate(2), CAP_CANDIDATE]
    fc2 = FilterConfig(alphas=[5.0], input_box=fc.input_box)
    cfg = SimConfig(x_init=[-9.0, 15.0], x_goal=[0.0, 0.0], horizon_T=10.0, dt=0.01,
                    kp=10.0)
    traj = simulate(cfg, sysm, pair, fc2)
    rep = check_invariance(traj, pair, sysm.hcf)
    assert rep.h_ok and rep.z_ok
    assert rep.infeasible_steps == 0
    assert abs(traj.states[-1][0]) <= 0.5
    # inputs always respect the box exactly
    assert np.all(traj.filtered_inputs >= -300.0) and np.all(traj.filtered_inputs <= 300.0)


_CHANNELS = ("times", "states", "nominal_inputs", "filtered_inputs", "h_values", "z_values")


@pytest.mark.parametrize("cands", [[identity_candidate(2), CAP_CANDIDATE], [STEEP], []],
                         ids=["pair", "steep", "unfiltered"])
def test_simulate_many_rows_equal_one_row_runs(di, fc, cands):
    """Each row of a batch is the one-start run bit for bit on the double
    integrator, whatever else is in the batch."""
    sysm, _ = di
    starts = np.array([[-9.0, 15.0], [-9.0, 0.0], [-7.0, -5.0], [-4.0, 20.0], [-2.0, 3.0]])
    cfg = SimConfig(x_init=starts[0], x_goal=[0.0, 0.0], horizon_T=2.0, dt=0.01, kp=10.0,
                    require_safe_start=False)
    fc2 = FilterConfig(alphas=[5.0, 3.0], input_box=fc.input_box)
    batch = simulate_many(starts, cfg, sysm, cands, fc2)
    assert len(batch) == len(starts)
    for x0, got in zip(starts, batch):
        one = simulate(SimConfig(x_init=x0, x_goal=[0.0, 0.0], horizon_T=2.0, dt=0.01,
                                 kp=10.0, require_safe_start=False), sysm, cands, fc2)
        for name in _CHANNELS:
            assert getattr(got, name).tobytes() == getattr(one, name).tobytes(), name
        assert got.qp_statuses == one.qp_statuses
    if cands:
        assert any(np.any(t.filtered_inputs != t.nominal_inputs) for t in batch)


def test_simulate_many_two_inputs_matches_one_row_runs():
    """m = 2, where every row goes through the box QP: batch rows match the
    one-start runs to 1e-12, and the filter is active on some steps."""
    sysm = two_input_system()
    cands = [identity_candidate(2), CbfCandidate([0.5, 1.5], [0.3, -0.2], 0.5)]
    fc = FilterConfig(alphas=[1.0, 2.0], input_box=TWO_INPUT_BOX)
    starts = np.array([[-1.5, 0.5], [1.0, -0.6], [1.2, 0.8], [0.0, 0.0]])
    cfg = SimConfig(x_init=starts[0], x_goal=[1.5, 1.0], horizon_T=0.5, dt=0.01, kp=4.0)
    batch = simulate_many(starts, cfg, sysm, cands, fc)
    for x0, got in zip(starts, batch):
        one = simulate(SimConfig(x_init=x0, x_goal=[1.5, 1.0], horizon_T=0.5, dt=0.01,
                                 kp=4.0), sysm, cands, fc)
        for name in _CHANNELS:
            np.testing.assert_allclose(getattr(got, name), getattr(one, name),
                                       rtol=0.0, atol=1e-12, err_msg=name)
        assert got.qp_statuses == one.qp_statuses
    assert any(np.any(np.abs(t.filtered_inputs - t.nominal_inputs) > 1e-6) for t in batch)


def test_simulate_many_without_starts_runs_no_step(di, fc, monkeypatch):
    """A mode whose every start is skipped passes no starts: the call returns
    no run, and neither filters nor steps over empty arrays."""
    sysm, _ = di
    for name in ("safety_filter_many", "step"):
        monkeypatch.setattr(simulator, name, lambda *args, name=name: pytest.fail(name))
    cfg = SimConfig(x_init=[-9.0, 0.0], x_goal=[0.0, 0.0], horizon_T=10.0, dt=0.01, kp=10.0)
    assert simulate_many(np.zeros((0, 2)), cfg, sysm, [identity_candidate(2)], fc) == []


def test_alpha_comparison_along_trajectory(di, fc):
    """Discrete comparison bound: h never falls faster than the linear decay
    the filter permits, up to integration error.

    The filter pins hdot >= -kappa h at the sample instant only; with the
    input held over the step, hdot drifts by at most |d hdot / dt| dt, which
    for these barriers is bounded by |u|. The tolerance therefore carries the
    exact second-order term |u| dt^2 / 2 on top of the absolute slack.
    """
    sysm, _ = di
    pair = [identity_candidate(2), CAP_CANDIDATE]
    fc2 = FilterConfig(alphas=[5.0], input_box=fc.input_box)
    kappa, dt = 5.0, 0.01
    for x0 in ([-9.0, 15.0], [-7.0, -5.0], [-4.0, 20.0]):
        cfg = SimConfig(x_init=x0, x_goal=[0.0, 0.0], horizon_T=10.0, dt=dt, kp=10.0)
        traj = simulate(cfg, sysm, pair, fc2)
        assert set(traj.qp_statuses) == {STATUS_OPTIMAL}
        h = traj.h_values
        zoh = 0.5 * dt * dt * np.abs(traj.filtered_inputs[:-1])
        bound = h[:-1] * (1.0 - kappa * dt) - 1e-6 * (1.0 + np.abs(h[:-1])) - zoh
        assert np.all(h[1:] >= bound)


def test_check_invariance_trivial(di):
    sysm, _ = di
    fc = FilterConfig(alphas=[5.0], input_box=BoxSet([-300.0], [300.0]))
    cfg = SimConfig(x_init=[-5.0, 0.0], x_goal=[-5.0, 0.0], horizon_T=0.01, dt=0.01,
                    kp=10.0)
    traj = simulate(cfg, sysm, [identity_candidate(2)], fc)
    rep = check_invariance(traj, [identity_candidate(2)], sysm.hcf)
    assert rep.h_ok and rep.z_ok and rep.infeasible_steps == 0
    assert rep.min_h[0] >= 0.0


def test_interior_grid_clearance(di):
    sysm, input_box = di
    cands = [STEEP]
    starts = interior_grid(cands, REFERENCE_BOUNDS, sysm, input_box, per_axis=20,
                           dt=0.01)
    rates = hdot_rate_bound(cands, REFERENCE_BOUNDS, sysm, input_box)
    eta = 1.5 * 0.01 * rates[0]
    assert starts.shape[0] > 100
    for x in starts[:: max(1, len(starts) // 50)]:
        assert eval_h_batch(STEEP, sysm.hcf, x) >= eta - 1e-12
    assert np.all(REFERENCE_BOUNDS.contains(starts))


def test_trajectory_csv_export(tmp_path, di, fc):
    sysm, _ = di
    cfg = SimConfig(x_init=[-9.0, 0.0], x_goal=[0.0, 0.0], horizon_T=0.05, dt=0.01,
                    kp=10.0)
    pair = [identity_candidate(2), CAP_CANDIDATE]
    fc2 = FilterConfig(alphas=[5.0], input_box=fc.input_box)
    traj = simulate(cfg, sysm, pair, fc2)
    path = tmp_path / "traj.csv"
    digest = traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x1,x2,u_nom_1,u_1,h_1,h_2,z,status"
    assert len(lines) == len(traj) + 1
    first = lines[1].split(",")
    assert float(first[1]) == -9.0
    assert first[-1] == STATUS_OPTIMAL
    assert len(digest) == 64


@pytest.mark.parametrize("horizon", [10.0, 2.0, 0.5, 0.2, 0.05, 0.01])
def test_dt_dividing_horizon_runs_every_step(di, fc, horizon):
    sysm, _ = di
    cfg = SimConfig(x_init=[-9.0, 0.0], x_goal=[0.0, 0.0], horizon_T=horizon, dt=0.01,
                    kp=10.0)
    traj = simulate(cfg, sysm, [], fc)
    assert len(traj) - 1 == round(horizon / 0.01)
    assert traj.times[-1] == pytest.approx(horizon)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(x_init=[0.0, 0.0], x_goal=[0.0, 0.0], horizon_T=1.0, dt=0.0, kp=1.0)
    with pytest.raises(ValueError):
        SimConfig(x_init=[0.0, 0.0], x_goal=[0.0, 0.0], horizon_T=-1.0, dt=0.1, kp=1.0)
    with pytest.raises(ValueError, match="divide"):
        SimConfig(x_init=[0.0, 0.0], x_goal=[0.0, 0.0], horizon_T=1.0, dt=0.3, kp=1.0)
    with pytest.raises(ValueError, match="kp"):
        SimConfig(x_init=[0.0, 0.0], x_goal=[0.0, 0.0], horizon_T=1.0, dt=0.1, kp=0.0)
    with pytest.raises(ValueError):
        FilterConfig(alphas=[0.0], input_box=BoxSet([-1.0], [1.0]))
