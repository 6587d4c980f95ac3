import numpy as np
import pytest
from scipy.optimize import lsq_linear

from cbfsynth import qp
from cbfsynth.qp import (MAX_WORKING_SETS, QpProblem, QpStatus, max_over_box, min_zdot,
                         solve_box_qp, zero_tolerance)
from cbfsynth.system import BoxSet, HardConstraint, SystemModel

from conftest import TWO_INPUT_BOX, run_fresh, two_input_states, two_input_system
from qp_oracle import grid_oracle, random_problem


def _lie_derivatives(sysm: SystemModel, x):
    """(L_f z, L_g z) at one state, from the plant's callables."""
    grad = sysm.hcf.gradient(x)
    return float(grad @ sysm.drift(x)), grad @ sysm.actuation(x)


def _problem(H, q, A, b, lo, hi, const=0.0):
    m = np.atleast_1d(q).size
    return QpProblem(hessian=H, linear=q, ineq_rows=np.asarray(A, dtype=float).reshape(-1, m),
                     ineq_rhs=b, box=BoxSet(lo, hi), constant=const)


def test_clamped_unconstrained_minimizer():
    # min (u - 5)^2 over [-1, 1]
    sol = solve_box_qp(_problem([[2.0]], [-10.0], [], [], [-1.0], [1.0], const=25.0))
    assert sol.status is QpStatus.OPTIMAL
    assert sol.argmin[0] == pytest.approx(1.0)
    assert sol.objective == pytest.approx(16.0)


def test_active_inequality():
    sol = solve_box_qp(_problem([[2.0]], [0.0], [[1.0]], [2.0], [-3.0], [3.0]))
    assert sol.argmin[0] == pytest.approx(2.0)
    assert sol.objective == pytest.approx(4.0)


def test_projection_onto_halfplane():
    # min ||u - (1,1)||^2 s.t. u1 + u2 >= 3 over [0,2]^2; expected computed by
    # a brute-force 2001^2 grid sweep below
    p = _problem(2.0 * np.eye(2), [-2.0, -2.0], [[1.0, 1.0]], [3.0],
                 [0.0, 0.0], [2.0, 2.0], const=2.0)
    sol = solve_box_qp(p)
    g = np.linspace(0.0, 2.0, 2001)
    uu = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    feas = uu.sum(axis=1) >= 3.0
    vals = np.sum((uu[feas] - 1.0) ** 2, axis=1)
    best = uu[feas][np.argmin(vals)]
    assert np.allclose(sol.argmin, best, atol=1e-3)
    assert np.allclose(sol.argmin, [1.5, 1.5], atol=1e-9)
    assert sol.objective == pytest.approx(0.5, abs=1e-9)


def test_infeasible_returns_least_violation():
    p = _problem([[2.0]], [0.0], [[1.0]], [10.0], [-3.0], [3.0])
    sol = solve_box_qp(p)
    assert sol.status is QpStatus.INFEASIBLE
    # max-min-slack point: the box vertex closest to satisfying the row
    assert sol.argmin[0] == pytest.approx(3.0)
    # zero multipliers, one per row and bound
    assert [v.tolist() for v in (sol.ineq_mult, sol.lower_mult, sol.upper_mult)] == \
        [[0.0], [0.0], [0.0]]
    assert sol.kkt_residual(p) == pytest.approx(6.0)


def test_phase1_lp_loaded_on_first_use_and_called_through_module():
    """Importing qp and solving a feasible problem load no scipy. The phase-1
    LP of an infeasible problem goes through `qp.linprog`, so a counting
    wrapper put there sees the call."""
    out = run_fresh("""
        import sys
        from cbfsynth import qp
        from cbfsynth.system import BoxSet

        def problem(rhs):
            return qp.QpProblem(hessian=[[2.0]], linear=[0.0], ineq_rows=[[1.0]],
                                ineq_rhs=[rhs], box=BoxSet([-3.0], [3.0]))

        feasible = qp.solve_box_qp(problem(1.0)).status.value
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        real, calls = qp.linprog, []

        def counting(*args, **kwargs):
            calls.append(kwargs["method"])
            return real(*args, **kwargs)

        qp.linprog = counting
        infeasible = qp.solve_box_qp(problem(10.0))
        print(feasible, loaded, infeasible.status.value, infeasible.argmin.tolist(), calls)
    """)
    assert out.split() == ["optimal", "[]", "infeasible", "[3.0]", "['highs']"]


def test_validation_errors():
    with pytest.raises(ValueError):
        _problem([[1.0, 0.5], [0.4, 1.0]], [0.0, 0.0], [], [], [-1, -1], [1, 1])
    with pytest.raises(ValueError):
        solve_box_qp(_problem([[-1.0]], [0.0], [], [], [-1.0], [1.0]))
    with pytest.raises(ValueError):
        _problem(np.eye(2), [0.0], [], [], [-1.0], [1.0])


def test_problem_refuses_row_count_mismatch():
    with pytest.raises(ValueError, match="^ineq_rows/ineq_rhs row count mismatch$"):
        _problem(np.eye(1), [0.0], [[1.0], [2.0]], [0.0], [-1.0], [1.0])


def test_problem_refuses_box_of_another_dimension():
    with pytest.raises(ValueError, match="^box dimension inconsistent with m$"):
        _problem(np.eye(1), [0.0], [], [], [-1.0, -1.0], [1.0, 1.0])


def test_kkt_certificate_on_random_problems():
    rng = np.random.default_rng(5)
    problems = [random_problem(rng, int(rng.integers(1, 4)), int(rng.integers(0, 3)))
                for _ in range(120)]
    # a linear program whose optimum is the vertex of the last two rows
    problems.append(_problem(np.zeros((2, 2)), [-44.4133, 48.638],
                             [[0.41, -0.0816], [1.11, -0.255], [-9.69, 28.4], [-231.3, -75.8]],
                             [0.0289, -0.18, 6.218, -52.95], [-2.47, -1.25], [1.57, 2.29]))
    for p in problems:
        sol = solve_box_qp(p)
        if sol.status is QpStatus.INFEASIBLE:
            continue
        assert sol.kkt_residual(p) <= 1e-8
        assert np.all(sol.ineq_mult >= -1e-9)
        assert np.all(sol.lower_mult >= -1e-9)
        assert np.all(sol.upper_mult >= -1e-9)
        # complementary slackness and exact box membership
        slack = p.ineq_rows @ sol.argmin - p.ineq_rhs if p.k else np.zeros(0)
        assert np.all(slack >= -1e-8)
        assert np.max(np.abs(sol.ineq_mult * slack), initial=0.0) <= 1e-8
        assert np.all(sol.argmin >= p.box.lower) and np.all(sol.argmin <= p.box.upper)


def test_grid_oracle_agreement_small():
    # quick cross-check; the full 500-problem suite runs in the acceptance tests
    rng = np.random.default_rng(9)
    for _ in range(60):
        m = int(rng.integers(1, 3))
        k = int(rng.integers(0, 3))
        p = random_problem(rng, m, k)
        sol = solve_box_qp(p)
        status, obj = grid_oracle(p)
        assert sol.status is status
        if status is QpStatus.OPTIMAL:
            assert abs(sol.objective - obj) <= 1e-3


def test_min_zdot_residual_reference_points(di):
    sysm, input_box = di
    u, r = min_zdot(*_lie_derivatives(sysm, np.array([-5.0, 20.0])), input_box)
    assert u[0] == pytest.approx(-200.0)
    assert r == pytest.approx(0.0, abs=1e-18)
    u, r = min_zdot(*_lie_derivatives(sysm, np.array([-5.0, 35.0])), input_box)
    assert u[0] == pytest.approx(-300.0)
    assert r == pytest.approx(25.0)
    u, r = min_zdot(*_lie_derivatives(sysm, np.array([-5.0, -3.0])), input_box)
    assert input_box.contains(u)
    assert r == pytest.approx(9.0)


def test_min_zdot_matches_generic_solver(di):
    """The closed form against the box QP on the Hessian 2 L_g z' L_g z,
    which is zero where v <= 0 (L_g z = 0) and rank one elsewhere."""
    sysm, input_box = di
    rng = np.random.default_rng(11)
    ranks = set()
    for _ in range(50):
        x = rng.uniform([-10.0, -40.0], [0.0, 40.0])
        lf, lg = _lie_derivatives(sysm, x)
        u_fast, r_fast = min_zdot(lf, lg, input_box)
        ranks.add(int(np.any(lg)))
        p = QpProblem(hessian=2.0 * np.outer(lg, lg), linear=2.0 * lf * lg,
                      ineq_rows=np.zeros((0, 1)), ineq_rhs=[], box=input_box,
                      constant=lf * lf)
        r_generic = max(solve_box_qp(p).objective, 0.0)
        assert r_fast == pytest.approx(r_generic, abs=1e-8)
    assert ranks == {0, 1}


def test_rank_one_hessian_matches_bvls():
    """min ||L_f z + L_g z u||^2 over the box of the two-input plant, posed as
    a box QP with the rank-one (or zero) Hessian 2 L_g z' L_g z, against
    scipy's bounded-variable least squares."""
    sysm, ubox = two_input_system(), TWO_INPUT_BOX
    for x in two_input_states():
        lf, lg = _lie_derivatives(sysm, x)
        p = QpProblem(hessian=2.0 * np.outer(lg, lg), linear=2.0 * lf * lg,
                      ineq_rows=np.zeros((0, 2)), ineq_rhs=[], box=ubox, constant=lf * lf)
        sol = solve_box_qp(p)
        fit = lsq_linear(lg[None, :], [-lf], bounds=(ubox.lower, ubox.upper), method="bvls")
        assert sol.status is QpStatus.OPTIMAL
        assert abs(sol.objective - 2.0 * fit.cost) <= zero_tolerance(lf)
        assert sol.kkt_residual(p) <= 1e-8
        assert ubox.contains(sol.argmin)


def test_working_set_limit(monkeypatch):
    """Past MAX_WORKING_SETS the solver raises, naming the count, before it
    builds any array; at the limit it solves."""
    rng = np.random.default_rng(3)
    # m = 2 inputs, k + 4 rows: 1 + 44 + 946 = 991 working sets at k = 40,
    # 1 + 45 + 990 = 1036 at k = 41
    at_limit = _problem(np.eye(2), [0.0, 0.0], rng.normal(size=(40, 2)), np.full(40, -5.0),
                        [-1.0, -1.0], [1.0, 1.0])
    assert solve_box_qp(at_limit).status is QpStatus.OPTIMAL
    over = _problem(np.eye(2), [0.0, 0.0], rng.normal(size=(41, 2)), np.full(41, -5.0),
                    [-1.0, -1.0], [1.0, 1.0])
    monkeypatch.setattr(qp, "np", None)     # any array work fails with another error
    with pytest.raises(ValueError, match=f"1036 working sets exceed the limit of "
                                         f"{MAX_WORKING_SETS}"):
        solve_box_qp(over)


def test_residual_scales_quadratically_with_gradient(di):
    """Scaling the constraint gradient by a > 0 scales the residual by a^2,
    so the zero set of the residual is scale invariant."""
    sysm, input_box = di
    alpha = 3.7

    def residual(model, x):
        return min_zdot(*_lie_derivatives(model, x), input_box)[1]

    def scaled(fn):
        return lambda x: alpha * fn(x)

    scaled_hcf = HardConstraint(value=scaled(sysm.hcf.value),
                                gradient=scaled(sysm.hcf.gradient))
    scaled_sys = SystemModel(n=2, m=1, drift=sysm.drift, actuation=sysm.actuation,
                             hcf=scaled_hcf)
    rng = np.random.default_rng(12)
    for _ in range(40):
        x = rng.uniform([-10.0, -40.0], [0.0, 40.0])
        r, r_scaled = residual(sysm, x), residual(scaled_sys, x)
        assert r_scaled == pytest.approx(alpha ** 2 * r, rel=1e-9, abs=1e-12)


def test_max_over_box_matches_scalar():
    box = BoxSet([-2.0, 0.0], [1.0, 3.0])
    rng = np.random.default_rng(13)
    rows = rng.normal(size=(32, 2))
    biases = rng.normal(size=32)
    got = max_over_box(rows, biases, box)
    for i in range(32):
        want = biases[i] + max(rows[i] @ v for v in
                               [np.array([a, b]) for a in (-2.0, 1.0) for b in (0.0, 3.0)])
        assert got[i] == pytest.approx(want)
    # one input, a zero, a negative and a positive row: the maximum sits at
    # the vertex selected by the row's sign
    box = BoxSet([-300.0], [300.0])
    got = max_over_box([[0.0], [-0.3], [1.0]], [0.0, 0.0, -400.0], box)
    assert got.tolist() == [0.0, 90.0, -100.0]


def test_zero_tolerance_scale_aware():
    assert zero_tolerance(0.0) == pytest.approx(1e-9)
    assert zero_tolerance(10.0) == pytest.approx(1e-9 * 101.0)
