import numpy as np
import pytest

from cbfsynth.system import (BoxSet, CbfCandidate, HardConstraint, barrier, build_system,
                             eval_h_batch, identity_candidate,
                             make_double_integrator, registered_systems,
                             stack_candidates)

from conftest import REFERENCE_BOUNDS


def test_boxset_validation():
    box = BoxSet([-1.0, 0.0], [1.0, 2.0])
    assert box.dim == 2
    assert box.volume() == 4.0
    with pytest.raises(ValueError):
        BoxSet([1.0], [0.0])
    with pytest.raises(ValueError):
        BoxSet([0.0, 0.0], [1.0])


def test_eval_z_reference_values(di):
    sysm, _ = di
    assert sysm.hcf.value([-5.0, 0.0]) == 5.0
    assert sysm.hcf.value([-5.0, 20.0]) == pytest.approx(3.0)
    assert sysm.hcf.value([-1.0, 20.0]) == pytest.approx(-1.0)


def test_eval_zdot(di):
    sysm, _ = di

    def zdot(x, u):
        x = np.asarray(x, dtype=float)
        return float(sysm.hcf.gradient(x) @ (sysm.drift(x) + sysm.actuation(x) @ u))

    assert zdot([-5.0, 20.0], [-200.0]) == pytest.approx(0.0, abs=1e-12)
    for u in (-300.0, 0.0, 123.0):
        assert zdot([-5.0, -3.0], [u]) == pytest.approx(3.0)
    assert zdot([-5.0, 0.0], [0.0]) == 0.0


def test_eval_h_identity_equals_z(di):
    sysm, _ = di
    ident = identity_candidate(2)
    rng = np.random.default_rng(0)
    pts = rng.uniform(REFERENCE_BOUNDS.lower, REFERENCE_BOUNDS.upper, (200, 2))
    assert np.array_equal(eval_h_batch(ident, sysm.hcf, pts), sysm.hcf.value(pts))


def test_eval_h_reference_candidates(di):
    sysm, _ = di
    # per-axis scaling 1, 10/3 reproduces the steeper damped set
    steep = CbfCandidate([1.0, 10.0 / 3.0], [0.0, 0.0], 0.0)
    assert eval_h_batch(steep, sysm.hcf, [-3.0, 3.0]) == pytest.approx(2.0)
    # velocity cap as an affine constraint with an offset
    affine = HardConstraint(value=lambda x: -np.asarray(x, dtype=float)[..., 1],
                            gradient=lambda x: np.broadcast_to(
                                np.array([0.0, -1.0]), np.asarray(x).shape).copy())
    cap = CbfCandidate([1.0, 1.0], [0.0, 0.0], 30.0)
    assert eval_h_batch(cap, affine, [0.0, 30.0]) == pytest.approx(0.0)


def test_eval_h_grad(di):
    """The chain-rule gradient the safety filter builds its rows from."""
    sysm, _ = di
    ident = identity_candidate(2)
    x = np.array([[-5.0, 7.0], [-5.0, -7.0]])
    _, grad = barrier(sysm.hcf, x, [p[:, None] for p in stack_candidates([ident])], grad=True)
    assert np.allclose(grad[0], sysm.hcf.gradient(x))
    steep = CbfCandidate([1.0, 10.0 / 3.0], [0.0, 0.0], 0.0)
    _, grad = barrier(sysm.hcf, np.array([[-3.0, 3.0]]),
                      [p[:, None] for p in stack_candidates([steep])], grad=True)
    assert np.allclose(grad[0, 0], [-1.0, -1.0 / 3.0])


def test_eval_h_grad_affine_chain_rule():
    """For an affine z the gradient is a D and h the expanded affine form;
    the values come from the same transform as the gradient."""
    rng = np.random.default_rng(1)
    a_row = rng.normal(size=3)
    affine = HardConstraint(
        value=lambda x: np.asarray(x, dtype=float) @ a_row + 0.7,
        gradient=lambda x: np.broadcast_to(a_row, np.asarray(x).shape).copy())
    cand = CbfCandidate(rng.uniform(0.1, 2.0, 3), rng.normal(size=3), rng.normal())
    x = rng.normal(size=(20, 3))
    h, grad = barrier(affine, x, [p[:, None] for p in stack_candidates([cand])], grad=True)
    assert np.allclose(grad[0], a_row * cand.scale, rtol=1e-12, atol=1e-12)
    expanded = (cand.scale * x) @ a_row + a_row @ cand.shift + 0.7 + cand.offset
    assert np.allclose(h[0], expanded, rtol=0.0, atol=1e-12)


def test_gradient_matches_finite_differences(di):
    sysm, _ = di
    lo, hi = REFERENCE_BOUNDS.lower, REFERENCE_BOUNDS.upper
    xs = np.linspace(lo[0], hi[0], 100)
    vs = np.linspace(lo[1], hi[1], 100)
    eps = 1e-6
    worst = 0.0

    def smooth_at(state):   # z is differentiable away from the indicator switch v = 0
        return state[1] != 0.0

    for x in xs:
        for v in vs:
            if abs(v) < 1e-3:   # indicator switch line is not differentiable
                continue
            pt = np.array([x, v])
            grad = sysm.hcf.gradient(pt)
            for i in range(2):
                step = np.zeros(2)
                step[i] = eps
                if not (smooth_at(pt + step) and smooth_at(pt - step)):
                    continue
                fd = (sysm.hcf.value(pt + step) - sysm.hcf.value(pt - step)) / (2 * eps)
                denom = max(1.0, abs(grad[i]))
                worst = max(worst, abs(fd - grad[i]) / denom)
    assert worst <= 1e-5


def test_candidate_validation():
    with pytest.raises(ValueError):
        CbfCandidate([-0.1, 1.0], [0.0, 0.0], 0.0)
    with pytest.raises(ValueError):
        CbfCandidate([1.0], [0.0, 0.0], 0.0)
    cand = CbfCandidate([2.0, 2.0], [1.0, 1.0], -3.0)
    assert cand.is_uniform()
    assert not CbfCandidate([1.0, 2.0], [0.0, 0.0], 0.0).is_uniform()
    assert not CbfCandidate([0.0, 0.0], [0.0, 0.0], 0.0).is_uniform()


def test_make_double_integrator():
    sysm = make_double_integrator(0.0, 0.1)
    assert (sysm.n, sysm.m) == (2, 1)
    assert np.allclose(sysm.drift(np.array([-5.0, 20.0])), [20.0, 0.0])
    assert np.allclose(sysm.actuation(np.array([-5.0, 20.0])), [[0.0], [1.0]])
    # damping removed: gradient is (-1, 0) on both sides of the switch
    flat = make_double_integrator(0.0, 0.0)
    assert flat.hcf.value([-5.0, 37.0]) == 5.0
    assert np.allclose(flat.hcf.gradient(np.array([-5.0, 37.0])), [-1.0, 0.0])
    assert np.allclose(flat.hcf.gradient(np.array([-5.0, -37.0])), [-1.0, 0.0])
    with pytest.raises(ValueError):
        make_double_integrator(0.0, -0.1)


def test_indicator_takes_lower_branch_at_switch(di):
    sysm, _ = di
    assert sysm.hcf.value([-2.0, 0.0]) == 2.0
    assert np.allclose(sysm.hcf.gradient(np.array([-2.0, 0.0])), [-1.0, 0.0])


def test_registry():
    assert "double_integrator" in registered_systems()
    sysm, box = build_system("double_integrator", {"gamma2": 0.2, "u_max": 10.0})
    assert sysm.hcf.value([0.0, 10.0]) == pytest.approx(-2.0)
    assert box.upper[0] == 10.0
    with pytest.raises(KeyError):
        build_system("unicycle", {})
    with pytest.raises(ValueError):
        build_system("double_integrator", {"gamma3": 1.0})


def test_batched_evaluation_matches_scalar(di):
    """Each state's h from the batch and from the stacked kernel equals
    z(D x + c) + eps evaluated on that state alone, bit for bit."""
    sysm, _ = di
    rng = np.random.default_rng(2)
    pts = rng.uniform(REFERENCE_BOUNDS.lower, REFERENCE_BOUNDS.upper, (64, 2))
    cand = CbfCandidate([0.5, 2.0], [0.1, -3.0], 0.25)
    batch = eval_h_batch(cand, sysm.hcf, pts)
    stacked = barrier(sysm.hcf, pts, [p[:, None] for p in stack_candidates([cand])])[0]
    for i, x in enumerate(pts):
        alone = float(sysm.hcf.value(x * cand.scale + cand.shift) + cand.offset)
        assert batch[i] == alone and stacked[i] == alone
