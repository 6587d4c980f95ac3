from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize, rosen

from cbfsynth.boundary import auto_epsilon, extract_boundary
from cbfsynth.fitter import (MODES, ROOT_H_TOL, ROOT_MAX_STEPS, ROOT_WIDTH, FitConfig,
                             _block, _MODES, _nelder_mead, _score, _SearchContext,
                             check_redundancy, fit_multi, fit_uniform, load_fit, save_fit,
                             verify_candidate)
from cbfsynth.qp import QpProblem, solve_box_qp
from cbfsynth.sampler import run_sampling
from cbfsynth.system import (BoxSet, CbfCandidate, HardConstraint, SystemModel, barrier,
                             eval_h_batch, identity_candidate, stack_candidates)

from conftest import (AREA_FEASIBLE, AREA_NONUNIFORM, AREA_UNIFORM, AREA_Z,
                      REFERENCE_BOUNDS, run_fresh)

UNIT = BoxSet([0.0, 0.0], [1.0, 1.0])
UBOX1 = BoxSet([-1.0], [1.0])

# velocity cap {v <= 30} written through the damped constraint: with scales
# (0, 10) and offset 30, h = 30 - v wherever v > 0 and 30 elsewhere
CAP_CANDIDATE = CbfCandidate([0.0, 10.0], [0.0, 0.0], 30.0)


def _flat_system(level: float) -> SystemModel:
    hcf = HardConstraint(
        value=lambda x: np.full(np.asarray(x, dtype=float).shape[:-1], level),
        gradient=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    return SystemModel(
        n=2, m=1,
        drift=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        actuation=lambda x: np.zeros(np.asarray(x, dtype=float).shape + (1,)),
        hcf=hcf, name="flat")


def test_estimate_identity_matches_constraint_area(di, reference_run):
    sysm, input_box = di
    ctx = _SearchContext(reference_run, None, sysm, input_box, FitConfig(mode="uniform"))
    cands = [identity_candidate(2)]
    size = ctx.metrics(_block(cands), full=True)[0][0]
    assert size == pytest.approx(AREA_Z, rel=0.02)


def test_estimate_reference_pair_matches_feasible_area(di, reference_run):
    sysm, input_box = di
    ctx = _SearchContext(reference_run, None, sysm, input_box,
                         FitConfig(mode="multi", num_cbfs=2))
    cands = [identity_candidate(2), CAP_CANDIDATE]
    size = ctx.metrics(_block(cands), full=True)[0][0]
    assert size == pytest.approx(AREA_FEASIBLE, rel=0.02)


def test_estimate_empty_set(di, reference_run):
    sysm, input_box = di
    ctx = _SearchContext(reference_run, None, sysm, input_box, FitConfig())
    sunk = [CbfCandidate([1.0, 1.0], [0.0, 0.0], -1e6)]
    assert ctx.metrics(_block(sunk), full=True)[0][0] == 0.0


def test_estimate_validation(di, reference_run):
    """No candidates give no objective, and a sampling box of zero volume, or
    one that a sample lies outside, or an empty sample set gives no context
    to score in: the set size is the enclosed share of the samples times the
    box's volume."""
    sysm, input_box = di
    ctx = _SearchContext(reference_run, None, sysm, input_box, FitConfig())
    with pytest.raises(ValueError):
        ctx.metrics((np.zeros((1, 0, 2)), np.zeros((1, 0, 2)), np.zeros((1, 0))), full=True)
    degenerate = replace(reference_run, bounds=BoxSet([-10.0, -40.0], [-10.0, 40.0]))
    with pytest.raises(ValueError, match="sampling box has zero volume"):
        _SearchContext(degenerate, None, sysm, input_box, FitConfig())
    narrow = replace(reference_run, bounds=BoxSet([-8.0, -30.0], [-1.0, 30.0]))
    with pytest.raises(ValueError, match="outside the sampling box"):
        _SearchContext(narrow, None, sysm, input_box, FitConfig())
    empty = replace(reference_run, states=reference_run.states[:0],
                    labels=reference_run.labels[:0])
    with pytest.raises(ValueError, match="sample set is empty"):
        _SearchContext(empty, None, sysm, input_box, FitConfig())


def test_sample_count_invariant_under_positive_rescaling():
    """For an affine constraint, the candidate map realizing h -> zeta h leaves
    the enclosed-sample count unchanged."""
    a_row = np.array([-1.0, 0.5])
    intercept = 0.8
    hcf = HardConstraint(
        value=lambda x: np.asarray(x, dtype=float) @ a_row + intercept,
        gradient=lambda x: np.broadcast_to(a_row, np.asarray(x).shape).copy())
    sysm = SystemModel(n=2, m=1,
                       drift=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                       actuation=lambda x: np.zeros(np.asarray(x).shape + (1,)),
                       hcf=hcf, name="affine")
    s = run_sampling(sysm, UBOX1, UNIT, n_min=500, delta=1.0, growth=3.0, seed=8,
                     n_start=729)
    ctx = _SearchContext(s, None, sysm, UBOX1, FitConfig())
    base = CbfCandidate([1.0, 2.0], [0.1, -0.2], 0.05)
    v0 = ctx.metrics(_block([base]), full=True)[0][0]
    for zeta in (0.5, 2.0, 7.3):
        scaled = [CbfCandidate(zeta * base.scale, zeta * base.shift,
                               zeta * base.offset + (zeta - 1.0) * intercept)]
        assert ctx.metrics(_block(scaled), full=True)[0][0] == v0


def test_check_redundancy_identical(di):
    sysm, _ = di
    probes = np.random.default_rng(0).uniform(REFERENCE_BOUNDS.lower,
                                              REFERENCE_BOUNDS.upper, (16, 2))
    c = CbfCandidate([1.0, 1.0], [0.5, -2.0], 0.3)
    assert check_redundancy(c, c, sysm.hcf, probes)


def test_check_redundancy_affine_scaled():
    a_row = np.array([1.0, -2.0])
    b = 0.4
    hcf = HardConstraint(
        value=lambda x: np.asarray(x, dtype=float) @ a_row + b,
        gradient=lambda x: np.broadcast_to(a_row, np.asarray(x).shape).copy())
    probes = np.random.default_rng(1).normal(size=(16, 2))
    c2 = CbfCandidate([0.7, 1.3], [0.2, 0.1], -0.6)
    zeta = 2.0
    c1 = CbfCandidate(zeta * c2.scale, zeta * c2.shift, zeta * c2.offset + (zeta - 1) * b)
    assert check_redundancy(c1, c2, hcf, probes)
    # breaking the intercept map breaks proportionality
    c1_bad = CbfCandidate(zeta * c2.scale, zeta * c2.shift, zeta * c2.offset + 0.3)
    assert not check_redundancy(c1_bad, c2, hcf, probes)


def test_check_redundancy_reference_pair(di):
    sysm, _ = di
    probes = np.array([[-9.0, -30.0], [-8.0, 10.0], [-5.0, 25.0], [-2.0, 5.0],
                       [-1.0, -10.0]])
    assert not check_redundancy(identity_candidate(2), CAP_CANDIDATE, sysm.hcf, probes)


def test_check_redundancy_indeterminate_warns():
    flat = _flat_system(0.0)
    probes = np.random.default_rng(2).uniform(size=(8, 2))
    c1 = CbfCandidate([1.0, 1.0], [0.0, 0.0], 0.0)
    c2 = CbfCandidate([2.0, 2.0], [0.0, 0.0], 0.0)
    with pytest.warns(UserWarning):
        assert not check_redundancy(c1, c2, flat.hcf, probes)


def test_check_redundancy_anti_proportional():
    """h1 = -h2 fits zeta = -1 exactly: the tuples bound opposite sets, so
    neither is redundant, although h1 - zeta h2 vanishes."""
    hcf = HardConstraint(
        value=lambda x: np.cos(np.asarray(x, dtype=float)[..., 0]),
        gradient=lambda x: np.stack([-np.sin(np.asarray(x, dtype=float)[..., 0]),
                                     np.zeros(np.shape(x)[:-1])], axis=-1))
    probes = np.random.default_rng(3).uniform(-1.0, 1.0, (8, 2))
    c1 = CbfCandidate([1.0, 1.0], [0.0, 0.0], 0.0)
    c2 = CbfCandidate([1.0, 1.0], [np.pi, 0.0], 0.0)
    assert np.allclose(eval_h_batch(c1, hcf, probes), -eval_h_batch(c2, hcf, probes))
    assert not check_redundancy(c1, c2, hcf, probes)


def test_check_redundancy_needs_probes(di):
    sysm, _ = di
    with pytest.raises(ValueError):
        check_redundancy(identity_candidate(2), CAP_CANDIDATE, sysm.hcf,
                         np.zeros((2, 2)))


_LAYOUTS = {
    "c": lambda x: x[:257],
    "fortran": lambda x: np.asfortranarray(x[:257]),
    "strided": lambda x: x[::3],
    "column-stacked": lambda x: np.column_stack([x[:257, 0], x[:257, 1]]),
}


@pytest.mark.parametrize("count, layout", [
    pytest.param(k, layout, id=str(k) if layout == "c" else f"{k}-{layout}")
    for k in (1, 2, 3) for layout in _LAYOUTS])
def test_eval_h_stack_matches_per_candidate(di, count, layout):
    """`barrier` over stacked candidates, and over candidates paired row by
    row with the states as the chord probes pair them, gives the row-major
    values of one `eval_h_batch` call per candidate bit for bit, in every
    memory layout of the states."""
    sysm, _ = di
    base = np.random.default_rng(4).uniform(REFERENCE_BOUNDS.lower,
                                            REFERENCE_BOUNDS.upper, (771, 2))
    base[:24, 1] = 0.0                        # the indicator's switching surface
    states = _LAYOUTS[layout](base)
    assert np.count_nonzero(states[:, 1] == 0.0) >= 8
    cands = [CAP_CANDIDATE,                   # zero position scale
             CbfCandidate([0.0, 0.0], [-1.5, 2.0], 0.25),
             CbfCandidate([1.7, 0.3], [0.5, -3.0], -0.8)][:count]
    expect = np.stack([eval_h_batch(c, sysm.hcf, np.ascontiguousarray(states))
                       for c in cands])
    assert np.array_equal(_h_rows(cands, sysm.hcf, states), expect)
    # each state with its own candidate's (N, n) column-major parameters
    owner = np.arange(len(states)) % count
    paired = [np.asfortranarray(p[owner]) for p in stack_candidates(cands)]
    assert np.array_equal(barrier(sysm.hcf, states, paired),
                          expect[owner, np.arange(len(states))])


def _h_rows(cands, hcf, states):
    """(s, N) values of s candidates over N states, from one barrier call."""
    return barrier(hcf, states, [p[:, None] for p in stack_candidates(cands)])


def test_fit_and_verify_ignore_sample_layout(di):
    """A column-major copy of the sample states changes no fitted or verified bit."""
    sysm, input_box = di
    s = run_sampling(sysm, input_box, REFERENCE_BOUNDS, n_min=500, delta=1.0,
                     growth=3.0, seed=13, n_start=2187)
    f = replace(s, states=np.asfortranarray(s.states))
    assert s.states.flags.c_contiguous and not f.states.flags.c_contiguous
    b = extract_boundary(s, 0.02)
    cfg = FitConfig(mode="multi", num_cbfs=2, margin=0.02, restarts=1, iterations=40,
                    population=4, probes=64)
    r_c, r_f = (fit_multi(x, b, sysm, input_box, cfg) for x in (s, f))
    assert r_c.feasible
    assert (r_c.objective_value, r_c.verification, r_c.redundancy_flags, r_c.diagnostics) \
        == (r_f.objective_value, r_f.verification, r_f.redundancy_flags, r_f.diagnostics)
    for c1, c2 in zip(r_c.candidates, r_f.candidates, strict=True):
        assert np.array_equal(c1.scale, c2.scale) and np.array_equal(c1.shift, c2.shift)
        assert c1.offset == c2.offset
    cands = [identity_candidate(2), CAP_CANDIDATE]
    assert verify_candidate(cands, s, sysm, input_box, probes=64, boundary=b) \
        == verify_candidate(cands, f, sysm, input_box, probes=64, boundary=b)


def test_h_unit_stacked_matches_single(di, reference_run, reference_boundary):
    sysm, input_box = di
    cfg = FitConfig(mode="multi", num_cbfs=3, margin=reference_boundary.epsilon)
    ctx = _SearchContext(reference_run, reference_boundary, sysm, input_box, cfg)
    cands = [identity_candidate(2), CAP_CANDIDATE, CbfCandidate([1.7, 0.3], [0.5, -3.0], -0.8)]
    single = [cfg.margin * ctx.h_unit(c.scale, c.shift) for c in cands]
    assert np.array_equal(cfg.margin * ctx.h_unit(*_block(cands)[:2])[0], np.array(single))


@pytest.mark.parametrize("k", [1, 5])
def test_h_unit_matches_the_norm_and_mean_formula(k):
    """`h_unit` gives, bit for bit, the mean over the 512 gradient probes of
    the row norms that `np.linalg.norm` and `np.mean` compute, on one and on
    k stacked candidates of a three-state constraint whose gradient varies,
    so the order of each sum shows."""
    from types import SimpleNamespace
    rng = np.random.default_rng(11)
    hcf = HardConstraint(
        value=lambda x: np.sin(x[..., 0]) - x[..., 1] ** 2 + np.exp(0.1 * x[..., 2]),
        gradient=lambda x: np.stack([np.cos(x[..., 0]), -2.0 * x[..., 1],
                                     0.1 * np.exp(0.1 * x[..., 2])], axis=-1))
    ctx = SimpleNamespace(hcf=hcf, grad_probe=np.asfortranarray(rng.normal(size=(512, 3))),
                          span_w=np.array([10.0, 80.0, 0.3]))
    scale, shift = rng.uniform(0.2, 5.0, (k, 3)), rng.uniform(-3.0, 3.0, (k, 3))
    grad = hcf.gradient(ctx.grad_probe * scale[:, None] + shift[:, None]) \
        * (scale[:, None] * ctx.span_w)
    want = np.maximum(np.mean(np.linalg.norm(np.ascontiguousarray(grad), axis=-1), axis=-1),
                      1e-12)
    assert _SearchContext.h_unit(ctx, scale, shift).tobytes() == want.tobytes()
    assert _SearchContext.h_unit(ctx, scale[0], shift[0]).tobytes() == want[0].tobytes()


def _picked(ctx, block, want):
    """Every tuple's chords, as `metrics` picks them from the search rows."""
    picked = []
    ctx.metrics(block, chords=picked, want=want)
    return picked


def _chords(ctx, h_rows, j, want):
    """Candidate j's chord ends, chosen from the pool as boundary_probes does."""
    hmin = np.minimum.reduce(h_rows, axis=0)
    a, b = ctx.pool_a, ctx.pool_b
    good = (hmin[a] >= 0.0) & (h_rows[j, b] < 0.0)
    return ctx.states_sub[a[good][:want]], ctx.states_sub[b[good][:want]]


def _bisect(cand, hcf, xa, xb, bisect_iters=30):
    """Chord bisection, one eval_h_batch call per step; returns the h >= 0 ends."""
    for _ in range(bisect_iters):
        mid = 0.5 * (xa + xb)
        pos = eval_h_batch(cand, hcf, mid) >= 0.0
        xa = np.where(pos[:, None], mid, xa)
        xb = np.where(pos[:, None], xb, mid)
    return xa


def _on_active(cands, hcf, x):
    h_all = np.stack([eval_h_batch(c, hcf, x) for c in cands])
    scale = 1.0 + np.max(np.abs(h_all), initial=0.0)
    return np.all(h_all >= -1e-7 * scale, axis=0)


def _reference_probes(ctx, cands, j, h_rows, want, bisect_iters=30):
    """Candidate j's chords bisected alone, one eval_h_batch call per step."""
    xa, xb = _chords(ctx, h_rows, j, want)
    xa = _bisect(cands[j], ctx.hcf, xa, xb, bisect_iters)
    return xa[_on_active(cands, ctx.hcf, xa)]


@pytest.mark.parametrize("want", [48, 256])
def test_boundary_probes_match_per_candidate_bisection(di, reference_run, want):
    """The probes are bisection's to within its own error: the same chords
    and owners, every root on its chord with 0 <= h_j <= ROOT_H_TOL (1 + the
    larger end value) and within 2^-29 chord lengths of the bisection root."""
    sysm, input_box = di
    cands = [identity_candidate(2), CAP_CANDIDATE]
    ctx = _SearchContext(reference_run, None, sysm, input_box,
                         FitConfig(mode="multi", num_cbfs=2))
    h_rows = _h_rows(cands, sysm.hcf, ctx.states_sub)
    roots, owner = ctx.boundary_probes(_block(cands), _picked(ctx, _block(cands), want))
    for j, cand in enumerate(cands):
        xa, xb = _chords(ctx, h_rows, j, want)
        expect = _bisect(cand, sysm.hcf, xa, xb)
        keep = _on_active(cands, sysm.hcf, expect)
        a, b, expect = xa[keep], xb[keep], expect[keep]
        got = roots[owner == j]
        assert 0 < expect.shape[0] <= want
        assert got.shape == expect.shape
        d = b - a
        length = np.linalg.norm(d, axis=1)
        t = np.sum((got - a) * d, axis=1) / length ** 2
        assert np.all((t >= 0.0) & (t <= 1.0))
        off = np.linalg.norm(got - (a + t[:, None] * d), axis=1)
        assert np.all(off <= 1e-12 * (1.0 + np.abs(a).sum(axis=1) + np.abs(b).sum(axis=1)))
        h = eval_h_batch(cand, sysm.hcf, got)
        scale = np.maximum(np.abs(eval_h_batch(cand, sysm.hcf, a)),
                           np.abs(eval_h_batch(cand, sysm.hcf, b)))
        assert np.all((h >= 0.0) & (h <= ROOT_H_TOL * (1.0 + scale)))
        assert np.all(np.linalg.norm(got - expect, axis=1) <= 2.0 ** -29 * length)


def _jump_system(c: float) -> SystemModel:
    """z = 1 - 2 1{x0 > c}, with no dynamics."""
    hcf = HardConstraint(
        value=lambda x: 1.0 - 2.0 * (np.asarray(x, dtype=float)[..., 0] > c),
        gradient=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    return SystemModel(
        n=2, m=1,
        drift=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        actuation=lambda x: np.zeros(np.asarray(x, dtype=float).shape + (1,)),
        hcf=hcf, name="jump")


def test_boundary_probes_bisect_where_the_secant_stalls():
    """With offset 1 - 1e-6, h jumps from 2 - 1e-6 to -1e-6 at x0 = c, so a
    regula falsi step moves a bracket end by about a millionth of its width.
    The midpoint fallback must still end every chord within 2^-30 chord
    lengths of the jump, on its h >= 0 side, inside the step bound."""
    c = 0.3141592653589793
    sysm = _jump_system(c)
    s = run_sampling(sysm, UBOX1, UNIT, n_min=200, delta=1.0, growth=3.0, seed=9,
                     n_start=729)
    ctx = _SearchContext(s, None, sysm, UBOX1, FitConfig())
    cand = CbfCandidate([1.0, 1.0], [0.0, 0.0], 1.0 - 1e-6)
    h_rows = _h_rows([cand], sysm.hcf, ctx.states_sub)
    a, b = _chords(ctx, h_rows, 0, 256)
    roots, owner = ctx.boundary_probes(_block([cand]), _picked(ctx, _block([cand]), 256))
    assert roots.shape == a.shape and a.shape[0] == 256
    assert np.all(owner == 0)
    gap = c - roots[:, 0]
    assert np.all(gap >= 0.0)
    assert np.all(gap <= ROOT_WIDTH * (b[:, 0] - a[:, 0]) + 1e-15)
    assert len(ctx.root_steps) == 1 and ctx.root_steps[0] <= ROOT_MAX_STEPS


def test_verify_identity_alone_matches_qp_oracle(di, reference_run, reference_boundary):
    """Alone, the identity candidate's boundary includes velocities above the
    cap of 30, where no input keeps h from falling; verification must count
    those probes exactly as a per-probe box QP does."""
    sysm, input_box = di
    ident = identity_candidate(2)
    rep = verify_candidate([ident], reference_run, sysm, input_box, probes=256,
                           boundary=reference_boundary)
    ctx = _SearchContext(reference_run, reference_boundary, sysm, input_box,
                         FitConfig(mode="nonuniform", num_cbfs=2, probes=256))
    h_rows = _h_rows([ident], sysm.hcf, ctx.states_sub)
    pts = _reference_probes(ctx, [ident], 0, h_rows, 256)
    passing = 0
    for x in pts:
        grad_h = sysm.hcf.gradient(x * ident.scale + ident.shift) * ident.scale
        row = np.asarray(grad_h @ sysm.actuation(x), dtype=float).reshape(sysm.m)
        bias = float(grad_h @ sysm.drift(x))
        sol = solve_box_qp(QpProblem(hessian=np.zeros((sysm.m, sysm.m)), linear=-row,
                                     ineq_rows=np.zeros((0, sysm.m)),
                                     ineq_rhs=np.zeros(0), box=input_box))
        passing += bias + float(row @ sol.argmin) >= -1e-9 * (1.0 + abs(bias))
    assert passing / len(pts) == 0.8203125
    assert rep.boundary_cbf_feasible_fraction == 0.8203125


def test_verify_reference_pair(di, reference_run, reference_boundary):
    sysm, input_box = di
    rep = verify_candidate([identity_candidate(2), CAP_CANDIDATE], reference_run,
                           sysm, input_box, probes=256, boundary=reference_boundary)
    assert rep.containment_fraction >= 0.99
    assert rep.boundary_cbf_feasible_fraction >= 0.99
    assert rep.prop2_feasible_fraction >= 0.99
    assert not rep.empty_warning


def test_verify_needs_a_candidate(di, reference_run):
    sysm, input_box = di
    with pytest.raises(ValueError, match="^need at least one candidate$"):
        verify_candidate([], reference_run, sysm, input_box)


def test_verify_inflated_candidate_flagged(di, reference_run):
    sysm, input_box = di
    inflated = CbfCandidate([1.0, 1.0], [0.0, 0.0], 10.0)
    rep = verify_candidate([inflated], reference_run, sysm, input_box, probes=64)
    assert rep.containment_fraction < 1.0


def test_verify_empty_candidate_vacuous(di, reference_run):
    sysm, input_box = di
    sunk = CbfCandidate([1.0, 1.0], [0.0, 0.0], -1e6)
    rep = verify_candidate([sunk], reference_run, sysm, input_box, probes=64)
    assert rep.empty_warning
    assert rep.containment_fraction == 1.0
    assert rep.boundary_cbf_feasible_fraction == 1.0


def test_fit_uniform_vacuous_boundary_covers_samples():
    sysm = _flat_system(1.0)
    s = run_sampling(sysm, UBOX1, UNIT, n_min=200, delta=1.0, growth=3.0, seed=9,
                     n_start=243)
    b = extract_boundary(s, 0.05)
    assert len(b) == 0
    res = fit_uniform(s, b, sysm, UBOX1, FitConfig(restarts=2, iterations=60, population=8))
    assert res.feasible
    assert np.all(eval_h_batch(res.candidates[0], sysm.hcf, s.states) >= 0.0)
    assert res.objective_value == pytest.approx(1.0, rel=1e-9)


def test_fit_infeasible_when_nothing_is_feasible():
    """z = -x0 with a constant drift toward the constraint, x0' = 1, and the
    input acting on x1 only: L_g z = 0 and L_f z = -1 < 0 everywhere, so
    every in-constraint sample is infeasible and no candidate can be
    accepted."""
    hcf = HardConstraint(
        value=lambda x: -np.asarray(x, dtype=float)[..., 0],
        gradient=lambda x: np.broadcast_to(np.array([-1.0, 0.0]), np.shape(x)).copy())
    sysm = SystemModel(
        n=2, m=1,
        drift=lambda x: np.broadcast_to(np.array([1.0, 0.0]), np.shape(x)).copy(),
        actuation=lambda x: np.broadcast_to(np.array([[0.0], [1.0]]),
                                            np.shape(x) + (1,)).copy(),
        hcf=hcf, name="drifting")
    ubox = BoxSet([-300.0], [300.0])
    s = run_sampling(sysm, ubox, REFERENCE_BOUNDS, n_min=500, delta=1.0, growth=3.0,
                     seed=10, n_start=729)
    assert s.jaccard == 0.0
    b = extract_boundary(s, 0.05)
    res = fit_uniform(s, b, sysm, ubox, FitConfig(restarts=2, iterations=60, population=8))
    assert not res.feasible
    assert res.candidates == []
    # three structured seeds outnumber the two restarts asked for
    assert "after 3 restarts" in res.diagnostics
    # the containment diagnosis is also visible through verification directly
    rep = verify_candidate([identity_candidate(2)], s, sysm, ubox, probes=32)
    assert rep.containment_fraction == 0.0


def test_fit_multi_collapses_duplicate_tuples():
    sysm = _flat_system(1.0)
    s = run_sampling(sysm, UBOX1, UNIT, n_min=200, delta=1.0, growth=3.0, seed=12,
                     n_start=243)
    b = extract_boundary(s, 0.05)
    cfg = FitConfig(mode="multi", num_cbfs=2, restarts=2, iterations=40, population=4)
    with pytest.warns(UserWarning):
        res = fit_multi(s, b, sysm, UBOX1, cfg)
    assert res.feasible
    assert len(res.candidates) == 1
    assert any(flag for _, _, flag in res.redundancy_flags)
    assert res.objective_value == pytest.approx(1.0, rel=1e-9)


def test_fit_multi_keeps_seed_when_block_passes_fail(monkeypatch):
    """The accepted seed survives later in-place edits of the search vector.

    Block passes that overwrite theta with a rejected point, and local
    searches that keep it, leave the seed offer as the only accepted one; the
    returned tuple must be that seed, not a mix of it and the edited vector.
    """
    from cbfsynth import fitter

    def corrupting_passes(ctx, theta, steps, jitter, fun, offer):
        block = 2 * ctx.n + 1
        theta[:] = 5.0
        theta[2 * ctx.n::block] = -1e9          # h < 0 everywhere: encloses nothing
        offer(theta)
        return theta

    monkeypatch.setattr(fitter, "_block_passes", corrupting_passes)
    monkeypatch.setattr(fitter, "_nelder_mead", lambda fun, x0, steps, maxiter: x0.copy())
    sysm = _flat_system(1.0)
    s = run_sampling(sysm, UBOX1, UNIT, n_min=200, delta=1.0, growth=3.0, seed=12,
                     n_start=243)
    b = extract_boundary(s, 0.05)
    cfg = FitConfig(mode="multi", num_cbfs=2, restarts=1, iterations=40, population=4)
    with pytest.warns(UserWarning):
        res = fit_multi(s, b, sysm, UBOX1, cfg)
    assert res.feasible
    seed = identity_candidate(2)
    for c in res.candidates:
        assert np.array_equal(c.scale, seed.scale)
        assert np.array_equal(c.shift, seed.shift)
        assert c.offset == seed.offset
    assert res.objective_value == pytest.approx(1.0, rel=1e-9)


def test_fit_determinism(di):
    sysm, input_box = di
    s = run_sampling(sysm, input_box, REFERENCE_BOUNDS, n_min=500, delta=1.0,
                     growth=3.0, seed=13, n_start=2187)
    b = extract_boundary(s, 0.02)
    cfg = FitConfig(restarts=2, iterations=80, population=8, seed=42)
    r1 = fit_uniform(s, b, sysm, input_box, cfg)
    r2 = fit_uniform(s, b, sysm, input_box, cfg)
    assert r1.objective_value == r2.objective_value
    for c1, c2 in zip(r1.candidates, r2.candidates):
        assert np.array_equal(c1.scale, c2.scale)
        assert np.array_equal(c1.shift, c2.shift)
        assert c1.offset == c2.offset


@pytest.fixture(scope="module")
def small_run(di):
    sysm, input_box = di
    s = run_sampling(sysm, input_box, REFERENCE_BOUNDS, n_min=500, delta=1.0,
                     growth=3.0, seed=13, n_start=2187)
    return s, extract_boundary(s, auto_epsilon(s))


@pytest.mark.parametrize("mode, restarts", [
    ("uniform", 5), ("nonuniform", 3), ("multi", 4), ("multi", 1),
], ids=["uniform", "nonuniform", "multi", "multi-one-run"])
def test_fit_result_independent_of_worker_count(di, small_run, monkeypatch, mode, restarts):
    """Restarts forked onto two workers give the fit, bit for bit, and the
    search counts that one worker gives. With a warm tuple, every mode but
    the one-run case has more restarts than seeds, so both the random
    populations and the block-pass jitter are drawn up front."""
    from cbfsynth import fitter, parallel
    sysm, input_box = di
    s, b = small_run
    cfg = FitConfig(mode=mode, num_cbfs=2, restarts=restarts, iterations=40,
                    population=4, seed=7)
    warm = [(CAP_CANDIDATE,)] if restarts > 1 else []
    results = []
    for workers in (1, 2):
        monkeypatch.setattr(parallel, "workers", lambda tasks, workers=workers: workers)
        res = getattr(fitter, f"fit_{mode}")(s, b, sysm, input_box, cfg, warm=warm)
        assert res.counts.workers == workers
        results.append(res)
    one, two = results
    assert one.feasible and two.feasible
    assert [(c.scale.tobytes(), c.shift.tobytes(), c.offset) for c in one.candidates] \
        == [(c.scale.tobytes(), c.shift.tobytes(), c.offset) for c in two.candidates]
    assert one.objective_value == two.objective_value
    assert one.verification == two.verification
    assert one.redundancy_flags == two.redundancy_flags
    assert one.diagnostics == two.diagnostics
    assert one.counts == replace(two.counts, workers=1)
    assert one.counts.evaluations > 0 and one.counts.accepted > 0
    assert 0 < one.counts.score_calls <= one.counts.evaluations


# the search counts that commit c569c30, whose kernel scored one point per
# call, makes on test_search_counts_match_sequential_scoring's budget
_PINNED_COUNTS = {
    "uniform": (274, 8, 0, 0, 0.0, 0),
    "nonuniform": (150, 8, 0, 0, 0.0, 0),
    "multi": (3605, 11, 9, 3614, 5.662147205312673, 17),
}


def _drop_cut(monkeypatch):
    """Make the fit's score kernel ignore Nelder-Mead's cut, so every
    evaluation runs its exists-input check at once, as before the kernel had
    one; a deferral list is ignored."""
    from cbfsynth import fitter
    score = fitter._score
    monkeypatch.setattr(fitter, "_score",
                        lambda ctx, mode, block, cut=np.inf, defer=None: score(ctx, mode, block))


def _warm_fits(di, small_run, input_box=None, **settings) -> dict:
    """Each mode's fit, warm-started from the earlier ones as the pipeline
    does, on `input_box` or the reference one."""
    from cbfsynth import fitter
    sysm, input_box = di[0], input_box or di[1]
    s, b = small_run
    fits, warm = {}, []
    for mode in MODES:
        cfg = FitConfig(mode=mode, num_cbfs=2, **settings)
        fits[mode] = getattr(fitter, f"fit_{mode}")(s, b, sysm, input_box, cfg, warm=warm)
        warm.append(tuple(fits[mode].candidates))
    return fits


def test_search_counts_match_sequential_scoring(di, small_run, monkeypatch):
    """Scoring Nelder-Mead's simplex in blocks changes no search count: each
    mode, warm-started from the earlier ones as the pipeline does, makes the
    evaluations, offers, probe calls and root steps that commit c569c30 made
    scoring one point at a time, once the kernel ignores the cut. Multi's
    random restart scores its whole `population` pool in one block. With
    the cut, the same evaluations and offers run, and multi probes less."""
    settings = dict(margin=small_run[1].epsilon, restarts=4, iterations=20, population=4,
                    seed=3)
    with monkeypatch.context() as patch:
        _drop_cut(patch)
        uncut = _warm_fits(di, small_run, **settings)
    fits = _warm_fits(di, small_run, **settings)
    for mode in MODES:
        u, c = uncut[mode].counts, fits[mode].counts
        assert (u.evaluations, u.accepted, u.rejected, u.probe_calls, u.root_steps_mean,
                u.root_steps_max) == _PINNED_COUNTS[mode]
        assert 0 < u.score_calls < u.evaluations
        assert (c.evaluations, c.accepted, c.rejected) == (u.evaluations, u.accepted, u.rejected)
    assert fits["multi"].counts.probe_calls < uncut["multi"].counts.probe_calls


def test_cut_changes_no_fit(di, small_run, monkeypatch):
    """Skipping the exists-input check of steps that Nelder-Mead's cut
    rejects changes no fit: in every mode, warm-started as the pipeline
    does, the real fit and one whose kernel ignores the cut give the same
    candidate bytes, objective, verification, redundancy flags, evaluations,
    score calls and offers. On one worker, multi makes fewer probe calls and
    nonuniform fewer exists-input checks at the boundary samples."""
    from cbfsynth import parallel
    monkeypatch.setattr(parallel, "workers", lambda tasks: 1)
    checks = []
    prop2_pass = _SearchContext.prop2_pass
    monkeypatch.setattr(_SearchContext, "prop2_pass",
                        lambda ctx, scale: checks.append(1) or prop2_pass(ctx, scale))
    settings = dict(restarts=3, iterations=40, population=4, seed=7)
    with monkeypatch.context() as patch:
        _drop_cut(patch)
        uncut = _warm_fits(di, small_run, **settings)
    uncut_checks, checks[:] = len(checks), []
    fits = _warm_fits(di, small_run, **settings)
    for mode in MODES:
        got, want = fits[mode], uncut[mode]
        assert got.feasible and want.feasible
        assert [(c.scale.tobytes(), c.shift.tobytes(), c.offset) for c in got.candidates] \
            == [(c.scale.tobytes(), c.shift.tobytes(), c.offset) for c in want.candidates]
        assert got.objective_value == want.objective_value
        assert got.verification == want.verification
        assert got.redundancy_flags == want.redundancy_flags
        g, w = got.counts, want.counts
        assert (g.evaluations, g.score_calls, g.accepted, g.rejected) \
            == (w.evaluations, w.score_calls, w.accepted, w.rejected)
        if mode != "multi":
            assert g == w
    assert fits["multi"].counts.probe_calls < uncut["multi"].counts.probe_calls
    assert len(checks) < uncut_checks


@pytest.mark.filterwarnings("ignore:collapsed:UserWarning")   # multi on the one-sign box
@pytest.mark.parametrize("box", ["reference", "one-sign"])
def test_deferral_changes_no_fit(di, small_run, monkeypatch, box):
    """Deferring each restart's exists-input checks changes no fit: nonuniform
    and multi, warm-started as the pipeline does, on one and on two workers,
    give the candidate bytes, objective, verification, redundancy flags and
    every search count of a fit whose kernel checks every evaluation at once.
    On inputs of one sign, u in [0.5, 1], a deferred check finds a penalty
    and its restart reruns (a rollback); on the reference box, which holds
    u = 0, none does, so no deferred work is lost there."""
    from cbfsynth import fitter, parallel
    input_box = BoxSet([0.5], [1.0]) if box == "one-sign" else None
    settings = dict(restarts=3, iterations=40, population=4, seed=7)
    rollbacks = []
    attempt = fitter._attempt

    def counting(ctx, mode, steps, start, defer):
        if defer is None:
            rollbacks.append(mode)
        return attempt(ctx, mode, steps, start, defer)

    monkeypatch.setattr(fitter, "_attempt", counting)
    monkeypatch.setattr(parallel, "workers", lambda tasks: 1)
    with monkeypatch.context() as patch:
        score = fitter._score
        patch.setattr(fitter, "_score",
                      lambda ctx, mode, block, cut=np.inf, defer=None: score(ctx, mode, block, cut))
        at_once = _warm_fits(di, small_run, input_box, **settings)
    assert rollbacks == []
    deferred = [_warm_fits(di, small_run, input_box, **settings)]
    assert bool(rollbacks) == (box == "one-sign")
    monkeypatch.setattr(parallel, "workers", lambda tasks: 2)   # rollbacks run forked
    deferred.append(_warm_fits(di, small_run, input_box, **settings))
    for mode in ("nonuniform", "multi"):
        want = at_once[mode]
        for workers, fits in enumerate(deferred, 1):
            got = fits[mode]
            assert [(c.scale.tobytes(), c.shift.tobytes(), c.offset) for c in got.candidates] \
                == [(c.scale.tobytes(), c.shift.tobytes(), c.offset) for c in want.candidates]
            assert got.objective_value == want.objective_value
            assert got.verification == want.verification
            assert got.redundancy_flags == want.redundancy_flags
            assert got.counts == replace(want.counts, workers=workers)


def _uncached_metrics(ctx, block):
    """The score kernel's per-tuple formula with no row kept between
    tuples, as an oracle: each tuple's (s, N) barrier rows over the search
    subsample, min-reduced for the enclosed count and, shifted by every
    candidate's margin buffer, for the guard; and h at the chord pool's ends,
    (B, s, 2 P). Returns (area, violation, enclosed count, h at the ends)."""
    scale, shift, offset = block
    ends = np.concatenate([ctx.pool_a, ctx.pool_b])
    shifts = ctx.cfg.margin * ctx.h_unit(scale, shift) if ctx.cfg.margin else None
    viol, n_inside = np.zeros(len(offset)), np.zeros(len(offset), dtype=int)
    h_ends = np.empty(offset.shape + ends.shape)
    for b in range(len(offset)):
        h_rows = barrier(ctx.hcf, ctx.states_sub,
                         (scale[b, :, None], shift[b, :, None], offset[b, :, None]))
        h_ends[b] = h_rows.take(ends, axis=1)
        inside = np.minimum.reduce(h_rows, axis=0) >= 0.0
        n_inside[b] = np.count_nonzero(inside)
        if shifts is not None:
            inside = np.minimum.reduce(h_rows + shifts[b, :, None], axis=0) >= 0.0
        n_guard = int(np.count_nonzero(inside))
        viol[b] = float(np.count_nonzero(inside & ~ctx.feas_sub)) / n_guard if n_guard else 0.0
    return n_inside / len(ctx.states_sub) * ctx.vol, viol, n_inside, h_ends


def _uncached_chords(ctx, h_ends, want):
    """Each candidate's chords, in order b s + j, picked from the (B, s, 2 P)
    end values over the whole pool at once, as an oracle."""
    pool = ctx.pool_a.size
    h_a, h_b = h_ends[..., :pool], h_ends[..., pool:]
    enclosed = np.minimum.reduce(h_a, axis=1) >= 0.0
    picked = (enclosed[:, None] & (h_b < 0.0)).reshape(-1, pool)
    return [(k, h_a.reshape(-1, pool)[i, k], h_b.reshape(-1, pool)[i, k])
            for i, k in enumerate(np.flatnonzero(row)[:want] for row in picked)]


@pytest.mark.filterwarnings("ignore:collapsed:UserWarning")   # multi on the one-sign box
@pytest.mark.parametrize("case", ["margin", "margin-0", "one-sign"])
def test_cached_rows_score_as_the_uncached_formula(di, small_run, monkeypatch, case):
    """Every evaluation of whole fits, warm-started as the pipeline does,
    scores as the uncached per-tuple formula: area and enclosed count bit for
    bit, the violation bit for bit wherever the guard was formed, and where
    -area reached the cut, so that the guard was skipped, both the returned
    value and the formula's containment terms at or above the cut. Each
    queued tuple carries the chords the formula's end values pick. With a
    margin, without one, and on inputs of one sign, u in [0.5, 1], whose
    penalties roll restarts back."""
    from cbfsynth import fitter, parallel
    monkeypatch.setattr(parallel, "workers", lambda tasks: 1)
    input_box = BoxSet([0.5], [1.0]) if case == "one-sign" else None
    margin = small_run[1].epsilon if case == "margin" else 0.0
    seen = {"evaluations": 0, "skipped": 0, "queued": 0}
    metrics, score = _SearchContext.metrics, fitter._score
    results = []

    def recording(ctx, *args, **kwargs):
        results.append(metrics(ctx, *args, **kwargs))
        return results[-1]

    def checked(ctx, mode, block, cut=np.inf, defer=None):
        results.clear()
        queued = len(defer) if defer is not None else 0
        got = score(ctx, mode, block, cut, defer)
        (area, viol, n_inside), = results
        want_area, want_viol, want_n, h_ends = _uncached_metrics(ctx, block)
        assert area.tobytes() == want_area.tobytes()
        assert n_inside.tobytes() == want_n.tobytes()
        skipped = -want_area >= cut
        assert viol[~skipped].tobytes() == want_viol[~skipped].tobytes()
        assert np.all(got[skipped] >= cut)
        assert np.all(-want_area[skipped] + 3.0 * ctx.vol * want_viol[skipped] >= cut)
        if defer is not None and len(defer) > queued and mode.chords:
            expect = _uncached_chords(ctx, h_ends, fitter.SEARCH_PROBES)
            assert [tuple(p.tobytes() for p in c) for c in defer[-1][1]] \
                == [tuple(p.tobytes() for p in c) for c in expect]
            seen["queued"] += len(block[2])
        seen["evaluations"] += len(block[2])
        seen["skipped"] += int(np.sum(skipped))
        return got

    monkeypatch.setattr(_SearchContext, "metrics", recording)
    monkeypatch.setattr(fitter, "_score", checked)
    fits = _warm_fits(di, small_run, input_box, margin=margin, restarts=3, iterations=40,
                      population=4, seed=7)
    assert fits["multi"].feasible
    # a restart rolled back reruns, and counts only its rerun's evaluations
    total = sum(f.counts.evaluations for f in fits.values())
    assert seen["evaluations"] >= total
    assert (seen["evaluations"] > total) == (case == "one-sign")
    assert seen["skipped"] and seen["queued"]


def _score_alone(ctx, mode, thetas):
    """Each row scored as a block of one: the scores and each row's root steps."""
    scores, steps = [], []
    for theta in thetas:
        ctx.root_steps.clear()
        scores.append(_score(ctx, mode, mode.build(ctx, theta[None]))[0])
        steps.append(list(ctx.root_steps))
    return np.array(scores), steps


@pytest.mark.parametrize("margin", ["0", "auto"])
@pytest.mark.parametrize("name", MODES)
def test_score_kernel_is_batch_invariant(di, small_run, name, margin):
    """A block of tuples scores each tuple, bit for bit, as a block of that
    tuple alone does, and appends its root steps in the same order: blocks of
    1, 5, 11 and `population` rows, in every mode, with and without a margin.
    The rows are the mode's seeds, small steps from them and random starts;
    multi's include a tuple enclosing nothing, whose probes find no chord."""
    sysm, input_box = di
    s, b = small_run
    cfg = FitConfig(mode=name, num_cbfs=2, population=8,
                    margin=b.epsilon if margin == "auto" else 0.0)
    ctx = _SearchContext(s, b, sysm, input_box, cfg)
    mode = _MODES[name]
    rng = np.random.default_rng(5)
    seeds = mode.seeds(ctx, [(identity_candidate(2), CAP_CANDIDATE)])
    steps = mode.steps(ctx)
    thetas = seeds + [seed + steps * rng.uniform(-1.0, 1.0, steps.size)
                      for seed in seeds for _ in range(4)]
    thetas += [mode.random_theta(ctx, rng) for _ in range(23 - len(thetas))]
    thetas = np.array(thetas)
    if name == "multi":
        thetas[3, 2 * ctx.n::2 * ctx.n + 1] = -1e9    # h < 0 everywhere
    alone, alone_steps = _score_alone(ctx, mode, thetas)
    if name == "multi":
        assert alone_steps[3] == [] and sum(map(len, alone_steps)) > len(thetas) // 2
    for size in (1, 5, 11, cfg.population):
        for i in range(0, len(thetas), size):
            ctx.root_steps.clear()
            got = _score(ctx, mode, mode.build(ctx, thetas[i:i + size]))
            assert got.tobytes() == alone[i:i + size].tobytes()
            assert ctx.root_steps == [k for row in alone_steps[i:i + size] for k in row]


@pytest.mark.parametrize("name", ["nonuniform", "multi"])
def test_score_stops_at_the_cut(di, small_run, name):
    """Given a cut, the kernel returns a tuple's containment terms
    L = -area + 3 vol viol, running no probe, when L reaches the cut, and
    its full score, bit for bit, when L is below it. The full score is never
    below L. Inputs of one sign, u in [0.5, 1], give some of the random
    tuples here a penalty."""
    sysm, _ = di
    s, b = small_run
    ctx = _SearchContext(s, b, sysm, BoxSet([0.5], [1.0]),
                         FitConfig(mode=name, num_cbfs=2, margin=b.epsilon))
    mode = _MODES[name]
    rng = np.random.default_rng(5)
    penalized = probed = 0
    for _ in range(16):
        block = mode.build(ctx, mode.random_theta(ctx, rng)[None])
        area, viol = ctx.metrics(block)[:2]
        low = -area + 3.0 * ctx.vol * viol
        ctx.root_steps.clear()
        full = _score(ctx, mode, block)
        assert full[0] >= low[0]
        penalized += full[0] > low[0]
        probed += bool(ctx.root_steps)
        ctx.root_steps.clear()
        assert _score(ctx, mode, block, low[0]).tobytes() == low.tobytes()
        assert ctx.root_steps == []
        assert _score(ctx, mode, block, np.nextafter(low[0], np.inf)).tobytes() == full.tobytes()
    assert penalized and (probed or name == "nonuniform")


def _jump_or_ramp_system(c: float) -> SystemModel:
    """`_jump_system`'s z = 1 - 2 1{x0 > c} where x1 >= 0, and the ramp
    z = c - x0 where x1 < 0; no dynamics."""
    hcf = HardConstraint(
        value=lambda x: np.where(np.asarray(x, dtype=float)[..., 1] >= 0.0,
                                 1.0 - 2.0 * (np.asarray(x, dtype=float)[..., 0] > c),
                                 c - np.asarray(x, dtype=float)[..., 0]),
        gradient=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    return replace(_jump_system(c), hcf=hcf, name="jump-or-ramp")


def test_boundary_probes_batch_mixes_one_step_and_stalling_chords():
    """One block holds tuples whose chords end in one step (the ramp, shifted
    below x1 = 0), tuples on the jump of
    test_boundary_probes_bisect_where_the_secant_stalls, where the midpoint
    fallback takes many steps, and a tuple enclosing nothing. Each tuple's
    metrics, probes, owners and root steps are those it gets alone; its
    owners count from its own first row."""
    c = 0.3141592653589793
    sysm = _jump_or_ramp_system(c)
    s = run_sampling(sysm, UBOX1, UNIT, n_min=200, delta=1.0, growth=3.0, seed=9,
                     n_start=729)
    ctx = _SearchContext(s, None, sysm, UBOX1, FitConfig())
    ramp = CbfCandidate([1.0, 1.0], [0.0, -2.0], 0.0)
    jump = CbfCandidate([1.0, 1.0], [0.0, 0.0], 1.0 - 1e-6)
    wide = CbfCandidate([1.0, 1.0], [0.0, -2.0], 0.5)
    sunk = CbfCandidate([1.0, 1.0], [0.0, 0.0], -1e9)
    tuples = [(ramp, wide), (jump, wide), (sunk, ramp), (wide, jump), (ramp, ramp)]
    alone, picked_alone = [], []
    for tup in tuples:
        ctx.root_steps.clear()
        block = _block(tup)
        metrics = ctx.metrics(block)
        picked_alone += _picked(ctx, block, 256)
        alone.append((metrics, ctx.boundary_probes(block, _picked(ctx, block, 256)),
                      ctx.root_steps[:]))
    assert alone[0][2] == [1] and alone[2][2] == []
    assert alone[1][2][0] > 3 and alone[3][2][0] > 3
    block = tuple(np.concatenate(p) for p in zip(*(_block(tup) for tup in tuples)))
    ctx.root_steps.clear()
    metrics = ctx.metrics(block)
    picked = _picked(ctx, block, 256)
    assert len(picked) == len(picked_alone) == 2 * len(tuples)
    for got, expect in zip(picked, picked_alone):
        assert [g.tobytes() for g in got] == [e.tobytes() for e in expect]
    probes, owner = ctx.boundary_probes(block, picked)
    assert ctx.root_steps == [k for *_, steps in alone for k in steps]
    for b, ((one, (p1, o1), _), tup) in enumerate(zip(alone, tuples)):
        for got, expect in zip(metrics, one):
            assert got[b:b + 1].tobytes() == expect.tobytes()
        mine = owner // 2 == b
        assert probes[mine].tobytes() == p1.tobytes()
        assert np.array_equal(owner[mine] - 2 * b, o1)


def test_started_search_refuses_other_inputs(di, small_run, monkeypatch):
    """A fit handed a search that `start_fit` set up for other settings or
    another sample set refuses it, rather than fitting the started one's."""
    from cbfsynth import fitter, parallel
    monkeypatch.setattr(parallel, "workers", lambda tasks: 1)
    sysm, input_box = di
    s, b = small_run
    cfg = FitConfig(mode="multi", num_cbfs=2, restarts=1, iterations=20, population=4)
    started = fitter.start_fit("multi", s, b, sysm, input_box, cfg)
    try:
        with pytest.raises(ValueError, match="set up for other inputs"):
            fit_multi(s, b, sysm, input_box, replace(cfg, seed=1), started=started)
        with pytest.raises(ValueError, match="set up for other inputs"):
            fit_multi(replace(s), b, sysm, input_box, cfg, started=started)
    finally:
        started.close()


def test_search_offers_per_restart(di, small_run):
    """A restart offers the acceptance test its start, the result of each
    block pass over each tuple (multi only) and its Nelder-Mead result, and
    nothing more: one multi restart over 2 tuples makes 1 + 2 * 2 + 1 offers,
    and each of uniform's 3 structured seeds makes 2."""
    sysm, input_box = di
    s, b = small_run
    budget = dict(restarts=1, iterations=20, population=4)
    multi = fit_multi(s, b, sysm, input_box, FitConfig(mode="multi", num_cbfs=2, **budget))
    assert multi.counts.accepted + multi.counts.rejected == 1 + 2 * 2 + 1
    uniform = fit_uniform(s, b, sysm, input_box, FitConfig(**budget))
    assert uniform.counts.accepted + uniform.counts.rejected == 3 * 2


def test_fit_forks_without_scipy():
    """The fit's search needs numpy alone: no scipy module is loaded when it
    forks its restarts, nor after the fits. Sampling and boundary extraction
    leave scipy unloaded too."""
    out = run_fresh("""
        import sys
        from cbfsynth import fitter, parallel
        from cbfsynth.boundary import auto_epsilon, extract_boundary
        from cbfsynth.sampler import run_sampling
        from cbfsynth.system import BoxSet, build_system

        def scipy():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

        sysm, input_box = build_system("double_integrator", {})
        s = run_sampling(sysm, input_box, BoxSet([-10.0, -40.0], [0.0, 40.0]), n_min=500,
                         delta=1.0, growth=3.0, seed=13, n_start=2187)
        b = extract_boundary(s, auto_epsilon(s))
        seen, fork_map = [], parallel.fork_map

        def recording(task, items, count):
            seen.append((count, scipy()))
            return fork_map(task, items, count)

        parallel.fork_map = recording
        parallel.workers = lambda tasks: 2
        cfg = fitter.FitConfig(mode="uniform", restarts=2, iterations=40, population=4)
        for fit in (fitter.fit_uniform, fitter.fit_nonuniform):
            res = fit(s, b, sysm, input_box, cfg)
            assert res.feasible and res.counts.workers == 2
        print(seen, scipy())
    """)
    assert out.strip() == "[(2, []), (2, [])] []"


def _scipy_nelder_mead(fun, x0, steps, maxiter):
    """The oracle: scipy's Nelder-Mead with the options `_nelder_mead` follows."""
    simplex = np.vstack([x0] + [x0 + steps * np.eye(x0.size)[i] for i in range(x0.size)])
    return minimize(fun, x0, method="Nelder-Mead",
                    options={"initial_simplex": simplex, "maxiter": maxiter,
                             "maxfev": 4 * maxiter, "xatol": 1e-10, "fatol": 1e-12}).x


def _nelder_mead_runs(fun, x0, steps, maxiter, use_cut=False, stand_in=lambda v, cut: cut):
    """The points each implementation evaluates, in order, with each block
    `_nelder_mead` scores flattened in row order; its result; the row count
    and cut of each block (scipy's points are blocks of one, without a cut);
    and how many values `_nelder_mead`'s `fun` returned as `stand_in(value,
    cut)`, by default the cut, in place of a larger true value, which it does
    wherever it can when `use_cut`."""
    runs = []
    for blocks in (True, False):
        points, sizes, cuts, bounded = [], [], [], 0

        def recording(xs, cut=np.inf):
            nonlocal bounded
            sizes.append(len(xs))
            cuts.append(cut)
            points.extend(x.copy() for x in xs)
            values = [fun(x) for x in xs]
            if not use_cut:
                return values
            bounded += sum(v > cut for v in values)
            return [stand_in(v, cut) if v >= cut else v for v in values]

        if blocks:
            x = _nelder_mead(lambda xs, cut: np.array(recording(xs, cut)), x0.copy(), steps,
                             maxiter)
        else:
            x = _scipy_nelder_mead(lambda x: recording(x[None])[0], x0.copy(), steps, maxiter)
        runs.append(([p.tobytes() for p in points], x.tobytes(), points, sizes, cuts, bounded))
    return runs


def _only_at(x0):
    """0 at `x0` and 1 elsewhere: every reflection and contraction ties with
    the worst vertex, so each iteration shrinks the simplex."""
    return lambda x: 0.0 if np.array_equal(x, x0) else 1.0


@pytest.mark.parametrize("case", ["rosen-2d", "rosen-5d", "tied", "shrink", "cap-mid-shrink",
                                  "cap-in-initial-simplex", "rosen-cut", "tied-cut",
                                  "rough-cut"])
def test_nelder_mead_matches_scipy(case):
    """`_nelder_mead` evaluates the points scipy's Nelder-Mead evaluates, in
    the same order and bit for bit, and returns its x: on Rosenbrock, on an
    objective with tied values, on one that shrinks every iteration, when
    the evaluation cap (4 * maxiter) falls in the middle of a shrink, and
    when it falls before the last vertex of the initial simplex. In the
    `-cut` cases its `fun` returns the step's cut wherever the true value is
    at or above it, while scipy's gets the true values; the rough objective
    makes every kind of step reject its point now and then."""
    rng = np.random.default_rng(11)
    dim = {"rosen-2d": 2, "rosen-5d": 5, "rosen-cut": 3}.get(case, 4)
    x0, steps, maxiter = rng.normal(size=dim), rng.uniform(0.05, 0.5, size=dim), 300
    fun = rosen
    if case.startswith("tied"):
        fun = lambda x: float(np.round(np.sum(x * x), 1))   # noqa: E731
    elif case in ("shrink", "cap-mid-shrink"):
        fun = _only_at(x0)
        maxiter = 5 if case == "cap-mid-shrink" else 40
    elif case == "cap-in-initial-simplex":
        maxiter = 1
    elif case == "rough-cut":
        fun = lambda x: float(np.sin(1e3 * x @ np.arange(1.0, dim + 1)))   # noqa: E731
    (ours, x_ours, points, sizes, cuts, bounded), (theirs, x_theirs, *_) = \
        _nelder_mead_runs(fun, x0, steps, maxiter, use_cut=case.endswith("-cut"))
    assert ours == theirs and x_ours == x_theirs
    # blocks of more than one point carry no cut
    assert all(np.isinf(cut) for cut, size in zip(cuts, sizes) if size > 1)
    if case.endswith("-cut"):   # the cut stood in for larger values, on Rosenbrock often
        assert bounded > (len(ours) // 4 if case != "tied-cut" else 0)
    if case.startswith("rosen"):
        assert rosen(np.frombuffer(x_ours)) < rosen(x0)
    if case == "shrink":   # the first shrink moves each vertex halfway to x0
        vertex = x0 + steps * np.eye(dim)[0]
        assert any(np.array_equal(p, x0 + 0.5 * (vertex - x0)) for p in points)
        # the initial simplex is one block of n + 1 points and each shrink one
        # block of n, after a reflection and a contraction; 5 + 25 * 6 = 155
        # points leave 5 below the cap of 160, so the 26th shrink scores 3
        assert sizes == [dim + 1] + [1, 1, dim] * 25 + [1, 1, 3]
    if case == "cap-mid-shrink":
        # 5 initial points and two iterations of 6 (a reflection, a contraction
        # and four shrink points) make 17; the cap of 20 falls in the third shrink
        assert len(ours) == 4 * maxiter
    if case == "cap-in-initial-simplex":   # the cap of 4 leaves the 5th vertex unscored
        assert len(ours) == 4 * maxiter and sizes == [4]


@pytest.mark.parametrize("case", ["rosen", "rough"])
def test_nelder_mead_reads_no_value_at_the_cut(case):
    """Any value at or above a one-point step's cut may stand in for the
    true one, not only the cut itself: with `fun` returning the midpoint of
    the cut and the true value there, `_nelder_mead` evaluates scipy's
    points bit for bit and returns its x. The score kernel relies on this
    when it returns -area, without the guard, for a tuple whose -area
    reaches the cut."""
    rng = np.random.default_rng(11)
    dim = 3
    x0, steps = rng.normal(size=dim), rng.uniform(0.05, 0.5, size=dim)
    fun = rosen if case == "rosen" else (
        lambda x: float(np.sin(1e3 * x @ np.arange(1.0, dim + 1))))
    (ours, x_ours, _, _, _, bounded), (theirs, x_theirs, *_) = _nelder_mead_runs(
        fun, x0, steps, 300, use_cut=True, stand_in=lambda v, cut: 0.5 * (cut + v))
    assert ours == theirs and x_ours == x_theirs
    assert bounded > len(ours) // 8


def test_reference_fit_areas(reference_fits):
    uni = reference_fits["uniform"].objective_value
    non = reference_fits["nonuniform"].objective_value
    multi = reference_fits["multi"].objective_value
    assert uni == pytest.approx(AREA_UNIFORM, rel=0.15)
    assert non == pytest.approx(AREA_NONUNIFORM, rel=0.15)
    assert non >= uni - 0.02 * uni
    assert multi >= non - 0.02 * non


def test_reference_fit_boundary_constraint_holds(di, reference_run,
                                                 reference_boundary, reference_fits):
    """Post-hoc feasibility: every boundary sample sits outside each fitted
    set by at least the configured buffer."""
    sysm, input_box = di
    for mode in ("uniform", "nonuniform"):
        res = reference_fits[mode]
        cfg = FitConfig(mode=mode, margin=reference_boundary.epsilon)
        ctx = _SearchContext(reference_run, reference_boundary, sysm, input_box, cfg)
        for cand in res.candidates:
            h_b = eval_h_batch(cand, sysm.hcf, reference_boundary.points)
            buffer = cfg.margin * ctx.h_unit(cand.scale, cand.shift)
            assert np.max(h_b) <= -0.99 * buffer + 1e-9


def test_reference_fit_verification_clean(reference_fits):
    for res in reference_fits.values():
        ver = res.verification
        assert ver.containment_fraction >= 0.999
        assert ver.boundary_cbf_feasible_fraction >= 0.99
        assert ver.prop2_feasible_fraction >= 0.99


def test_fit_result_roundtrip(tmp_path, reference_fits):
    res = reference_fits["multi"]
    cfg = FitConfig(mode="multi", num_cbfs=2)
    path = tmp_path / "candidates.json"
    save_fit(res, path, cfg=cfg, source_checksums={"samples": "abc"})
    loaded, doc = load_fit(path)
    assert loaded.mode == res.mode
    assert loaded.objective_value == res.objective_value
    assert len(loaded.candidates) == len(res.candidates)
    for c1, c2 in zip(loaded.candidates, res.candidates):
        assert np.array_equal(c1.scale, c2.scale)
        assert np.array_equal(c1.shift, c2.shift)
        assert c1.offset == c2.offset
    assert doc["config_echo"]["mode"] == "multi"
    assert doc["source_checksums"] == {"samples": "abc"}


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(mode="secret")
    with pytest.raises(ValueError):
        FitConfig(margin=-0.1)
    with pytest.raises(ValueError):
        FitConfig(mode="multi", num_cbfs=1)


def test_fit_config_rejects_no_probes():
    """With no probes the exists-input check at the active boundary, and the
    boundary feasibility verification reports, would hold vacuously."""
    with pytest.raises(ValueError, match="probes"):
        FitConfig(probes=0)


@pytest.mark.parametrize("budget", ["restarts", "iterations", "population"])
@pytest.mark.parametrize("value", [0, -1])
def test_fit_config_rejects_budgets_below_one(budget, value):
    """A search with no restarts, iterations or random draws cannot run as
    configured; the library refuses it as the config parser does."""
    with pytest.raises(ValueError, match=budget):
        FitConfig(**{budget: value})
