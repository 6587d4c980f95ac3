from dataclasses import replace

import numpy as np
import pytest

from cbfsynth.boundary import extract_boundary
from cbfsynth.fitter import (FitConfig, _SearchContext, check_redundancy,
                             estimate_set_size, fit_multi, fit_uniform, load_fit,
                             save_fit, verify_candidate)
from cbfsynth.qp import QpProblem, solve_box_qp
from cbfsynth.sampler import run_sampling
from cbfsynth.system import (BoxSet, CbfCandidate, HardConstraint, SystemModel,
                             eval_h_batch, eval_h_stack, identity_candidate)

from conftest import (AREA_FEASIBLE, AREA_NONUNIFORM, AREA_UNIFORM, AREA_Z,
                      REFERENCE_BOUNDS)

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
    sysm, _ = di
    cfg = FitConfig(mode="uniform")
    size = estimate_set_size([identity_candidate(2)], reference_run, sysm.hcf, cfg)
    assert size == pytest.approx(AREA_Z, rel=0.02)


def test_estimate_reference_pair_matches_feasible_area(di, reference_run):
    sysm, _ = di
    cfg = FitConfig(mode="multi", num_cbfs=2)
    size = estimate_set_size([identity_candidate(2), CAP_CANDIDATE], reference_run,
                             sysm.hcf, cfg)
    assert size == pytest.approx(AREA_FEASIBLE, rel=0.02)


def test_estimate_empty_set(di, reference_run):
    sysm, _ = di
    sunk = CbfCandidate([1.0, 1.0], [0.0, 0.0], -1e6)
    assert estimate_set_size([sunk], reference_run, sysm.hcf, FitConfig()) == 0.0


def test_estimate_validation(di, reference_run):
    sysm, _ = di
    with pytest.raises(ValueError):
        estimate_set_size([], reference_run, sysm.hcf, FitConfig())
    degenerate = FitConfig(volume_region=BoxSet([0.0, 0.0], [0.0, 1.0]))
    with pytest.raises(ValueError):
        estimate_set_size([identity_candidate(2)], reference_run, sysm.hcf, degenerate)
    outside = FitConfig(volume_region=BoxSet([100.0, 100.0], [101.0, 101.0]))
    with pytest.raises(ValueError):
        estimate_set_size([identity_candidate(2)], reference_run, sysm.hcf, outside)


def test_integral_objective_positive_part(di, reference_run):
    sysm, _ = di
    cfg = FitConfig(objective="integral")
    val = estimate_set_size([identity_candidate(2)], reference_run, sysm.hcf, cfg)
    # mean of max(z, 0) over the box times its volume, computed directly
    z = sysm.hcf.value(reference_run.states)
    assert val == pytest.approx(float(np.mean(np.maximum(z, 0.0))) * 800.0, rel=1e-12)


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
    cfg = FitConfig()
    base = CbfCandidate([1.0, 2.0], [0.1, -0.2], 0.05)
    v0 = estimate_set_size([base], s, sysm.hcf, cfg)
    for zeta in (0.5, 2.0, 7.3):
        scaled = CbfCandidate(zeta * base.scale, zeta * base.shift,
                              zeta * base.offset + (zeta - 1.0) * intercept)
        assert estimate_set_size([scaled], s, sysm.hcf, cfg) == v0


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
    """Every memory layout of the states gives the row-major values bit for bit."""
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
    assert np.array_equal(eval_h_stack(cands, sysm.hcf, states), expect)


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
    assert np.array_equal(ctx.margin_shifts(cands), np.array(single))


def _reference_probes(ctx, cands, j, h_rows, want, bisect_iters=30):
    """Candidate j's chords bisected alone, one eval_h_batch call per step."""
    hmin = np.minimum.reduce(h_rows, axis=0)
    a, b = ctx.pool_a, ctx.pool_b
    good = (hmin[a] >= 0.0) & (h_rows[j, b] < 0.0)
    xa, xb = ctx.states_sub[a[good][:want]], ctx.states_sub[b[good][:want]]
    for _ in range(bisect_iters):
        mid = 0.5 * (xa + xb)
        pos = eval_h_batch(cands[j], ctx.hcf, mid) >= 0.0
        xa = np.where(pos[:, None], mid, xa)
        xb = np.where(pos[:, None], xb, mid)
    h_all = np.stack([eval_h_batch(c, ctx.hcf, xa) for c in cands])
    scale = 1.0 + np.max(np.abs(h_all), initial=0.0)
    return xa[np.all(h_all >= -1e-7 * scale, axis=0)]


@pytest.mark.parametrize("want", [48, 256])
def test_boundary_probes_match_per_candidate_bisection(di, reference_run, want):
    sysm, input_box = di
    cands = [identity_candidate(2), CAP_CANDIDATE]
    ctx = _SearchContext(reference_run, None, sysm, input_box,
                         FitConfig(mode="multi", num_cbfs=2))
    h_rows = eval_h_stack(cands, sysm.hcf, ctx.states_sub)
    roots, owner = ctx.boundary_probes(cands, h_rows, want)
    for j in range(len(cands)):
        expect = _reference_probes(ctx, cands, j, h_rows, want)
        assert 0 < expect.shape[0] <= want
        assert np.array_equal(roots[owner == j], expect)


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
    h_rows = eval_h_stack([ident], sysm.hcf, ctx.states_sub)
    pts = _reference_probes(ctx, [ident], 0, h_rows, 256)
    passing = 0
    for x in pts:
        grad_h = sysm.hcf.gradient(ident.transform(x)) * ident.scale
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
    h = sysm.hcf.value(res.candidates[0].transform(s.states)) + res.candidates[0].offset
    assert np.all(h >= 0.0)
    assert res.objective_value == pytest.approx(1.0, rel=1e-9)


def test_fit_infeasible_when_nothing_is_feasible(di):
    """Undamped constraint with the growth rule disabled: every in-constraint
    sample is infeasible, so no candidate can be accepted."""
    from cbfsynth.system import make_double_integrator
    sysm = make_double_integrator(0.0, 0.0)
    ubox = BoxSet([-300.0], [300.0])
    none = lambda states: np.zeros(np.asarray(states).shape[0], dtype=bool)
    s = run_sampling(sysm, ubox, REFERENCE_BOUNDS, n_min=500, delta=1.0, growth=3.0,
                     seed=10, n_start=729, extra_feasible=none)
    assert s.tracker.n_feasible == 0
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

    def corrupting_passes(ctx, theta, steps, rng, fun, offer):
        block = 2 * ctx.n + 1
        theta[:] = 5.0
        theta[2 * ctx.n::block] = -1e9          # h < 0 everywhere: encloses nothing
        offer(theta)
        return theta

    monkeypatch.setattr(fitter, "_block_passes", corrupting_passes)
    monkeypatch.setattr(fitter, "_nelder_mead", lambda fun, x0, steps, maxiter: x0.copy())
    monkeypatch.setattr(fitter, "_golden_polish", lambda fun, x, steps: x.copy())
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
            h_b = sysm.hcf.value(cand.transform(reference_boundary.points)) + cand.offset
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
        FitConfig(objective="volume")
    with pytest.raises(ValueError):
        FitConfig(margin=-0.1)
    with pytest.raises(ValueError):
        FitConfig(mode="multi", num_cbfs=1)
