"""Barrier parameter fitting over classified samples.

Three programs, all maximizing a Monte Carlo estimate of the candidate set
size over the integration region V:

    uniform      one candidate, D = d I with d > 0, plus shift and offset;
                 the offset is eliminated in closed form as the largest value
                 keeping every boundary sample strictly outside the set.
    nonuniform   per-axis scales d_i >= 0; boundary samples must additionally
                 admit an input making dz/dx Dbar xdot nonnegative, with
                 Dbar = diag(0, d_2 - d_1, ..., d_n - d_1).
    multi        s candidate tuples whose intersection is maximized; instead
                 of the boundary-sample constraint, every sample inside the
                 intersection must belong to the feasible class, and the
                 exists-input condition is enforced at bisection probes of
                 each candidate's active boundary.

The decision spaces are tiny, so the search is Nelder-Mead on a penalized
objective with structured and random restarts, followed by a coordinate-wise
golden-section polish. One driver runs all three programs from a per-mode
table. Incumbents are accepted only when hard-feasible on the full sample set.
"""

from __future__ import annotations

import json
import hashlib
import math
import warnings
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy import optimize as sopt

from .boundary import BoundarySet
from .qp import max_over_box
from .sampler import SampleClass, SampleSet
from .system import (BoxSet, CbfCandidate, HardConstraint, SystemModel,
                     eval_h_batch, eval_h_stack, identity_candidate,
                     stack_candidates)

Array = np.ndarray

# incumbents must keep the non-feasible fraction of the enclosed samples below this
CONTAINMENT_REJECT_TOL = 1e-3
_MIN_UNIFORM_SCALE = 1e-9


@dataclass(frozen=True)
class FitConfig:
    """Mode, constraint strictness, objective and search budget."""

    mode: str = "uniform"                      # uniform | nonuniform | multi
    num_cbfs: int = 1
    margin: float = 0.0
    objective: str = "sample_count"            # sample_count | integral
    restarts: int = 8
    iterations: int = 400
    population: int = 32
    seed: int = 0
    volume_region: BoxSet | None = None
    probes: int = 256

    def __post_init__(self):
        if self.mode not in ("uniform", "nonuniform", "multi"):
            raise ValueError(f"unknown fit mode {self.mode!r}")
        if self.objective not in ("sample_count", "integral"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.margin < 0:
            raise ValueError("margin must be nonnegative")
        if self.mode == "multi" and self.num_cbfs < 2:
            raise ValueError("multi mode needs num_cbfs >= 2")


@dataclass(frozen=True)
class VerificationReport:
    containment_fraction: float
    boundary_cbf_feasible_fraction: float
    prop2_feasible_fraction: float
    empty_warning: bool = False


@dataclass(frozen=True)
class FitResult:
    candidates: list[CbfCandidate]
    objective_value: float
    verification: VerificationReport
    redundancy_flags: list[tuple[int, int, bool]]
    mode: str
    feasible: bool = True
    diagnostics: str = ""


def estimate_set_size(cands: Sequence[CbfCandidate], s: SampleSet,
                      hcf: HardConstraint, cfg: FitConfig) -> float:
    """Monte Carlo size of {min_j h_j >= 0} inside the integration region.

    sample_count counts enclosed samples; integral averages the clipped
    barrier value (the literal integrand with its negative part dropped).
    """
    if not cands:
        raise ValueError("need at least one candidate")
    region = cfg.volume_region or s.bounds
    vol = region.volume()
    if vol <= 0:
        raise ValueError("volume region has zero volume")
    in_v = region.contains(s.states)
    n_in = int(np.sum(in_v))
    if n_in == 0:
        raise ValueError("volume region contains no samples")
    hmin = eval_h_stack(cands, hcf, s.states[in_v]).min(axis=0)
    if cfg.objective == "sample_count":
        return float(np.sum(hmin >= 0.0)) / n_in * vol
    return float(np.mean(np.maximum(hmin, 0.0))) * vol


# ---------------------------------------------------------------------------
# Search context: everything precomputed once per fit call

class _SearchContext:
    def __init__(self, s: SampleSet, b: BoundarySet | None, sys: SystemModel,
                 input_box: BoxSet, cfg: FitConfig):
        if input_box is None:
            raise ValueError("fitting needs the input box")
        self.s = s
        self.sys = sys
        self.hcf = sys.hcf
        self.cfg = cfg
        self.input_box = input_box
        self.region = cfg.volume_region or s.bounds
        self.vol = self.region.volume()
        if self.vol <= 0:
            raise ValueError("volume region has zero volume")
        self.n = s.bounds.dim

        # column-major, the layout eval_h_stack takes, so no kernel call copies
        self.states = np.asfortranarray(s.states)
        self.feas = s.class_mask(SampleClass.FEASIBLE)
        self.in_v = self.region.contains(self.states)
        if not np.any(self.in_v):
            raise ValueError("volume region contains no samples")

        stride = max(1, len(s) // 60000)
        self.sub = slice(None, None, stride)
        self.states_sub = np.asfortranarray(self.states[self.sub])
        self.feas_sub = self.feas[self.sub]
        self.in_v_sub = self.in_v[self.sub]
        self.n_in_v_sub = int(np.sum(self.in_v_sub))
        self.n_in_v = int(np.sum(self.in_v))

        self.bpoints = b.points if b is not None and len(b) else np.zeros((0, self.n))
        if self.bpoints.shape[0]:
            self.bgrad = self.hcf.gradient(self.bpoints)
            self.bdrift = sys.drift(self.bpoints)
            self.bact = sys.actuation(self.bpoints)

        # chord pool for active-boundary probes (multi mode)
        rng = np.random.Generator(np.random.Philox(key=cfg.seed + 0x9E3779B9))
        n_sub = self.states_sub.shape[0]
        pool = min(4096, n_sub * (n_sub - 1) // 2) if n_sub > 1 else 0
        if pool:
            self.pool_a = rng.integers(0, n_sub, size=pool)
            self.pool_b = rng.integers(0, n_sub, size=pool)
        else:
            self.pool_a = self.pool_b = np.zeros(0, dtype=int)

        span = s.bounds.span
        self.z_scale = float(np.max(np.abs(self.hcf.value(self.states_sub))) + 1.0)
        self.c_scale = np.maximum(span, 1.0)
        self.span_w = np.where(span > 0, span, 1.0)
        self.grad_probe = self.states_sub[:512]

    # -- candidate evaluation ------------------------------------------------

    def metrics(self, cands: Sequence[CbfCandidate], h_rows: Array,
                full: bool = False) -> tuple[float, float, int]:
        """(objective, non-feasible fraction of enclosed, enclosed count).

        `h_rows` are the candidates' (s, N) values on the search subsample,
        or on every sample when `full`. With a positive margin the
        containment test inflates each set by the buffer, so the delivered
        zero-superlevel set sits strictly inside the feasible samples.
        """
        in_v, feas, n_in_v = ((self.in_v, self.feas, self.n_in_v) if full
                              else (self.in_v_sub, self.feas_sub, self.n_in_v_sub))
        hmin = np.minimum.reduce(h_rows, axis=0)
        inside = (hmin >= 0.0) & in_v
        n_inside = int(np.count_nonzero(inside))
        if self.cfg.objective == "sample_count":
            area = n_inside / n_in_v * self.vol
        else:
            area = float(np.mean(np.maximum(hmin[in_v], 0.0))) * self.vol
        shifts = self.margin_shifts(cands)
        if shifts is not None:
            guard = (np.minimum.reduce(h_rows + shifts[:, None], axis=0) >= 0.0) & in_v
        else:
            guard = inside
        n_guard = int(np.count_nonzero(guard))
        viol = float(np.count_nonzero(guard & ~feas)) / n_guard if n_guard else 0.0
        return area, viol, n_inside

    # -- constraints ----------------------------------------------------------

    def h_unit(self, scale: Array, shift: Array) -> Array:
        """Barrier change per unit of normalized state distance.

        The margin is a geometric buffer, so it is converted to barrier units
        through the typical gradient magnitude (in box-normalized coordinates)
        rather than applied to raw h values, which the free candidate scale
        could otherwise inflate away. One candidate's (n,) scale and shift
        give a scalar; s stacked (s, n) rows give (s,) values.
        """
        scale, shift = scale[..., None, :], shift[..., None, :]
        grad = self.hcf.gradient(self.grad_probe * scale + shift) * (scale * self.span_w)
        # the norm sums over the state axis; a row-major operand fixes its order
        grad = np.ascontiguousarray(grad)
        return np.maximum(np.mean(np.linalg.norm(grad, axis=-1), axis=-1), 1e-12)

    def offset_cap(self, scale: Array, shift: Array) -> float:
        """Largest offset keeping h <= -margin buffer at every boundary sample.

        With no boundary samples the constraint is vacuous; the offset is then
        set to exactly enclose the in-region samples.
        """
        if self.bpoints.shape[0]:
            zb = self.hcf.value(self.bpoints * scale + shift)
            buffer = self.cfg.margin * self.h_unit(scale, shift) if self.cfg.margin else 0.0
            return float(-np.max(zb) - buffer)
        z_in = self.hcf.value(self.states[self.in_v] * scale + shift)
        return float(-np.min(z_in))

    def margin_shifts(self, cands: Sequence[CbfCandidate]) -> Array | None:
        """Per-candidate h offsets realizing the margin buffer, or None if zero."""
        if not self.cfg.margin:
            return None
        scale, shift, _ = stack_candidates(cands)
        return self.cfg.margin * self.h_unit(scale, shift)

    def prop2_pass(self, scale: Array) -> tuple[int, int]:
        """(passing, total) for the exists-input condition at boundary samples."""
        if not self.bpoints.shape[0]:
            return 0, 0
        return self._dz_pass(scale, self.bgrad, self.bdrift, self.bact)

    def boundary_probes(self, cands: Sequence[CbfCandidate], h_rows: Array,
                        want: int, bisect_iters: int = 30) -> tuple[Array, Array]:
        """Probe states on each {h_j = 0, min_i h_i >= 0} by chord bisection.

        Chords run between enclosed and h_j-negative subsample points, the
        first `want` of the pool per candidate; every candidate's chords are
        bisected together with that candidate's (D, c, eps), and roots leaving
        the intersection are discarded. Returns the roots and, per root, the
        index of the candidate whose zero level set it lies on.
        """
        if not self.pool_a.size:
            return np.zeros((0, self.n)), np.zeros(0, dtype=int)
        enclosed = np.minimum.reduce(h_rows, axis=0)[self.pool_a] >= 0.0
        good = enclosed & (h_rows[:, self.pool_b] < 0.0)
        owner, k = np.nonzero(good & (np.cumsum(good, axis=1) <= want))
        if not k.size:
            return np.zeros((0, self.n)), owner
        # every bisection operand column-major, like the states: a step's loops
        # then run down unit-stride columns of all of them at once
        xa = np.asfortranarray(self.states_sub[self.pool_a[k]])
        xb = np.asfortranarray(self.states_sub[self.pool_b[k]])
        scale, shift, offset = (np.asfortranarray(p[owner]) for p in stack_candidates(cands))
        mid = np.empty_like(xa)
        arg = np.empty_like(xa)
        for _ in range(bisect_iters):
            np.multiply(np.add(xa, xb, out=mid), 0.5, out=mid)
            np.add(np.multiply(mid, scale, out=arg), shift, out=arg)
            pos = (self.hcf.value(arg) + offset >= 0.0)[:, None]
            np.copyto(xa, mid, where=pos)
            np.copyto(xb, mid, where=~pos)
        h_all = eval_h_stack(cands, self.hcf, xa)
        h_max = np.zeros(len(cands))
        np.maximum.at(h_max, owner, np.max(np.abs(h_all), axis=0))
        on_active = np.all(h_all >= -1e-7 * (1.0 + h_max[owner]), axis=0)
        return xa[on_active], owner[on_active]

    def multi_dz_pass(self, cands: Sequence[CbfCandidate], h_rows: Array,
                      want: int) -> tuple[int, int]:
        """Exists-input condition at active-boundary probes of every candidate."""
        probes, owner = self.boundary_probes(cands, h_rows, want)
        if not probes.shape[0]:
            return 0, 0
        return self._dz_pass(stack_candidates(cands)[0][owner], self.hcf.gradient(probes),
                             self.sys.drift(probes), self.sys.actuation(probes))

    def _dz_pass(self, scale: Array, grad: Array, drift: Array,
                 act: Array) -> tuple[int, int]:
        """(passing, total) of: some input makes dz/dx Dbar xdot >= 0, with
        Dbar = diag(0, d_2 - d_1, ..., d_n - d_1) from `scale` (one per row,
        or one shared by every row)."""
        dbar = scale - scale[..., :1]
        dbar[..., 0] = 0.0
        gd = grad * dbar
        rows = np.einsum("bn,bnm->bm", gd, act)
        ok = max_over_box(rows, np.sum(gd * drift, axis=-1), self.input_box) >= 0.0
        return int(np.sum(ok)), ok.size


# ---------------------------------------------------------------------------
# Parameter vector <-> candidates

def _build_uniform(ctx: _SearchContext, theta: Array) -> list[CbfCandidate]:
    d = max(float(theta[0]), _MIN_UNIFORM_SCALE)
    scale = np.full(ctx.n, d)
    shift = np.asarray(theta[1:1 + ctx.n], dtype=float)
    return [CbfCandidate(scale, shift, ctx.offset_cap(scale, shift))]


def _build_nonuniform(ctx: _SearchContext, theta: Array) -> list[CbfCandidate]:
    scale = np.maximum(np.asarray(theta[:ctx.n], dtype=float), 0.0)
    shift = np.asarray(theta[ctx.n:2 * ctx.n], dtype=float)
    return [CbfCandidate(scale, shift, ctx.offset_cap(scale, shift))]


def _build_multi(ctx: _SearchContext, theta: Array) -> list[CbfCandidate]:
    n, block = ctx.n, 2 * ctx.n + 1
    cands = []
    for j in range(ctx.cfg.num_cbfs):
        t = theta[j * block:(j + 1) * block]
        scale = np.maximum(np.asarray(t[:n], dtype=float), 0.0)
        cands.append(CbfCandidate(scale, np.asarray(t[n:2 * n], dtype=float), float(t[2 * n])))
    return cands


def _seeds_uniform(ctx: _SearchContext, warm) -> list[Array]:
    """Unit scale, shifted 0, 1/2 and 1 span up the last axis; then warm uniform sets."""
    seeds = []
    for frac in (0.0, 0.5, 1.0):
        shift = np.zeros(ctx.n)
        shift[-1] = frac * ctx.s.bounds.span[-1]
        seeds.append(np.concatenate([[1.0], shift]))
    return seeds + [np.concatenate([[c.scale[0]], c.shift])
                    for tup in warm for c in tup if c.is_uniform()]


def _seeds_nonuniform(ctx: _SearchContext, warm) -> list[Array]:
    """Unit scales without shift, then every warm candidate."""
    return [np.concatenate([np.ones(ctx.n), np.zeros(ctx.n)])] + [
        np.concatenate([c.scale, c.shift]) for tup in warm for c in tup]


def _seeds_multi(ctx: _SearchContext, warm) -> list[Array]:
    """The raw constraint in every slot, then each warm tuple padded with its last."""
    k = ctx.cfg.num_cbfs

    def embed(tup):
        tup = (list(tup) + [tup[-1]] * k)[:k]
        return np.concatenate([np.concatenate([c.scale, c.shift, [c.offset]]) for c in tup])

    return [embed([identity_candidate(ctx.n)])] + [embed(tup) for tup in warm]


def _random_scales_shift(ctx: _SearchContext, rng, size: int) -> Array:
    d = np.exp(rng.uniform(np.log(0.2), np.log(5.0), size=size))
    span = ctx.s.bounds.span
    return np.concatenate([d, rng.uniform(-span, span)])


def _random_multi(ctx: _SearchContext, rng) -> Array:
    return np.concatenate([
        np.concatenate([_random_scales_shift(ctx, rng, ctx.n),
                        [rng.uniform(-ctx.z_scale, ctx.z_scale)]])
        for _ in range(ctx.cfg.num_cbfs)])


def _steps_multi(ctx: _SearchContext) -> Array:
    one = np.concatenate([0.25 * np.ones(ctx.n), 0.1 * ctx.c_scale, [0.1 * ctx.z_scale]])
    return np.tile(one, ctx.cfg.num_cbfs)


@dataclass(frozen=True)
class _Mode:
    """One fit program, as the shared search driver sees it."""

    build: Callable[[_SearchContext, Array], list[CbfCandidate]]
    seeds: Callable          # (ctx, warm tuples) -> structured and warm starts
    random_theta: Callable   # (ctx, rng) -> one random start
    steps: Callable          # ctx -> per-coordinate Nelder-Mead and polish steps
    key_offset: int = 0      # added to the fit seed for the restart stream
    exists_input: Callable | None = None   # (ctx, cands, h_sub, want) -> (passing, total)
    checked_at: str = ""     # what exists_input counts, for rejection reasons
    block_passes: bool = False


_MODES = {
    "uniform": _Mode(
        _build_uniform, _seeds_uniform,
        lambda ctx, rng: _random_scales_shift(ctx, rng, 1),
        lambda ctx: np.concatenate([[0.25], 0.1 * ctx.c_scale])),
    "nonuniform": _Mode(
        _build_nonuniform, _seeds_nonuniform,
        lambda ctx, rng: _random_scales_shift(ctx, rng, ctx.n),
        lambda ctx: np.concatenate([0.25 * np.ones(ctx.n), 0.1 * ctx.c_scale]),
        exists_input=lambda ctx, cands, h_sub, want: ctx.prop2_pass(cands[0].scale),
        checked_at="boundary samples"),
    "multi": _Mode(
        _build_multi, _seeds_multi, _random_multi, _steps_multi, key_offset=1,
        exists_input=_SearchContext.multi_dz_pass, checked_at="probes",
        block_passes=True),
}


# ---------------------------------------------------------------------------
# Penalized search

def _score(ctx: _SearchContext, mode: _Mode, cands: Sequence[CbfCandidate]) -> float:
    h_rows = eval_h_stack(cands, ctx.hcf, ctx.states_sub)
    area, viol, _ = ctx.metrics(cands, h_rows)
    score = -area + 3.0 * ctx.vol * viol
    if mode.exists_input is not None:
        ok, total = mode.exists_input(ctx, cands, h_rows, 48)
        if total:
            score += 2.0 * ctx.vol * (total - ok) / total
    return score


def _hard_feasible(ctx: _SearchContext, mode: _Mode,
                   cands: Sequence[CbfCandidate]) -> tuple[bool, float, str]:
    """Full-set acceptance test; returns (ok, objective, reason)."""
    h_rows = eval_h_stack(cands, ctx.hcf, ctx.states)
    obj, viol, n_inside = ctx.metrics(cands, h_rows, full=True)
    if n_inside == 0:
        return False, obj, "candidate set encloses no samples"
    if viol > CONTAINMENT_REJECT_TOL:
        return False, obj, f"containment violation {viol:.2e}"
    if mode.exists_input is not None:
        ok, total = mode.exists_input(ctx, cands, h_rows[:, ctx.sub], ctx.cfg.probes)
        if total and ok < total:
            return False, obj, (f"exists-input condition failed at {total - ok} "
                                f"{mode.checked_at}")
    return True, obj, ""


def _nelder_mead(fun, x0: Array, steps: Array, maxiter: int) -> Array:
    simplex = np.vstack([x0] + [x0 + steps * np.eye(x0.size)[i] for i in range(x0.size)])
    res = sopt.minimize(fun, x0, method="Nelder-Mead",
                        options={"initial_simplex": simplex, "maxiter": maxiter,
                                 "maxfev": 4 * maxiter, "xatol": 1e-10, "fatol": 1e-12})
    return res.x


def _golden_polish(fun, x: Array, steps: Array, rounds: int = 2) -> Array:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x = x.copy()
    fx = fun(x)
    for _ in range(rounds):
        for i in range(x.size):
            a, b = x[i] - steps[i], x[i] + steps[i]

            def along(v, i=i):
                trial = x.copy()
                trial[i] = v
                return fun(trial)

            c = b - inv_phi * (b - a)
            d = a + inv_phi * (b - a)
            fc, fd = along(c), along(d)
            for _ in range(24):
                if fc <= fd:
                    b, d, fd = d, c, fc
                    c = b - inv_phi * (b - a)
                    fc = along(c)
                else:
                    a, c, fc = c, d, fd
                    d = a + inv_phi * (b - a)
                    fd = along(d)
            best = 0.5 * (a + b)
            f_best = along(best)
            if f_best < fx:
                x[i] = best
                fx = f_best
        steps = steps * 0.25
    return x


def _block_passes(ctx: _SearchContext, theta: Array, steps: Array, rng,
                  fun, offer) -> Array:
    """Two block-coordinate passes: hold all tuples but one fixed.

    Every tuple after the first starts from a jittered copy, letting it
    specialize into whatever cap the data demands.
    """
    block = theta.size // ctx.cfg.num_cbfs
    steps_one = steps[:block]
    block_iters = max(100, ctx.cfg.iterations // 2)
    for _ in range(2):
        for j in range(ctx.cfg.num_cbfs):
            sel = slice(j * block, (j + 1) * block)

            def block_fun(tj, sel=sel):
                trial = theta.copy()
                trial[sel] = tj
                return fun(trial)

            tj0 = theta[sel] + (rng.standard_normal(block) * 1e-3 * steps_one
                                if j > 0 else 0.0)
            theta[sel] = _nelder_mead(block_fun, tj0, steps_one, block_iters)
            offer(theta)
    return theta


def _fit(name: str, s: SampleSet, b: BoundarySet | None, sys: SystemModel,
         input_box: BoxSet, cfg: FitConfig,
         warm: Sequence[Sequence[CbfCandidate]]) -> FitResult:
    """Search driver shared by the three modes.

    Each structured or warm seed is offered as is, refined by block passes
    where the mode has them, then by Nelder-Mead and a golden-section polish;
    the remaining restarts start from the best of `population` random draws.
    Every offer goes through the full-set acceptance test, and the accepted
    candidate with the largest objective is kept.
    """
    mode = _MODES[name]
    ctx = _SearchContext(s, b, sys, input_box, replace(cfg, mode=name))
    cfg = ctx.cfg
    steps = mode.steps(ctx)
    rng = np.random.Generator(np.random.Philox(key=cfg.seed + mode.key_offset))
    best: list[CbfCandidate] | None = None
    best_obj = -np.inf
    reasons: Counter = Counter()

    def fun(theta):
        return _score(ctx, mode, mode.build(ctx, theta))

    def offer(theta):
        nonlocal best, best_obj
        cands = mode.build(ctx, theta.copy())   # candidates view theta; block passes edit it
        ok, obj, reason = _hard_feasible(ctx, mode, cands)
        if ok and obj > best_obj:
            best, best_obj = cands, obj
        elif not ok and reason:
            reasons[reason] += 1

    seeds = mode.seeds(ctx, warm)
    runs = max(cfg.restarts, len(seeds))
    for k in range(runs):
        if k < len(seeds):
            theta = np.array(seeds[k], dtype=float)
            offer(theta)
            if mode.block_passes:
                theta = _block_passes(ctx, theta, steps, rng, fun, offer)
        else:
            pool = [mode.random_theta(ctx, rng) for _ in range(max(1, cfg.population))]
            theta = min(pool, key=fun)
            offer(theta)
        theta = _nelder_mead(fun, theta, steps, cfg.iterations)
        offer(theta)
        theta = _golden_polish(fun, theta, steps)
        offer(theta)
    return _finalize(ctx, best, reasons, b, runs)


def _finalize(ctx: _SearchContext, best: list[CbfCandidate] | None, reasons: Counter,
              b: BoundarySet | None, runs: int) -> FitResult:
    cfg = ctx.cfg
    if best is None:
        why = "; ".join(sorted(reasons)[:4]) or "no candidate evaluated"
        report = VerificationReport(0.0, 0.0, 0.0, empty_warning=True)
        return FitResult([], 0.0, report, [], cfg.mode, feasible=False,
                         diagnostics=f"no feasible candidate after {runs} restarts: {why}")

    cands = list(best)
    flags: list[tuple[int, int, bool]] = []
    if len(cands) > 1:
        # row-major: check_redundancy reduces over the state axis
        probe_states = np.ascontiguousarray(ctx.states_sub[:max(2 * ctx.n + 4, 64)])
        drop: set[int] = set()
        for i in range(len(cands)):
            for j in range(i + 1, len(cands)):
                red = check_redundancy(cands[i], cands[j], ctx.hcf, probe_states)
                flags.append((i, j, red))
                if red:
                    drop.add(j)
        if drop:
            warnings.warn(f"collapsed {len(drop)} redundant candidate(s); "
                          f"the optimum is attainable with fewer tuples")
            cands = [c for k, c in enumerate(cands) if k not in drop]

    objective, _, _ = ctx.metrics(cands, eval_h_stack(cands, ctx.hcf, ctx.states), full=True)
    report = verify_candidate(cands, ctx.s, ctx.sys, ctx.input_box,
                              probes=cfg.probes, boundary=b, seed=cfg.seed)
    return FitResult(cands, objective, report, flags, cfg.mode)


# ---------------------------------------------------------------------------
# Public fitting entry points
#
# Each takes `warm`, the candidate tuples of every earlier mode, as extra
# seeds. The CLI looks these names up on the module when the stage runs.

def fit_uniform(s: SampleSet, b: BoundarySet, sys: SystemModel, input_box: BoxSet,
                cfg: FitConfig, warm: Sequence[Sequence[CbfCandidate]] = ()) -> FitResult:
    """Uniform scaling and offset: maximize the set size with d I, c, eps."""
    return _fit("uniform", s, b, sys, input_box, cfg, warm)


def fit_nonuniform(s: SampleSet, b: BoundarySet, sys: SystemModel, input_box: BoxSet,
                   cfg: FitConfig, warm: Sequence[Sequence[CbfCandidate]] = ()) -> FitResult:
    """Per-axis scaling d_i >= 0 with the exists-input boundary condition."""
    return _fit("nonuniform", s, b, sys, input_box, cfg, warm)


def fit_multi(s: SampleSet, b: BoundarySet, sys: SystemModel, input_box: BoxSet,
              cfg: FitConfig, warm: Sequence[Sequence[CbfCandidate]] = ()) -> FitResult:
    """Intersection of num_cbfs candidate sets, containment-constrained.

    Seeds get block passes (one tuple at a time) before joint refinement; the
    natural structured seed puts the raw constraint function in every slot.
    """
    return _fit("multi", s, b, sys, input_box, cfg, warm)


# ---------------------------------------------------------------------------
# Redundancy and verification

def check_redundancy(c1: CbfCandidate, c2: CbfCandidate, hcf: HardConstraint,
                     probe_states: Array, tol: float = 1e-6) -> bool:
    """True when h1 = zeta h2 for some zeta > 0, so one tuple is superfluous.

    Proportionality is fit by least squares over the probes; affine
    constraints (detected by a constant gradient) are additionally checked
    against the closed-form scale and intercept conditions.
    """
    probe_states = np.asarray(probe_states, dtype=float)
    n = c1.dim
    if probe_states.shape[0] < n + 2:
        raise ValueError(f"need at least {n + 2} probe states")
    h1 = eval_h_batch(c1, hcf, probe_states)
    h2 = eval_h_batch(c2, hcf, probe_states)
    mask = np.abs(h2) > 1e-9 * (1.0 + np.max(np.abs(h2)))
    if not np.any(mask):
        warnings.warn("redundancy check indeterminate: reference barrier vanishes on probes")
        return False
    zeta = float(h1[mask] @ h2[mask] / (h2[mask] @ h2[mask]))
    if zeta <= 0.0:
        return False
    if np.max(np.abs(h1 - zeta * h2)) > tol * (1.0 + np.max(np.abs(h1))):
        return False

    grads = hcf.gradient(probe_states)
    if np.max(np.abs(grads - grads[0]), initial=0.0) <= 1e-10 * (1.0 + np.max(np.abs(grads))):
        # affine z(x) = A x + b: require D1 = zeta D2 and matching intercepts
        a_row = grads[0]
        intercept = float(hcf.value(probe_states[0]) - a_row @ probe_states[0])
        scale_ref = 1.0 + np.max(np.abs(c1.scale))
        if np.max(np.abs(c1.scale - zeta * c2.scale)) > tol * scale_ref:
            return False
        i1 = a_row @ c1.shift + c1.offset + intercept
        i2 = a_row @ c2.shift + c2.offset + intercept
        if abs(i1 - zeta * i2) > tol * (1.0 + abs(i1)):
            return False
    return True


def verify_candidate(cands: Sequence[CbfCandidate], s: SampleSet, sys: SystemModel,
                     input_box: BoxSet, probes: int = 256,
                     boundary: BoundarySet | None = None,
                     seed: int = 0) -> VerificationReport:
    """Empirical soundness report for a candidate collection.

    containment: enclosed samples classified feasible. boundary feasibility:
    sup_u hdot >= 0 at bisection probes of each active boundary, in closed
    form over the input box. exists-input: the reduced-scaling condition at
    the extracted class-boundary points.
    """
    if not cands:
        raise ValueError("need at least one candidate")
    hcf = sys.hcf
    ctx = _SearchContext(s, boundary, sys, input_box, FitConfig(seed=seed, probes=probes))
    h_all = eval_h_stack(cands, hcf, ctx.states)
    inside = h_all.min(axis=0) >= 0.0
    n_inside = int(np.sum(inside))
    empty = n_inside == 0
    if empty:
        containment = 1.0
    else:
        feas = s.class_mask(SampleClass.FEASIBLE)
        containment = float(np.sum(inside & feas)) / n_inside

    pts, owner = ctx.boundary_probes(cands, h_all[:, ctx.sub], probes)
    scale, shift, _ = (p[owner] for p in stack_candidates(cands))
    grad_h = hcf.gradient(pts * scale + shift) * scale
    rows = np.einsum("bn,bnm->bm", grad_h, sys.actuation(pts))
    biases = np.sum(grad_h * sys.drift(pts), axis=-1)
    held = max_over_box(rows, biases, input_box) >= -1e-9 * (1.0 + np.abs(biases))
    boundary_frac = int(np.count_nonzero(held)) / held.size if held.size else 1.0

    passes = [ctx.prop2_pass(cand.scale) for cand in cands]
    total = sum(t for _, t in passes)
    prop2_frac = sum(ok for ok, _ in passes) / total if total else 1.0

    return VerificationReport(containment, boundary_frac, prop2_frac, empty_warning=empty)


# ---------------------------------------------------------------------------
# Persistence

FIT_FORMAT_VERSION = 1


def fit_result_dict(res: FitResult, cfg: FitConfig | None = None,
                    source_checksums: dict[str, str] | None = None) -> dict:
    doc = {
        "version": FIT_FORMAT_VERSION,
        "mode": res.mode,
        "feasible": res.feasible,
        "candidates": [
            {"scale": c.scale.tolist(), "shift": c.shift.tolist(), "offset": c.offset}
            for c in res.candidates
        ],
        "objective_value": res.objective_value,
        "verification": {
            "containment_fraction": res.verification.containment_fraction,
            "boundary_cbf_feasible_fraction": res.verification.boundary_cbf_feasible_fraction,
            "prop2_feasible_fraction": res.verification.prop2_feasible_fraction,
            "empty_warning": res.verification.empty_warning,
        },
        "redundancy": [[i, j, bool(flag)] for i, j, flag in res.redundancy_flags],
        "diagnostics": res.diagnostics,
    }
    if cfg is not None:
        doc["config_echo"] = {
            "mode": cfg.mode, "num_cbfs": cfg.num_cbfs, "margin": cfg.margin,
            "objective": cfg.objective, "restarts": cfg.restarts,
            "iterations": cfg.iterations, "population": cfg.population,
            "seed": cfg.seed, "probes": cfg.probes,
            "volume_region": None if cfg.volume_region is None else {
                "lower": cfg.volume_region.lower.tolist(),
                "upper": cfg.volume_region.upper.tolist(),
            },
        }
    if source_checksums:
        doc["source_checksums"] = dict(sorted(source_checksums.items()))
    return doc


def save_fit(res: FitResult, path, cfg: FitConfig | None = None,
             source_checksums: dict[str, str] | None = None) -> str:
    data = (json.dumps(fit_result_dict(res, cfg, source_checksums),
                       separators=(",", ":"), sort_keys=False) + "\n").encode()
    with open(path, "wb") as f:
        f.write(data)
    return hashlib.sha256(data).hexdigest()


def load_fit(path) -> tuple[FitResult, dict]:
    """Read a stored fit; returns the result plus the raw document."""
    with open(path, "rb") as f:
        doc = json.loads(f.read().decode())
    if doc.get("version") != FIT_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported fit file version")
    cands = [CbfCandidate(np.array(c["scale"]), np.array(c["shift"]), c["offset"])
             for c in doc["candidates"]]
    ver = doc["verification"]
    res = FitResult(
        candidates=cands,
        objective_value=float(doc["objective_value"]),
        verification=VerificationReport(
            ver["containment_fraction"], ver["boundary_cbf_feasible_fraction"],
            ver["prop2_feasible_fraction"], ver.get("empty_warning", False)),
        redundancy_flags=[(int(i), int(j), bool(f)) for i, j, f in doc["redundancy"]],
        mode=doc["mode"],
        feasible=bool(doc["feasible"]),
        diagnostics=doc.get("diagnostics", ""),
    )
    return res, doc
