"""Barrier parameter fitting over classified samples.

Three programs, all maximizing a Monte Carlo estimate of the candidate set
size over the sampling box:

    uniform      one candidate, D = d I with d > 0, plus shift and offset;
                 the offset is eliminated in closed form as the largest value
                 keeping every boundary sample strictly outside the set.
    nonuniform   per-axis scales d_i >= 0; boundary samples must additionally
                 admit an input making dz/dx Dbar xdot nonnegative, with
                 Dbar = diag(0, d_2 - d_1, ..., d_n - d_1).
    multi        s candidate tuples whose intersection is maximized; instead
                 of the boundary-sample constraint, every sample inside the
                 intersection must belong to the feasible class, and the
                 exists-input condition is enforced at probes of each
                 candidate's active boundary: roots of h_j on chords between
                 samples, found by bracketed Illinois steps to within the
                 accuracy of 30 bisections.

The decision spaces are tiny, so the search is Nelder-Mead on a penalized
objective with structured and random restarts; the Nelder-Mead is this
module's own, so the fit needs numpy alone. One driver runs all three
programs from a per-mode table.
Incumbents are accepted only when hard-feasible on the full sample set.

The score kernel scores a block of parameter vectors per call: Nelder-Mead's
initial simplex, each shrink and a random restart's pool each cost one pass
of numpy dispatch, and each score equals that of its vector alone, bit for bit.
Each distinct candidate's rows over the search subsample (h, h >= 0, and on
first use its margin buffer, the guard h + buffer >= 0 and its signs at the
chord pool's ends) are formed once and kept for the last ROW_CACHE
candidates, so a tuple is scored by AND-ing its candidates' rows and
counting; a block pass's held candidates cost nothing after their first step.
A one-point Nelder-Mead step passes a cut, the value at which it would reject
its point. A tuple whose -area reaches the cut gets no guard row nor buffer,
and one whose containment terms reach it skips the exists-input penalty
(>= 0). A restart's other checks wait, each with the chords it probes picked
from the rows, and run in one call once DEFER_ROWS rows wait and at its end;
should one find a penalty, the restart reruns from its start with every
check made at once, so no result or count depends on the waiting.

The restarts are independent tasks. The driver makes every random draw up
front, in the order a search running one restart after another would make
them, runs the restarts on forked worker processes (one per usable core, at
most one per restart), and replays their offers in restart order. With one
worker, or where fork is unavailable, the same restart function runs in this
process. Results and search counts do not depend on the worker count.
"""

from __future__ import annotations

import json
import warnings
from collections import Counter
from contextlib import suppress
from dataclasses import asdict, dataclass, replace
from functools import partial, reduce
from typing import Callable, Iterator, Sequence

import numpy as np

from . import parallel
from .boundary import BoundarySet
from .config import CHORD_KEY_OFFSET, MODES, FitConfig
from .qp import max_over_box
from .sampler import SampleClass, SampleSet, _finite_json, _jsonable, _write
from .system import (BoxSet, CbfCandidate, HardConstraint, SystemModel, barrier,
                     eval_h_batch, identity_candidate, stack_candidates)

Array = np.ndarray
Block = tuple[Array, Array, Array]   # (B, s, n) scales, (B, s, n) shifts, (B, s) offsets

# incumbents must keep the non-feasible fraction of the enclosed samples below this
CONTAINMENT_REJECT_TOL = 1e-3
_MIN_UNIFORM_SCALE = 1e-9

# active-boundary roots (see _SearchContext.boundary_probes): relative h
# tolerance, bracket width of 30 bisections, and the step bound that the
# midpoint fallback's halving every three steps guarantees for that width
ROOT_H_TOL = 1e-12
ROOT_WIDTH = 2.0 ** -30
ROOT_MAX_STEPS = 90
# queued rows at which a restart's deferred exists-input checks run (see _score)
DEFER_ROWS = 32
# candidates whose search rows a context keeps (see _SearchContext.rows): a
# block pass's held candidates stay, and at 88,574 rows each costs about 0.9 MB
ROW_CACHE = 4
# probes per tuple of the search's exists-input checks, deferred or not
SEARCH_PROBES = 48

@dataclass(frozen=True)
class VerificationReport:
    containment_fraction: float
    boundary_cbf_feasible_fraction: float
    prop2_feasible_fraction: float
    empty_warning: bool = False

    def __post_init__(self):
        for name in ("containment_fraction", "boundary_cbf_feasible_fraction",
                     "prop2_feasible_fraction"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "empty_warning", bool(self.empty_warning))


@dataclass(frozen=True)
class SearchCounts:
    """What one fit's search did. Printed with the fit, never saved."""

    evaluations: int = 0        # penalized objective evaluations
    score_calls: int = 0        # score kernel calls, each over a block of evaluations
    accepted: int = 0           # offers passing the full-set acceptance test
    rejected: int = 0           # offers failing it
    probe_calls: int = 0        # probed tuples with a chord (root_steps entries)
    root_steps_mean: float = 0.0
    root_steps_max: int = 0
    workers: int = 1            # processes the restarts ran on


@dataclass(frozen=True)
class FitResult:
    candidates: list[CbfCandidate]
    objective_value: float
    verification: VerificationReport
    redundancy_flags: list[tuple[int, int, bool]]
    mode: str
    feasible: bool = True
    diagnostics: str = ""
    counts: SearchCounts = SearchCounts()


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
        # a set's size is its share of the samples times the box's volume
        self.vol = s.bounds.volume()
        if self.vol <= 0:
            raise ValueError("the sampling box has zero volume")
        if not len(s):
            raise ValueError("the sample set is empty")
        if not s.bounds.contains(s.states).all():
            raise ValueError("a sample lies outside the sampling box")
        self.n = s.bounds.dim

        # column-major, so z's per-coordinate work runs down unit-stride columns
        self.states = np.asfortranarray(s.states)
        self.feas = s.class_mask(SampleClass.FEASIBLE)

        stride = max(1, len(s) // 60000)
        self.sub = slice(None, None, stride)
        self.states_sub = np.asfortranarray(self.states[self.sub])
        self.feas_sub = self.feas[self.sub]

        self.bpoints = b.points if b is not None and len(b) else np.zeros((0, self.n))
        self.bgrad = self.hcf.gradient(self.bpoints)
        self.bdrift = sys.drift(self.bpoints)
        self.bact = sys.actuation(self.bpoints)

        # chord pool for active-boundary probes (multi mode), and its a then b ends
        rng = np.random.Generator(np.random.Philox(key=cfg.seed + CHORD_KEY_OFFSET))
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
        self.root_steps: list[int] = []   # steps of each tuple's boundary probes
        self._cache: dict[bytes, _Rows] = {}   # search rows by candidate, oldest first
        self._buffers: dict[bytes, float] = {}   # margin buffers of the latest block by candidate

    # -- candidate evaluation, a block of B tuples at a time --------------------

    def rows(self, block: Block, full: bool = False) -> Iterator[list[_Rows]]:
        """Each tuple's candidates' rows in turn (see `_Rows`), over every
        sample when `full`, else over the search subsample. There the last
        ROW_CACHE candidates, keyed by the bytes of their scale, shift and
        offset, are kept, so a candidate's rows are formed once while it
        stays; beyond those, one tuple's rows are held at a time, so no
        (B, s, N) array is built."""
        count = block[2].shape[1]
        params = list(zip(*(p.reshape(-1, *p.shape[2:]) for p in block)))
        keys = self._keys(block)
        for i in range(0, len(keys), count):
            rows = []
            for key, p in zip(keys[i:i + count], params[i:i + count]):
                row = (None if full else self._cache.pop(key, None)) or _Rows(key)
                if row.h is None:
                    row.h = barrier(self.hcf, self.states if full else self.states_sub, p)
                    row.inside = row.h >= 0.0
                if not full:
                    self._cache[key] = row
                rows.append(row)
            for key in list(self._cache)[:-ROW_CACHE]:
                del self._cache[key]
            yield rows

    def _keys(self, block: Block) -> list[bytes]:
        """Each candidate's key, in order b s + j: its scale, shift and offset's bytes."""
        flat = np.concatenate([block[0], block[1], block[2][..., None]], axis=-1)
        return [p.tobytes() for p in flat.reshape(-1, 2 * self.n + 1)]

    def metrics(self, block: Block, full: bool = False, cut: float = np.inf,
                chords: list | None = None, want: int = SEARCH_PROBES) -> tuple[Array, ...]:
        """Per tuple: (objective, non-feasible fraction of enclosed, enclosed
        count), from its candidates' `rows` AND-ed and counted.

        With a positive margin the containment test inflates each set by the
        buffer, so the delivered zero-superlevel set sits strictly inside the
        feasible samples. A tuple whose -objective reaches `cut` gets no
        guard row and no buffer, and its fraction reads 0. The other tuples'
        candidates take their buffers from `capped`, or else from one stacked
        `h_unit` call for the rest of the block.

        With a `chords` list, each tuple whose guard is formed appends the
        chords its candidates' probes run on, in order b s + j: the first
        `want` of the pool from an a end the tuple encloses to a b end with
        h_j < 0, as (pool indices, h_j at a, h_j at b), picked by `_pick`
        while the tuple's rows are at hand.
        """
        count = block[2].shape[1]
        if not count:
            raise ValueError("a tuple needs at least one candidate")
        bad = ~(self.feas if full else self.feas_sub)
        n_inside = np.zeros(len(block[2]), dtype=int)
        area, viol = np.zeros(n_inside.shape), np.zeros(n_inside.shape)
        for b, rows in enumerate(self.rows(block, full)):
            n_inside[b] = np.count_nonzero(_all(r.inside for r in rows))
            area[b] = n_inside[b] / bad.size * self.vol
            if -area[b] >= cut:
                continue
            guard = self._guard(block, b, rows)
            n_guard = int(np.count_nonzero(guard))
            viol[b] = float(np.count_nonzero(guard & bad)) / n_guard if n_guard else 0.0
            if chords is not None:
                chords += self._pick(rows, want, full)
        return area, viol, n_inside

    def _pick(self, rows: list[_Rows], want: int, full: bool = False) -> list:
        """Each candidate's first `want` chords, (pool indices, h_j at a, h_j
        at b): the pool pairs from an a end that every candidate encloses to
        a b end with h_j < 0. A row keeps its signs at the pool ends once
        formed; the pool indexes the subsample, so full rows are read at its
        stride."""
        a, b = self.pool_a, self.pool_b
        hs = [r.h[self.sub] if full else r.h for r in rows]
        for r, h in zip(rows, hs):
            if r.ends is None:
                r.ends = h[a] >= 0.0, h[b] < 0.0
        enclosed = _all(r.ends[0] for r in rows)
        ks = [np.flatnonzero(enclosed & r.ends[1])[:want] for r in rows]
        return [(k, h[a[k]], h[b[k]]) for k, h in zip(ks, hs)]

    def _guard(self, block: Block, b: int, rows: list[_Rows]) -> Array:
        """Tuple b's guard row: the AND of its candidates' h + buffer >= 0,
        each formed once. A buffer comes from `capped`, or else from one
        stacked `h_unit` call over the candidates of this tuple still without
        a guard and of every later tuple."""
        margin, count = self.cfg.margin, len(rows)
        for r in rows:
            if r.guard is not None:
                continue
            if margin and r.key not in self._buffers:
                todo = [b * count + j for j, q in enumerate(rows) if q.guard is None]
                todo += range((b + 1) * count, block[2].size)
                keys = self._keys(block)
                self._buffers = dict(zip([keys[i] for i in todo], margin * self.h_unit(
                    *(p.reshape(-1, self.n)[todo] for p in block[:2]))))
            r.guard = r.h + self._buffers[r.key] >= 0.0 if margin else r.inside
        return _all(r.guard for r in rows)

    # -- constraints ----------------------------------------------------------

    def h_unit(self, scale: Array, shift: Array) -> Array:
        """Barrier change per unit of normalized state distance.

        The margin is a geometric buffer, so it is converted to barrier units
        through the typical gradient magnitude (in box-normalized coordinates)
        rather than applied to raw h values, which the free candidate scale
        could otherwise inflate away. One candidate's (n,) scale and shift
        give a scalar; stacked (..., n) rows give (...) values.
        """
        scale, shift = scale[..., None, :], shift[..., None, :]
        grad = self.hcf.gradient(self.grad_probe * scale + shift) * (scale * self.span_w)
        # the norm sums over the state axis; a row-major operand fixes its order
        grad = np.ascontiguousarray(grad)
        return np.maximum(np.mean(np.linalg.norm(grad, axis=-1), axis=-1), 1e-12)

    def capped(self, scale: Array, shift: Array) -> Block:
        """The block of one-candidate tuples with (B, n) `scale` and `shift`
        and the largest offsets keeping h <= -margin buffer at every boundary
        sample. With no boundary samples the constraint is vacuous; the
        offset then exactly encloses the samples."""
        if self.bpoints.shape[0]:   # offset -0.0: z + -0.0 is z, a -0.0 too
            zb = barrier(self.hcf, self.bpoints, (scale[:, None], shift[:, None], -0.0))
            buffer = self.cfg.margin * self.h_unit(scale, shift) if self.cfg.margin else 0.0
            offset = -np.max(zb, axis=-1) - buffer
        else:   # one tuple at a time: no (B, N, n) array
            offset = np.array([-np.min(barrier(self.hcf, self.states, (d, c, -0.0)))
                               for d, c in zip(scale, shift)])
        block = scale[:, None], shift[:, None], offset[:, None]
        if self.bpoints.shape[0] and self.cfg.margin:   # the guard reuses these buffers
            self._buffers = dict(zip(self._keys(block), buffer))
        return block

    def prop2_pass(self, scale: Array) -> tuple[Array, Array]:
        """(passing, total) for the exists-input condition at boundary
        samples, per row of (..., n) scales."""
        ok = self._dz_pass(scale[..., None, :], self.bgrad, self.bdrift, self.bact)
        return np.sum(ok, axis=-1), np.full(ok.shape[:-1], ok.shape[-1])

    def boundary_probes(self, block: Block, chords: list) -> tuple[Array, Array]:
        """Probe states on each {h_j = 0, min_i h_i >= 0} by bracketed Illinois steps.

        Chords run between enclosed and h_j-negative subsample points, each
        with h_j at both ends, as `chords` picks them; a queued check carries
        them, not rows. On the chord x(t) = a + t (b - a) a bracket [t_a, t_b],
        first [0, 1], keeps h_j >= tol / 2 at t_a and h_j < tol / 2 at t_b,
        with tol = ROOT_H_TOL (1 + max(|h_j(a)|, |h_j(b)|)). All chords of the
        block step at once, to the regula falsi point of the bracket's
        end values (Dowell & Jarratt's Illinois rule halves the kept end's
        value whenever the same end is replaced twice in a row), or to the
        midpoint when the bracket has not halved over the last two steps.
        A chord stops at a point with 0 <= h_j <= tol, or once its bracket is
        no wider than ROOT_WIDTH, the width 30 bisections leave.

        Each probe is the latest point of its chord found with h_j >= 0 (a,
        if none), so it lies on the chord, and either h_j <= tol there or it
        lies within 2^-30 chord lengths of a point with h_j < tol / 2: no
        probe is less accurate than 30 bisections would make it. An affine
        piece of h_j is solved in one step, and the midpoint fallback at
        least halves every bracket in three steps, which bounds the loop by
        ROOT_MAX_STEPS. A chord's steps and probe depend on its candidate and
        pool index alone, so each distinct pair steps once per call, its copies
        (a block pass's held candidate, queued many times) sharing the result.
        Probes leaving the intersection are discarded.
        Returns the probes and, per probe, the index b s + j of candidate j
        of tuple b whose zero level set it lies on. For each tuple with a
        chord, in order, it appends to `root_steps` the number of steps in
        which one of that tuple's chords was still live.
        """
        count = block[2].shape[1]
        k, fa, fb = (np.concatenate(p) for p in zip(*chords))
        owner = np.repeat(np.arange(len(chords)), [c[0].size for c in chords])
        if not k.size:
            return np.zeros((0, self.n)), owner
        ids: dict[bytes, int] = {}
        candidate = np.array([ids.setdefault(key, len(ids)) for key in self._keys(block)])
        _, first, inverse = np.unique(candidate[owner] * self.pool_a.size + k,
                                      return_index=True, return_inverse=True)
        k, fa, fb = k[first], fa[first], fb[first]
        tol = ROOT_H_TOL * (1.0 + np.maximum(fa, -fb))
        # every chord operand column-major, like the states: a step's loops
        # then run down unit-stride columns of all of them at once
        xa0 = np.asfortranarray(self.states_sub[self.pool_a[k]])
        dx = np.asfortranarray(self.states_sub[self.pool_b[k]]) - xa0
        xa = xa0.copy()
        params = [np.asfortranarray(p.reshape(-1, *p.shape[2:])[owner[first]]) for p in block]
        # aim at h_j = tol / 2: a root computed to within rounding then lands
        # in [0, tol] on whichever side of it, and the chord is done
        aim = 0.5 * tol
        ga, gb = fa - aim, fb - aim
        ta, tb = np.zeros(k.size), np.ones(k.size)
        live = fa > tol
        last_pos = np.zeros(k.size, dtype=bool)
        width_back = (np.full(k.size, np.inf), np.full(k.size, np.inf))
        live_steps = np.zeros(k.size, dtype=int)
        steps = 0
        while steps < ROOT_MAX_STEPS:
            width = tb - ta
            live &= width > ROOT_WIDTH
            if not live.any():
                break
            live_steps += live
            frac = np.where(width > 0.5 * width_back[0], 0.5, ga / (ga - gb))
            width_back = (width_back[1], width)
            t = np.minimum(ta + width * frac, tb)
            x = xa0 + t[:, None] * dx
            f = barrier(self.hcf, x, params)
            nonneg = f >= 0.0
            np.copyto(xa, x, where=(nonneg & live)[:, None])
            live &= ~(nonneg & (f <= tol))
            g = f - aim
            pos = g >= 0.0
            # Illinois: an end kept twice in a row has its value halved
            halve = np.where(pos == last_pos, 0.5, 1.0) if steps else 1.0
            ga, gb = np.where(pos, g, ga * halve), np.where(pos, gb * halve, g)
            ta, tb = np.where(pos, t, ta), np.where(pos, tb, t)
            last_pos = pos
            steps += 1
        xa, live_steps = xa[inverse], live_steps[inverse]
        # a chord is live over a prefix of the steps: a tuple's count is its longest
        tuples = owner // count
        bounds = np.searchsorted(tuples, np.arange(len(block[2]) + 1))
        self.root_steps += np.maximum.reduceat(
            live_steps, bounds[:-1][bounds[:-1] < bounds[1:]]).tolist()
        # every candidate of each chord's tuple at its probe, (s, K)
        h_all = barrier(self.hcf, xa, [p.swapaxes(0, 1)[:, tuples] for p in block])
        h_max = np.zeros(block[2].size)
        np.maximum.at(h_max, owner, np.max(np.abs(h_all), axis=0))
        on_active = np.all(h_all >= -1e-7 * (1.0 + h_max[owner]), axis=0)
        return xa[on_active], owner[on_active]

    def multi_dz_pass(self, block: Block, chords: list) -> tuple[Array, Array]:
        """Exists-input condition at active-boundary probes of every candidate,
        on its `chords`: (passing, total) per tuple."""
        probes, owner = self.boundary_probes(block, chords)
        ok = self._dz_pass(block[0].reshape(-1, self.n)[owner], self.hcf.gradient(probes),
                           self.sys.drift(probes), self.sys.actuation(probes))
        tuples = owner // block[2].shape[1]
        return (np.bincount(tuples[ok], minlength=len(block[2])),
                np.bincount(tuples, minlength=len(block[2])))

    def _dz_pass(self, scale: Array, grad: Array, drift: Array, act: Array) -> Array:
        """Whether some input makes dz/dx Dbar xdot >= 0, per (..., n) row of
        `grad`, with Dbar = diag(0, d_2 - d_1, ..., d_n - d_1) from the
        matching row of `scale`."""
        dbar = scale - scale[..., :1]
        dbar[..., 0] = 0.0
        return self.sup_rate(grad * dbar, drift, act)[0] >= 0.0

    def sup_rate(self, w: Array, drift: Array, act: Array) -> tuple[Array, Array]:
        """sup over the input box of w (f + g u), and w f, for (..., n) rows w
        at (..., n) drifts f and (..., n, m) actuations g."""
        bias = np.sum(w * drift, axis=-1)
        return max_over_box(np.einsum("...n,...nm->...m", w, act), bias, self.input_box), bias


class _Rows:
    """One candidate's rows over the states, by its key: h and h >= 0, and
    once read the guard h + margin buffer >= 0 and the signs at the chord
    pool's ends (h >= 0 at a, h < 0 at b)."""

    __slots__ = ("key", "h", "inside", "guard", "ends")

    def __init__(self, key: bytes):
        self.key = key
        self.h = self.inside = self.guard = self.ends = None


def _all(rows) -> Array:
    """The AND of boolean rows: min_j h_j >= 0 is the AND of the h_j >= 0, NaN included."""
    return reduce(np.logical_and, rows)


# ---------------------------------------------------------------------------
# Parameter vector <-> candidates

def _block(cands: Sequence[CbfCandidate]) -> Block:
    """One tuple of candidates as a block."""
    return tuple(p[None] for p in stack_candidates(cands))


def _build_uniform(ctx: _SearchContext, thetas: Array) -> Block:
    scale = np.repeat(np.maximum(thetas[:, :1], _MIN_UNIFORM_SCALE), ctx.n, axis=1)
    return ctx.capped(scale, thetas[:, 1:1 + ctx.n])


def _build_nonuniform(ctx: _SearchContext, thetas: Array) -> Block:
    return ctx.capped(np.maximum(thetas[:, :ctx.n], 0.0), thetas[:, ctx.n:2 * ctx.n])


def _build_multi(ctx: _SearchContext, thetas: Array) -> Block:
    n = ctx.n
    t = thetas.reshape(len(thetas), ctx.cfg.num_cbfs, 2 * n + 1)
    return np.maximum(t[..., :n], 0.0), t[..., n:2 * n], t[..., 2 * n]


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

    build: Callable[[_SearchContext, Array], Block]   # (B, d) thetas -> their block
    seeds: Callable          # (ctx, warm tuples) -> structured and warm starts
    random_theta: Callable   # (ctx, rng) -> one random start
    steps: Callable          # ctx -> per-coordinate Nelder-Mead steps
    key_offset: int = 0      # added to the fit seed for the restart stream
    exists_input: Callable | None = None   # (ctx, block, chords) -> (passing, total)
    checked_at: str = ""     # what exists_input counts, for rejection reasons
    block_passes: bool = False
    chords: bool = False     # exists_input probes the chords metrics picks


_MODES = {
    "uniform": _Mode(
        _build_uniform, _seeds_uniform,
        lambda ctx, rng: _random_scales_shift(ctx, rng, 1),
        lambda ctx: np.concatenate([[0.25], 0.1 * ctx.c_scale])),
    "nonuniform": _Mode(
        _build_nonuniform, _seeds_nonuniform,
        lambda ctx, rng: _random_scales_shift(ctx, rng, ctx.n),
        lambda ctx: np.concatenate([0.25 * np.ones(ctx.n), 0.1 * ctx.c_scale]),
        exists_input=lambda ctx, block, chords: ctx.prop2_pass(block[0][:, 0]),
        checked_at="boundary samples"),
    "multi": _Mode(
        _build_multi, _seeds_multi, _random_multi, _steps_multi, key_offset=1,
        exists_input=_SearchContext.multi_dz_pass, checked_at="probes",
        block_passes=True, chords=True),
}


# ---------------------------------------------------------------------------
# Penalized search

def _score(ctx: _SearchContext, mode: _Mode, block: Block, cut: float = np.inf,
           defer: list | None = None) -> Array:
    """Each tuple's penalized objective, (B,), or its containment terms
    L = -area + 3 vol viol if all reach `cut`; a tuple whose -area alone
    reaches it forms no guard row nor buffer and gives -area + 0.0 (see
    `metrics`), as Nelder-Mead never reads a value at or above its cut. The
    exists-input check probes the chords `metrics` picked for each tuple
    whose -area lies below the cut; only a one-point step has a finite cut,
    so where the check runs every tuple has them. With a `defer` list it
    waits there for `_flush`, carrying those chords, and L is returned: the
    objective bit for bit where that check's penalty is zero (L + 0.0 is L)."""
    chords: list = []
    area, viol, _ = ctx.metrics(block, cut=cut, chords=chords if mode.chords else None)
    score = -area + 3.0 * ctx.vol * viol
    if mode.exists_input is not None and not np.all(score >= cut):
        if defer is not None:
            defer.append((block, chords))
            return score
        ok, total = mode.exists_input(ctx, block, chords)
        score += 2.0 * ctx.vol * (total - ok) / np.maximum(total, 1)
    return score


class _Penalized(Exception):
    """A deferred exists-input check found a positive penalty."""


def _flush(ctx: _SearchContext, mode: _Mode, defer: list) -> None:
    """Run the nonempty queue's exists-input checks in one call, on the
    chords each queued tuple carries, and empty it; raises _Penalized if any
    tuple's penalty is positive."""
    block = tuple(np.concatenate(p) for p in zip(*(queued for queued, _ in defer)))
    chords = [c for _, queued in defer for c in queued]
    defer.clear()
    ok, total = mode.exists_input(ctx, block, chords)
    if np.any(ok < total):
        raise _Penalized


def _hard_feasible(ctx: _SearchContext, mode: _Mode, block: Block) -> tuple[bool, float, str]:
    """Full-set acceptance test of a block of one tuple; returns (ok, objective, reason)."""
    chords: list = []
    (obj,), (viol,), (n_inside,) = ctx.metrics(
        block, full=True, chords=chords if mode.chords else None, want=ctx.cfg.probes)
    obj = float(obj)
    if n_inside == 0:
        return False, obj, "candidate set encloses no samples"
    if viol > CONTAINMENT_REJECT_TOL:
        return False, obj, f"containment violation {viol:.2e}"
    if mode.exists_input is not None:
        (ok,), (total,) = mode.exists_input(ctx, block, chords)
        if total and ok < total:
            return False, obj, (f"exists-input condition failed at {total - ok} "
                                f"{mode.checked_at}")
    return True, obj, ""


class _EvaluationCap(Exception):
    """Nelder-Mead's evaluation cap is reached."""


def _nelder_mead(fun, x0: Array, steps: Array, maxiter: int) -> Array:
    """Nelder-Mead (Nelder & Mead, 1965) from the simplex x0, x0 + steps_i e_i:
    step for step scipy 1.17.1's with that simplex, no bounds, maxfev 4 maxiter,
    xatol 1e-10 and fatol 1e-12, in its arithmetic and reorderings, stopping at
    the evaluation cap in mid-iteration.

    `fun` scores a block: a copy of k points as a (k, n) array and a cut in,
    (k,) values out. The initial simplex and each shrink, whose points are all
    known before any is scored, go as one block (parallel direct search: Dennis
    & Torczon, 1991); every other step is a block of one. A block is cut at the
    cap as the one-point loop would stop: of the initial simplex only the first
    cap vertices are scored, and in a shrink the vertex at the cap is moved but
    not scored. A one-point step rejects its point unread at a value >= its cut,
    which `fun` may return instead: fsim[-1] (reflection, inside contraction),
    fxr (expansion), the float after fxr (outside contraction); blocks pass inf.
    """
    n = x0.size
    sim = np.vstack([x0] + [x0 + steps * np.eye(n)[i] for i in range(n)])
    fsim, calls, iterations = np.full(n + 1, np.inf), 0, 1

    def f(xs, cut=np.inf):
        """Values of the rows of `xs` below the cap; raises at the cap."""
        nonlocal calls
        xs = xs[:4 * maxiter - calls]
        if not len(xs):
            raise _EvaluationCap
        calls += len(xs)
        return fun(np.array(xs), cut)

    def order(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    scored = f(sim)
    fsim[:scored.size] = scored
    sim, fsim = order(*order(sim, fsim))
    while calls < 4 * maxiter and iterations < maxiter:
        with suppress(_EvaluationCap):
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= 1e-10
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-12):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr[None], fsim[-1])[0]
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe[None], fxr)[0]
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:   # contract outside the simplex if xr beats the worst, else inside
                outside = fxr < fsim[-1]
                xc = 1.5 * xbar - 0.5 * sim[-1] if outside else 0.5 * xbar + 0.5 * sim[-1]
                fxc = f(xc[None], np.nextafter(fxr, np.inf) if outside else fsim[-1])[0]
                if fxc <= fxr if outside else fxc < fsim[-1]:
                    sim[-1], fsim[-1] = xc, fxc
                else:   # shrink toward the best vertex
                    moved = slice(1, 1 + min(n, 4 * maxiter - calls + 1))
                    sim[moved] = sim[0] + 0.5 * (sim[moved] - sim[0])
                    scored = f(sim[moved])
                    fsim[1:1 + scored.size] = scored
                    if scored.size < n:
                        raise _EvaluationCap
            iterations += 1
        sim, fsim = order(sim, fsim)
    return sim[0]


def _block_passes(ctx: _SearchContext, theta: Array, steps: Array,
                  jitter: Sequence[Sequence[Array]], fun, offer) -> Array:
    """Block-coordinate passes, one per row of `jitter`: hold all tuples but one fixed.

    Every tuple after the first starts from a jittered copy, letting it
    specialize into whatever cap the data demands; `jitter[p][j - 1]` is the
    standard normal draw for tuple j in pass p. `_fit` makes these draws,
    two passes' worth per seed, before any restart runs, in the order the
    passes use them. `fun` scores a block of full vectors; each pass's
    Nelder-Mead sends it its blocks of one tuple's slice, completed with the
    others held fixed.
    """
    block = theta.size // ctx.cfg.num_cbfs
    steps_one = steps[:block]
    block_iters = max(100, ctx.cfg.iterations // 2)
    for draws in jitter:
        for j in range(ctx.cfg.num_cbfs):
            sel = slice(j * block, (j + 1) * block)

            def block_fun(tjs, cut, sel=sel):
                trial = np.tile(theta, (len(tjs), 1))
                trial[:, sel] = tjs
                return fun(trial, cut)

            tj0 = theta[sel] + (draws[j - 1] * 1e-3 * steps_one if j > 0 else 0.0)
            theta[sel] = _nelder_mead(block_fun, tj0, steps_one, block_iters)
            offer(theta)
    return theta


def _run(ctx: _SearchContext, mode: _Mode, steps: Array,
         start: tuple[Array | None, list, list]) -> tuple[list, int, int, list[int]]:
    """One restart of the fit, from (seed, jitter, pool).

    A structured or warm seed is offered as is and refined by block passes
    with `jitter` where the mode has them; without a seed the run starts from
    the first best of the random draws in `pool`, all scored in one block.
    Nelder-Mead follows, and its result is the run's last offer. Returns the
    run's offers in order, each as (candidates, ok, objective, reason) from
    the full-set acceptance test, its objective evaluations, its score kernel
    calls and the steps of each tuple its boundary probes ran on. The checks
    are deferred (see `_score`) until one finds a penalty: the search then
    read values that were not its scores, so its offers and counts are
    dropped and the restart reruns with every check made at once.
    """
    try:
        return _attempt(ctx, mode, steps, start, [])
    except _Penalized:
        return _attempt(ctx, mode, steps, start, None)


def _attempt(ctx: _SearchContext, mode: _Mode, steps: Array,
             start: tuple[Array | None, list, list], defer: list | None):
    """`_run`'s restart, queuing its exists-input checks on `defer` unless None."""
    seed, jitter, pool = start
    ctx.root_steps.clear()
    offers = []
    evaluations = calls = 0

    def fun(thetas, cut=np.inf):
        nonlocal evaluations, calls
        evaluations, calls = evaluations + len(thetas), calls + 1
        score = _score(ctx, mode, mode.build(ctx, thetas), cut, defer)
        if defer and sum(len(queued[2]) for queued, _ in defer) >= DEFER_ROWS:
            _flush(ctx, mode, defer)
        return score

    def offer(theta):
        block = mode.build(ctx, theta.copy()[None])   # candidates view it; block passes edit theta
        cands = [CbfCandidate(*p) for p in zip(*(p[0] for p in block))]
        offers.append((cands, *_hard_feasible(ctx, mode, block)))

    if seed is not None:
        theta = np.array(seed, dtype=float)
        offer(theta)
        if mode.block_passes:
            theta = _block_passes(ctx, theta, steps, jitter, fun, offer)
    else:
        theta = pool[int(np.argmin(fun(np.array(pool))))]
        offer(theta)
    theta = _nelder_mead(fun, theta, steps, ctx.cfg.iterations)
    offer(theta)
    if defer:
        _flush(ctx, mode, defer)
    return offers, evaluations, calls, list(ctx.root_steps)


def _fit(name: str, s: SampleSet, b: BoundarySet | None, sys: SystemModel,
         input_box: BoxSet, cfg: FitConfig,
         warm: Sequence[Sequence[CbfCandidate]]) -> FitResult:
    """Search driver shared by the three modes.

    One restart per structured or warm seed, then random restarts up to
    `restarts`; `_run` describes one. The restarts share nothing but the
    random stream and the choice of the best offer, so the driver makes
    every draw up front, in the order one restart after another would make
    them: the block-pass jitter of each seed, then each random restart's
    `population` draws. The restarts then run as independent tasks through
    `parallel.fork_map`, on `parallel.workers(runs)` forked processes, or
    in this process where that is one. Their offers are replayed in
    restart order: the accepted candidate with the largest objective is
    kept, the first on ties, so neither the result nor the counts depend on
    the worker count. The search needs numpy alone, so the workers import
    nothing after the fork.
    """
    mode = _MODES[name]
    ctx = _SearchContext(s, b, sys, input_box, replace(cfg, mode=name))
    cfg = ctx.cfg
    steps = mode.steps(ctx)
    rng = np.random.Generator(np.random.Philox(key=cfg.seed + mode.key_offset))
    seeds = mode.seeds(ctx, warm)
    runs = max(cfg.restarts, len(seeds))

    def jitter() -> list[list[Array]]:
        if not mode.block_passes:
            return []
        block = steps.size // cfg.num_cbfs
        return [[rng.standard_normal(block) for _ in range(cfg.num_cbfs - 1)]
                for _ in range(2)]

    starts = [(seed, jitter(), None) for seed in seeds]
    starts += [(None, [], [mode.random_theta(ctx, rng) for _ in range(cfg.population)])
               for _ in range(runs - len(seeds))]
    workers = parallel.workers(runs)
    results = parallel.fork_map(partial(_run, ctx, mode, steps), starts, workers)

    best: list[CbfCandidate] | None = None
    best_obj = -np.inf
    reasons: Counter = Counter()
    evaluations = calls = accepted = 0
    root_steps: list[int] = []
    for offers, run_evaluations, run_calls, run_steps in results:
        evaluations, calls = evaluations + run_evaluations, calls + run_calls
        root_steps += run_steps
        for cands, ok, obj, reason in offers:
            accepted += ok
            if ok and obj > best_obj:
                best, best_obj = cands, obj
            elif not ok and reason:
                reasons[reason] += 1
    steps_taken = root_steps or [0]
    counts = SearchCounts(evaluations, calls, accepted, sum(reasons.values()), len(root_steps),
                          float(np.mean(steps_taken)), max(steps_taken), workers)
    return replace(_finalize(ctx, best, reasons, b, runs), counts=counts)


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

    objective = float(ctx.metrics(_block(cands), full=True)[0][0])
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
    sup_u hdot >= 0, in closed form over the input box, at up to `probes`
    probes of each active boundary; each probe has h_j >= 0 and lies on a
    chord between samples, as close to its root as 30 bisections would put
    it or with h_j within 1e-12 of zero relative to the chord's end values
    (see `_SearchContext.boundary_probes`). exists-input: the reduced-scaling
    condition at the extracted class-boundary points.
    """
    if not cands:
        raise ValueError("need at least one candidate")
    ctx = _SearchContext(s, boundary, sys, input_box, FitConfig(seed=seed, probes=probes))
    block = _block(cands)
    (rows,) = ctx.rows(block, full=True)
    inside = _all(r.inside for r in rows)
    n_inside = int(np.sum(inside))
    containment = float(np.sum(inside & ctx.feas)) / n_inside if n_inside else 1.0

    pts, owner = ctx.boundary_probes(block, ctx._pick(rows, probes, full=True))
    _, grad = barrier(sys.hcf, pts, [p[0][owner] for p in block], grad=True)
    sup, bias = ctx.sup_rate(grad, sys.drift(pts), sys.actuation(pts))
    held = sup >= -1e-9 * (1.0 + np.abs(bias))
    boundary_frac = int(np.count_nonzero(held)) / held.size if held.size else 1.0

    ok, total = (int(np.sum(c)) for c in ctx.prop2_pass(block[0][0]))
    prop2_frac = ok / total if total else 1.0

    return VerificationReport(containment, boundary_frac, prop2_frac,
                              empty_warning=n_inside == 0)


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
        "verification": asdict(res.verification),
        "redundancy": [[i, j, bool(flag)] for i, j, flag in res.redundancy_flags],
        "diagnostics": res.diagnostics,
    }
    if cfg is not None:
        doc["config_echo"] = asdict(cfg)
    if source_checksums:
        doc["source_checksums"] = dict(sorted(source_checksums.items()))
    return doc


def save_fit(res: FitResult, path, cfg: FitConfig | None = None,
             source_checksums: dict[str, str] | None = None) -> str:
    data = (json.dumps(fit_result_dict(res, cfg, source_checksums),
                       separators=(",", ":"), default=_jsonable) + "\n").encode()
    return _write(path, data)


def load_fit(path, dim: int | None = None) -> tuple[FitResult, dict]:
    """Read a stored fit; returns the result plus the raw document. Non-finite
    numbers, an unknown mode, any text `save_fit` would not write for the
    result read (a mistyped field reads as another value), and with `dim`
    candidates of another width, raise ValueError."""
    with open(path, "rb") as f:
        data = f.read()
    doc = _finite_json(data)
    if not isinstance(doc, dict) or doc.get("version") != FIT_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported fit file version")
    cands = [CbfCandidate(np.array(c["scale"]), np.array(c["shift"]), c["offset"])
             for c in doc["candidates"]]
    if dim is not None and any(c.dim != dim for c in cands):
        raise ValueError(f"{path}: candidates are not {dim} wide")
    res = FitResult(
        candidates=cands,
        objective_value=float(doc["objective_value"]),
        verification=VerificationReport(**doc["verification"]),
        redundancy_flags=[(int(i), int(j), bool(f)) for i, j, f in doc["redundancy"]],
        mode=doc["mode"],
        feasible=bool(doc["feasible"]),
        diagnostics=doc.get("diagnostics", ""),
    )
    echo = {k: doc[k] for k in ("config_echo", "source_checksums") if k in doc}
    # the fitter writes candidates exactly when the fit is feasible
    if res.mode not in MODES or res.feasible != bool(cands) or data != (
            json.dumps({**fit_result_dict(res), **echo}, separators=(",", ":")) + "\n").encode():
        raise ValueError(f"{path}: content does not match its canonical form")
    return res, doc
