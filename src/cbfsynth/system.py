"""Control-affine plant models, hard constraint functions, and barrier candidates.

A system is xdot = f(x) + g(x) u with a state-only hard constraint z(x) >= 0.
Barrier candidates reshape the constraint as h(x) = z(D x + c) + eps with
diagonal D, shift c and offset eps; the synthesis pipeline searches over
(D, c, eps) so that the 0-superlevel set of h is control invariant.

All state-dependent callables (z, dz/dx, f, g) broadcast over leading axes:
they accept (..., n) arrays and return (...), (..., n), (..., n) and
(..., n, m) respectively. This keeps batch classification and set-size
estimation fully vectorized. They may receive column-major or strided arrays
(the fit keeps its states column-major), and each output entry must depend
only on its own state, whatever the layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class BoxSet:
    """Axis-aligned box {x : lower <= x <= upper}, used for inputs and sampling regions."""

    lower: Array
    upper: Array

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError(f"box bounds must be 1-d and congruent, got {lo.shape} vs {hi.shape}")
        if np.any(lo > hi):
            raise ValueError("box has lower[i] > upper[i]")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def span(self) -> Array:
        return self.upper - self.lower

    def volume(self) -> float:
        return float(np.prod(self.span)) if self.dim else 0.0

    def contains(self, x: Array, tol: float = 0.0) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.all((x >= self.lower - tol) & (x <= self.upper + tol), axis=-1)

    def clip(self, x: Array) -> Array:
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)


@dataclass(frozen=True)
class HardConstraint:
    """State-only constraint z(x) >= 0 with its gradient dz/dx (a length-n row vector).

    `value` maps (..., n) -> (...) and `gradient` maps (..., n) -> (..., n).
    """

    value: Callable[[Array], Array]
    gradient: Callable[[Array], Array]


@dataclass(frozen=True)
class SystemModel:
    """Control-affine dynamics xdot = drift(x) + actuation(x) @ u plus the hard constraint."""

    n: int
    m: int
    drift: Callable[[Array], Array]
    actuation: Callable[[Array], Array]
    hcf: HardConstraint
    name: str = "anonymous"
    # the registry factory's parameter table, defaults and input bounds included
    params: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class CbfCandidate:
    """Barrier parameters (D, c, eps) defining h(x) = z(D x + c) + eps.

    `scale` is the diagonal of D (entries must be >= 0; uniform candidates use
    a single strictly positive value on every axis), `shift` is c and `offset`
    is eps.
    """

    scale: Array
    shift: Array
    offset: float

    def __post_init__(self):
        sc = np.atleast_1d(np.asarray(self.scale, dtype=float))
        sh = np.atleast_1d(np.asarray(self.shift, dtype=float))
        if sc.shape != sh.shape or sc.ndim != 1:
            raise ValueError("scale and shift must be 1-d vectors of equal length")
        if np.any(sc < 0):
            raise ValueError("scale entries must be nonnegative")
        object.__setattr__(self, "scale", sc)
        object.__setattr__(self, "shift", sh)
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def dim(self) -> int:
        return self.scale.size

    def is_uniform(self, rtol: float = 1e-9) -> bool:
        d0 = self.scale[0]
        return d0 > 0 and bool(np.all(np.abs(self.scale - d0) <= rtol * max(1.0, abs(d0))))


def identity_candidate(n: int) -> CbfCandidate:
    """Candidate with D = I, c = 0, eps = 0, i.e. h identical to z."""
    return CbfCandidate(np.ones(n), np.zeros(n), 0.0)


def barrier(hcf: HardConstraint, x: Array, params: Sequence[Array],
            grad: bool = False) -> Array | tuple[Array, Array]:
    """h = z(D x + c) + eps at (..., n) states `x`, and with `grad` also dh/dx = dz/dx D.

    `params` is (scale, shift, offset), broadcast against `x` as numpy does:
    `[p[:, None] for p in stack_candidates(cands)]` gives s candidates over N
    states. Each value is its single-state result bit for bit, in any layout."""
    scale, shift, offset = params
    y = x * scale + shift
    h = hcf.value(y) + offset
    return (h, hcf.gradient(y) * scale) if grad else h


def eval_h_batch(cand: CbfCandidate, hcf: HardConstraint, states: Array) -> Array:
    """Barrier value h(x) = z(D x + c) + eps over an (..., n) batch of states."""
    return barrier(hcf, np.asarray(states, dtype=float), (cand.scale, cand.shift, cand.offset))


def stack_candidates(cands: Sequence[CbfCandidate]) -> tuple[Array, Array, Array]:
    """Parameters of s candidates as (s, n) scales, (s, n) shifts and (s,) offsets."""
    return (np.array([c.scale for c in cands]), np.array([c.shift for c in cands]),
            np.array([c.offset for c in cands]))


# ---------------------------------------------------------------------------
# System registry: name -> factory(params) -> (SystemModel, input BoxSet)

SystemFactory = Callable[[Mapping[str, float]], tuple[SystemModel, BoxSet]]

_REGISTRY: dict[str, SystemFactory] = {}


def register_system(name: str):
    def wrap(factory: SystemFactory) -> SystemFactory:
        _REGISTRY[name] = factory
        return factory

    return wrap


def registered_systems() -> list[str]:
    return sorted(_REGISTRY)


def build_system(name: str, params: Mapping[str, float]) -> tuple[SystemModel, BoxSet]:
    """Instantiate a registered system from a flat parameter table."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown system {name!r}; registered: {registered_systems()}")
    return _REGISTRY[name](params)


# ---------------------------------------------------------------------------
# Built-in double integrator with a damped position constraint

def make_double_integrator(gamma1: float, gamma2: float) -> SystemModel:
    """Double integrator (position, velocity) with z(x) = gamma1 - x - 1{v > 0} gamma2 v.

    The damping term penalizes approach speed so that the constraint can be
    rendered invariant with bounded input. The indicator is 0 at v = 0, so the
    gradient there takes the v <= 0 branch (-1, 0).
    """
    if gamma2 < 0:
        raise ValueError("gamma2 must be nonnegative")
    gamma1 = float(gamma1)
    gamma2 = float(gamma2)

    def value(state: Array) -> Array:
        state = np.asarray(state, dtype=float)
        pos, vel = state[..., 0], state[..., 1]
        return gamma1 - pos - (vel > 0) * gamma2 * vel

    def gradient(state: Array) -> Array:
        state = np.asarray(state, dtype=float)
        vel = state[..., 1]
        grad = np.empty(state.shape, dtype=float)
        grad[..., 0] = -1.0
        grad[..., 1] = -gamma2 * (vel > 0)
        return grad

    def drift(state: Array) -> Array:
        state = np.asarray(state, dtype=float)
        out = np.zeros(state.shape, dtype=float)
        out[..., 0] = state[..., 1]
        return out

    def actuation(state: Array) -> Array:
        state = np.asarray(state, dtype=float)
        out = np.zeros(state.shape + (1,), dtype=float)
        out[..., 1, 0] = 1.0
        return out

    hcf = HardConstraint(value=value, gradient=gradient)
    return SystemModel(n=2, m=1, drift=drift, actuation=actuation, hcf=hcf,
                       name="double_integrator")


_DI_DEFAULTS = {"gamma1": 0.0, "gamma2": 0.1, "u_min": -300.0, "u_max": 300.0}


@register_system("double_integrator")
def _double_integrator_factory(params: Mapping[str, float]) -> tuple[SystemModel, BoxSet]:
    unknown = set(params) - set(_DI_DEFAULTS)
    if unknown:
        raise ValueError(f"unknown double_integrator parameters: {sorted(unknown)}; "
                         f"accepted: {sorted(_DI_DEFAULTS)}")
    p = dict(_DI_DEFAULTS, **params)
    sys = replace(make_double_integrator(p["gamma1"], p["gamma2"]), params=p)
    return sys, BoxSet(np.array([p["u_min"]]), np.array([p["u_max"]]))
