"""Small dense convex QP solver for box-plus-inequality problems.

Canonical form:

    min  0.5 u' H u + q' u + const
    s.t. A u >= b,  lower <= u <= upper

solved with a primal active-set method (null-space steps, Cholesky
refactorization each iteration). Problems here are tiny (m of a few, a
handful of rows). The solver serves the runtime safety filter for more than
one input (a single input takes a closed-form interval) and the QP oracle of
acceptance criterion 3; per-sample feasibility and the fit's boundary checks
use the closed forms `min_zdot` and `max_over_box` instead. Phase 1 is a
max-min-slack LP solved with HiGHS; its argmax doubles as the
least-violation point reported on infeasible problems.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg as sla
from scipy.optimize import linprog

from .system import BoxSet, SystemModel

Array = np.ndarray

# feasibility slack accepted on returned solutions
_FEAS_TOL = 1e-9
_PSD_TOL = 1e-10


class QpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class QpProblem:
    """min 0.5 u'Hu + q'u + const s.t. ineq_rows @ u >= ineq_rhs and u in box."""

    hessian: Array
    linear: Array
    ineq_rows: Array
    ineq_rhs: Array
    box: BoxSet
    constant: float = 0.0

    def __post_init__(self):
        H = np.atleast_2d(np.asarray(self.hessian, dtype=float))
        q = np.atleast_1d(np.asarray(self.linear, dtype=float))
        A = np.asarray(self.ineq_rows, dtype=float).reshape(-1, q.size)
        b = np.atleast_1d(np.asarray(self.ineq_rhs, dtype=float)) if np.size(self.ineq_rhs) \
            else np.zeros(0)
        m = q.size
        if H.shape != (m, m):
            raise ValueError(f"hessian shape {H.shape} inconsistent with m={m}")
        if A.shape[0] != b.size:
            raise ValueError("ineq_rows/ineq_rhs row count mismatch")
        if self.box.dim != m:
            raise ValueError("box dimension inconsistent with m")
        if not np.allclose(H, H.T, atol=1e-12, rtol=0.0):
            raise ValueError("hessian is not symmetric")
        object.__setattr__(self, "hessian", 0.5 * (H + H.T))
        object.__setattr__(self, "linear", q)
        object.__setattr__(self, "ineq_rows", A)
        object.__setattr__(self, "ineq_rhs", b)
        object.__setattr__(self, "constant", float(self.constant))

    @property
    def m(self) -> int:
        return self.linear.size

    @property
    def k(self) -> int:
        return self.ineq_rhs.size

    def objective(self, u: Array) -> float:
        u = np.asarray(u, dtype=float)
        return float(0.5 * u @ self.hessian @ u + self.linear @ u + self.constant)


@dataclass(frozen=True)
class QpSolution:
    """Solver output; multipliers are reported for KKT verification.

    Stationarity convention: H u + q - A' ineq_mult - lower_mult + upper_mult = 0
    with all multipliers >= 0. On infeasible problems `argmin` holds the
    phase-1 least-violation point and the multipliers are zero.
    """

    argmin: Array
    objective: float
    status: QpStatus
    ineq_mult: Array = field(default_factory=lambda: np.zeros(0))
    lower_mult: Array = field(default_factory=lambda: np.zeros(0))
    upper_mult: Array = field(default_factory=lambda: np.zeros(0))

    def kkt_residual(self, p: QpProblem) -> float:
        """Max-norm of the stationarity residual at the reported solution."""
        r = (p.hessian @ self.argmin + p.linear
             - p.ineq_rows.T @ self.ineq_mult
             - self.lower_mult + self.upper_mult)
        return float(np.max(np.abs(r))) if r.size else 0.0


def _psd_repair(H: Array) -> Array:
    """Reject indefinite Hessians; lift the spectrum of borderline-PSD ones."""
    eigmin = float(np.min(np.linalg.eigvalsh(H))) if H.size else 0.0
    if eigmin < -_PSD_TOL:
        raise ValueError(f"hessian is indefinite (min eigenvalue {eigmin:.3e})")
    if eigmin < 1e-12:
        H = H + _PSD_TOL * np.eye(H.shape[0])
    return H


def _phase1(A: Array, b: Array, box: BoxSet) -> tuple[Array, float]:
    """Max-min-slack LP: maximize t s.t. A u - t >= b, u in box.

    Returns (u, t*). t* >= 0 certifies feasibility; otherwise u is the point
    of least violation (it maximizes the worst slack).
    """
    k, m = A.shape
    c = np.zeros(m + 1)
    c[-1] = -1.0
    A_ub = np.hstack([-A, np.ones((k, 1))])
    bounds = list(zip(box.lower, box.upper)) + [(None, None)]
    res = linprog(c, A_ub=A_ub, b_ub=-b, bounds=bounds, method="highs")
    if not res.success:  # pragma: no cover - bounded LP with nonempty box
        raise RuntimeError(f"phase-1 LP failed: {res.message}")
    return box.clip(res.x[:m]), float(res.x[-1])


def solve_box_qp(p: QpProblem) -> QpSolution:
    """Solve the box QP exactly with a primal active-set iteration.

    Box bounds and inequality rows are handled uniformly as G u >= g. Each
    iteration solves the equality-constrained subproblem on the working set
    through a null-space basis and a fresh Cholesky factorization, then either
    drops the most negative multiplier or steps to the nearest blocking row.
    """
    H = _psd_repair(p.hessian)
    q = p.linear
    m, k = p.m, p.k

    # stacked constraints: A u >= b, u >= lower, -u >= -upper
    G = np.vstack([p.ineq_rows, np.eye(m), -np.eye(m)])
    g = np.concatenate([p.ineq_rhs, p.box.lower, -p.box.upper])
    n_rows = G.shape[0]

    if k == 0:
        u = p.box.midpoint()
    else:
        u = p.box.midpoint()
        if np.min(p.ineq_rows @ u - p.ineq_rhs) < 0.0:
            u, t_star = _phase1(p.ineq_rows, p.ineq_rhs, p.box)
            if t_star < -_FEAS_TOL:
                return QpSolution(argmin=u, objective=p.objective(u),
                                  status=QpStatus.INFEASIBLE)

    row_norm = np.maximum(1.0, np.max(np.abs(G), axis=1))
    working = [i for i in range(n_rows) if (G[i] @ u - g[i]) <= 1e-10 * row_norm[i]]
    working = _independent_subset(G, working)

    lam = np.zeros(n_rows)
    for _ in range(50 * (m + n_rows + 1)):
        grad = H @ u + q
        GW = G[working]
        p_step = _eqp_step(H, grad, GW)
        if np.max(np.abs(p_step), initial=0.0) <= 1e-11:
            lam_w = _multipliers(GW, grad)
            lam[:] = 0.0
            lam[working] = lam_w
            if lam_w.size == 0 or np.min(lam_w) >= -_FEAS_TOL:
                break
            drop = working[int(np.argmin(lam_w))]
            working.remove(drop)
            continue
        # largest step along p_step that keeps all inactive rows feasible
        alpha, blocking = 1.0, -1
        for i in range(n_rows):
            if i in working:
                continue
            d = G[i] @ p_step
            if d < -1e-13 * row_norm[i]:
                slack = max(G[i] @ u - g[i], 0.0)
                a_i = slack / -d
                if a_i < alpha - 1e-15:
                    alpha, blocking = a_i, i
        u = u + alpha * p_step
        if blocking >= 0:
            working.append(blocking)
            working = _independent_subset(G, working)
    else:  # pragma: no cover - iteration cap is generous for these sizes
        raise RuntimeError("active-set iteration did not converge")

    u = p.box.clip(u)
    lam = np.where(np.abs(lam) <= _FEAS_TOL, np.maximum(lam, 0.0), lam)
    return QpSolution(
        argmin=u,
        objective=p.objective(u),
        status=QpStatus.OPTIMAL,
        ineq_mult=lam[:k],
        lower_mult=lam[k:k + m],
        upper_mult=lam[k + m:],
    )


def _eqp_step(H: Array, grad: Array, GW: Array) -> Array:
    """Minimizer step of the equality-constrained subproblem GW p = 0."""
    if GW.shape[0] == 0:
        c, low = sla.cho_factor(H)
        return -sla.cho_solve((c, low), grad)
    Z = sla.null_space(GW)
    if Z.shape[1] == 0:
        return np.zeros(grad.size)
    Hz = Z.T @ H @ Z
    c, low = sla.cho_factor(Hz)
    return -Z @ sla.cho_solve((c, low), Z.T @ grad)


def _multipliers(GW: Array, grad: Array) -> Array:
    if GW.shape[0] == 0:
        return np.zeros(0)
    lam, *_ = np.linalg.lstsq(GW.T, grad, rcond=None)
    return lam


def _independent_subset(G: Array, rows: list[int]) -> list[int]:
    """Greedily keep rows whose normals are linearly independent."""
    kept: list[int] = []
    for i in rows:
        trial = G[kept + [i]]
        if np.linalg.matrix_rank(trial, tol=1e-10) == len(kept) + 1:
            kept.append(i)
    return kept


# ---------------------------------------------------------------------------
# Feasibility primitives used by the sampler and the fitting programs

def lie_derivatives(sys: SystemModel, x: Array) -> tuple[float, Array]:
    """(L_f z, L_g z) at a single state."""
    x = np.asarray(x, dtype=float)
    grad = sys.hcf.gradient(x)
    lf = float(grad @ sys.drift(x))
    lg = np.asarray(grad @ sys.actuation(x), dtype=float).reshape(sys.m)
    return lf, lg


def min_zdot_residual(sys: SystemModel, x: Array,
                      input_box: BoxSet) -> tuple[Array, float]:
    """Minimize ||L_f z(x) + L_g z(x) u||^2 over u in the input box.

    A zero optimal value certifies that some admissible input holds z level
    (the defining condition of the input-feasible sample class).
    """
    lf, lg = lie_derivatives(sys, x)
    u, r = min_zdot(lf, lg, input_box)
    return u, float(r)


def min_zdot(lf: float | Array, lg: Array, input_box: BoxSet) -> tuple[Array, Array]:
    """Closed-form (argmin, min) of (lf + lg . u)^2 over u in the box.

    Batched: lf is (...), lg is (..., m). Over the box lg . u sweeps the
    interval between the vertices u_lo and u_hi that minimize and maximize it,
    so the minimum is the squared distance from -lf to that interval, attained
    on the segment from u_lo to u_hi. The m = 1 case keeps the division form,
    whose rounding the sample files record, and returns the box midpoint
    where the input does not enter.
    """
    lf = np.asarray(lf, dtype=float)
    lg = np.asarray(lg, dtype=float)
    lower, upper = input_box.lower, input_box.upper
    if lg.shape[-1] == 1:
        active = lg[..., 0] != 0.0
        a = np.where(active, lg[..., 0], 1.0)
        u = np.where(active, np.clip(-lf / a, lower[0], upper[0]), input_box.midpoint()[0])
        return u[..., None], (lf + lg[..., 0] * u) ** 2
    u_lo = np.where(lg > 0.0, lower, upper)
    u_hi = np.where(lg > 0.0, upper, lower)
    lo = np.sum(lg * u_lo, axis=-1)
    hi = np.sum(lg * u_hi, axis=-1)
    target = np.clip(-lf, lo, hi)
    frac = np.divide(target - lo, hi - lo, out=np.zeros_like(lo), where=hi > lo)
    return u_lo + frac[..., None] * (u_hi - u_lo), (lf + target) ** 2


def zero_tolerance(lf: float | Array, coeff: float = 1e-9) -> float | Array:
    """Scale-aware threshold under which the residual counts as zero (elementwise)."""
    return coeff * (1.0 + lf * lf)


def exists_input_nonneg(row: Array, bias: float, input_box: BoxSet) -> bool:
    """True iff max over the box of (bias + row . u) >= 0.

    The maximum sits at the vertex selected by sign(row), so no solve is
    needed.
    """
    row = np.atleast_1d(np.asarray(row, dtype=float))
    if row.size != input_box.dim:
        raise ValueError("row dimension inconsistent with input box")
    best = bias + np.sum(np.where(row > 0, row * input_box.upper, row * input_box.lower))
    return bool(best >= 0.0)


def max_over_box(rows: Array, biases: Array, input_box: BoxSet) -> Array:
    """Vectorized max of bias + row . u over the box for (..., m) rows."""
    rows = np.asarray(rows, dtype=float)
    contrib = np.where(rows > 0, rows * input_box.upper, rows * input_box.lower)
    return np.asarray(biases, dtype=float) + np.sum(contrib, axis=-1)
