"""Small dense convex QP solver for box-plus-inequality problems.

Canonical form:

    min  0.5 u' H u + q' u + const
    s.t. A u >= b,  lower <= u <= upper

solved exactly by enumerating working sets (`solve_box_qp`), with a HiGHS
max-min-slack LP as phase 1 on infeasible problems. Problems here are tiny (m
of a few, a handful of rows). The solver serves the runtime safety filter for
more than one input (a single input takes a closed-form interval) and the QP
oracle of acceptance criterion 3; per-sample feasibility and the fit's
boundary checks use the closed forms `min_zdot` and `max_over_box` instead.

Everything here runs on numpy alone except the phase-1 LP. Its solver,
scipy's `linprog`, is the module attribute `qp.linprog`, imported on first
access (a module `__getattr__`), so importing this module loads no scipy and
only an infeasible problem does. `_phase1` calls through that attribute, so a
function put in its place sees every phase-1 call.
"""

from __future__ import annotations

import enum
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .system import BoxSet

Array = np.ndarray

# Most working sets solve_box_qp enumerates: sum over j <= m of C(k + 2m, j)
# for m inputs and k inequality rows. 1,000 admits k <= 40 rows at m = 2 and
# k <= 12 at m = 3; the filter has one row per candidate.
MAX_WORKING_SETS = 1000

# slack and multiplier sign accepted on returned solutions
_FEAS_TOL = 1e-9
# KKT residual accepted, relative to 1 + the largest problem coefficient
_KKT_TOL = 1e-12
# most negative Hessian eigenvalue taken as rounding of a PSD one
_PSD_TOL = 1e-10


def __getattr__(name: str):
    """`linprog`, imported from scipy on first access and then kept as a
    module attribute."""
    if name == "linprog":
        from scipy.optimize import linprog
        globals()["linprog"] = linprog
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    with all multipliers >= 0. On optimal problems the multipliers are those
    of the winning working set's KKT system, zero on rows outside it. On
    infeasible problems `argmin` holds the phase-1 least-violation point and
    the multipliers are zero.
    """

    argmin: Array
    objective: float
    status: QpStatus
    ineq_mult: Array
    lower_mult: Array
    upper_mult: Array

    def kkt_residual(self, p: QpProblem) -> float:
        """Max-norm of the stationarity residual at the reported solution."""
        r = (p.hessian @ self.argmin + p.linear
             - p.ineq_rows.T @ self.ineq_mult
             - self.lower_mult + self.upper_mult)
        return float(np.max(np.abs(r))) if r.size else 0.0


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
    res = sys.modules[__name__].linprog(c, A_ub=A_ub, b_ub=-b, bounds=bounds,
                                        method="highs")
    if not res.success:  # pragma: no cover - bounded LP with nonempty box
        raise RuntimeError(f"phase-1 LP failed: {res.message}")
    return box.clip(res.x[:m]), float(res.x[-1])


def solve_box_qp(p: QpProblem) -> QpSolution:
    """Solve the box QP exactly by enumerating its working sets.

    The box is stacked with the inequality rows as G u >= g. Every working set
    W of at most m rows gives the KKT system [[H, -G_W'], [G_W, 0]] (u, lam_W)
    = (-q, g_W), and all of them are solved by least squares in one batched
    pseudo-inverse. A solution with a residual within tolerance, feasible and
    with nonnegative multipliers is a KKT point, hence optimal for a convex
    QP; the least objective wins, ties going to the first working set (by
    size, then lexicographically). This holds for singular H too: at a vertex
    of the optimal face H is positive definite on the null space of the
    independent active rows, so their KKT system is nonsingular.

    More than MAX_WORKING_SETS working sets raise ValueError before anything
    is built. The phase-1 LP runs only when no working set gives a KKT point,
    which a feasible problem always has: it gives the infeasibility verdict and
    the least-violation point.
    """
    m, k = p.m, p.k
    n_rows = k + 2 * m
    count = sum(math.comb(n_rows, j) for j in range(m + 1))
    if count > MAX_WORKING_SETS:
        raise ValueError(f"{count} working sets exceed the limit of {MAX_WORKING_SETS} "
                         f"(m = {m} inputs, {k} inequality rows)")
    H, q = p.hessian, p.linear
    eigmin = float(np.min(np.linalg.eigvalsh(H)))
    if eigmin < -_PSD_TOL:
        raise ValueError(f"hessian is indefinite (min eigenvalue {eigmin:.3e})")

    # stacked constraints A u >= b, u >= lower, -u >= -upper, and a zero
    # padding row that fills working sets smaller than m
    G = np.vstack([p.ineq_rows, np.eye(m), -np.eye(m), np.zeros((1, m))])
    g = np.concatenate([p.ineq_rhs, p.box.lower, -p.box.upper, [0.0]])
    sets = np.array([rows + (n_rows,) * (m - j) for j in range(m + 1)
                     for rows in itertools.combinations(range(n_rows), j)])
    GW = G[sets]
    kkt = np.block([[np.broadcast_to(H, GW.shape), -GW.transpose(0, 2, 1)],
                    [GW, np.zeros(GW.shape)]])
    rhs = np.concatenate([np.broadcast_to(-q, (count, m)), g[sets]], axis=1)
    z = np.einsum("cij,cj->ci", np.linalg.pinv(kkt), rhs)
    u, lam = z[:, :m], z[:, m:]

    scale = 1.0 + max(np.max(np.abs(H)), np.max(np.abs(q)),
                      np.max(np.abs(G)), np.max(np.abs(g)))
    residual = np.max(np.abs(np.einsum("cij,cj->ci", kkt, z) - rhs), axis=1)
    kkt_point = ((residual <= _KKT_TOL * scale) & (np.min(lam, axis=1) >= -_FEAS_TOL)
                 & (np.min(u @ G[:-1].T - g[:-1], axis=1) >= -_FEAS_TOL))
    mult = np.zeros(n_rows + 1)
    if kkt_point.any():
        objective = 0.5 * np.einsum("ci,ij,cj->c", u, H, u) + u @ q
        best = np.flatnonzero(kkt_point)[np.argmin(objective[kkt_point])]
        mult[sets[best]] = np.maximum(lam[best], 0.0)
        u, status = p.box.clip(u[best]), QpStatus.OPTIMAL
    else:
        u, t_star = _phase1(p.ineq_rows, p.ineq_rhs, p.box)
        if t_star >= -_FEAS_TOL:  # pragma: no cover - tolerances disagree on a borderline problem
            raise RuntimeError("phase 1 finds a feasible point but no working set a KKT point")
        status = QpStatus.INFEASIBLE
    return QpSolution(argmin=u, objective=p.objective(u), status=status,
                      ineq_mult=mult[:k], lower_mult=mult[k:k + m],
                      upper_mult=mult[k + m:n_rows])


# ---------------------------------------------------------------------------
# Feasibility primitives used by the sampler and the fitting programs

def min_zdot(lf: float | Array, lg: Array, input_box: BoxSet) -> tuple[Array, Array]:
    """Closed-form (argmin, min) of (lf + lg . u)^2 over u in the box.

    Batched: lf is (...), lg is (..., m), for every m. Over the box lg . u
    sweeps the interval between the vertices u_lo and u_hi that minimize and
    maximize it, so the minimum is the squared distance from -lf to that
    interval, attained on the segment from u_lo to u_hi (at u_lo where the
    input does not enter).
    """
    lf = np.asarray(lf, dtype=float)
    lg = np.asarray(lg, dtype=float)
    lower, upper = input_box.lower, input_box.upper
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


def max_over_box(rows: Array, biases: Array, input_box: BoxSet) -> Array:
    """Vectorized max of bias + row . u over the box for (..., m) rows."""
    rows = np.asarray(rows, dtype=float)
    contrib = np.where(rows > 0, rows * input_box.upper, rows * input_box.lower)
    return np.asarray(biases, dtype=float) + np.sum(contrib, axis=-1)
