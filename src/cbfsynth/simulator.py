"""Closed-loop simulation with a barrier-constrained input filter.

The loop is reference -> proportional controller -> safety filter -> RK4
step, run for S starts at once by `simulate_many` (`simulate` is its one-row
call). The filter projects the nominal input onto the box-constrained set
where every barrier satisfies hdot >= -kappa h; when that set is empty the
least-violation input is applied and the step is flagged rather than aborting
the run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .config import FilterConfig, SimConfig, horizon_steps
from .qp import QpProblem, QpStatus, solve_box_qp
from .sampler import _finite_json, _jsonable, _write
from .system import BoxSet, CbfCandidate, HardConstraint, SystemModel, barrier, stack_candidates

Array = np.ndarray

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_NOMINAL = "nominal"          # no candidates: plain box-clamped controller
_SIDES = np.array([[1.0], [-1.0]])  # sign of a filter row's input coefficient: lower, upper


@dataclass
class Trajectory:
    times: Array                 # (K+1,)
    states: Array                # (K+1, n)
    nominal_inputs: Array        # (K+1, m)
    filtered_inputs: Array       # (K+1, m)
    h_values: Array              # (K+1, s)
    z_values: Array              # (K+1,)
    qp_statuses: list[str]

    def __len__(self) -> int:
        return self.times.size

    def to_csv(self, path) -> str:
        """Write the run as CSV with shortest round-trip decimals; returns digest."""
        n, m, s = (a.shape[1] for a in (self.states, self.nominal_inputs, self.h_values))
        cols = (["t"] + [f"x{i+1}" for i in range(n)]
                + [f"u_nom_{i+1}" for i in range(m)] + [f"u_{i+1}" for i in range(m)]
                + [f"h_{j+1}" for j in range(s)] + ["z", "status"])
        table = np.column_stack([self.times, self.states, self.nominal_inputs,
                                 self.filtered_inputs, self.h_values, self.z_values])
        lines = [",".join(cols)] + [",".join(map(repr, row)) + "," + status
                                    for row, status in zip(table.tolist(), self.qp_statuses)]
        return _write(path, ("\n".join(lines) + "\n").encode())


def reference_spline(x_init: Array, x_goal: Array, T: float,
                     n_pos: int = 1) -> Callable[[float], Array]:
    """Cubic reference over the leading position components, held after T > 0.

    Uses the smoothstep polynomial 3 tau^2 - 2 tau^3, the unique cubic through
    the endpoints with zero slope at both. (S, n) starts give (S, n_pos) values.
    """
    p0, p1 = (np.array(p, dtype=float, ndmin=1)[..., :n_pos] for p in (x_init, x_goal))

    def xi(t: float) -> Array:
        tau = min(max(t / T, 0.0), 1.0)
        blend = tau * tau * (3.0 - 2.0 * tau)
        return p0 + (p1 - p0) * blend

    return xi


def nominal_controller(x: Array, xi: Array, kp: float) -> Array:
    """Proportional tracking of the position components, kp (xi - x_pos), per leading index."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    return kp * (xi - np.asarray(x, dtype=float)[..., :xi.shape[-1]])


def safety_filter_many(x: Array, u_nom: Array, stacked: tuple[Array, Array, Array],
                       sys: SystemModel, fc: FilterConfig) -> tuple[Array, Array, Array]:
    """Project (S, m) nominal inputs at (S, n) states onto the inputs keeping
    every barrier alive: (dh/dx g) u >= -kappa h - dh/dx f, one row per barrier.

    `stacked` holds the `stack_candidates` arrays of the s barriers. Returns
    the (S, m) inputs (least-violation ones where infeasible), an (S,) mask of
    infeasible states and the (S, s) barrier values the rows were built from.
    With one input the nominal input is clamped to the interval the rows
    leave; empty intervals, and all states when m > 1, go to `solve_box_qp`
    one state at a time.
    """
    if not stacked[2].size:
        raise ValueError("safety filter needs at least one candidate")
    h, grad = barrier(sys.hcf, x, [p[:, None] for p in stacked], grad=True)
    # one row per candidate and state: (dh/dx g) u >= -kappa h - dh/dx f
    rows = (grad[..., None, :] @ sys.actuation(x))[..., 0, :]
    rhs = (-np.array(fc.alphas * len(h))[:len(h), None] * h
           - (grad[..., None, :] @ sys.drift(x)[..., None])[..., 0, 0])
    if not (np.isfinite(rows).all() and np.isfinite(rhs).all()):
        raise ArithmeticError("non-finite dynamics in safety filter")
    u, to_qp = u_nom.copy(), np.arange(len(x))
    if sys.m == 1:
        # row a u >= b bounds u by b / a, below if a > 0 and above if a < 0. Negated,
        # upper bounds are maxima too; each moves in row order on a strict gain only
        side = np.sign(rows[..., 0])
        t = rhs / (rows[..., 0] + (side == 0.0)) * side
        bounds = np.array([[fc.input_box.lower[0]], [-fc.input_box.upper[0]]]).repeat(len(x), 1)
        for side_j, t_j in zip(side, t):
            np.copyto(bounds, t_j, where=(side_j == _SIDES) & (t_j > bounds))
        lo, hi, v = bounds[0], -bounds[1], u[:, 0]
        np.copyto(v, lo, where=lo > v)
        np.copyto(v, hi, where=hi < v)
        to_qp = ((lo > hi) | np.logical_or.reduce((side == 0.0) & (rhs > 0.0))).nonzero()[0]
    infeasible = np.zeros(len(x), dtype=bool)
    for i in to_qp.tolist():
        sol = solve_box_qp(QpProblem(hessian=2.0 * np.eye(sys.m), linear=-2.0 * u_nom[i],
                                     ineq_rows=rows[:, i], ineq_rhs=rhs[:, i],
                                     box=fc.input_box, constant=float(u_nom[i] @ u_nom[i])))
        u[i] = sol.argmin
        infeasible[i] = sol.status is not QpStatus.OPTIMAL
    return u, infeasible, h.T


def step(sys: SystemModel, x: Array, u: Array, dt: float) -> Array:
    """Classical RK4 on xdot = f(x) + g(x) u with the input held over the step,
    for (..., n) states and (..., m) inputs. `SimConfig` refuses a dt <= 0."""
    x = np.asarray(x, dtype=float)
    u = np.atleast_1d(np.asarray(u, dtype=float))[..., None]

    def xdot(state: Array) -> Array:
        return sys.drift(state) + (sys.actuation(state) @ u)[..., 0]

    k1 = xdot(x)
    k2 = xdot(x + 0.5 * dt * k1)
    k3 = xdot(x + 0.5 * dt * k2)
    k4 = xdot(x + dt * k3)
    out = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(out).all():
        raise ArithmeticError("integration produced non-finite state")
    return out


def simulate_many(starts: Array, cfg: SimConfig, sys: SystemModel,
                  cands: Sequence[CbfCandidate], fc: FilterConfig) -> list[Trajectory]:
    """Run the closed loop from each row of (S, n) `starts` at once.

    `cfg` supplies all but the start (its `x_init` is not read). The reference
    reaches the goal at half the horizon (at least one step), then holds. Each
    step evaluates every barrier once; the filter rows, the recorded h values
    and, at the first step, `require_safe_start` read it. Every start runs the
    whole horizon, infeasible steps included. An empty candidate list disables
    the filter (inputs are only box-clamped): the unfiltered baseline.
    """
    x = np.array(starts, dtype=float, ndmin=2)
    n_runs, s = len(x), len(cands)
    if not n_runs:   # every start skipped: no closed loop to step
        return []
    steps_count = horizon_steps(cfg.horizon_T, cfg.dt)
    xi = reference_spline(x, cfg.x_goal, max(cfg.horizon_T / 2.0, cfg.dt), n_pos=sys.m)
    stacked = stack_candidates(cands) if s else None
    times = np.arange(steps_count + 1) * cfg.dt
    states, u_nom_hist, u_hist, h_hist = (np.empty((n_runs, steps_count + 1, d))
                                          for d in (sys.n, sys.m, sys.m, s))
    infeasible = np.zeros((n_runs, steps_count + 1), dtype=bool)
    for k, t in enumerate(times.tolist()):
        u_nom = nominal_controller(x, xi(t), cfg.kp)
        if s:
            u, infeasible[:, k], h_hist[:, k] = safety_filter_many(x, u_nom, stacked, sys, fc)
        else:
            u = fc.input_box.clip(u_nom)
        if not k and cfg.require_safe_start and (h0 := h_hist[:, 0].min(initial=np.inf)) < 0.0:
            raise ValueError(f"initial state lies outside the candidate set (min h = {h0:.6g})")
        states[:, k], u_nom_hist[:, k], u_hist[:, k] = x, u_nom, u
        if k < steps_count:
            x = step(sys, x, u, cfg.dt)

    names = np.array([STATUS_OPTIMAL, STATUS_INFEASIBLE] if s else [STATUS_NOMINAL] * 2)
    # z feeds nothing back, so each run's values come from one call at the end
    return [Trajectory(times, states[i], u_nom_hist[i], u_hist[i], h_hist[i],
                       sys.hcf.value(states[i]), names[infeasible[i].astype(int)].tolist())
            for i in range(n_runs)]


def simulate(cfg: SimConfig, sys: SystemModel, cands: Sequence[CbfCandidate],
             fc: FilterConfig) -> Trajectory:
    """Run the closed loop from `cfg.x_init`: the one-row call of `simulate_many`."""
    return simulate_many(cfg.x_init[None], cfg, sys, cands, fc)[0]


def _grid(region: BoxSet, per_axis: int) -> Array:
    """(per_axis^n, n) grid over a box, last axis varying fastest."""
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in zip(region.lower, region.upper)]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)


def hdot_rate_bound(cands: Sequence[CbfCandidate], region: BoxSet, sys: SystemModel,
                    input_box: BoxSet, per_axis: int = 21) -> Array:
    """Per-candidate bound on |hdot| over a state grid and worst-case inputs.

    Used to size the clearance of interior start grids: dt times this bound
    limits how far h can fall within one zero-order-hold step.
    """
    grid = _grid(region, per_axis)
    _, grad_h = barrier(sys.hcf, grid, [p[:, None] for p in stack_candidates(cands)], grad=True)
    lf = np.sum(grad_h * sys.drift(grid), axis=-1)
    lg = np.einsum("sbn,bnm->sbm", grad_h, sys.actuation(grid))
    u_extreme = np.maximum(np.abs(input_box.lower), np.abs(input_box.upper))
    return np.max(np.abs(lf) + np.abs(lg) @ u_extreme, axis=1)


@dataclass(frozen=True)
class InvarianceReport:
    min_h: Array                  # per candidate, empty when unfiltered
    min_z: float
    h_breach_steps: int
    z_breach_steps: int
    infeasible_steps: int
    tol_h: float
    tol_z: float

    @property
    def h_ok(self) -> bool:
        return self.h_breach_steps == 0

    @property
    def z_ok(self) -> bool:
        return self.z_breach_steps == 0


def check_invariance(traj: Trajectory, cands: Sequence[CbfCandidate],
                     hcf: HardConstraint, tol_h: float = 1e-6,
                     tol_z: float = 1e-6) -> InvarianceReport:
    """Scan a trajectory for barrier or hard-constraint breaches."""
    h_breach = int(np.sum(traj.h_values.min(axis=1, initial=np.inf) < -tol_h))
    return InvarianceReport(traj.h_values.min(axis=0), float(traj.z_values.min()), h_breach,
                            int(np.sum(traj.z_values < -tol_z)),
                            traj.qp_statuses.count(STATUS_INFEASIBLE), tol_h, tol_z)


def run_manifest(cfg: SimConfig, traj: Trajectory, report: InvarianceReport,
                 candidates_checksum: str | None, csv_checksum: str) -> dict:
    return {
        "config": asdict(cfg),
        "candidates_checksum": candidates_checksum,
        "trajectory_checksum": csv_checksum,
        "steps": len(traj) - 1,
        "terminal_state": traj.states[-1].tolist(),
        "breaches": {"min_h": report.min_h.tolist(), "min_z": report.min_z,
                     "h_breach_steps": report.h_breach_steps,
                     "z_breach_steps": report.z_breach_steps,
                     "infeasible_steps": report.infeasible_steps},
    }


def save_manifest(manifest: dict, path) -> str:
    """Write a run manifest as compact JSON; returns the sha256 of the bytes written."""
    return _write(path, (json.dumps(manifest, separators=(",", ":"), default=_jsonable)
                         + "\n").encode())


def load_manifest(path) -> dict:
    """Read a manifest `save_manifest` wrote. A non-finite number, or a
    document that is not a JSON object, raises ValueError."""
    with open(path, "rb") as f:
        doc = _finite_json(f.read())
    if not isinstance(doc, dict):
        raise ValueError("not a run manifest")
    return doc
