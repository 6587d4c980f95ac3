"""Closed-loop simulation with a barrier-constrained input filter.

The loop is reference -> proportional controller -> safety filter -> RK4
step. The filter projects the nominal input onto the box-constrained set
where every barrier satisfies hdot >= -kappa h; when that set is empty the
least-violation input is applied and the step is flagged rather than aborting
the run.
"""

from __future__ import annotations

import json
import hashlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .qp import QpProblem, QpStatus, solve_box_qp
from .system import BoxSet, CbfCandidate, HardConstraint, SystemModel, eval_h, eval_h_grad

Array = np.ndarray

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_NOMINAL = "nominal"          # no candidates: plain box-clamped controller


@dataclass(frozen=True)
class FilterConfig:
    """Per-candidate linear class-K gains and the admissible input box."""

    alphas: Sequence[float]
    input_box: BoxSet

    def __post_init__(self):
        alphas = tuple(float(a) for a in np.atleast_1d(np.asarray(self.alphas, dtype=float)))
        if any(a <= 0 for a in alphas):
            raise ValueError("class-K gains must be positive")
        object.__setattr__(self, "alphas", alphas)

    def gain(self, j: int) -> float:
        return self.alphas[j % len(self.alphas)]


def horizon_steps(horizon: float, dt: float) -> int:
    """Number of dt steps in the horizon; dt must divide it to within 1e-9 steps."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    steps = horizon / dt
    if abs(steps - round(steps)) > 1e-9:
        raise ValueError(f"dt = {dt!r} does not divide the horizon {horizon!r}")
    return round(steps)


@dataclass(frozen=True)
class SimConfig:
    """Initial/goal states, horizon and controller gain. Runs are deterministic."""

    x_init: Array
    x_goal: Array
    horizon_T: float
    dt: float
    kp: float
    candidates_file: str | None = None
    require_safe_start: bool = True
    spline_T: float | None = None     # defaults to horizon_T / 2, then hold
    on_infeasible: str = "continue"   # continue | stop

    def __post_init__(self):
        object.__setattr__(self, "x_init", np.atleast_1d(np.asarray(self.x_init, dtype=float)))
        object.__setattr__(self, "x_goal", np.atleast_1d(np.asarray(self.x_goal, dtype=float)))
        horizon_steps(self.horizon_T, self.dt)
        if self.on_infeasible not in ("continue", "stop"):
            raise ValueError("on_infeasible must be 'continue' or 'stop'")


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
        n = self.states.shape[1]
        m = self.nominal_inputs.shape[1]
        s = self.h_values.shape[1]
        cols = (["t"] + [f"x{i+1}" for i in range(n)]
                + [f"u_nom_{i+1}" for i in range(m)] + [f"u_{i+1}" for i in range(m)]
                + [f"h_{j+1}" for j in range(s)] + ["z", "status"])
        lines = [",".join(cols)]
        for k in range(len(self)):
            vals = ([self.times[k]] + list(self.states[k]) + list(self.nominal_inputs[k])
                    + list(self.filtered_inputs[k]) + list(self.h_values[k])
                    + [self.z_values[k]])
            lines.append(",".join(repr(float(v)) for v in vals) + "," + self.qp_statuses[k])
        data = ("\n".join(lines) + "\n").encode()
        with open(path, "wb") as f:
            f.write(data)
        return hashlib.sha256(data).hexdigest()


def reference_spline(x_init: Array, x_goal: Array, T: float,
                     n_pos: int = 1) -> Callable[[float], Array]:
    """Cubic reference over the leading position components, held after T.

    Uses the smoothstep polynomial 3 tau^2 - 2 tau^3, the unique cubic through
    the endpoints with zero slope at both.
    """
    if T <= 0:
        raise ValueError("spline duration must be positive")
    x_init = np.atleast_1d(np.asarray(x_init, dtype=float))
    x_goal = np.atleast_1d(np.asarray(x_goal, dtype=float))
    p0, p1 = x_init[:n_pos].copy(), x_goal[:n_pos].copy()

    def xi(t: float) -> Array:
        tau = min(max(t / T, 0.0), 1.0)
        blend = tau * tau * (3.0 - 2.0 * tau)
        return p0 + (p1 - p0) * blend

    return xi


def nominal_controller(x: Array, xi: Array, kp: float) -> Array:
    """Proportional tracking of the position components: kp (xi - x_pos)."""
    if kp <= 0:
        raise ValueError("kp must be positive")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    return kp * (xi - np.asarray(x, dtype=float)[:xi.size])


def _filter_interval_1d(rows: Array, rhs: Array, box: BoxSet) -> tuple[float, float] | None:
    """Feasible input interval for single-input row constraints, or None."""
    lo, hi = float(box.lower[0]), float(box.upper[0])
    for a, b in zip(rows[:, 0], rhs):
        if a > 0.0:
            lo = max(lo, b / a)
        elif a < 0.0:
            hi = min(hi, b / a)
        elif b > 0.0:
            return None
    return (lo, hi) if lo <= hi else None


def safety_filter(x: Array, u_nom: Array, cands: Sequence[CbfCandidate],
                  sys: SystemModel, fc: FilterConfig) -> tuple[Array, str]:
    """Project the nominal input onto the inputs keeping every barrier alive.

    One row per candidate: (dh/dx g) u >= -kappa h - dh/dx f. Returns the
    projection and its status; infeasible problems yield the least-violation
    input instead of failing.
    """
    if not cands:
        raise ValueError("safety filter needs at least one candidate")
    x = np.asarray(x, dtype=float)
    u_nom = np.atleast_1d(np.asarray(u_nom, dtype=float))
    f = sys.drift(x)
    g = sys.actuation(x)
    rows = np.empty((len(cands), sys.m))
    rhs = np.empty(len(cands))
    for j, cand in enumerate(cands):
        grad_h = eval_h_grad(cand, sys.hcf, x)
        rows[j] = grad_h @ g
        rhs[j] = -fc.gain(j) * eval_h(cand, sys.hcf, x) - float(grad_h @ f)
    if not np.all(np.isfinite(rows)) or not np.all(np.isfinite(rhs)):
        raise ArithmeticError("non-finite dynamics in safety filter")

    if sys.m == 1:
        interval = _filter_interval_1d(rows, rhs, fc.input_box)
        if interval is not None:
            return np.array([min(max(float(u_nom[0]), interval[0]), interval[1])]), \
                STATUS_OPTIMAL

    prob = QpProblem(hessian=2.0 * np.eye(sys.m), linear=-2.0 * u_nom,
                     ineq_rows=rows, ineq_rhs=rhs, box=fc.input_box,
                     constant=float(u_nom @ u_nom))
    sol = solve_box_qp(prob)
    status = STATUS_OPTIMAL if sol.status is QpStatus.OPTIMAL else STATUS_INFEASIBLE
    return sol.argmin, status


def step(sys: SystemModel, x: Array, u: Array, dt: float) -> Array:
    """Classical RK4 on xdot = f(x) + g(x) u with the input held over the step."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    x = np.asarray(x, dtype=float)
    u = np.atleast_1d(np.asarray(u, dtype=float))

    def xdot(state: Array) -> Array:
        return sys.drift(state) + sys.actuation(state) @ u

    k1 = xdot(x)
    k2 = xdot(x + 0.5 * dt * k1)
    k3 = xdot(x + 0.5 * dt * k2)
    k4 = xdot(x + dt * k3)
    out = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise ArithmeticError("integration produced non-finite state")
    return out


def simulate(cfg: SimConfig, sys: SystemModel, cands: Sequence[CbfCandidate],
             fc: FilterConfig) -> Trajectory:
    """Run the closed loop for the configured horizon, recording every channel.

    An empty candidate list disables the filter (inputs are only box-clamped),
    which reproduces the unfiltered baseline.
    """
    n_cands = len(cands)
    if cfg.require_safe_start and n_cands:
        h0 = min(eval_h(c, sys.hcf, cfg.x_init) for c in cands)
        if h0 < 0.0:
            raise ValueError(f"initial state lies outside the candidate set (min h = {h0:.6g})")

    steps_count = horizon_steps(cfg.horizon_T, cfg.dt)
    spline_T = cfg.spline_T if cfg.spline_T is not None \
        else max(cfg.horizon_T / 2.0, cfg.dt)
    xi = reference_spline(cfg.x_init, cfg.x_goal, spline_T, n_pos=sys.m)

    times = np.arange(steps_count + 1) * cfg.dt
    states = np.empty((steps_count + 1, sys.n))
    u_nom_hist = np.empty((steps_count + 1, sys.m))
    u_hist = np.empty((steps_count + 1, sys.m))
    h_hist = np.empty((steps_count + 1, n_cands))
    z_hist = np.empty(steps_count + 1)
    statuses: list[str] = []

    x = cfg.x_init.copy()
    for k in range(steps_count + 1):
        u_nom = nominal_controller(x, xi(times[k]), cfg.kp)
        if n_cands:
            u, status = safety_filter(x, u_nom, cands, sys, fc)
        else:
            u, status = fc.input_box.clip(u_nom), STATUS_NOMINAL
        states[k] = x
        u_nom_hist[k] = u_nom
        u_hist[k] = u
        h_hist[k] = [eval_h(c, sys.hcf, x) for c in cands]
        z_hist[k] = float(sys.hcf.value(x))
        statuses.append(status)
        if status == STATUS_INFEASIBLE and cfg.on_infeasible == "stop":
            k_stop = k
            times = times[:k_stop + 1]
            states = states[:k_stop + 1]
            u_nom_hist = u_nom_hist[:k_stop + 1]
            u_hist = u_hist[:k_stop + 1]
            h_hist = h_hist[:k_stop + 1]
            z_hist = z_hist[:k_stop + 1]
            break
        if k < steps_count:
            x = step(sys, x, u, cfg.dt)

    return Trajectory(times, states, u_nom_hist, u_hist, h_hist, z_hist, statuses)


def hdot_rate_bound(cands: Sequence[CbfCandidate], region: BoxSet, sys: SystemModel,
                    input_box: BoxSet, per_axis: int = 21) -> Array:
    """Per-candidate bound on |hdot| over a state grid and worst-case inputs.

    Used to size the clearance of interior start grids: dt times this bound
    limits how far h can fall within one zero-order-hold step.
    """
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in zip(region.lower, region.upper)]
    grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    u_extreme = np.maximum(np.abs(input_box.lower), np.abs(input_box.upper))
    out = np.empty(len(cands))
    for j, c in enumerate(cands):
        grad_h = sys.hcf.gradient(c.transform(grid)) * c.scale
        lf = np.sum(grad_h * sys.drift(grid), axis=-1)
        lg = np.einsum("bn,bnm->bm", grad_h, sys.actuation(grid))
        out[j] = float(np.max(np.abs(lf) + np.abs(lg) @ u_extreme))
    return out


def interior_grid(cands: Sequence[CbfCandidate], region: BoxSet, sys: SystemModel,
                  input_box: BoxSet, per_axis: int, dt: float,
                  safety_factor: float = 1.5) -> Array:
    """Grid of start states strictly inside the candidate set.

    Interior means every barrier clears eta_j = safety_factor dt sup|hdot_j|,
    the distance h_j can travel before the discrete filter reacts; grid points
    closer to the boundary than one step cannot be certified by a sampled-time
    filter and are excluded.
    """
    rates = hdot_rate_bound(cands, region, sys, input_box)
    eta = safety_factor * dt * rates
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in zip(region.lower, region.upper)]
    grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    h = np.stack([sys.hcf.value(c.transform(grid)) + c.offset for c in cands], axis=1)
    return grid[np.all(h >= eta, axis=1)]


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
    if traj.h_values.shape[1]:
        min_h = traj.h_values.min(axis=0)
        h_breach = int(np.sum(traj.h_values.min(axis=1) < -tol_h))
    else:
        min_h = np.zeros(0)
        h_breach = 0
    z_breach = int(np.sum(traj.z_values < -tol_z))
    infeasible = sum(1 for s in traj.qp_statuses if s == STATUS_INFEASIBLE)
    return InvarianceReport(min_h, float(traj.z_values.min()), h_breach,
                            z_breach, infeasible, tol_h, tol_z)


def run_manifest(cfg: SimConfig, traj: Trajectory, report: InvarianceReport,
                 candidates_checksum: str | None, csv_checksum: str) -> dict:
    return {
        "config": {
            "x_init": cfg.x_init.tolist(), "x_goal": cfg.x_goal.tolist(),
            "horizon_T": cfg.horizon_T, "dt": cfg.dt, "kp": cfg.kp,
            "require_safe_start": cfg.require_safe_start,
            "spline_T": cfg.spline_T, "on_infeasible": cfg.on_infeasible,
        },
        "candidates_checksum": candidates_checksum,
        "trajectory_checksum": csv_checksum,
        "steps": len(traj) - 1,
        "terminal_state": traj.states[-1].tolist(),
        "breaches": {
            "min_h": report.min_h.tolist(),
            "min_z": report.min_z,
            "h_breach_steps": report.h_breach_steps,
            "z_breach_steps": report.z_breach_steps,
            "infeasible_steps": report.infeasible_steps,
        },
    }


def save_manifest(manifest: dict, path) -> None:
    with open(path, "w") as f:
        json.dump(manifest, f, separators=(",", ":"))
        f.write("\n")
