"""The settings layer: each stage's settings type and check, and the config
text they are built from. No package module but `system` is imported here.

Grammar (one construct per line):

    [section]            section header
    key = value          assignment inside the current section
    # comment            full-line comments; blank lines ignored

Values are typed by the schema: integers, reals, booleans (true/false),
names, real vectors (comma separated), and state lists (semicolon separated
vectors). The literal `auto` is accepted where the schema allows it. Unknown
sections or keys are errors, and every parse error carries the offending
line and column.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import partial
from typing import Any, Sequence

import numpy as np

from .system import BoxSet, build_system

DEFAULT_ZERO_TOL = 1e-9
# the fit modes in run order: each mode is warm-started from every earlier one
MODES = ("uniform", "nonuniform", "multi")
CHORD_KEY_OFFSET = 0x9E3779B9   # the largest offset the fit adds to its seed for a key


def _next_checkpoint(target: int, growth: float, n_max: int) -> int:
    """`run_sampling`'s checkpoint after `target`, capped before the conversion
    since a huge growth makes the product infinite."""
    return int(round(min(target * growth, n_max)))


def _check_schedule(n_min: int, delta: float, growth: float, n_start: int, n_max: int) -> None:
    """ValueError unless `run_sampling`'s growth schedule can start, advance and stop."""
    if min(n_min, n_start) < 1:
        raise ValueError("n_min and n_start must be at least 1")
    if n_start > n_max:
        raise ValueError("n_start must not exceed n_max")
    if n_max < n_min:
        raise ValueError("n_max must not be below n_min, or the run can never converge")
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    if growth <= 1.0:
        raise ValueError("growth must exceed 1")
    # each step adds at least as many samples as the first, so the first decides
    if n_start < n_max and _next_checkpoint(n_start, growth, n_max) == n_start:
        raise ValueError(f"growth {growth!r} never advances: n_start times it rounds back")


def _check_epsilon(epsilon: float) -> None:
    """ValueError unless the neighborhood radius is positive."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class FitConfig:
    """Mode, constraint strictness and search budget. The field order is the
    key order of the candidates file's `config_echo`."""

    mode: str = "uniform"                      # uniform | nonuniform | multi
    num_cbfs: int = 1
    margin: float = 0.0
    restarts: int = 8
    iterations: int = 400
    population: int = 32
    seed: int = 0
    probes: int = 256

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown fit mode {self.mode!r}")
        if self.margin < 0:
            raise ValueError("margin must be nonnegative")
        if not 0 <= self.seed < 2 ** 128 - CHORD_KEY_OFFSET:
            raise ValueError(f"seed must lie in [0, 2**128 - {CHORD_KEY_OFFSET:#x})")
        if self.mode == "multi" and self.num_cbfs < 2:
            raise ValueError("multi mode needs num_cbfs >= 2")
        for key in ("restarts", "iterations", "population", "probes"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be at least 1")


@dataclass(frozen=True)
class FilterConfig:
    """Per-candidate linear class-K gains and the admissible input box."""

    alphas: Sequence[float]
    input_box: BoxSet

    def __post_init__(self):
        alphas = tuple(float(a) for a in np.atleast_1d(np.asarray(self.alphas, dtype=float)))
        if any(a <= 0 for a in alphas):
            raise ValueError("kappa gains must be positive")
        object.__setattr__(self, "alphas", alphas)


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
    """Initial/goal states, horizon and controller gain. Runs are deterministic.
    The field order is the key order of a run manifest's `config`."""

    x_init: np.ndarray
    x_goal: np.ndarray
    horizon_T: float
    dt: float
    kp: float
    require_safe_start: bool = True

    def __post_init__(self):
        object.__setattr__(self, "x_init", np.atleast_1d(np.asarray(self.x_init, dtype=float)))
        object.__setattr__(self, "x_goal", np.atleast_1d(np.asarray(self.x_goal, dtype=float)))
        horizon_steps(self.horizon_T, self.dt)
        if self.kp <= 0:
            raise ValueError("kp must be positive")


class ConfigError(Exception):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        where = f" (line {line}, col {col})" if line is not None else ""
        super().__init__(message + where)


_SECTION_RE = re.compile(r"^\[([a-z_][a-z0-9_]*)\]\s*$")
_KEY_RE = re.compile(r"^[a-z_][a-z0-9_]*$")


def _parse_lines(text: str) -> dict[str, dict[str, tuple[str, int, int]]]:
    """Raw parse: section -> key -> (value string, line, col of value)."""
    sections: dict[str, dict[str, tuple[str, int, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        m = _SECTION_RE.match(line.strip())
        if m:
            current = m.group(1)
            if current in sections:
                raise ConfigError(f"duplicate section [{current}]", lineno, 1)
            sections[current] = {}
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value' or '[section]'", lineno, 1)
        if current is None:
            raise ConfigError("assignment before any section header", lineno, 1)
        key_part, value_part = line.split("=", 1)
        key = key_part.strip()
        if not _KEY_RE.match(key):
            raise ConfigError(f"invalid key {key!r}", lineno, 1 + len(key_part) - len(key_part.lstrip()))
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in [{current}]", lineno, 1)
        col = len(key_part) + 2
        sections[current][key] = (value_part.strip(), lineno, col)
    return sections


def _real(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _convert(kind: str, text: str, line: int, col: int) -> Any:
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return _real(text)
        if kind == "float_or_auto":
            return "auto" if text == "auto" else _real(text)
        if kind == "bool":
            if text in ("true", "false"):
                return text == "true"
            raise ValueError("expected true or false")
        if kind == "name":
            if not text:
                raise ValueError("empty value")
            return text
        if kind == "vector":
            return np.array([_real(v) for v in text.split(",")], dtype=float)
        if kind == "float_list":
            return [_real(v) for v in text.split(",")]
        if kind == "name_list":
            return [v.strip() for v in text.split(",") if v.strip()]
        if kind == "state_list":
            return [np.array([_real(v) for v in part.split(",")], dtype=float)
                    for part in text.split(";") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad {kind} value {text!r}: {exc}", line, col) from None
    raise AssertionError(f"unknown schema kind {kind}")


# section -> key -> (kind, default); _REQUIRED marks keys without defaults
_REQUIRED = object()

_SCHEMA: dict[str, dict[str, tuple[str, Any]]] = {
    "system": {"name": ("name", _REQUIRED)},   # extra float params validated below
    "sampling": {
        "lower": ("vector", _REQUIRED),
        "upper": ("vector", _REQUIRED),
        "n_min": ("int", 1000),
        "delta": ("float", 0.001),
        "growth": ("float", 3.0),
        "n_start": ("int", 243),
        "n_max": ("int", 2_000_000),
        "seed": ("int", 0),
        "zero_tol": ("float_or_auto", "auto"),
    },
    "boundary": {
        "epsilon": ("float_or_auto", "auto"),
        "box_face_is_boundary": ("bool", False),
    },
    "fit": {
        "modes": ("name_list", ["uniform", "nonuniform", "multi"]),
        "num_cbfs": ("int", 2),
        "margin": ("float_or_auto", 0.0),   # auto: one boundary-extraction epsilon
        "restarts": ("int", 8),
        "iterations": ("int", 300),
        "population": ("int", 32),
        "seed": ("int", 0),
        "probes": ("int", 256),
    },
    "simulate": {
        "x_init": ("state_list", _REQUIRED),
        "x_goal": ("vector", _REQUIRED),
        "horizon": ("float", 10.0),
        "dt": ("float", 0.01),
        "kp": ("float", 10.0),
        "kappa": ("float_list", [5.0]),
        "require_safe_start": ("bool", True),
    },
    "output": {"dir": ("name", "out")},
}


@dataclass
class PipelineConfig:
    system_name: str
    system_params: dict[str, float]
    sampling: dict[str, Any]
    boundary: dict[str, Any]
    fit: dict[str, Any]
    simulate: dict[str, Any]
    output_dir: str

    def sampling_box(self) -> BoxSet:
        return BoxSet(self.sampling["lower"], self.sampling["upper"])

    def sampling_args(self) -> dict[str, Any]:
        """`run_sampling`'s keyword settings, zero_tol `auto` resolved; ValueError if unusable."""
        sp = self.sampling
        zero_tol = DEFAULT_ZERO_TOL if sp["zero_tol"] == "auto" else sp["zero_tol"]
        if zero_tol < 0:
            raise ValueError("zero_tol must be nonnegative or auto")
        if not 0 <= sp["seed"] < 2 ** 128:   # numpy's Philox takes keys in [0, 2**128)
            raise ValueError("seed must lie in [0, 2**128)")
        _check_schedule(sp["n_min"], sp["delta"], sp["growth"], sp["n_start"], sp["n_max"])
        return dict(bounds=self.sampling_box(), zero_tol=zero_tol,
                    **{k: sp[k] for k in ("n_min", "delta", "growth", "seed", "n_start", "n_max")})

    def sim_config(self) -> SimConfig:
        """The closed loop's settings, `x_init` being the first start; ValueError if unusable."""
        sp = self.simulate
        if sp["horizon"] <= 0:   # a zero-step run cannot back the report's safety rows
            raise ValueError("horizon must be positive")
        return SimConfig(x_init=sp["x_init"][0], x_goal=sp["x_goal"], horizon_T=sp["horizon"],
                         dt=sp["dt"], kp=sp["kp"], require_safe_start=sp["require_safe_start"])

    def filter_config(self, input_box: BoxSet) -> FilterConfig:
        """The safety filter's settings for the plant's `input_box`; ValueError if unusable."""
        return FilterConfig(alphas=self.simulate["kappa"], input_box=input_box)

    def fit_config(self, mode: str, boundary_eps: float) -> FitConfig:
        """One mode's fit settings, margin `auto` being `boundary_eps`; ValueError if unusable."""
        fc = self.fit
        return FitConfig(mode=mode, num_cbfs=fc["num_cbfs"],
                         margin=boundary_eps if fc["margin"] == "auto" else fc["margin"],
                         restarts=fc["restarts"], iterations=fc["iterations"],
                         population=fc["population"], seed=fc["seed"], probes=fc["probes"])


def parse_config(text: str) -> PipelineConfig:
    sections = _parse_lines(text)

    unknown_sections = set(sections) - set(_SCHEMA)
    if unknown_sections:
        name = sorted(unknown_sections)[0]
        first = next(iter(sections[name].values()), None)
        raise ConfigError(f"unknown section [{name}]; expected one of {sorted(_SCHEMA)}",
                          first[1] if first else None)

    typed: dict[str, dict[str, Any]] = {}
    for name, schema in _SCHEMA.items():
        body = sections.get(name, {})
        out: dict[str, Any] = {}
        if name == "system":
            if "name" not in body:
                raise ConfigError("missing required key 'name' in [system]")
            for key, (val, line, col) in body.items():
                if key == "name":
                    out["name"] = _convert("name", val, line, col)
                else:
                    out[key] = _convert("float", val, line, col)
        else:
            for key, (val, line, col) in body.items():
                if key not in schema:
                    raise ConfigError(f"unknown key {key!r} in [{name}]; "
                                      f"accepted: {sorted(schema)}", line, col)
                out[key] = _convert(schema[key][0], val, line, col)
            for key, (kind, default) in schema.items():
                if key not in out:
                    if default is _REQUIRED:
                        raise ConfigError(f"missing required key {key!r} in [{name}]")
                    out[key] = default
        typed[name] = out

    _validate(typed)
    sys_params = {k: v for k, v in typed["system"].items() if k != "name"}
    try:   # the registry's factory checks the name and the parameters
        sysm, input_box = build_system(typed["system"]["name"], sys_params)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"system: {exc.args[0]}") from None
    if sysm.n != typed["sampling"]["lower"].size:
        raise ConfigError(f"sampling bounds have {typed['sampling']['lower'].size} axes, "
                          f"system {sysm.name!r} has {sysm.n} states")
    cfg = PipelineConfig(
        system_name=typed["system"]["name"],
        system_params=sys_params,
        sampling=typed["sampling"],
        boundary=typed["boundary"],
        fit=typed["fit"],
        simulate=typed["simulate"],
        output_dir=typed["output"]["dir"],
    )
    for section, build in [("sampling", cfg.sampling_args), ("simulate", cfg.sim_config),
                           ("simulate", partial(cfg.filter_config, input_box)),
                           # the boundary epsilon is not known before extraction
                           *(("fit", partial(cfg.fit_config, m, 0.0)) for m in cfg.fit["modes"])]:
        try:
            build()
        except ValueError as exc:
            raise ConfigError(f"{section}: {exc}") from None
    cfg.fit["modes"] = sorted(cfg.fit["modes"], key=MODES.index)   # run order
    return cfg


def _validate(typed: dict[str, dict[str, Any]]) -> None:
    samp, sim = typed["sampling"], typed["simulate"]
    try:
        box = BoxSet(samp["lower"], samp["upper"])
    except ValueError as exc:
        raise ConfigError(f"sampling: {exc}") from None
    if box.volume() <= 0:   # the fit sizes a set by its share of the box's volume
        raise ConfigError("sampling: the box has zero width on some axis, or zero volume")
    if typed["boundary"]["epsilon"] != "auto":
        try:
            _check_epsilon(typed["boundary"]["epsilon"])
        except ValueError as exc:
            raise ConfigError(f"boundary: {exc}") from None
    modes = typed["fit"]["modes"]
    if not modes or len(set(modes)) < len(modes):
        raise ConfigError("fit modes must list at least one mode, each once")
    if not sim["x_init"]:
        raise ConfigError("simulate x_init must list at least one state")
    if any(x.size != box.dim for x in sim["x_init"] + [sim["x_goal"]]):
        raise ConfigError("simulate x_init and x_goal must have the sampling bounds' dimension")
    # the fitted set is backed by samples only inside the box
    if not box.contains(np.array(sim["x_init"])).all():
        raise ConfigError("simulate x_init must lie inside the sampling box")


def load_config(path) -> PipelineConfig:
    with open(path, "r") as f:
        return parse_config(f.read())
