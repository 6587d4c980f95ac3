"""Uniform state sampling, feasibility classification, and Jaccard tracking.

States drawn uniformly from the sampling box are split into three classes:

    outside    z(x) < 0
    feasible   z(x) >= 0 and some admissible input attains zdot = 0
               (or zdot > 0 holds unconditionally)
    infeasible z(x) >= 0 but no admissible input can stop z from decaying

The feasible fraction J = card(feasible) / card(all) is recorded at
geometrically growing checkpoints; sampling stops once the count exceeds the
configured minimum and the change in J between consecutive checkpoints drops
below the threshold.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .qp import min_zdot, zero_tolerance
from .system import BoxSet, SystemModel

Array = np.ndarray

FORMAT_VERSION = 1
DEFAULT_ZERO_TOL = 1e-9


class SampleClass(enum.Enum):
    OUTSIDE = "outside"
    INFEASIBLE = "infeasible"
    FEASIBLE = "feasible"


_CLASS_CODE = {SampleClass.OUTSIDE: 0, SampleClass.INFEASIBLE: 1, SampleClass.FEASIBLE: 2}
_CODE_CLASS = {v: k for k, v in _CLASS_CODE.items()}


@dataclass
class JaccardTracker:
    """Counts of total and feasible samples plus the (n, J) checkpoint history."""

    n_total: int = 0
    n_feasible: int = 0
    history: list[tuple[int, float]] = field(default_factory=list)

    @property
    def jaccard(self) -> float:
        return self.n_feasible / self.n_total if self.n_total else 0.0

    def checkpoint(self):
        self.history.append((self.n_total, self.jaccard))

    def deltas(self) -> list[float]:
        """|J_k - J_{k-1}| per checkpoint, with J_0 = 0 before any data."""
        out, prev = [], 0.0
        for _, j in self.history:
            out.append(abs(j - prev))
            prev = j
        return out


@dataclass
class SampleSet:
    """Classified samples stored column-wise for vectorized consumers."""

    states: Array                  # (N, n)
    labels: Array                  # (N,) int8 codes
    residuals: Array               # (N,)
    bounds: BoxSet
    seed: int
    zero_tol: float                # coefficient of the scale-aware threshold
    tracker: JaccardTracker
    system_name: str = "anonymous"
    converged: bool = True
    # sha256 of the file form, recorded by save_samples / load_samples
    _digest: str | None = field(default=None, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return self.states.shape[0]

    def class_mask(self, label: SampleClass) -> Array:
        return self.labels == _CLASS_CODE[label]

    def checksum(self) -> str:
        """Digest of the sample file: the one recorded when the set was last
        saved or loaded, else that of a fresh serialization."""
        if self._digest is None:
            self._digest = hashlib.sha256(canonical_bytes(self)).hexdigest()
        return self._digest


def draw_batch(bounds: BoxSet, count: int, rng: np.random.Generator) -> Array:
    """Draw `count` i.i.d. uniform states in the box; degenerate axes yield constants."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return rng.uniform(bounds.lower, bounds.upper, size=(count, bounds.dim))


def classify_batch(sys: SystemModel, input_box: BoxSet, states: Array,
                   zero_tol: float | None = None) -> tuple[Array, Array]:
    """Vectorized classification; returns (label codes, residuals).

    The residual min over the input box of (L_f z + L_g z . u)^2 is taken in
    closed form by `qp.min_zdot`. `zero_tol` is the coefficient of the
    scale-aware threshold coeff * (1 + L_f z(x)^2); None selects the default.
    There are no cross-sample reductions, so batch order cannot affect labels.
    """
    states = np.asarray(states, dtype=float)
    coeff = DEFAULT_ZERO_TOL if zero_tol is None else zero_tol
    zvals = sys.hcf.value(states)
    grad = sys.hcf.gradient(states)
    lf = np.sum(grad * sys.drift(states), axis=-1)
    lg = np.einsum("...n,...nm->...m", grad, sys.actuation(states))

    _, residuals = min_zdot(lf, lg, input_box)
    # the input does not enter, but z grows on its own
    extra = (np.max(np.abs(lg), axis=-1) == 0.0) & (lf > 0.0)

    outside = zvals < 0.0
    feasible = ~outside & ((residuals <= zero_tolerance(lf, coeff)) | extra)
    labels = np.full(states.shape[0], _CLASS_CODE[SampleClass.INFEASIBLE], dtype=np.int8)
    labels[outside] = _CLASS_CODE[SampleClass.OUTSIDE]
    labels[feasible] = _CLASS_CODE[SampleClass.FEASIBLE]
    residuals = np.where(outside, 0.0, residuals)
    return labels, residuals


def run_sampling(sys: SystemModel, input_box: BoxSet, bounds: BoxSet,
                 n_min: int, delta: float, growth: float, seed: int,
                 n_start: int = 243, n_max: int = 2_000_000,
                 zero_tol: float | None = None) -> SampleSet:
    """Sample, classify and grow until the Jaccard increment settles.

    Checkpoints are n_start, n_start*growth, ... The run stops at the first
    checkpoint with n >= n_min and |J_k - J_{k-1}| <= delta; exceeding n_max
    returns the data collected so far with `converged` set to False.
    """
    if n_min < 1:
        raise ValueError("n_min must be >= 1")
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    if growth <= 1.0:
        raise ValueError("growth must exceed 1")
    rng = np.random.Generator(np.random.Philox(key=seed))
    tracker = JaccardTracker()
    chunks_states, chunks_labels, chunks_res = [], [], []
    target = int(n_start)
    converged = False
    prev_j = 0.0
    while True:
        new = target - tracker.n_total
        states = draw_batch(bounds, new, rng)
        labels, residuals = classify_batch(sys, input_box, states, zero_tol)
        chunks_states.append(states)
        chunks_labels.append(labels)
        chunks_res.append(residuals)
        tracker.n_total += new
        tracker.n_feasible += int(np.sum(labels == _CLASS_CODE[SampleClass.FEASIBLE]))
        tracker.checkpoint()
        j = tracker.jaccard
        if tracker.n_total >= n_min and abs(j - prev_j) <= delta:
            converged = True
            break
        prev_j = j
        if tracker.n_total >= n_max:
            break
        target = min(int(round(target * growth)), int(n_max))
    return SampleSet(
        states=np.vstack(chunks_states),
        labels=np.concatenate(chunks_labels),
        residuals=np.concatenate(chunks_res),
        bounds=bounds,
        seed=int(seed),
        zero_tol=DEFAULT_ZERO_TOL if zero_tol is None else float(zero_tol),
        tracker=tracker,
        system_name=sys.name,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# Line-delimited JSON persistence (bit-exact round trip)

# the text between a row's coordinates and its residual, by class code
_CLASS_TEXT = tuple(f'],"class":"{_CODE_CLASS[code].value}","residual":'.encode()
                    for code in range(3))


def canonical_bytes(s: SampleSet) -> bytes:
    """The sample file: a JSON header line, then one JSON record per sample.

    Every row comes from one format string; `%a` of a finite float is its
    repr, the shortest round-trip decimal, which is also what `json.dumps`
    writes.
    """
    lines = [json.dumps({
        "version": FORMAT_VERSION,
        "system": s.system_name,
        "bounds": {"lower": s.bounds.lower.tolist(), "upper": s.bounds.upper.tolist()},
        "seed": s.seed,
        "zero_tol": s.zero_tol,
        "checkpoints": [{"n": n, "J": j} for n, j in s.tracker.history],
        "converged": s.converged,
    }, separators=(",", ":")).encode()]
    row = b'{"x":[' + b",".join([b"%a"] * s.states.shape[1]) + b"%s%a}"
    lines += map(row.__mod__, zip(*s.states.T.tolist(),
                                  map(_CLASS_TEXT.__getitem__, s.labels.tolist()),
                                  s.residuals.tolist()))
    lines.append(b"")
    return b"\n".join(lines)


def save_samples(s: SampleSet, path) -> str:
    """Write the set; returns the content digest, which the set keeps."""
    data = canonical_bytes(s)
    with open(path, "wb") as f:
        f.write(data)
    s._digest = hashlib.sha256(data).hexdigest()
    return s._digest


def load_samples(path) -> SampleSet:
    """Read a sample file once, parse it, and check that it is canonical.

    The parsed set must reformat to exactly the bytes read, so any edit that
    `canonical_bytes` would not write raises ValueError, as do rows whose
    width is not the header's state dimension and non-finite numbers, which
    `%a` writes as `nan` or `inf`.
    """
    with open(path, "rb") as f:
        data = f.read()
    head, _, body = data.partition(b"\n")
    if not head:
        raise ValueError(f"{path}: empty sample file")
    header = json.loads(head)
    version = header.get("version") if isinstance(header, dict) else None
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported sample file version {version}")
    bounds = BoxSet(np.array(header["bounds"]["lower"]), np.array(header["bounds"]["upper"]))
    n, dim = body.count(b"\n"), bounds.dim
    # each row becomes "x_1,..,x_dim,code,residual," for one numeric parse
    body = body.replace(b'{"x":[', b"").replace(b"}\n", b",")
    for code, text in enumerate(_CLASS_TEXT):
        body = body.replace(text, b",%d," % code)
    values = np.fromstring(body, sep=",")
    if values.size != n * (dim + 2) or not np.isin(values[dim::dim + 2], list(_CODE_CLASS)).all():
        raise ValueError(f"{path}: sample rows do not hold {dim} coordinates each")
    if not np.isfinite(values).all():
        raise ValueError(f"{path}: sample rows hold non-finite numbers")
    values = values.reshape(n, dim + 2)
    labels = values[:, dim].astype(np.int8)
    s = SampleSet(
        states=values[:, :dim].copy(),
        labels=labels,
        residuals=values[:, dim + 1].copy(),
        bounds=bounds,
        seed=int(header["seed"]),
        zero_tol=float(header["zero_tol"]),
        tracker=JaccardTracker(
            n_total=n, n_feasible=int(np.sum(labels == _CLASS_CODE[SampleClass.FEASIBLE])),
            history=[(c["n"], c["J"]) for c in header["checkpoints"]]),
        system_name=header["system"],
        converged=bool(header["converged"]),
    )
    del body, values   # free the parse's copies before the reformat check
    if canonical_bytes(s) != data:
        raise ValueError(f"{path}: content does not match its canonical form")
    s._digest = hashlib.sha256(data).hexdigest()
    return s
