"""Uniform state sampling, feasibility classification, and the sample file.

States drawn uniformly from the sampling box are split into three classes:

    outside    z(x) < 0
    feasible   z(x) >= 0 and some admissible input attains zdot = 0
               (or zdot > 0 holds unconditionally)
    infeasible z(x) >= 0 but no admissible input can stop z from decaying

The feasible fraction J = card(feasible) / card(all) is recorded at
geometrically growing checkpoints; sampling stops once the count exceeds the
configured minimum and the change in J between consecutive checkpoints drops
below the threshold. A `SampleSet` is its file's header, the one record of
the run, plus the classified rows.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .config import DEFAULT_ZERO_TOL, _check_schedule, _next_checkpoint
from .qp import min_zdot, zero_tolerance
from .system import BoxSet, SystemModel

Array = np.ndarray

FORMAT_VERSION = 2


class SampleClass(enum.Enum):
    OUTSIDE = "outside"
    INFEASIBLE = "infeasible"
    FEASIBLE = "feasible"


_CLASS_CODE = {SampleClass.OUTSIDE: 0, SampleClass.INFEASIBLE: 1, SampleClass.FEASIBLE: 2}
_CODE_CLASS = {v: k for k, v in _CLASS_CODE.items()}


@dataclass
class SampleHeader:
    """A sample file's header: what the set was drawn for, its (n, J)
    checkpoints and whether it converged, with the digest of the whole file
    where one was taken."""

    system_name: str
    system_params: dict[str, float]   # the plant's, resolved
    bounds: BoxSet
    seed: int
    zero_tol: float                   # coefficient of the scale-aware threshold
    history: list[tuple[int, float]]
    converged: bool
    # sha256 of the file, recorded when it was saved, loaded or hashed; not an
    # __init__ argument, so `dataclasses.replace` drops it
    digest: str | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        """Samples in the set, as its last checkpoint counts them."""
        return self.history[-1][0]

    @property
    def jaccard(self) -> float:
        """The set's feasible fraction, as its last checkpoint states it."""
        return self.history[-1][1]


@dataclass(kw_only=True)
class SampleSet(SampleHeader):
    """A sample file's header plus its classified rows, stored column-wise
    for vectorized consumers."""

    states: Array                  # (N, n)
    labels: Array                  # (N,) int8 codes

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def tracker(self) -> SampleSet:
        """The set itself, whose `jaccard` the benchmark's sampling hook reads here."""
        return self

    def class_mask(self, label: SampleClass) -> Array:
        return self.labels == _CLASS_CODE[label]

    def checksum(self) -> str:
        """Digest of the sample file: the one recorded when the set was last
        saved or loaded, else that of a fresh serialization."""
        if self.digest is None:
            self.digest = hashlib.sha256(canonical_bytes(self)).hexdigest()
        return self.digest


def draw_batch(bounds: BoxSet, count: int, rng: np.random.Generator) -> Array:
    """Draw `count` i.i.d. uniform states in the box; degenerate axes yield constants."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return rng.uniform(bounds.lower, bounds.upper, size=(count, bounds.dim))


def classify_batch(sys: SystemModel, input_box: BoxSet, states: Array,
                   zero_tol: float | None = None) -> Array:
    """Vectorized classification; returns the (N,) int8 label codes.

    A state with z >= 0 is feasible when the min over the input box of
    (L_f z + L_g z . u)^2, taken in closed form by `qp.min_zdot`, is at most
    coeff * (1 + L_f z(x)^2), with coeff `zero_tol` (None selects the default).
    No cross-sample reductions, so batch order cannot affect labels.
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
    return labels


def run_sampling(sys: SystemModel, input_box: BoxSet, bounds: BoxSet,
                 n_min: int, delta: float, growth: float, seed: int,
                 n_start: int = 243, n_max: int = 2_000_000,
                 zero_tol: float | None = None) -> SampleSet:
    """Sample, classify and grow until the Jaccard increment settles.

    Checkpoints are n_start, n_start*growth, ... The run stops at the first
    checkpoint with n >= n_min and |J_k - J_{k-1}| <= delta; exceeding n_max
    returns the data collected so far with `converged` set to False.
    """
    _check_schedule(n_min, delta, growth, n_start, n_max)
    rng = np.random.Generator(np.random.Philox(key=seed))
    history: list[tuple[int, float]] = []
    chunks_states, chunks_labels = [], []
    n_total = n_feasible = 0
    target = int(n_start)
    converged = False
    prev_j = 0.0
    while True:
        states = draw_batch(bounds, target - n_total, rng)
        labels = classify_batch(sys, input_box, states, zero_tol)
        chunks_states.append(states)
        chunks_labels.append(labels)
        n_total = target
        n_feasible += int(np.sum(labels == _CLASS_CODE[SampleClass.FEASIBLE]))
        j = n_feasible / n_total
        history.append((n_total, j))
        if n_total >= n_min and abs(j - prev_j) <= delta:
            converged = True
            break
        prev_j = j
        if n_total >= n_max:
            break
        target = _next_checkpoint(target, growth, n_max)
    return SampleSet(
        states=np.vstack(chunks_states),
        labels=np.concatenate(chunks_labels),
        bounds=bounds,
        seed=int(seed),
        zero_tol=DEFAULT_ZERO_TOL if zero_tol is None else float(zero_tol),
        history=history,
        system_name=sys.name,
        system_params=dict(sys.params),
        converged=converged,
    )


# ---------------------------------------------------------------------------
# Line-delimited JSON persistence (bit-exact round trip)

# the text after a row's coordinates, by class code
_CLASS_TEXT = tuple(f'],"class":"{_CODE_CLASS[code].value}"}}'.encode() for code in range(3))


def _header_bytes(h: SampleHeader) -> bytes:
    """The sample file's header line, without its newline."""
    return json.dumps({
        "version": FORMAT_VERSION,
        "system": h.system_name,
        "params": dict(sorted(h.system_params.items())),
        "bounds": {"lower": h.bounds.lower.tolist(), "upper": h.bounds.upper.tolist()},
        "seed": h.seed,
        "zero_tol": h.zero_tol,
        "checkpoints": [{"n": n, "J": j} for n, j in h.history],
        "converged": h.converged,
    }, separators=(",", ":")).encode()


def _format_rows(states: Array, labels: Array, tails: tuple = _CLASS_TEXT) -> list[bytes]:
    """One record per row, each without its newline, ending in its label's
    entry of `tails`: by default the class tails of the sample file.

    Every row comes from one format string; `%a` of a finite float is its
    repr, the shortest round-trip decimal, which is also what `json.dumps`
    writes.
    """
    row = b'{"x":[' + b",".join([b"%a"] * states.shape[1]) + b"%s"
    return list(map(row.__mod__, zip(*states.T.tolist(),
                                     map(tails.__getitem__, labels.tolist()))))


def canonical_bytes(s: SampleSet) -> bytes:
    """The sample file: a JSON header line, then one JSON record per sample."""
    lines = _format_rows(s.states, s.labels)
    lines.insert(0, _header_bytes(s))
    lines.append(b"")
    return b"\n".join(lines)


def save_samples(s: SampleSet, path) -> str:
    """Write the set; returns the content digest, which the set keeps."""
    s.digest = _write(path, canonical_bytes(s))
    return s.digest


def _check_rows(rows: bytes, dim: int, tails: tuple = _CLASS_TEXT) -> tuple[Array, Array]:
    """Parse whole rows and check that they are canonical; returns the states
    and label codes, a code being its tail's index in `tails`. ValueError for
    a row whose width is not `dim`, an unknown tail, a non-finite number (`%a`
    writes `nan` or `inf`) or any text `_format_rows` would not write, such as
    a number in another form (`-5.00`)."""
    n = rows.count(b"\n")
    # each row becomes "x_1,..,x_dim,code," for one numeric parse
    body = rows.replace(b'{"x":[', b"")
    for code, text in enumerate(tails):
        body = body.replace(text + b"\n", b",%d," % code)
    values = np.fromstring(body, sep=",")
    if values.size != n * (dim + 1) or not np.isin(values[dim::dim + 1], range(len(tails))).all():
        raise ValueError(f"rows do not hold {dim} coordinates each")
    if not np.isfinite(values).all():
        raise ValueError("rows hold non-finite numbers")
    values = values.reshape(n, dim + 1)
    states, labels = values[:, :dim].copy(), values[:, dim].astype(np.int8)
    del body, values   # free the parse's copies before the reformat check
    lines = _format_rows(states, labels, tails)
    lines.append(b"")
    if b"\n".join(lines) != rows:
        raise ValueError("content does not match its canonical form")
    return states, labels


# Bytes read at a time when a file is hashed or its rows are checked, so no
# file is held whole.
HASH_BLOCK = 1 << 20


def _sha256(f, sha=None) -> str:
    """Hex sha256 of the rest of binary file `f`, read in HASH_BLOCK blocks,
    continuing `sha` where one is given."""
    sha = sha or hashlib.sha256()
    for block in iter(lambda: f.read(HASH_BLOCK), b""):
        sha.update(block)
    return sha.hexdigest()


def _write(path, data: bytes) -> str:
    """Write an artifact's bytes; returns their sha256, so none is read back to be hashed."""
    with open(path, "wb") as f:
        f.write(data)
    return hashlib.sha256(data).hexdigest()


def _finite_json(data: bytes):
    """`json.loads` that raises ValueError for a non-finite number: `NaN`,
    `Infinity`, or a literal such as 1e400 that overflows."""
    def refuse(text: str):
        raise ValueError(f"non-finite number {text}")

    def number(text: str) -> float:
        value = float(text)
        return value if math.isfinite(value) else refuse(text)

    return json.loads(data, parse_constant=refuse, parse_float=number)


def _jsonable(obj):
    """`json.dumps`'s fallback: an array as its list, a dataclass as its fields."""
    return obj.tolist() if isinstance(obj, np.ndarray) else asdict(obj)


def _parse_header(line: bytes) -> SampleHeader:
    """Parse and check a sample file's first line, newline included.

    ValueError for an empty file, a format version other than
    FORMAT_VERSION, a non-finite number (`NaN`, or a literal such as 1e400
    that overflows), an empty checkpoint list, or any bytes other than
    those `_header_bytes` writes for the parsed header.
    """
    if not line.rstrip(b"\n"):
        raise ValueError("empty sample file")
    header = _finite_json(line)
    version = header.get("version") if isinstance(header, dict) else None
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported sample file version {version}")
    if not header["checkpoints"]:
        raise ValueError("the header holds no checkpoint")
    h = SampleHeader(
        system_name=header["system"],
        system_params=dict(header["params"]),
        bounds=BoxSet(np.array(header["bounds"]["lower"]), np.array(header["bounds"]["upper"])),
        seed=int(header["seed"]),
        zero_tol=float(header["zero_tol"]),
        history=[(c["n"], c["J"]) for c in header["checkpoints"]],
        converged=bool(header["converged"]))
    if _header_bytes(h) + b"\n" != line:
        raise ValueError("content does not match its canonical form")
    return h


def read_header(path) -> SampleHeader:
    """A sample file's checked header, with the digest of the whole file.

    The header gets every check `load_samples` gives it; the file is hashed
    in HASH_BLOCK blocks through the handle the header was read from, and no
    row is parsed. The header's last checkpoint tells the set's n and J
    only of a file `load_samples` accepts, since that checks them against
    the rows: a digest recorded when the file was saved or fully loaded
    vouches for the rest.
    """
    with open(path, "rb") as f:
        line = f.readline()
        try:
            h = _parse_header(line)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        h.digest = _sha256(f, hashlib.sha256(line))
    return h


def load_samples(path) -> SampleSet:
    """Read a sample file once, parse it, and check that it is canonical.

    The header gets `_parse_header`'s checks, as in `read_header`. Every row
    must reformat through `_format_rows` to exactly the bytes read, so any
    edit that `canonical_bytes` would not write raises ValueError, as do
    rows whose width is not the header's state dimension and non-finite
    numbers (`nan`). So does a last checkpoint whose n is not the row count,
    or whose J is not the feasible rows' fraction bit for bit. Each
    ValueError names the file. The rows are read, hashed and checked by
    `_check_rows` in slices of whole lines, HASH_BLOCK bytes and the rest of
    a line each, so the file is never held whole; where a file has faults of
    more than one kind, the first slice holding one names it.
    """
    sha, parts = hashlib.sha256(), []
    with open(path, "rb") as f:
        line = f.readline()
        sha.update(line)
        try:
            h = _parse_header(line)
            for rows in iter(lambda: f.read(HASH_BLOCK) + f.readline(), b""):
                sha.update(rows)
                parts.append(_check_rows(rows, h.bounds.dim))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    states = np.concatenate([np.empty((0, h.bounds.dim))] + [p[0] for p in parts])
    labels = np.concatenate([np.empty(0, dtype=np.int8)] + [p[1] for p in parts])
    n, n_feasible = len(labels), int(np.sum(labels == _CLASS_CODE[SampleClass.FEASIBLE]))
    # repr tells 243 from 243.0 and 0.0 from -0.0: the summary must match bit for bit
    if repr(h.history[-1]) != repr((n, n_feasible / n if n else 0.0)):
        raise ValueError(f"{path}: the last checkpoint (n, J) = {h.history[-1]} is not "
                         f"that of its {n} rows")
    s = SampleSet(states=states, labels=labels,
                  **{f.name: getattr(h, f.name) for f in fields(h) if f.init})
    s.digest = sha.hexdigest()
    return s
