"""Discrete boundary extraction for the feasible sample class.

A feasible sample belongs to the boundary when its epsilon-neighborhood
contains both another feasible sample and a non-feasible one. Distances are
Euclidean after normalizing each axis to the unit box, since raw axes can
differ in scale by an order of magnitude. Optionally the sampling-box faces
themselves count as non-feasible witnesses.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass

import numpy as np

from .config import _check_epsilon
from .sampler import SampleClass, SampleSet, _write

Array = np.ndarray
BOUNDARY_FORMAT_VERSION = 1   # versioned apart from the sample file's FORMAT_VERSION
_NOT_BRACKET = bytes(sorted(set(range(256)) - set(b"[]{}\n")))


@dataclass(frozen=True)
class BoundarySet:
    """Boundary states (a subset of the feasible class) in original coordinates."""

    points: Array              # (B, n)
    epsilon: float             # radius in normalized coordinates
    source_checksum: str
    empty_warning: bool = False

    def __len__(self) -> int:
        return self.points.shape[0]


def _active_axes(s: SampleSet) -> Array:
    return np.flatnonzero(s.bounds.span > 0)


def normalize_states(s: SampleSet, states: Array) -> Array:
    """Map states into the unit box, dropping degenerate axes."""
    axes = _active_axes(s)
    if axes.size == 0:
        raise ValueError("sampling box has zero volume on every axis")
    lo = s.bounds.lower[axes]
    span = s.bounds.span[axes]
    return (np.asarray(states, dtype=float)[..., axes] - lo) / span


def auto_epsilon(s: SampleSet) -> float:
    """Twice the expected uniform sample spacing in normalized coordinates.

    The normalized box has unit volume, so the spacing estimate is
    (1 / N)^(1/n) over the non-degenerate axes.
    """
    n_samples = len(s)
    if n_samples < 2:
        raise ValueError("need at least 2 samples to set a neighborhood radius")
    n_eff = _active_axes(s).size
    return 2.0 * (1.0 / n_samples) ** (1.0 / n_eff)


def _rank(table: Array, values: Array) -> Array:
    """Index of each value in the sorted unique `table`, -1 where it is absent."""
    pos = np.minimum(np.searchsorted(table, values), table.size - 1)
    return np.where(table[pos] == values, pos, -1)


def _has_neighbor(queries: Array, points: Array, epsilon: float,
                  same: bool = False) -> Array:
    """Per query row, whether a row of `points` (another row, if `same`: one
    array) lies within `epsilon`. Cells of side epsilon are widened by 2^-40
    of epsilon and of the largest coordinate, so rounding never puts a pair
    within epsilon two cells apart; a cell id folds in one axis rank at a time
    and re-ranks, so no key exceeds N^2. A query visits its own cell, then its
    neighbors, a point at a time, and stops at its first witness: O(N) memory."""
    found = np.zeros(len(queries), dtype=bool)
    if not len(queries) or not len(points):
        return found
    reach = max(np.abs(queries).max(), np.abs(points).max())
    side = epsilon * (1.0 + 2.0 ** -40) + reach * 2.0 ** -40
    cell_p, cell_q = (np.floor(x / side).astype(np.int64) for x in (points, queries))
    tables = []           # per axis: occupied cell coordinates, occupied id prefixes
    cell_id = np.zeros(len(points), dtype=np.int64)
    for k in range(points.shape[1]):
        coords, rank = np.unique(cell_p[:, k], return_inverse=True)
        prefixes, cell_id = np.unique(cell_id * coords.size + rank, return_inverse=True)
        tables.append((coords, prefixes))
    counts = np.bincount(cell_id)
    starts = np.cumsum(counts) - counts
    order = np.argsort(cell_id, kind="stable")
    for offset in itertools.product((0, -1, 1), repeat=len(tables)):   # own cell first
        todo = np.flatnonzero(~found)
        key = np.zeros(todo.size, dtype=np.int64)
        for k, (coords, prefixes) in enumerate(tables):
            rank = _rank(coords, cell_q[todo, k] + offset[k])
            key = np.where(rank >= 0, _rank(prefixes, key * coords.size + rank), -1)
            todo, key = todo[key >= 0], key[key >= 0]
        first, count, t = starts[key], counts[key], 0
        while todo.size:
            j = order[first + t]
            diff = queries[todo] - points[j]
            sq = diff[:, 0] * diff[:, 0]   # summed in axis order, as a KD-tree sums < 8 axes
            for k in range(1, diff.shape[1]):
                sq += diff[:, k] * diff[:, k]
            hit = (np.sqrt(sq) <= epsilon) & ((j != todo) if same else True)
            found[todo[hit]] = True
            t += 1
            keep = ~hit & (count > t)
            todo, first, count = todo[keep], first[keep], count[keep]
    return found


def extract_boundary(s: SampleSet, epsilon: float,
                     box_face_is_boundary: bool = False) -> BoundarySet:
    """Feasible samples with both a feasible and a non-feasible epsilon-neighbor.

    With `box_face_is_boundary`, proximity to a sampling-box face substitutes
    for the non-feasible witness. An empty result is returned with a warning
    flag rather than raised.

    Neighbors come from a cell grid (Bentley, Stanat & Williams, 1977) in
    numpy alone. It is exact: pairs within epsilon lie in neighboring cells,
    and each pair gets a KD-tree's test, sqrt(sum of squares) <= epsilon.
    """
    _check_epsilon(epsilon)
    feas_mask = s.class_mask(SampleClass.FEASIBLE)
    feas_idx = np.flatnonzero(feas_mask)
    checksum = s.checksum()
    if feas_idx.size == 0:
        return BoundarySet(np.zeros((0, s.bounds.dim)), epsilon, checksum, True)

    norm = normalize_states(s, s.states)
    feas_pts = norm[feas_idx]
    has_y1 = _has_neighbor(feas_pts, feas_pts, epsilon, same=True)
    near_face = np.minimum(feas_pts, 1.0 - feas_pts).min(axis=1) <= epsilon
    has_y2 = near_face & box_face_is_boundary
    ask = has_y1 & ~has_y2     # a witness matters only where the other is there
    has_y2[ask] = _has_neighbor(feas_pts[ask], norm[~feas_mask], epsilon)
    points = s.states[feas_idx[has_y1 & has_y2]]
    return BoundarySet(points, float(epsilon), checksum, empty_warning=points.shape[0] == 0)


# ---------------------------------------------------------------------------
# Persistence

def boundary_bytes(b: BoundarySet) -> bytes:
    lines = [json.dumps({
        "version": BOUNDARY_FORMAT_VERSION,
        "epsilon": b.epsilon,
        "normalized": True,
        "source_checksum": b.source_checksum,
        "empty_warning": b.empty_warning,
    }, separators=(",", ":"))]
    for i in range(len(b)):
        lines.append(json.dumps({"x": b.points[i].tolist()}, separators=(",", ":")))
    return ("\n".join(lines) + "\n").encode()


def save_boundary(b: BoundarySet, path) -> str:
    return _write(path, boundary_bytes(b))


def load_boundary(path, dim: int | None = None) -> BoundarySet:
    """Read a stored boundary. Mistyped or inconsistent header fields, non-finite
    numbers, and with `dim` points of another width, raise ValueError."""
    with open(path, "rb") as f:
        lines = f.read().decode().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty boundary file")
    header = json.loads(lines[0])
    if header.get("version") != BOUNDARY_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported boundary file version")
    rows = json.loads("[" + ",".join(lines[1:]) + "]")
    # one row a line: as many rows as lines, and each line's brackets outside
    # strings pair up on it, so no row spans two lines to leave room for another
    marks = re.sub(r'"[^"\\]*(?:\\.[^"\\]*)*"', "", "\n".join(lines[1:])).encode()
    marks = marks.translate(None, _NOT_BRACKET)
    while (paired := marks.replace(b"[]", b"").replace(b"{}", b"")) != marks:
        marks = paired
    if len(rows) != len(lines) - 1 or marks.strip(b"\n"):
        raise ValueError(f"{path}: a line does not hold one row")
    pts = [row["x"] for row in rows]
    checks = {"normalized": header.get("normalized") is True,
              "epsilon": type(header.get("epsilon")) in (int, float),
              "source_checksum": re.fullmatch("[0-9a-f]{64}", str(header.get("source_checksum"))),
              "empty_warning": header.get("empty_warning") is (not pts)}
    if not all(checks.values()):
        raise ValueError(f"{path}: bad header field {next(k for k, v in checks.items() if not v)}")
    arr = np.array(pts, dtype=float) if pts else np.zeros((0, dim or 0))
    epsilon = float(header["epsilon"])
    if not (np.isfinite(arr).all() and np.isfinite(epsilon)):
        raise ValueError(f"{path}: non-finite number")
    if dim is not None and arr.shape[1:] != (dim,):
        raise ValueError(f"{path}: points are not {dim} wide")
    return BoundarySet(arr, epsilon, header["source_checksum"], header["empty_warning"])
