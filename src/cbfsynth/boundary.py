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
from .sampler import SampleClass, SampleSet, _check_rows, _finite_json, _format_rows, _write

Array = np.ndarray
BOUNDARY_FORMAT_VERSION = 1   # versioned apart from the sample file's FORMAT_VERSION


@dataclass(frozen=True)
class BoundarySet:
    """Boundary states (a subset of the feasible class) in original coordinates."""

    points: Array              # (B, n)
    epsilon: float             # radius in normalized coordinates
    source_checksum: str

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def empty_warning(self) -> bool:
        """Whether the set holds no points, so epsilon may be too small."""
        return len(self) == 0


def _active_axes(s: SampleSet) -> Array:
    """The sampling box's axes of nonzero width; ValueError if it has none."""
    axes = np.flatnonzero(s.bounds.span > 0)
    if axes.size == 0:
        raise ValueError("sampling box has zero width on every axis")
    return axes


def normalize_states(s: SampleSet, states: Array) -> Array:
    """Map states into the unit box, dropping degenerate axes."""
    axes = _active_axes(s)
    lo = s.bounds.lower[axes]
    span = s.bounds.span[axes]
    return (np.asarray(states, dtype=float)[..., axes] - lo) / span


def auto_epsilon(s: SampleSet) -> float:
    """Twice the expected uniform sample spacing in normalized coordinates.

    The normalized box has unit volume, so the spacing estimate is
    (1 / N)^(1/n) over the non-degenerate axes. ValueError for fewer than
    2 samples or a box of zero width on every axis.
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
    flag (`empty_warning`) rather than raised.

    Neighbors come from a cell grid (Bentley, Stanat & Williams, 1977) in
    numpy alone. It is exact: pairs within epsilon lie in neighboring cells,
    and each pair gets a KD-tree's test, sqrt(sum of squares) <= epsilon.
    """
    _check_epsilon(epsilon)
    feas_mask = s.class_mask(SampleClass.FEASIBLE)
    feas_idx = np.flatnonzero(feas_mask)
    checksum = s.checksum()
    if feas_idx.size == 0:
        return BoundarySet(np.zeros((0, s.bounds.dim)), float(epsilon), checksum)

    norm = normalize_states(s, s.states)
    feas_pts = norm[feas_idx]
    has_y1 = _has_neighbor(feas_pts, feas_pts, epsilon, same=True)
    near_face = np.minimum(feas_pts, 1.0 - feas_pts).min(axis=1) <= epsilon
    has_y2 = near_face & box_face_is_boundary
    ask = has_y1 & ~has_y2     # a witness matters only where the other is there
    has_y2[ask] = _has_neighbor(feas_pts[ask], norm[~feas_mask], epsilon)
    points = s.states[feas_idx[has_y1 & has_y2]]
    return BoundarySet(points, float(epsilon), checksum)


# ---------------------------------------------------------------------------
# Persistence

_ROW_TAIL = (b"]}",)   # a boundary row is a sample row with one tail and no class


def _header(b: BoundarySet) -> dict:
    return {"version": BOUNDARY_FORMAT_VERSION, "epsilon": b.epsilon, "normalized": True,
            "source_checksum": b.source_checksum, "empty_warning": b.empty_warning}


def boundary_bytes(b: BoundarySet) -> bytes:
    """The boundary file: a JSON header line, then one `{"x":[...]}` row per point."""
    rows = _format_rows(b.points, np.zeros(len(b), dtype=np.int8), _ROW_TAIL)
    return b"\n".join([json.dumps(_header(b), separators=(",", ":")).encode(), *rows, b""])


def save_boundary(b: BoundarySet, path) -> str:
    return _write(path, boundary_bytes(b))


def load_boundary(path, dim: int) -> BoundarySet:
    """Read a stored boundary. ValueError, naming the file, unless the rows
    pass `_check_rows` with points `dim` wide, `epsilon` is a float,
    `source_checksum` is 64 lowercase hex digits and the header line is the
    one `boundary_bytes` writes for what was read; a header that is not names
    its first field whose text differs."""
    with open(path, "rb") as f:
        line, rows = f.readline(), f.read()
    try:
        header = _finite_json(line)
        if not isinstance(header, dict) or header.get("version") != BOUNDARY_FORMAT_VERSION:
            raise ValueError("unsupported boundary file version")
        epsilon, checksum = header.get("epsilon"), header.get("source_checksum")
        if type(epsilon) is not float:
            raise ValueError("bad header field epsilon")
        if not re.fullmatch("[0-9a-f]{64}", str(checksum)):
            raise ValueError("bad header field source_checksum")
        b = BoundarySet(_check_rows(rows, dim, _ROW_TAIL)[0], epsilon, checksum)
        want = _header(b)
        if json.dumps(want, separators=(",", ":")).encode() + b"\n" != line:
            bad = [k for k, v in want.items() if json.dumps(header.get(k)) != json.dumps(v)]
            raise ValueError(f"bad header field {bad[0]}" if bad
                             else "content does not match its canonical form")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return b
