"""Discrete boundary extraction for the feasible sample class.

A feasible sample belongs to the boundary when its epsilon-neighborhood
contains both another feasible sample and a non-feasible one. Distances are
Euclidean after normalizing each axis to the unit box, since raw axes can
differ in scale by an order of magnitude. Optionally the sampling-box faces
themselves count as non-feasible witnesses.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .sampler import FORMAT_VERSION, SampleClass, SampleSet

Array = np.ndarray


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


def extract_boundary(s: SampleSet, epsilon: float,
                     box_face_is_boundary: bool = False) -> BoundarySet:
    """Feasible samples with both a feasible and a non-feasible epsilon-neighbor.

    With `box_face_is_boundary`, proximity to a sampling-box face substitutes
    for the non-feasible witness. An empty result is returned with a warning
    flag rather than raised.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    feas_mask = s.class_mask(SampleClass.FEASIBLE)
    feas_idx = np.flatnonzero(feas_mask)
    checksum = s.checksum()
    if feas_idx.size == 0:
        return BoundarySet(np.zeros((0, s.bounds.dim)), epsilon, checksum, True)

    norm = normalize_states(s, s.states)
    feas_pts = norm[feas_idx]

    if feas_idx.size >= 2:
        feas_tree = cKDTree(feas_pts)
        d_feas = feas_tree.query(feas_pts, k=2)[0][:, 1]
        has_y1 = d_feas <= epsilon
    else:
        has_y1 = np.zeros(feas_idx.size, dtype=bool)

    other_pts = norm[~feas_mask]
    if other_pts.shape[0]:
        d_other = cKDTree(other_pts).query(feas_pts, k=1)[0]
        has_y2 = d_other <= epsilon
    else:
        has_y2 = np.zeros(feas_idx.size, dtype=bool)

    if box_face_is_boundary:
        face_dist = np.minimum(feas_pts, 1.0 - feas_pts).min(axis=1)
        has_y2 |= face_dist <= epsilon

    keep = has_y1 & has_y2
    points = s.states[feas_idx[keep]]
    return BoundarySet(points, float(epsilon), checksum, empty_warning=points.shape[0] == 0)


def stray_points(b: BoundarySet, s: SampleSet) -> int:
    """Number of boundary points that are not feasible rows of `s`.

    Extraction keeps feasible sample rows only, so any other point was put
    into the boundary after extraction.
    """
    feasible = {x.tobytes() for x in s.states[s.class_mask(SampleClass.FEASIBLE)]}
    return sum(x.tobytes() not in feasible for x in b.points)


# ---------------------------------------------------------------------------
# Persistence

def boundary_bytes(b: BoundarySet) -> bytes:
    lines = [json.dumps({
        "version": FORMAT_VERSION,
        "epsilon": b.epsilon,
        "normalized": True,
        "source_checksum": b.source_checksum,
        "empty_warning": b.empty_warning,
    }, separators=(",", ":"))]
    for i in range(len(b)):
        lines.append(json.dumps({"x": b.points[i].tolist()}, separators=(",", ":")))
    return ("\n".join(lines) + "\n").encode()


def save_boundary(b: BoundarySet, path) -> str:
    data = boundary_bytes(b)
    with open(path, "wb") as f:
        f.write(data)
    return hashlib.sha256(data).hexdigest()


def load_boundary(path, dim: int | None = None) -> BoundarySet:
    with open(path, "rb") as f:
        lines = f.read().decode().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty boundary file")
    header = json.loads(lines[0])
    if header.get("version") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported boundary file version")
    pts = [json.loads(line)["x"] for line in lines[1:]]
    arr = np.array(pts, dtype=float) if pts else np.zeros((0, dim or 0))
    return BoundarySet(arr, float(header["epsilon"]), header["source_checksum"],
                       bool(header.get("empty_warning", False)))
