import json

import numpy as np
import pytest
from scipy.spatial import cKDTree

from cbfsynth.boundary import (BoundarySet, _has_neighbor, auto_epsilon, boundary_bytes,
                               extract_boundary, load_boundary, normalize_states,
                               save_boundary)
from cbfsynth.sampler import SampleClass, SampleSet
from cbfsynth.sampler import _CLASS_CODE  # stable code mapping used in files
from cbfsynth.system import BoxSet

from conftest import REFERENCE_BOUNDS


def _make_set(states, labels, bounds):
    states = np.asarray(states, dtype=float)
    codes = np.array([_CLASS_CODE[c] for c in labels], dtype=np.int8)
    n, n_feasible = len(codes), int(np.sum(codes == _CLASS_CODE[SampleClass.FEASIBLE]))
    return SampleSet(states=states, labels=codes, bounds=bounds, seed=0, zero_tol=1e-9,
                     history=[(n, n_feasible / n if n else 0.0)], converged=True,
                     system_name="anonymous", system_params={})


UNIT = BoxSet([0.0, 0.0], [1.0, 1.0])
F, I, O = SampleClass.FEASIBLE, SampleClass.INFEASIBLE, SampleClass.OUTSIDE


def test_auto_epsilon_formula():
    states = np.random.default_rng(0).uniform(size=(10000, 2))
    s = _make_set(states, [F] * 10000, UNIT)
    assert auto_epsilon(s) == pytest.approx(0.02)


def test_auto_epsilon_reference_run(reference_run):
    assert auto_epsilon(reference_run) == pytest.approx(2.0 / np.sqrt(3 ** 11), rel=1e-12)


def test_auto_epsilon_needs_two_samples():
    s = _make_set([[0.5, 0.5]], [F], UNIT)
    with pytest.raises(ValueError):
        auto_epsilon(s)


def test_auto_epsilon_skips_degenerate_axes():
    box = BoxSet([0.0, 0.0], [1.0, 0.0])
    states = np.stack([np.linspace(0, 1, 100), np.zeros(100)], axis=1)
    s = _make_set(states, [F] * 100, box)
    # one effective axis: spacing estimate is 1/N
    assert auto_epsilon(s) == pytest.approx(2.0 / 100.0)


def test_minimal_witness_pair():
    s = _make_set([[0.5, 0.5], [0.52, 0.5], [0.54, 0.5]], [F, F, I], UNIT)
    b = extract_boundary(s, 0.03)
    # only the middle point has both witnesses within reach
    assert len(b) == 1
    assert np.allclose(b.points[0], [0.52, 0.5])
    assert not b.empty_warning


def test_all_feasible_has_no_boundary():
    states = np.random.default_rng(1).uniform(size=(500, 2))
    s = _make_set(states, [F] * 500, UNIT)
    b = extract_boundary(s, 0.2, box_face_is_boundary=False)
    assert len(b) == 0
    assert b.empty_warning


def test_box_face_witness_flag():
    states = np.array([[0.01, 0.5], [0.02, 0.5]])
    s = _make_set(states, [F, F], UNIT)
    assert len(extract_boundary(s, 0.05, box_face_is_boundary=False)) == 0
    b = extract_boundary(s, 0.05, box_face_is_boundary=True)
    assert len(b) == 2


def test_epsilon_must_be_positive(reference_run):
    with pytest.raises(ValueError):
        extract_boundary(reference_run, 0.0)


def test_tiny_epsilon_gives_empty_with_warning():
    states = np.random.default_rng(2).uniform(size=(100, 2))
    labels = [F if x[0] < 0.5 else I for x in states]
    s = _make_set(states, labels, UNIT)
    b = extract_boundary(s, 1e-12)
    assert len(b) == 0 and b.empty_warning


def test_monotone_in_epsilon():
    rng = np.random.default_rng(3)
    states = rng.uniform(size=(800, 2))
    labels = [F if x[0] + 0.3 * x[1] < 0.6 else (I if x[1] < 0.7 else O) for x in states]
    s = _make_set(states, labels, UNIT)
    prev = set()
    for eps in (0.01, 0.03, 0.08, 0.2):
        pts = {tuple(p) for p in extract_boundary(s, eps).points}
        assert prev <= pts
        prev = pts


def _kdtree_has_neighbor(queries, points, eps, same=False):
    """The oracle: a KD-tree's nearest distance other than the query itself."""
    if len(points) < 1 + same:
        return np.zeros(len(queries), dtype=bool)
    return cKDTree(points).query(queries, k=1 + same)[0].reshape(len(queries), -1)[:, -1] <= eps


def _kdtree_boundary(s, eps, box_face_is_boundary):
    """Boundary rows of `s` from KD-tree nearest distances."""
    feas = s.class_mask(F)
    norm = normalize_states(s, s.states)
    y1 = _kdtree_has_neighbor(norm[feas], norm[feas], eps, same=True)
    y2 = _kdtree_has_neighbor(norm[feas], norm[~feas], eps)
    if box_face_is_boundary:
        y2 |= np.minimum(norm[feas], 1.0 - norm[feas]).min(axis=1) <= eps
    return s.states[np.flatnonzero(feas)[y1 & y2]]


def _point_sets(dim, rng):
    """Random feasible / other sets: uniform, on a lattice of pitch 1/8 (pairs
    exactly 1/8 apart on an axis, and some duplicated), one feasible point,
    and no other point."""
    lattice = rng.integers(0, 9, size=(300, dim)) / 8.0
    yield rng.uniform(size=(300, dim)), rng.uniform(size=(200, dim))
    yield np.vstack([lattice, lattice[:50]]), rng.integers(0, 9, size=(100, dim)) / 8.0
    yield lattice[:1], lattice[1:]
    yield rng.uniform(size=(300, dim)), np.zeros((0, dim))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_grid_neighbors_match_kdtree(dim):
    """The cell-grid neighbor test gives a KD-tree's masks, within the
    feasible set and against the other set, at every radius: 1e-12 (a grid
    of more than 2^63 cells in 2 or more axes, so no linear cell key), 1e-300
    (cell coordinates beyond int64 unless the cells are widened), radii that
    pairs on the 1/8 lattice meet exactly, and one wider than the box."""
    rng = np.random.default_rng(40 + dim)
    for feas, other in _point_sets(dim, rng):
        for eps in (1e-300, 1e-12, 0.01, 0.1, 0.125, 0.125 * np.sqrt(2), 0.25, 2.0):
            with np.errstate(all="raise"):   # no overflowing cast
                same, cross = (_has_neighbor(feas, feas, eps, same=True),
                               _has_neighbor(feas, other, eps))
            assert np.array_equal(same, _kdtree_has_neighbor(feas, feas, eps, same=True))
            assert np.array_equal(cross, _kdtree_has_neighbor(feas, other, eps))


@pytest.mark.parametrize("box_face_is_boundary", [False, True])
def test_extract_boundary_matches_kdtree(box_face_is_boundary):
    """Whole extraction against the KD-tree's, on a box that is not the unit
    box, with duplicated rows and a tiny radius whose grid has more than
    2^63 cells."""
    rng = np.random.default_rng(7)
    box = BoxSet([-10.0, -40.0], [0.0, 40.0])
    states = box.lower + rng.uniform(size=(1500, 2)) * box.span
    states = np.vstack([states, states[:100]])
    labels = [F if x[1] < 30.0 and x[0] + x[1] ** 2 / 160 < 0 else I for x in states]
    s = _make_set(states, labels, box)
    for eps in (1e-12, 0.01, 0.04, 0.1):
        b = extract_boundary(s, eps, box_face_is_boundary=box_face_is_boundary)
        assert np.array_equal(b.points, _kdtree_boundary(s, eps, box_face_is_boundary))
    assert len(b) > 0


def test_boundary_subset_of_feasible(reference_run, reference_boundary):
    feas = {tuple(p) for p in
            reference_run.states[reference_run.class_mask(SampleClass.FEASIBLE)]}
    assert all(tuple(p) in feas for p in reference_boundary.points)


def _frontier_distance_normalized(points: np.ndarray) -> np.ndarray:
    """Distance (per-axis normalized) to the analytic feasibility frontier:
    the velocity cap, the damped-constraint edge, and the position wall."""
    lo, span = REFERENCE_BOUNDS.lower, REFERENCE_BOUNDS.span

    def norm(p):
        return (np.asarray(p, dtype=float) - lo) / span

    segments = [
        (norm([-10.0, 30.0]), norm([-3.0, 30.0])),   # cap at v = 30
        (norm([-3.0, 30.0]), norm([0.0, 0.0])),      # z = 0 edge, v in (0, 30]
        (norm([0.0, 0.0]), norm([0.0, -40.0])),      # wall at x = 0, v <= 0
    ]
    pn = norm(points)
    dists = []
    for a, b in segments:
        ab = b - a
        t = np.clip((pn - a) @ ab / (ab @ ab), 0.0, 1.0)
        proj = a + t[:, None] * ab
        dists.append(np.linalg.norm(pn - proj, axis=1))
    return np.min(dists, axis=0)


def test_reference_boundary_hugs_frontier(di, reference_boundary):
    sysm, _ = di
    b = reference_boundary
    assert len(b) > 100
    # every boundary state satisfies the constraint and the velocity cap
    z = sysm.hcf.value(b.points)
    assert np.all(z >= 0.0)
    eps_v = b.epsilon * REFERENCE_BOUNDS.span[1]
    assert np.all(b.points[:, 1] <= 30.0 + eps_v)
    frac_near = np.mean(_frontier_distance_normalized(b.points) <= 2.0 * b.epsilon)
    assert frac_near >= 0.95


def test_velocity_cap_estimate(reference_boundary):
    pts = reference_boundary.points
    cap = pts[pts[:, 0] < -3.5][:, 1].max()
    assert cap == pytest.approx(30.0, abs=1.5)


def test_boundary_roundtrip(tmp_path, reference_run, reference_boundary):
    path = tmp_path / "boundary.jsonl"
    save_boundary(reference_boundary, path)
    loaded = load_boundary(path, dim=2)
    assert np.array_equal(loaded.points, reference_boundary.points)
    assert loaded.epsilon == reference_boundary.epsilon
    assert loaded.source_checksum == reference_run.checksum()
    assert boundary_bytes(loaded) == path.read_bytes()


@pytest.mark.parametrize("points, epsilon", [
    ([[-5.0, 10.0, 0.0]], 0.1),
    ([[-5.0, np.nan]], 0.1),
    ([[-5.0, np.inf]], 0.1),
    ([[-5.0, 10.0]], np.nan),
], ids=["3-wide", "nan-point", "inf-point", "nan-epsilon"])
def test_load_boundary_rejects_wrong_width_and_non_finite(tmp_path, points, epsilon):
    """Given the sampling dimension, a stored boundary whose points have
    another width, or one holding NaN or Infinity, is refused."""
    path = tmp_path / "boundary.jsonl"
    save_boundary(BoundarySet(np.array(points), epsilon, "0" * 64), path)
    with pytest.raises(ValueError):
        load_boundary(path, dim=2)



@pytest.mark.parametrize("field, value", [
    ("normalized", [1, 2, 3]),
    ("normalized", False),
    ("epsilon", "0.1"),
    ("epsilon", True),
    ("source_checksum", "0" * 63),
    ("source_checksum", 7),
    ("empty_warning", "no"),
    ("empty_warning", True),
], ids=["list-normalized", "false-normalized", "string-epsilon", "bool-epsilon",
        "short-checksum", "number-checksum", "string-empty-warning",
        "empty-warning-with-points"])
def test_load_boundary_checks_every_header_field(tmp_path, field, value):
    """A header field of the wrong type, or an `empty_warning` that does not
    say whether the file holds points, is refused."""
    path = tmp_path / "boundary.jsonl"
    save_boundary(BoundarySet(np.array([[-5.0, 10.0]]), 0.1, "0" * 64), path)
    head, _, body = path.read_text().partition("\n")
    header = json.loads(head)
    header[field] = value
    path.write_text(json.dumps(header, separators=(",", ":")) + "\n" + body)
    with pytest.raises(ValueError, match=field):
        load_boundary(path, dim=2)


@pytest.mark.parametrize("body", [
    '{"x":[-5.0,10.0]},{"x":[-4.0,11.0]}\n{"x":[-3.0,12.0]}\n',
    '{"x":[-5.0,10.0]}\n\n{"x":[-4.0,11.0]}\n',
    '{"x":[-5.0,10.0]}\n[-4.0,11.0]\n',
    '{"x":[-5.0,10.0]}\n{"y":[-4.0,11.0]}\n',
    '{"x":[-5.0\n10.0]}\n{"x":[-4.0,11.0]},{"x":[-3.0,12.0]}\n',   # the join's comma completes it
    '{"x":[-5.0,10.0],"pad":[[1\n2]]}\n{"x":[-4.0,11.0]},{"x":[-3.0,12.0]}\n',
], ids=["two-rows-on-a-line", "blank-line", "line-not-an-object", "row-without-x",
        "row-across-lines", "padded-row-across-lines"])
def test_load_boundary_refuses_a_line_that_is_not_one_row(tmp_path, body):
    """The rows are parsed in one call, yet a file is refused unless each line
    is one row with `x`: a row broken over two lines is refused even where
    another line holds two rows to keep the count."""
    path = tmp_path / "boundary.jsonl"
    save_boundary(BoundarySet(np.zeros((3, 2)), 0.1, "0" * 64), path)
    path.write_text(path.read_text().partition("\n")[0] + "\n" + body)
    with pytest.raises((ValueError, KeyError, TypeError)):
        load_boundary(path, dim=2)


@pytest.mark.parametrize("body", [
    '{"x":[-5.00,10.0]}\n',
    '{"x":[-5.0,10.0],"note":"a]{\\"["}\n',
    '{"x":[-5.0, 10.0]}\n',
], ids=["number-not-canonical", "extra-key", "space"])
def test_load_boundary_refuses_rows_it_would_not_write(tmp_path, body):
    """A row must be the bytes `boundary_bytes` writes for its point: a number
    in another form, a key other than `x` or added whitespace is refused."""
    path = tmp_path / "boundary.jsonl"
    save_boundary(BoundarySet(np.zeros((1, 2)), 0.1, "0" * 64), path)
    path.write_text(path.read_text().partition("\n")[0] + "\n" + body)
    with pytest.raises(ValueError):
        load_boundary(path, dim=2)


@pytest.mark.parametrize("edit", [
    lambda head: head.replace(",", ", "),
    lambda head: head.replace('"version":1,', '"version":1,"note":0,'),
    lambda head: head.replace('{"version":1,"epsilon":0.1,', '{"epsilon":0.1,"version":1,'),
], ids=["space", "extra-key", "reordered"])
def test_load_boundary_refuses_a_header_it_would_not_write(tmp_path, edit):
    """A header holding every field's canonical value is still refused unless
    its line is the one `boundary_bytes` writes."""
    path = tmp_path / "boundary.jsonl"
    save_boundary(BoundarySet(np.zeros((1, 2)), 0.1, "0" * 64), path)
    head, _, body = path.read_text().partition("\n")
    assert edit(head) != head
    path.write_text(edit(head) + "\n" + body)
    with pytest.raises(ValueError, match="canonical"):
        load_boundary(path, dim=2)


def _dumps_boundary(b: BoundarySet) -> bytes:
    """The boundary writer the shared row codec replaced: a header, then one
    `json.dumps` row per point."""
    lines = [json.dumps({"version": 1, "epsilon": b.epsilon, "normalized": True,
                         "source_checksum": b.source_checksum,
                         "empty_warning": b.empty_warning}, separators=(",", ":"))]
    lines += [json.dumps({"x": row}, separators=(",", ":")) for row in b.points.tolist()]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("points", [
    np.zeros((0, 2)),
    np.array([[-0.0, 5e-324], [1e16, 1e-05], [0.1 + 0.2, -123456789.125]]),
], ids=["no-points", "edge-values"])
def test_boundary_bytes_match_json_dumps(tmp_path, points):
    """The row codec writes what one `json.dumps` per row wrote, bit for bit,
    and the loader reads it back to the same points."""
    b = BoundarySet(points, 0.1 + 0.2, "ab" * 32)
    assert boundary_bytes(b) == _dumps_boundary(b)
    path = tmp_path / "boundary.jsonl"
    save_boundary(b, path)
    loaded = load_boundary(path, dim=2)
    assert loaded.points.tobytes() == points.tobytes() and loaded.empty_warning == (not len(b))


def test_auto_epsilon_refuses_a_box_of_zero_width():
    """A box of zero width on every axis has no spacing to estimate: a named
    ValueError, as `normalize_states` raises, not a division by zero."""
    s = _make_set([[-5.0, 0.0]] * 3, [F, F, I], BoxSet([-5.0, 0.0], [-5.0, 0.0]))
    with pytest.raises(ValueError, match="zero width on every axis"):
        auto_epsilon(s)
    with pytest.raises(ValueError, match="zero width on every axis"):
        normalize_states(s, s.states)
