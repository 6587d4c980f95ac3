import hashlib
import json
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import lsq_linear

from cbfsynth import sampler
from cbfsynth.qp import min_zdot, zero_tolerance
from cbfsynth.sampler import (SampleClass, SampleSet, canonical_bytes, classify_batch,
                              draw_batch, load_samples, run_sampling, save_samples)
from cbfsynth.system import BoxSet, HardConstraint, SystemModel, build_system

from conftest import REFERENCE_BOUNDS, TWO_INPUT_BOX, two_input_states, two_input_system


def _constant_system(level: float) -> SystemModel:
    """Flat constraint z = level with motionless dynamics."""
    hcf = HardConstraint(
        value=lambda x: np.full(np.asarray(x, dtype=float).shape[:-1], level),
        gradient=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    return SystemModel(
        n=2, m=1,
        drift=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        actuation=lambda x: np.zeros(np.asarray(x, dtype=float).shape + (1,)),
        hcf=hcf, name="flat")


UNIT_BOX = BoxSet([0.0, 0.0], [1.0, 1.0])
UBOX = BoxSet([-1.0], [1.0])


def test_draw_batch_degenerate_box():
    rng = np.random.Generator(np.random.Philox(key=0))
    pts = draw_batch(BoxSet([0.0, 1.0], [0.0, 1.0]), 3, rng)
    assert pts.shape == (3, 2)
    assert np.all(pts == [0.0, 1.0])


def test_draw_batch_inside_reference_box():
    rng = np.random.Generator(np.random.Philox(key=1))
    pts = draw_batch(REFERENCE_BOUNDS, 3 ** 11, rng)
    assert pts.shape == (3 ** 11, 2)
    assert np.all(REFERENCE_BOUNDS.contains(pts))


def test_draw_batch_deterministic():
    a = draw_batch(UNIT_BOX, 100, np.random.Generator(np.random.Philox(key=7)))
    b = draw_batch(UNIT_BOX, 100, np.random.Generator(np.random.Philox(key=7)))
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        draw_batch(UNIT_BOX, 0, np.random.Generator(np.random.Philox(key=7)))


def _residuals(sysm: SystemModel, input_box: BoxSet, states) -> np.ndarray:
    """`min_zdot`'s residual at each state, from the state's Lie derivatives."""
    grad = sysm.hcf.gradient(states)
    lf = np.sum(grad * sysm.drift(states), axis=-1)
    lg = np.einsum("...n,...nm->...m", grad, sysm.actuation(states))
    return min_zdot(lf, lg, input_box)[1]


def test_classify_reference_states(di):
    sysm, input_box = di
    codes = {"outside": 0, "infeasible": 1, "feasible": 2}
    states = np.array([[-5.0, 20.0], [-5.0, 35.0], [-5.0, -3.0], [1.0, 0.0]])
    labels = classify_batch(sysm, input_box, states)
    residuals = _residuals(sysm, input_box, states)
    assert labels[0] == codes["feasible"]
    assert labels[1] == codes["infeasible"]
    assert residuals[1] == pytest.approx(25.0)
    # input cannot slow growth, but z only grows: admitted by the extra rule
    assert labels[2] == codes["feasible"]
    assert labels[3] == codes["outside"]
    assert residuals[3] == 0.0


def test_classify_batch_matches_scalar_and_order_free():
    """Batch labels equal, bit for bit, those the m = 1 division form gives
    from the scalar Lie derivatives and the scale-aware threshold, and
    `min_zdot`'s interval form agrees with that form's residual to within
    1e-6 of the threshold: the two round differently (on the steeper plant
    too), and sample files no longer store the residual."""
    codes = {"outside": 0, "infeasible": 1, "feasible": 2}
    for params in ({}, {"gamma2": 0.3, "u_min": -100.0, "u_max": 100.0}):
        sysm, input_box = build_system("double_integrator", params)
        rng = np.random.Generator(np.random.Philox(key=3))
        states = draw_batch(REFERENCE_BOUNDS, 500, rng)
        labels = classify_batch(sysm, input_box, states)
        z = sysm.hcf.value(states)
        seen = set()
        for i, x in enumerate(states):
            if z[i] < 0.0:
                assert labels[i] == codes["outside"]
                continue
            grad = sysm.hcf.gradient(x)
            lf, a = float(grad @ sysm.drift(x)), float(grad @ sysm.actuation(x)[:, 0])
            u = float(np.clip(-lf / a, input_box.lower[0], input_box.upper[0])) if a else 0.0
            want = (lf + a * u) ** 2
            assert abs(min_zdot(lf, np.array([a]), input_box)[1] - want) \
                <= 1e-6 * zero_tolerance(lf)
            feasible = want <= zero_tolerance(lf) or (a == 0.0 and lf > 0.0)
            assert labels[i] == codes["feasible" if feasible else "infeasible"]
            seen.add(int(labels[i]))
        assert seen == {codes["feasible"], codes["infeasible"]}
        for i in (0, 17, 123, 499):
            assert labels[i] == classify_batch(sysm, input_box, states[i:i + 1])[0]
        perm = rng.permutation(500)
        assert np.array_equal(classify_batch(sysm, input_box, states[perm]), labels[perm])


def test_classify_batch_two_inputs_matches_lsq_oracle():
    """For m > 1 the closed-form interval distance equals the residual of a
    bounded least-squares solve, min ||L_g z u + L_f z||^2 over the box.

    The oracle is scipy's BVLS, independent of `qp.min_zdot`, which
    `classify_batch` uses; its argmin must lie in the box and attain its
    residual.
    """
    sysm = two_input_system()
    ubox = TWO_INPUT_BOX
    states = two_input_states()
    labels = classify_batch(sysm, ubox, states)
    z = sysm.hcf.value(states)
    codes = {"outside": 0, "infeasible": 1, "feasible": 2}
    counted = dict.fromkeys(codes.values(), 0)
    for i, x in enumerate(states):
        if z[i] < 0.0:
            assert labels[i] == codes["outside"]
            counted[codes["outside"]] += 1
            continue
        grad = sysm.hcf.gradient(x)
        lf, lg = float(grad @ sysm.drift(x)), grad @ sysm.actuation(x)
        fit = lsq_linear(lg[None, :], [-lf], bounds=(ubox.lower, ubox.upper), method="bvls")
        r_oracle = 2.0 * fit.cost
        tol = zero_tolerance(lf)
        u, r = min_zdot(lf, lg, ubox)
        assert abs(r - r_oracle) <= 0.5 * tol and ubox.contains(u)
        assert abs((lf + lg @ u) ** 2 - r_oracle) <= 0.5 * tol
        if 0.5 * tol < r_oracle < 2.0 * tol:
            continue                       # too close to the threshold to call
        feasible = r_oracle <= tol or (not np.any(lg) and lf > 0.0)
        want = codes["feasible"] if feasible else codes["infeasible"]
        assert labels[i] == want
        counted[want] += 1
    assert all(n > 0 for n in counted.values())
    assert classify_batch(sysm, ubox, states[5:6])[0] == labels[5]


def test_run_sampling_all_feasible():
    # delta = 1 always stops at the first checkpoint past n_min
    s = run_sampling(_constant_system(1.0), UBOX, UNIT_BOX, n_min=50, delta=1.0,
                     growth=3.0, seed=0, n_start=64)
    assert s.converged
    assert s.history == [(64, 1.0)]


def test_run_sampling_all_outside():
    s = run_sampling(_constant_system(-1.0), UBOX, UNIT_BOX, n_min=50, delta=0.5,
                     growth=3.0, seed=0, n_start=64)
    # J is identically zero, so the increment rule stops immediately
    assert s.history == [(64, 0.0)]
    assert np.all(s.class_mask(SampleClass.OUTSIDE))


def test_run_sampling_hard_cap(di):
    sysm, input_box = di
    s = run_sampling(sysm, input_box, REFERENCE_BOUNDS, n_min=100, delta=1e-9,
                     growth=3.0, seed=0, n_start=100, n_max=1000)
    assert not s.converged
    assert len(s) == 1000


def test_run_sampling_validation(di):
    sysm, input_box = di
    with pytest.raises(ValueError):
        run_sampling(sysm, input_box, REFERENCE_BOUNDS, n_min=0, delta=0.1, growth=3.0, seed=0)
    with pytest.raises(ValueError):
        run_sampling(sysm, input_box, REFERENCE_BOUNDS, n_min=10, delta=0.0, growth=3.0, seed=0)
    with pytest.raises(ValueError):
        run_sampling(sysm, input_box, REFERENCE_BOUNDS, n_min=10, delta=0.1, growth=1.0, seed=0)
    with pytest.raises(ValueError, match="n_max"):
        run_sampling(sysm, input_box, REFERENCE_BOUNDS, n_min=10, delta=0.1, growth=3.0, seed=0,
                     n_start=243, n_max=-5)


def test_jaccard_increment_bound(reference_run):
    """Deterministic counting bound on consecutive checkpoint increments."""
    hist = reference_run.history
    prev_n, prev_j = 0, 0.0
    for n, j in hist:
        dn = n - prev_n
        assert abs(j - prev_j) <= dn / n + 1e-15
        prev_n, prev_j = n, j


def test_feasible_records_reverify(di, reference_run):
    """Every feasible record either admits an input that pins zdot near zero
    or is admitted by the unconditional-growth rule."""
    sysm, input_box = di
    s = reference_run
    feas_idx = np.flatnonzero(s.class_mask(SampleClass.FEASIBLE))
    rng = np.random.default_rng(4)
    for i in rng.choice(feas_idx, size=400, replace=False):
        x = s.states[i]
        grad = sysm.hcf.gradient(x)
        lf, lg = float(grad @ sysm.drift(x)), grad @ sysm.actuation(x)
        if np.max(np.abs(lg)) == 0.0 and lf > 0.0:
            continue
        u, residual = min_zdot(lf, lg, input_box)
        assert input_box.contains(u)
        tol = zero_tolerance(lf, s.zero_tol)
        assert residual <= tol
        zdot = grad @ (sysm.drift(x) + sysm.actuation(x) @ u)
        assert abs(zdot) <= np.sqrt(tol)


def test_roundtrip_bit_exact(tmp_path, di):
    sysm, input_box = di
    s = run_sampling(sysm, input_box, REFERENCE_BOUNDS, n_min=200, delta=0.5,
                     growth=3.0, seed=5, n_start=243)
    path = tmp_path / "samples.jsonl"
    save_samples(s, path)
    data = path.read_bytes()
    loaded = load_samples(path)
    assert canonical_bytes(loaded) == data
    assert np.array_equal(loaded.states, s.states)
    assert np.array_equal(loaded.labels, s.labels)
    assert loaded.system_params == s.system_params == {"gamma1": 0.0, "gamma2": 0.1,
                                                        "u_min": -300.0, "u_max": 300.0}
    assert loaded.history == s.history
    assert loaded.checksum() == s.checksum()
    # a second save of the loaded set writes identical bytes
    path2 = tmp_path / "again.jsonl"
    save_samples(loaded, path2)
    assert path2.read_bytes() == data


def test_reference_run_matches_area_oracle(reference_run):
    # feasible area 655 of box area 800; agreement to sampling noise
    assert reference_run.jaccard == pytest.approx(655.0 / 800.0, abs=0.01)


def _json_oracle(s: SampleSet) -> bytes:
    """The sample file written with one `json.dumps` per line."""
    names = {0: "outside", 1: "infeasible", 2: "feasible"}
    lines = [json.dumps({
        "version": 2, "system": s.system_name, "params": dict(sorted(s.system_params.items())),
        "bounds": {"lower": s.bounds.lower.tolist(), "upper": s.bounds.upper.tolist()},
        "seed": s.seed, "zero_tol": s.zero_tol,
        "checkpoints": [{"n": n, "J": j} for n, j in s.history],
        "converged": s.converged}, separators=(",", ":"))]
    for x, label in zip(s.states, s.labels):
        lines.append(json.dumps({"x": x.tolist(), "class": names[int(label)]},
                                separators=(",", ":")))
    return ("\n".join(lines) + "\n").encode()


def _odd_values_set() -> SampleSet:
    odd = [-0.0, 5e-324, -5e-324, 1e16, 1e22, -1e22, 0.1 + 0.2, 3.0, -40.0, 0.0, 123456789.0,
           2.0 ** 60, 1.7976931348623157e308, 2.2250738585072014e-308, 1e-7]
    states = np.array([odd, odd[::-1]], dtype=float).T
    return SampleSet(states=states, labels=np.arange(len(odd), dtype=np.int8) % 3,
                     bounds=REFERENCE_BOUNDS, seed=7, zero_tol=1e-9,
                     history=[(len(odd), 5 / len(odd))], converged=True,
                     system_name="odd", system_params={"u_max": 1e22, "gamma2": 0.1 + 0.2})


def test_canonical_bytes_matches_json_oracle(di):
    sysm, input_box = di
    sampled = run_sampling(sysm, input_box, REFERENCE_BOUNDS, n_min=200, delta=0.5,
                           growth=3.0, seed=5, n_start=243)
    for s in (sampled, _odd_values_set()):
        assert canonical_bytes(s) == _json_oracle(s)


def test_odd_values_roundtrip(tmp_path):
    s = _odd_values_set()
    path = tmp_path / "samples.jsonl"
    save_samples(s, path)
    loaded = load_samples(path)
    assert np.array_equal(loaded.states.view(np.int64), s.states.view(np.int64))
    assert np.array_equal(loaded.labels, s.labels)
    assert loaded.system_params == s.system_params


def test_digest_is_recorded_at_save_and_load(tmp_path, di, monkeypatch):
    """save_samples and load_samples each format every row once, through the
    row formatter canonical_bytes uses, and record the file's digest;
    checksum() then formats and hashes nothing again."""
    sysm, input_box = di
    s = run_sampling(sysm, input_box, REFERENCE_BOUNDS, n_min=200, delta=0.5,
                     growth=3.0, seed=5, n_start=243)
    rows = []
    original = sampler._format_rows

    def counting(states, *args):
        rows.append(len(states))
        return original(states, *args)

    monkeypatch.setattr(sampler, "_format_rows", counting)
    path = tmp_path / "samples.jsonl"
    digest = save_samples(s, path)
    assert sum(rows) == len(s)
    assert s.checksum() == digest == hashlib.sha256(path.read_bytes()).hexdigest()
    loaded = load_samples(path)
    assert sum(rows) == 2 * len(s)
    assert loaded.checksum() == digest
    assert sum(rows) == 2 * len(s)


def test_replace_drops_the_recorded_digest(tmp_path, di, monkeypatch):
    """A set made by `dataclasses.replace` of a loaded set carries no recorded
    digest, as its fields may differ from the file's: checksum() formats and
    hashes it again, giving the file's digest for an unchanged copy and
    another for a changed one."""
    sysm, input_box = di
    s = run_sampling(sysm, input_box, REFERENCE_BOUNDS, n_min=200, delta=0.5,
                     growth=3.0, seed=5, n_start=243)
    path = tmp_path / "samples.jsonl"
    digest = save_samples(s, path)
    loaded = load_samples(path)
    assert loaded.digest == digest
    rows = []
    original = sampler._format_rows

    def counting(states, *args):
        rows.append(len(states))
        return original(states, *args)

    monkeypatch.setattr(sampler, "_format_rows", counting)
    copy, changed = replace(loaded), replace(loaded, seed=6)
    assert copy.digest is None and changed.digest is None
    assert copy.checksum() == digest and copy.digest == digest
    assert changed.checksum() == hashlib.sha256(canonical_bytes(changed)).hexdigest() != digest
    assert rows == [len(s)] * 3
    assert loaded.digest == digest


def _misalign_rows(data: bytes) -> bytes:
    """Give the row after the first line one coordinate more (50.0) and the
    next one fewer, so the file still holds as many numbers as rows of the
    right width."""
    head, first, second, rest = data.split(b"\n", 3)
    second = b'{"x":[' + second.split(b",", 1)[1]
    return b"\n".join([head, first.replace(b"],", b",50.0],", 1), second, rest])


def _drop_newlines(data: bytes) -> bytes:
    """Join every row after the first quarter of the file into one line."""
    quarter = len(data) // 4
    return data[:quarter] + data[quarter:].replace(b"\n", b"")


_NON_CANONICAL = {
    "space": lambda data: data.replace(b'"class":', b'"class": ', 1),
    "crlf": lambda data: data.replace(b"\n", b"\r\n"),
    "no-final-newline": lambda data: data[:-1],
    "blank-line": lambda data: data + b"\n",
    "unknown-class": lambda data: data.replace(b'"class":"', b'"class":"x', 1),
    "one-wide-row": lambda data: data.replace(b'"x":[', b'"x":[1.0,', 1),
    "misaligned-rows": _misalign_rows,
    "newlines-dropped": _drop_newlines,
    # parses to the same float: only the reformat compare refuses it
    "number-form": lambda data: re.sub(rb'"x":\[(-?\d+\.\d+)', rb'"x":[\g<1>0', data, count=1),
}


def _edit_header(data: bytes, edit) -> bytes:
    """Apply `edit` to the parsed header and write it back the way
    `json.dumps` would, so the file stays canonical."""
    head, rest = data.split(b"\n", 1)
    header = json.loads(head)
    edit(header)
    return json.dumps(header, separators=(",", ":")).encode() + b"\n" + rest


def _set_last(key, value):
    return lambda header: header["checkpoints"][-1].update({key: value(header)})


_CHECKPOINT_EDITS = {
    "other-count": _set_last("n", lambda h: 177147),
    "reference-summary": lambda h: h["checkpoints"][-1].update(n=177147, J=0.819),
    "count-as-float": _set_last("n", lambda h: float(h["checkpoints"][-1]["n"])),
    "J-one-ulp-up": _set_last("J", lambda h: float(np.nextafter(h["checkpoints"][-1]["J"], 2))),
    "no-checkpoints": lambda h: h.update(checkpoints=[]),
}


@pytest.mark.parametrize("edit", list(_CHECKPOINT_EDITS.values()), ids=list(_CHECKPOINT_EDITS))
def test_load_rejects_checkpoint_disagreeing_with_rows(tmp_path, di, edit):
    """The last checkpoint must state the row count and the feasible fraction
    of the rows, bit for bit, and a header must hold a checkpoint at all:
    the header alone then tells a file's n and J."""
    sysm, input_box = di
    s = run_sampling(sysm, input_box, REFERENCE_BOUNDS, n_min=200, delta=0.5,
                     growth=3.0, seed=5, n_start=243)
    path = tmp_path / "samples.jsonl"
    save_samples(s, path)
    data = path.read_bytes()
    edited = _edit_header(data, edit)
    assert edited != data
    path.write_bytes(edited)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
        load_samples(path)


def test_read_header_checks_header_and_hashes_file(tmp_path, di, monkeypatch):
    """read_header gives the set's header fields and the file's digest, and
    parses no row; a header load_samples refuses, it refuses too."""
    sysm, input_box = di
    s = run_sampling(sysm, input_box, REFERENCE_BOUNDS, n_min=200, delta=0.5,
                     growth=3.0, seed=5, n_start=243)
    path = tmp_path / "samples.jsonl"
    digest = save_samples(s, path)

    def no_rows(*args):
        raise AssertionError("rows parsed")

    monkeypatch.setattr(sampler, "_check_rows", no_rows)
    monkeypatch.setattr(sampler, "HASH_BLOCK", 100)   # many blocks for a small file
    head = sampler.read_header(path)
    assert head.digest == digest
    assert (head.system_name, head.system_params, head.seed, head.zero_tol, head.history) == \
        (s.system_name, s.system_params, s.seed, s.zero_tol, s.history)
    assert head.bounds.lower.tolist() == s.bounds.lower.tolist()
    assert head.bounds.upper.tolist() == s.bounds.upper.tolist()
    assert (head.n, head.jaccard, head.converged) == (len(s), s.jaccard, s.converged)
    data = path.read_bytes()
    edits = [lambda d: d.replace(b'"version":2', b'"version":1'),
             lambda d: re.sub(rb'"J":[^,}]+', b'"J":NaN', d, count=1),
             lambda d: re.sub(rb'"seed":\d+', b'"seed":1e400', d),
             lambda d: d.replace(b'"seed":', b'"seed": ', 1),
             # the plant's parameters are written in key order
             lambda d: re.sub(rb'"params":\{[^}]*\}',
                              b'"params":{"u_min":-300.0,"gamma1":0.0,"gamma2":0.1,"u_max":300.0}',
                              d),
             lambda d: d.split(b"\n", 1)[0],
             lambda d: b"",
             lambda d: _edit_header(d, _CHECKPOINT_EDITS["no-checkpoints"])]
    for edit in edits:
        path.write_bytes(edit(data))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            sampler.read_header(path)


@pytest.mark.parametrize("edit", list(_NON_CANONICAL.values()), ids=list(_NON_CANONICAL))
def test_load_rejects_non_canonical(tmp_path, di, edit):
    sysm, input_box = di
    s = run_sampling(sysm, input_box, REFERENCE_BOUNDS, n_min=200, delta=0.5,
                     growth=3.0, seed=5, n_start=243)
    path = tmp_path / "samples.jsonl"
    save_samples(s, path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
        load_samples(path)


# -- edits deep in a long file -------------------------------------------------

@pytest.fixture(scope="module")
def sample_file(tmp_path_factory, di):
    """A saved 729-row sample set's bytes."""
    sysm, input_box = di
    s = run_sampling(sysm, input_box, REFERENCE_BOUNDS, n_min=500, delta=0.5,
                     growth=3.0, seed=5, n_start=243)
    path = tmp_path_factory.mktemp("long") / "samples.jsonl"
    save_samples(s, path)
    return path.read_bytes()


def _row_starts(data: bytes) -> list[int]:
    return [m.end() for m in re.finditer(b"\n", data)][:-1]


@pytest.mark.parametrize("location", ["last-chunk", "at-cut", "across-cut"])
@pytest.mark.parametrize("edit", list(_NON_CANONICAL.values()), ids=list(_NON_CANONICAL))
def test_chunked_load_rejects_non_canonical(tmp_path, sample_file, edit, location):
    """The rows are checked as one chunk, so every edit is refused wherever it
    starts: at the third-last row ("last-chunk"), at the row before the first
    row past the middle byte ("at-cut"), or one row earlier ("across-cut"),
    where misaligned rows widen one row in the middle of the file and narrow
    the next."""
    starts = _row_starts(sample_file)
    middle = next(at for at in starts if at >= len(sample_file) // 2)
    row = {"last-chunk": len(starts) - 3, "at-cut": starts.index(middle) - 1,
           "across-cut": starts.index(middle) - 2}[location]
    at = starts[row]
    edited = sample_file[:at] + edit(sample_file[at:])
    assert edited != sample_file and row > 0
    path = tmp_path / "samples.jsonl"
    path.write_bytes(edited)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
        load_samples(path)


@pytest.mark.parametrize("edit", list(_NON_CANONICAL.values()), ids=list(_NON_CANONICAL))
def test_sliced_load_rejects_non_canonical(tmp_path, sample_file, monkeypatch, edit):
    """Read in slices of two or three rows, a file loads to the states,
    labels and digest that one slice gives, and an edit starting at its
    middle row is refused."""
    path = tmp_path / "samples.jsonl"
    path.write_bytes(sample_file)
    whole = load_samples(path)
    monkeypatch.setattr(sampler, "HASH_BLOCK", 100)
    sliced = load_samples(path)
    assert sliced.states.tobytes() == whole.states.tobytes()
    assert sliced.labels.tobytes() == whole.labels.tobytes()
    assert sliced.checksum() == whole.checksum() == hashlib.sha256(sample_file).hexdigest()
    starts = _row_starts(sample_file)
    at = starts[len(starts) // 2]
    path.write_bytes(sample_file[:at] + edit(sample_file[at:]))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
        load_samples(path)
