import json
from pathlib import Path

import pytest

from cbfsynth.cli import main
from cbfsynth.config import ConfigError, load_config, parse_config

REPO_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "double_integrator.cfg"


def tiny_config(tmp_path: Path, out: str, modes: str = "uniform", seed: int = 3,
                delta: str = "1.0", margin: str = "auto",
                extra_sampling: str = "") -> Path:
    text = f"""
[system]
name = double_integrator

[sampling]
lower = -10.0, -40.0
upper = 0.0, 40.0
n_min = 200
delta = {delta}
growth = 3.0
n_start = 243
seed = {seed}
{extra_sampling}

[fit]
modes = {modes}
num_cbfs = 2
margin = {margin}
restarts = 1
iterations = 40
population = 4

[simulate]
x_init = -9, -30
x_goal = 0.0, 0.0
horizon = 0.5

[output]
dir = {out}
"""
    path = tmp_path / "config.cfg"
    path.write_text(text)
    return path


# -- grammar ----------------------------------------------------------------

def test_shipped_config_parses():
    cfg = load_config(REPO_CONFIG)
    assert cfg.system_name == "double_integrator"
    assert cfg.sampling["seed"] == 3
    assert cfg.fit["modes"] == ["uniform", "nonuniform", "multi"]
    assert len(cfg.simulate["x_init"]) == 4


def test_parse_reports_line_and_column():
    bad = "[sampling]\nlower = -1, -1\nupper = 1, 1\nbogus_key = 3\n"
    bad = "[system]\nname = double_integrator\n" + bad + \
          "[simulate]\nx_init = 0, 0\nx_goal = 0, 0\n"
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "bogus_key" in str(err.value)
    assert "line 6" in str(err.value)


def test_parse_syntax_errors():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("lower = 1\n")              # assignment before a section
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("[system]\njust some text\n")
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config("[system]\nname = a\nname = b\n")
    with pytest.raises(ConfigError, match="duplicate section"):
        parse_config("[system]\nname = a\n[system]\n")
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[system]\nname = double_integrator\n[universe]\nkey = 1\n")


def test_parse_value_errors():
    base = "[system]\nname = double_integrator\n[simulate]\nx_init = 0, 0\nx_goal = 0, 0\n"
    with pytest.raises(ConfigError, match="bad int"):
        parse_config(base + "[sampling]\nlower = -1, -1\nupper = 1, 1\nn_min = soon\n")
    with pytest.raises(ConfigError, match="bad bool"):
        parse_config(base + "[boundary]\nbox_face_is_boundary = maybe\n"
                            "[sampling]\nlower = -1, -1\nupper = 1, 1\n")
    with pytest.raises(ConfigError, match="missing required"):
        parse_config("[system]\nname = double_integrator\n"
                     "[sampling]\nlower = -1, -1\nupper = 1, 1\n")
    with pytest.raises(ConfigError, match="missing required key 'name'"):
        parse_config("[system]\ngamma1 = 0\n")
    with pytest.raises(ConfigError, match="dimension"):
        parse_config("[system]\nname = double_integrator\n"
                     "[sampling]\nlower = -1, -1\nupper = 1, 1\n"
                     "[simulate]\nx_init = 0, 0, 0\nx_goal = 0, 0\n")


_FINITE_BASE = ("[system]\nname = double_integrator\n[sampling]\nlower = -1, -1\n"
                "upper = 1, 1\n[simulate]\nx_init = 0, 0\nx_goal = 0, 0\n")


@pytest.mark.parametrize("text, line", [
    (_FINITE_BASE.replace("lower = -1, -1", "lower = nan, -1"), 4),
    (_FINITE_BASE + "horizon = inf\n", 9),
    (_FINITE_BASE + "kappa = 5, -inf\n", 9),
    (_FINITE_BASE.replace("x_init = 0, 0", "x_init = 0, 0; nan, 0"), 7),
    (_FINITE_BASE.replace("double_integrator\n", "double_integrator\ngamma2 = inf\n"), 3),
], ids=["vector", "float", "float-list", "state-list", "system-param"])
def test_parse_rejects_non_finite(text, line):
    with pytest.raises(ConfigError, match=rf"finite.*line {line}, col"):
        parse_config(text)


def test_pipeline_rejects_dt_not_dividing_horizon(tmp_path):
    """A 1 s horizon at dt = 0.3 would stop at 0.9 s; it is a config error,
    raised before any stage runs."""
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out))
    cfg.write_text(cfg.read_text().replace("horizon = 0.5", "horizon = 1\ndt = 0.3"))
    assert main(["pipeline", "--config", str(cfg)]) == 2
    assert not (out / "samples.jsonl").exists()


# -- stages ------------------------------------------------------------------

def test_sample_stage_outputs(tmp_path):
    cfg = tiny_config(tmp_path, out=str(tmp_path / "out"))
    assert main(["sample", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    assert (out / "samples.jsonl").exists()
    table = (out / "convergence.csv").read_text().splitlines()
    assert table[0] == "n,J,dJ"
    n, j, dj = table[1].split(",")
    assert int(n) == 243 and 0.0 <= float(j) <= 1.0


def test_sample_nonconvergence_exit_code(tmp_path):
    cfg = tiny_config(tmp_path, out=str(tmp_path / "out"), delta="0.000000001",
                      extra_sampling="n_max = 1000")
    assert main(["sample", "--config", str(cfg)]) == 3
    assert (tmp_path / "out" / "samples.jsonl").exists()


def test_boundary_requires_samples(tmp_path):
    cfg = tiny_config(tmp_path, out=str(tmp_path / "out"))
    assert main(["boundary", "--config", str(cfg)]) == 4


@pytest.mark.parametrize("command, done", [
    ("fit", ["sample"]),
    ("simulate", ["sample", "boundary"]),
], ids=["fit-without-boundary", "simulate-without-candidates"])
def test_missing_artifact_exits_4(tmp_path, capsys, command, done):
    cfg = tiny_config(tmp_path, out=str(tmp_path / "out"))
    for stage in done:
        assert main([stage, "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main([command, "--config", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_boundary_detects_tampering(tmp_path):
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out))
    assert main(["sample", "--config", str(cfg)]) == 0
    path = out / "samples.jsonl"
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace('"residual":', '"residual": ')   # break canonical form
    path.write_text("\n".join(lines) + "\n")
    assert main(["boundary", "--config", str(cfg)]) == 4


def test_fit_detects_stale_boundary(tmp_path):
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out))
    assert main(["sample", "--config", str(cfg)]) == 0
    assert main(["boundary", "--config", str(cfg)]) == 0
    cfg2 = tiny_config(tmp_path, out=str(out), seed=99)
    assert main(["sample", "--config", str(cfg2)]) == 0   # regenerated samples
    assert main(["fit", "--config", str(cfg2)]) == 4


def _infeasible_row(out: Path) -> str:
    for line in (out / "samples.jsonl").read_text().splitlines()[1:]:
        row = json.loads(line)
        if row["class"] != "feasible":
            return json.dumps({"x": row["x"]}, separators=(",", ":"))
    raise AssertionError("no non-feasible sample")


@pytest.mark.parametrize("point", [
    lambda out: '{"x":[-5.0,5.0]}',
    _infeasible_row,
], ids=["off-sample", "non-feasible-sample"])
def test_fit_rejects_boundary_point_outside_feasible_samples(tmp_path, capsys, point):
    """Extraction keeps feasible sample rows only, so a boundary file holding
    any other point was edited after extraction."""
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out))
    for stage in ("sample", "boundary"):
        assert main([stage, "--config", str(cfg)]) == 0
    path = out / "boundary.jsonl"
    lines = path.read_text().splitlines()
    assert len(lines) > 2
    lines[1] = point(out)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["fit", "--config", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("integrity error:") and err.count("\n") == 1
    assert not (out / "candidates_uniform.json").exists()


def _widen_rows(data: bytes) -> bytes:
    """Prepend one coordinate to every sample row, keeping the canonical form."""
    head, _, body = data.partition(b"\n")
    return head + b"\n" + body.replace(b'{"x":[', b'{"x":[0.0,')


_CORRUPT = {"truncate": lambda data: data[:len(data) // 2],
            "append": lambda data: data + b"{garbled\n",
            "widen": _widen_rows}


@pytest.mark.parametrize("command, artifact, corrupt", [
    ("fit", "samples.jsonl", "truncate"),
    ("fit", "boundary.jsonl", "append"),
    ("simulate", "candidates_uniform.json", "truncate"),
    ("boundary", "samples.jsonl", "widen"),
], ids=["truncated-samples", "garbled-boundary", "truncated-candidates", "wide-sample-rows"])
def test_unparsable_artifact_is_integrity_failure(tmp_path, capsys, command, artifact,
                                                  corrupt):
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out))
    for stage in ("sample", "boundary", "fit"):
        assert main([stage, "--config", str(cfg)]) == 0
    path = out / artifact
    path.write_bytes(_CORRUPT[corrupt](path.read_bytes()))
    capsys.readouterr()
    assert main([command, "--config", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("integrity error:") and err.count("\n") == 1


@pytest.mark.parametrize("command, edit, argv", [
    ("boundary", lambda text: text, ["--seed", "77"]),
    ("fit", lambda text: text.replace("upper = 0.0, 40.0", "upper = 5.0, 40.0"), []),
    ("boundary", lambda text: text.replace("seed = 3", "seed = 3\nzero_tol = 1e-6"), []),
], ids=["seed", "bounds", "zero-tol"])
def test_stale_sample_file_is_integrity_failure(tmp_path, capsys, command, edit, argv):
    """A sample file drawn for another seed, box or tolerance than the config's
    is stale: the standalone stages refuse it instead of using it."""
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out))
    for stage in ("sample", "boundary"):
        assert main([stage, "--config", str(cfg)]) == 0
    cfg.write_text(edit(cfg.read_text()))
    capsys.readouterr()
    assert main([command, "--config", str(cfg), *argv]) == 4
    err = capsys.readouterr().err
    assert err.startswith("integrity error:") and err.count("\n") == 1


def test_explicit_default_zero_tol_matches_auto(tmp_path):
    """`zero_tol = auto` samples with the default coefficient, so a config that
    spells that coefficient out still accepts the file."""
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out))
    assert main(["sample", "--config", str(cfg)]) == 0
    cfg2 = tiny_config(tmp_path, out=str(out), extra_sampling="zero_tol = 1e-9")
    assert main(["boundary", "--config", str(cfg2)]) == 0


def test_fit_infeasible_exit_code(tmp_path):
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out), margin="1000000000.0")
    assert main(["sample", "--config", str(cfg)]) == 0
    assert main(["boundary", "--config", str(cfg)]) == 0
    assert main(["fit", "--config", str(cfg)]) == 5


def test_full_stage_sequence_and_simulate(tmp_path):
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out))
    for stage in ("sample", "boundary", "fit"):
        assert main([stage, "--config", str(cfg)]) == 0
    assert (out / "candidates_uniform.json").exists()
    assert main(["simulate", "--config", str(cfg), "--mode", "uniform"]) == 0
    assert (out / "traj_uniform_1.csv").exists()
    manifest = json.loads((out / "run_uniform_1.json").read_text())
    assert manifest["breaches"]["z_breach_steps"] == 0


def test_dry_run_touches_nothing(tmp_path):
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out))
    assert main(["pipeline", "--config", str(cfg), "--dry-run"]) == 0
    assert list(out.iterdir()) == []


def test_bad_config_exit_code(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[system]\ngamma1 = 0.0\n")
    assert main(["sample", "--config", str(path)]) == 2
    path.write_text("[system]\nname = warp_drive\n[sampling]\nlower = -1, -1\n"
                    "upper = 1, 1\n[simulate]\nx_init = 0, 0\nx_goal = 0, 0\n")
    assert main(["sample", "--config", str(path)]) == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["sample"])   # missing --config
    assert exc.value.code == 2


def test_pipeline_caching_and_stage_isolation(tmp_path):
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out))
    assert main(["pipeline", "--config", str(cfg)]) == 0
    files = ["samples.jsonl", "boundary.jsonl", "candidates_uniform.json",
             "report.md", "convergence.csv"]
    snapshot = {f: (out / f).read_bytes() for f in files}
    # rerun: cached stages keep every artifact byte-identical
    assert main(["pipeline", "--config", str(cfg)]) == 0
    for f in files:
        assert (out / f).read_bytes() == snapshot[f]
    # deleting an intermediate regenerates it identically
    (out / "boundary.jsonl").unlink()
    assert main(["pipeline", "--config", str(cfg)]) == 0
    for f in files:
        assert (out / f).read_bytes() == snapshot[f]
    # a non-canonical edit of the sample file is a cache miss: re-sampled, not refused
    path = out / "samples.jsonl"
    path.write_bytes(snapshot["samples.jsonl"].replace(b'"residual":', b'"residual": ', 1))
    assert main(["pipeline", "--config", str(cfg)]) == 0
    for f in files:
        assert (out / f).read_bytes() == snapshot[f]


def test_pipeline_calls_fit_entry_through_module(tmp_path, monkeypatch):
    """The fit stage looks `fit_<mode>` up on `cbfsynth.fitter` when it runs,
    so a wrapper installed there sees every fit and no cached re-run."""
    from cbfsynth import fitter
    calls = []
    original = fitter.fit_uniform

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(fitter, "fit_uniform", counting)
    cfg = tiny_config(tmp_path, out=str(tmp_path / "out"))
    assert main(["pipeline", "--config", str(cfg)]) == 0
    assert len(calls) == 1
    assert main(["pipeline", "--config", str(cfg)]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("edit", [
    lambda st: [], lambda st: 3, lambda st: "sample", lambda st: None,
    lambda st: {"sample": []}, lambda st: {"fit": 3},
    lambda st: {**st, "fit": {**st["fit"], "outputs": 3}},
], ids=["list", "number", "string", "null", "list-entry", "number-entry",
        "number-fit-outputs"])
def test_pipeline_non_object_stage_state_reruns_stages(tmp_path, edit):
    """Valid JSON that is not an object, a stage entry that is not one, or a
    fit entry whose `outputs` is not one, is treated like an undecodable cache."""
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out))
    assert main(["pipeline", "--config", str(cfg)]) == 0
    snapshot = (out / "candidates_uniform.json").read_bytes()
    state = json.loads((out / "stage_state.json").read_text())
    (out / "stage_state.json").write_text(json.dumps(edit(state)))
    assert main(["pipeline", "--config", str(cfg)]) == 0
    assert (out / "candidates_uniform.json").read_bytes() == snapshot
    state = json.loads((out / "stage_state.json").read_text())
    assert isinstance(state, dict) and isinstance(state["fit"]["outputs"], dict)


def test_seed_override_changes_samples(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg = tiny_config(tmp_path, out=str(out_a))
    assert main(["sample", "--config", str(cfg)]) == 0
    assert main(["sample", "--config", str(cfg), "--out", str(out_b), "--seed", "77"]) == 0
    assert (out_a / "samples.jsonl").read_bytes() != (out_b / "samples.jsonl").read_bytes()
