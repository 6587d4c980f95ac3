import hashlib
import json
import random
import re
import shutil
import warnings
from pathlib import Path

import pytest

from cbfsynth.boundary import boundary_bytes, load_boundary
from cbfsynth.cli import main
from cbfsynth.config import _SCHEMA, ConfigError, load_config, parse_config

from conftest import run_fresh

REPO_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "double_integrator.cfg"


_PLANT = "name = double_integrator"


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


def test_modes_stored_in_run_order():
    """The fit modes run uniform, nonuniform, multi, each warm-starting the
    next, in whatever order the config lists them."""
    text = REPO_CONFIG.read_text().replace("modes = uniform, nonuniform, multi",
                                           "modes = multi, uniform")
    assert parse_config(text).fit["modes"] == ["uniform", "multi"]


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
    with pytest.raises(ConfigError, match="3 axes, system 'double_integrator' has 2 states"):
        parse_config("[system]\nname = double_integrator\n"
                     "[sampling]\nlower = -1, -1, -1\nupper = 1, 1, 1\n"
                     "[simulate]\nx_init = 0, 0, 0\nx_goal = 0, 0, 0\n")


def test_parse_refuses_invalid_key():
    with pytest.raises(ConfigError, match=r"^invalid key '9lives' \(line 2, col 1\)$"):
        parse_config("[system]\n9lives = 3\n")


def test_parse_refuses_empty_name():
    with pytest.raises(ConfigError,
                       match=r"^bad name value '': empty value \(line 2, col 7\)$"):
        parse_config("[system]\nname =\n")


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


def test_parse_refuses_lower_above_upper():
    with pytest.raises(ConfigError, match=r"^sampling: box has lower\[i\] > upper\[i\]$"):
        parse_config(_FINITE_BASE.replace("lower = -1, -1", "lower = 2, -1"))


def test_pipeline_rejects_dt_not_dividing_horizon(tmp_path):
    """A 1 s horizon at dt = 0.3 would stop at 0.9 s; it is a config error,
    raised before any stage runs."""
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out))
    cfg.write_text(cfg.read_text().replace("horizon = 0.5", "horizon = 1\ndt = 0.3"))
    assert main(["pipeline", "--config", str(cfg)]) == 2
    assert not (out / "samples.jsonl").exists()


_LATER_STAGE_VALUES = {
    "kappa": ("x_goal = 0.0, 0.0", "x_goal = 0.0, 0.0\nkappa = -1"),
    "kp": ("x_goal = 0.0, 0.0", "x_goal = 0.0, 0.0\nkp = 0"),
    "spline-t": ("x_goal = 0.0, 0.0", "x_goal = 0.0, 0.0\nspline_t = 1.0"),
    "x-goal-dimension": ("x_goal = 0.0, 0.0", "x_goal = 0.0, 0.0, 0.0"),
    "num-cbfs-with-multi": ("num_cbfs = 2", "num_cbfs = 1"),
    "margin": ("margin = auto", "margin = -0.5"),
    "probes": ("population = 4", "population = 4\nprobes = 0"),
    "iterations-negative": ("iterations = 40", "iterations = -1"),
    "iterations-zero": ("iterations = 40", "iterations = 0"),
    "population": ("population = 4", "population = -3"),
    "restarts": ("restarts = 1", "restarts = -2"),
    "volume-3-wide": ("population = 4", "population = 4\nvolume_lower = -10, -40, 0\n"
                                        "volume_upper = 0, 40, 1"),
    "volume-lower-above-upper": ("population = 4", "population = 4\nvolume_lower = -5, 0\n"
                                                   "volume_upper = -6, 10"),
    "volume-lower-alone": ("population = 4", "population = 4\nvolume_lower = -10, -40"),
    "volume-zero": ("population = 4", "population = 4\nvolume_lower = -10, -40\n"
                                      "volume_upper = -10, 40"),
    "volume-off-box": ("population = 4", "population = 4\nvolume_lower = 100, 100\n"
                                         "volume_upper = 101, 101"),
    "repeated-mode": ("modes = uniform, multi", "modes = uniform, multi, uniform"),
    "no-modes": ("modes = uniform, multi", "modes ="),
    "x-init-empty": ("x_init = -9, -30", "x_init = ;"),
    "system-name": ("name = double_integrator", "name = nosuch"),
    "system-gamma2": ("name = double_integrator", "name = double_integrator\ngamma2 = -1"),
    "system-input-box": ("name = double_integrator",
                         "name = double_integrator\nu_min = 5\nu_max = -5"),
    "n-start-zero": ("n_start = 243", "n_start = 0"),
    "n-min-zero": ("n_min = 200", "n_min = 0"),
    "boundary-epsilon-zero": ("[fit]", "[boundary]\nepsilon = 0\n\n[fit]"),
    "boundary-epsilon-negative": ("[fit]", "[boundary]\nepsilon = -0.5\n\n[fit]"),
    "zero-tol-negative": ("n_start = 243", "n_start = 243\nzero_tol = -1"),
    "n-max-below-n-start": ("n_start = 243", "n_start = 243\nn_max = -5"),
    "x-init-outside-box": ("x_init = -9, -30", "x_init = -9, -30; -1.7e308, -1e308"),
    "on-infeasible": ("x_goal = 0.0, 0.0", "x_goal = 0.0, 0.0\non_infeasible = stop"),
    "objective-integral": ("population = 4", "population = 4\nobjective = integral"),
    "fit-seed-negative": ("population = 4", "population = 4\nseed = -7"),
    # the fit also keys Philox with seed + 1 and seed + 0x9E3779B9
    "fit-seed-key-overflow": ("population = 4", f"population = 4\nseed = {2**128 - 0x9E3779B9}"),
    "sampling-seed-negative": ("seed = 3", "seed = -1"),
    "sampling-seed-overflow": ("seed = 3", f"seed = {2**128}"),
    "dt-zero": ("x_goal = 0.0, 0.0", "x_goal = 0.0, 0.0\ndt = 0"),
    "box-zero-width": ("lower = -10.0, -40.0\nupper = 0.0, 40.0", "lower = -5, 0\nupper = -5, 0"),
    # the fit's rule: zero width on one axis is zero volume; the start lies on
    # the line, so no other check refuses the config
    "box-an-axis-zero-width": [("lower = -10.0, -40.0\nupper = 0.0, 40.0",
                                "lower = -10.0, 0.0\nupper = 0.0, 0.0"),
                               ("x_init = -9, -30", "x_init = -9, 0")],
}


# cases setting a key that no longer exists: its one-line message names it as unknown
_REMOVED_KEYS = {"spline-t": "spline_t", "on-infeasible": "on_infeasible",
                 "objective-integral": "objective",
                 **{case: "volume_lower" for case in _LATER_STAGE_VALUES
                    if case.startswith("volume-")}}
# cases whose message names the setting
_NAMED_IN_MESSAGE = {"fit-seed-negative": "fit: seed", "fit-seed-key-overflow": "fit: seed",
                     "sampling-seed-negative": "sampling: seed",
                     "sampling-seed-overflow": "sampling: seed",
                     "box-zero-width": "sampling: the box has zero width",
                     "box-an-axis-zero-width": "sampling: the box has zero width"}


@pytest.mark.parametrize("key", list(_LATER_STAGE_VALUES))
def test_later_stage_values_rejected_at_parse(tmp_path, capsys, key):
    """Values only the fit or simulate stage uses are checked when the config
    is parsed: a dry run refuses them, and a pipeline stops before sampling.
    A case is one (old, new) text edit or a list of them."""
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out), modes="uniform, multi")
    edits = _LATER_STAGE_VALUES[key]
    text = cfg.read_text()
    for old, new in edits if isinstance(edits, list) else [edits]:
        assert old in text
        text = text.replace(old, new, 1)
    cfg.write_text(text)
    capsys.readouterr()
    assert main(["pipeline", "--config", str(cfg), "--dry-run"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    if key in _REMOVED_KEYS:
        assert f"unknown key {_REMOVED_KEYS[key]!r}" in err, err
    if key in _NAMED_IN_MESSAGE:
        assert _NAMED_IN_MESSAGE[key] in err, err
    assert main(["pipeline", "--config", str(cfg)]) == 2
    assert not (out / "samples.jsonl").exists()


def test_largest_seeds_run(tmp_path):
    """The seed checks' bounds are tight: a pipeline with the largest
    sampling seed, and with the largest fit seed whose every key Philox
    takes, runs each stage through the uniform and multi fits. The multi
    fit of these draws collapses one of its two tuples, and says so."""
    cfg = tiny_config(tmp_path, out=str(tmp_path / "out"), seed=2**128 - 1,
                      modes="uniform, multi")
    cfg.write_text(cfg.read_text().replace(
        "population = 4", f"population = 4\nseed = {2**128 - 0x9E3779B9 - 1}"))
    with pytest.warns(UserWarning, match="collapsed 1 redundant"):
        assert main(["pipeline", "--config", str(cfg)]) == 0


@pytest.mark.parametrize("dry_run", [True, False], ids=["dry-run", "run"])
def test_seed_override_checked_before_any_stage(tmp_path, capsys, dry_run):
    """`--seed` replaces the sampling seed after the config is parsed; the
    replacement gets the parse-time check, so -1 exits 2 with one line naming
    the key, and nothing is written."""
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out))
    capsys.readouterr()
    argv = ["pipeline", "--config", str(cfg), "--seed", "-1"]
    assert main(argv + ["--dry-run"] * dry_run) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: sampling: seed") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("settings, expect", [
    ("n_min = 300\nn_max = 299\ngrowth = 3.0", "sampling: n_max"),
    ("n_min = 300\nn_max = 300\ngrowth = 3.0", [243, 300]),
    # 243 * 1.002 = 243.486 rounds back to 243; 243 * 1.0021 = 243.51 rounds to 244
    ("n_min = 250\ngrowth = 1.002", "sampling: growth"),
    ("n_min = 250\ngrowth = 1.0021", list(range(243, 251))),
], ids=["n-max-below-n-min", "n-max-at-n-min", "growth-below-a-step", "growth-above-a-step"])
def test_schedule_that_cannot_finish_is_refused_at_parse(tmp_path, capsys, settings, expect):
    """An n_max below n_min can never converge, and a growth whose first step
    rounds back to n_start never advances: each exits 2 at parse, dry run or
    not, with one line naming its setting, and nothing is written. Just
    inside either bound, the sample stage steps through the expected
    checkpoints up to n_min and converges."""
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out))
    text = cfg.read_text().replace("n_min = 200\n", "").replace("growth = 3.0\n", "")
    cfg.write_text(text.replace("[sampling]\n", f"[sampling]\n{settings}\n"))
    capsys.readouterr()
    if isinstance(expect, str):
        for argv in (["--dry-run"], []):
            assert main(["pipeline", "--config", str(cfg), *argv]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {expect}") and err.count("\n") == 1, err
        assert not out.exists()
        return
    assert main(["sample", "--config", str(cfg)]) == 0
    table = (out / "convergence.csv").read_text().splitlines()[1:]
    assert [int(line.split(",")[0]) for line in table] == expect


def test_overflowing_growth_caps_the_next_checkpoint(tmp_path, capsys):
    """A growth whose next checkpoint overflows a float stops at n_max, as
    any checkpoint past n_max does: the run ends unconverged (exit 3) with
    no traceback."""
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out), delta="1e-9", extra_sampling="n_max = 500")
    cfg.write_text(cfg.read_text().replace("growth = 3.0", "growth = 1e308"))
    assert main(["pipeline", "--config", str(cfg), "--dry-run"]) == 0
    assert main(["pipeline", "--config", str(cfg)]) == 3
    lines = (out / "convergence.csv").read_text().splitlines()
    assert [ln.split(",")[0] for ln in lines] == ["n", "243", "500"]


def test_readme_config_block_names_every_key():
    """The README's `ini` reference block parses, and sets every key the
    schema accepts, so a key added or deleted cannot leave it stale."""
    text = (REPO_CONFIG.parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```ini\n(.*?)^```", text, flags=re.S | re.M)
    assert len(blocks) == 1
    parse_config(blocks[0])
    section, keys = None, set()
    for line in blocks[0].splitlines():
        if m := re.match(r"\[(\w+)\]", line):
            section = m.group(1)
        elif m := re.match(r"(\w+) *=", line):
            keys.add((section, m.group(1)))
    assert {(s, k) for s, schema in _SCHEMA.items() for k in schema} <= keys


def test_dry_run_and_simulate_load_no_scipy(tmp_path):
    """Only an infeasible QP's phase-1 LP uses scipy. A fresh process that
    imports the package, checks the config with a dry run, runs a cold
    pipeline, simulates the fitted candidates and runs a pipeline that reuses
    every stage never loads it."""
    cfg = tiny_config(tmp_path, out=str(tmp_path / "out"))
    out = run_fresh("""
        import json
        import sys

        def scipy():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

        import cbfsynth
        loaded = {"import": scipy()}
        from cbfsynth.cli import main
        assert main(["pipeline", "--config", sys.argv[1], "--dry-run"]) == 0
        loaded["dry-run"] = scipy()
        assert main(["pipeline", "--config", sys.argv[1]]) == 0
        loaded["cold pipeline"] = scipy()
        assert main(["simulate", "--config", sys.argv[1]]) == 0
        loaded["simulate"] = scipy()
        assert main(["pipeline", "--config", sys.argv[1]]) == 0
        loaded["pipeline"] = scipy()
        print(json.dumps(loaded))
    """, str(cfg))
    assert " points, epsilon=" in out and "\nfit[uniform]: objective=" in out   # cold stages
    assert "simulate[uniform] start 1" in out
    for stage in ("sample", "boundary", "fit", "simulate[uniform]"):
        assert f"\n{stage}: reusing " in out, stage
    assert json.loads(out.splitlines()[-1]) == {"import": [], "dry-run": [],
                                                "cold pipeline": [], "simulate": [],
                                                "pipeline": []}


def test_zero_horizon_rejected_at_parse(tmp_path, capsys):
    """A zero-step run shows nothing, so it cannot back the report's
    closed-loop safety rows: horizon = 0 is a config error."""
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out))
    cfg.write_text(cfg.read_text().replace("horizon = 0.5", "horizon = 0"))
    capsys.readouterr()
    assert main(["pipeline", "--config", str(cfg), "--dry-run"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "horizon" in err and err.count("\n") == 1
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


_NOT_A_DIRECTORY = "not a directory\n"


@pytest.mark.parametrize("case, code, expect", [
    ("config-missing", 2, "config error: [Errno 2] No such file or directory"),
    ("config-directory", 2, "config error: [Errno 21] Is a directory"),
    ("config-not-utf8", 2, "config error: 'utf-8' codec can't decode byte 0xff"),
    ("out-is-a-file", 2, "config error: output directory: [Errno 17] File exists"),
    ("out-is-a-file-dry-run", 2, "config error: output directory: [Errno 17] File exists"),
    ("out-under-a-file-dry-run", 2, "config error: output directory: [Errno 20] Not a directory"),
    ("candidates-directory", 4, "error: [Errno 21] Is a directory"),
], ids=["config-missing", "config-directory", "config-not-utf8", "out-is-a-file",
        "out-is-a-file-dry-run", "out-under-a-file-dry-run", "candidates-directory"])
def test_bad_path_exits_with_one_line(tmp_path, capsys, case, code, expect):
    """A config path that cannot be read or decoded, and an `--out` that
    cannot be a directory, with `--dry-run` as without, are config errors:
    exit 2 with one `config error:` line, the real run's, and nothing
    written. Any other path a stage cannot read is an artifact fault: exit 4
    with one `error:` line. None ends in a traceback."""
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out))
    blocker = tmp_path / "blocker"
    blocker.write_text(_NOT_A_DIRECTORY)
    undecodable = tmp_path / "bad.cfg"
    undecodable.write_bytes(b"\xff\xfe[system]\n")
    argv = {"config-missing": ["sample", "--config", str(tmp_path / "nope.cfg")],
            "config-directory": ["sample", "--config", str(tmp_path)],
            "config-not-utf8": ["sample", "--config", str(undecodable)],
            "out-is-a-file": ["sample", "--config", str(cfg), "--out", str(blocker)],
            "out-is-a-file-dry-run": ["sample", "--config", str(cfg), "--out", str(blocker),
                                      "--dry-run"],
            "out-under-a-file-dry-run": ["sample", "--config", str(cfg), "--out",
                                         str(blocker / "sub" / "out"), "--dry-run"],
            "candidates-directory": ["simulate", "--config", str(cfg),
                                     "--candidates", str(tmp_path)]}[case]
    capsys.readouterr()
    assert main(argv) == code
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith(expect) and err.count("\n") == 1, err
    assert captured.out == ""
    assert blocker.read_text() == _NOT_A_DIRECTORY
    assert not (out / "samples.jsonl").exists()
    assert not out.exists() or case == "candidates-directory"


@pytest.mark.parametrize("where", ["file", "under-file", "link", "under-link"])
def test_dry_run_refuses_out_as_the_run_does(tmp_path, capsys, where):
    """`--dry-run` refuses an `--out` at or under a file or a dangling link
    with exactly the real run's line, and neither makes a directory."""
    cfg = tiny_config(tmp_path, out=str(tmp_path / "out"))
    blocker = tmp_path / "blocker"
    if where.endswith("file"):
        blocker.write_text(_NOT_A_DIRECTORY)
    else:
        blocker.symlink_to(tmp_path / "nowhere")
    out = blocker / "sub" / "out" if where.startswith("under") else blocker
    lines = []
    for dry in (["--dry-run"], []):
        capsys.readouterr()
        assert main(["sample", "--config", str(cfg), "--out", str(out)] + dry) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        lines.append(captured.err)
    assert lines[0] == lines[1]
    assert lines[0].startswith("config error: output directory: [Errno ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "config.cfg"]


def test_boundary_detects_tampering(tmp_path):
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out))
    assert main(["sample", "--config", str(cfg)]) == 0
    path = out / "samples.jsonl"
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace('"class":', '"class": ')   # break canonical form
    path.write_text("\n".join(lines) + "\n")
    assert main(["boundary", "--config", str(cfg)]) == 4


def _assert_one_integrity_line(err: str, path: Path) -> None:
    assert err.startswith("integrity error:") and err.count("\n") == 1, err
    assert err.count(str(path)) == 1, err


def test_fit_detects_stale_boundary(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out))
    assert main(["sample", "--config", str(cfg)]) == 0
    assert main(["boundary", "--config", str(cfg)]) == 0
    cfg2 = tiny_config(tmp_path, out=str(out), seed=99)
    assert main(["sample", "--config", str(cfg2)]) == 0   # regenerated samples
    capsys.readouterr()
    assert main(["fit", "--config", str(cfg2)]) == 4
    _assert_one_integrity_line(capsys.readouterr().err, out / "boundary.jsonl")


def test_pipeline_detects_stale_boundary(tmp_path, capsys):
    """A boundary file whose digest the stage state records, but which was
    extracted from another sample file, fails integrity with one line."""
    out, other = tmp_path / "out", tmp_path / "other"
    cfg = tiny_config(tmp_path, out=str(out))
    assert main(["pipeline", "--config", str(cfg)]) == 0
    for stage in ("sample", "boundary"):
        assert main([stage, "--config", str(cfg), "--out", str(other), "--seed", "99"]) == 0
    data = (other / "boundary.jsonl").read_bytes()
    (out / "boundary.jsonl").write_bytes(data)
    state = json.loads((out / "stage_state.json").read_text())
    state["boundary"]["output"] = hashlib.sha256(data).hexdigest()
    (out / "stage_state.json").write_text(json.dumps(state))
    capsys.readouterr()
    assert main(["pipeline", "--config", str(cfg)]) == 4
    _assert_one_integrity_line(capsys.readouterr().err, out / "boundary.jsonl")


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


def _split_boundary_row(data: bytes) -> bytes:
    """Break the first boundary row over two lines and put the next two rows on
    one line, so the file keeps as many lines as rows."""
    head, first, second, third, rest = data.split(b"\n", 4)
    return b"\n".join([head, first.replace(b",", b"\n", 1), second + b"," + third, rest])


_CORRUPT = {"truncate": lambda data: data[:len(data) // 2],
            "append": lambda data: data + b"{garbled\n",
            "widen": _widen_rows,
            # `%a` writes a non-finite coordinate as nan, so the file stays canonical
            "nan-coordinate": lambda data: re.sub(rb'\n\{"x":\[[^,]+', b'\n{"x":[nan', data,
                                                  count=1),
            "nan-offset": lambda data: re.sub(rb'"offset":[^,}]+', b'"offset":NaN', data),
            # `json.dumps` writes a non-finite header number as NaN, so this stays canonical
            "nan-header-J": lambda data: re.sub(rb'"J":[^,}]+', b'"J":NaN', data, count=1),
            # json reads 1e400 as inf, past the check for NaN and Infinity
            "overflow-header-seed": lambda data: re.sub(rb'"seed":\d+', b'"seed":1e400', data),
            # canonical, but the summary is not that of the rows below it
            "foreign-checkpoint": lambda data: re.sub(
                rb'\{"n":\d+,"J":[^}]+\}\],"converged"', b'{"n":177147,"J":0.819}],"converged"',
                data, count=1),
            "nan-boundary-epsilon": lambda data: re.sub(rb'"epsilon":[^,}]+', b'"epsilon":NaN',
                                                        data),
            "widen-candidate": lambda data: data.replace(b'],"shift"', b',1.0],"shift"')
                                                .replace(b'],"offset"', b',0.0],"offset"'),
            # boundary header fields of the wrong type, or out of step with the points
            "list-boundary-normalized": lambda data: data.replace(b'"normalized":true',
                                                                  b'"normalized":[1,2,3]'),
            "string-boundary-epsilon": lambda data: re.sub(rb'"epsilon":([^,}]+)',
                                                           rb'"epsilon":"\1"', data),
            "string-boundary-empty-warning": lambda data: data.replace(
                b'"empty_warning":false', b'"empty_warning":"no"'),
            "boundary-empty-warning-with-points": lambda data: data.replace(
                b'"empty_warning":false', b'"empty_warning":true'),
            # boundary lines that are not one row each
            "two-rows-on-a-line": lambda data: data.replace(b'}\n{"x"', b'},{"x"', 1),
            "blank-line": lambda data: data.replace(b'}\n{"x"', b'}\n\n{"x"', 1),
            "line-not-an-object": lambda data: re.sub(rb'\n\{"x":(\[[^\]]*\])\}', rb'\n\1',
                                                      data, count=1),
            "row-without-x": lambda data: data.replace(b'{"x":', b'{"y":', 1),
            "row-across-lines": _split_boundary_row}


@pytest.mark.parametrize("command, artifact, corrupt", [
    ("fit", "samples.jsonl", "truncate"),
    ("fit", "boundary.jsonl", "append"),
    ("simulate", "candidates_uniform.json", "truncate"),
    ("boundary", "samples.jsonl", "widen"),
    ("boundary", "samples.jsonl", "nan-coordinate"),
    ("simulate", "candidates_uniform.json", "nan-offset"),
    ("simulate", "candidates_uniform.json", "widen-candidate"),
    ("boundary", "samples.jsonl", "nan-header-J"),
    ("fit", "boundary.jsonl", "nan-boundary-epsilon"),
    ("boundary", "samples.jsonl", "foreign-checkpoint"),
    ("boundary", "samples.jsonl", "overflow-header-seed"),
    ("fit", "boundary.jsonl", "list-boundary-normalized"),
    ("fit", "boundary.jsonl", "string-boundary-epsilon"),
    ("fit", "boundary.jsonl", "string-boundary-empty-warning"),
    ("fit", "boundary.jsonl", "boundary-empty-warning-with-points"),
    ("fit", "boundary.jsonl", "two-rows-on-a-line"),
    ("fit", "boundary.jsonl", "blank-line"),
    ("fit", "boundary.jsonl", "line-not-an-object"),
    ("fit", "boundary.jsonl", "row-without-x"),
    ("fit", "boundary.jsonl", "row-across-lines"),
], ids=["truncated-samples", "garbled-boundary", "truncated-candidates", "wide-sample-rows",
        "nan-sample-coordinate", "nan-candidate-offset", "wide-candidate", "nan-header-J",
        "nan-boundary-epsilon", "foreign-checkpoint", "overflow-header-seed",
        "list-boundary-normalized", "string-boundary-epsilon", "string-boundary-empty-warning",
        "boundary-empty-warning-with-points", "two-boundary-rows-on-a-line",
        "blank-boundary-line", "boundary-line-not-an-object", "boundary-row-without-x",
        "boundary-row-across-lines"])
def test_unparsable_artifact_is_integrity_failure(tmp_path, capsys, command, artifact,
                                                  corrupt):
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out))
    for stage in ("sample", "boundary", "fit"):
        assert main([stage, "--config", str(cfg)]) == 0
    path = out / artifact
    data = path.read_bytes()
    corrupted = _CORRUPT[corrupt](data)
    assert corrupted != data
    path.write_bytes(corrupted)
    capsys.readouterr()
    assert main([command, "--config", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("integrity error:") and err.count("\n") == 1


@pytest.mark.parametrize("command, edit, argv", [
    ("boundary", lambda text: text, ["--seed", "77"]),
    ("fit", lambda text: text.replace("upper = 0.0, 40.0", "upper = 5.0, 40.0"), []),
    ("boundary", lambda text: text.replace("seed = 3", "seed = 3\nzero_tol = 1e-6"), []),
    ("boundary", lambda text: text.replace(_PLANT, _PLANT + "\ngamma2 = 0.3"), []),
    ("fit", lambda text: text.replace(_PLANT, _PLANT + "\ngamma2 = 0.3"), []),
], ids=["seed", "bounds", "zero-tol", "plant-boundary", "plant-fit"])
def test_stale_sample_file_is_integrity_failure(tmp_path, capsys, command, edit, argv):
    """A sample file drawn for another seed, box, tolerance or plant than the
    config's is stale: the standalone stages refuse it instead of using it."""
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out))
    for stage in ("sample", "boundary"):
        assert main([stage, "--config", str(cfg)]) == 0
    cfg.write_text(edit(cfg.read_text()))
    capsys.readouterr()
    assert main([command, "--config", str(cfg), *argv]) == 4
    err = capsys.readouterr().err
    assert err.startswith("integrity error:") and err.count("\n") == 1


def test_explicit_default_plant_parameter_matches_default(tmp_path):
    """The header records the plant's resolved parameters, so a config that
    spells out a default value names the plant a config leaving it out does."""
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out))
    assert main(["sample", "--config", str(cfg)]) == 0
    head = json.loads((out / "samples.jsonl").read_text().split("\n", 1)[0])
    assert head["params"] == {"gamma1": 0.0, "gamma2": 0.1, "u_max": 300.0, "u_min": -300.0}
    cfg.write_text(cfg.read_text().replace(_PLANT, _PLANT + "\ngamma2 = 0.1\nu_max = 300"))
    assert main(["boundary", "--config", str(cfg)]) == 0


def test_pipeline_resamples_a_file_drawn_for_another_plant(tmp_path):
    """A sample file whose digest the stage state records, but which was drawn
    for another plant than the config's, is a cache miss: sampled again."""
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(tmp_path / "default"))
    assert main(["sample", "--config", str(cfg)]) == 0
    other = (tmp_path / "default" / "samples.jsonl").read_bytes()
    cfg.write_text(cfg.read_text().replace(_PLANT, _PLANT + "\ngamma2 = 0.3"))
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    own = (out / "samples.jsonl").read_bytes()
    assert own != other
    (out / "samples.jsonl").write_bytes(other)
    state = json.loads((out / "stage_state.json").read_text())
    state["sample"]["output"] = hashlib.sha256(other).hexdigest()
    (out / "stage_state.json").write_text(json.dumps(state))
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "samples.jsonl").read_bytes() == own


def _move_row(x: list[float]):
    """Edit: the first sample row moved to `x`, its label kept."""
    def edit(rows: list[dict]) -> None:
        rows[0]["x"] = x
    return edit


def _swap_labels(rows: list[dict]) -> None:
    """Edit: the labels of the first feasible and first infeasible row swapped,
    which keeps every class count and so the checkpoint's J."""
    i = next(k for k, r in enumerate(rows) if r["class"] == "feasible")
    j = next(k for k, r in enumerate(rows) if r["class"] == "infeasible")
    rows[i]["class"], rows[j]["class"] = rows[j]["class"], rows[i]["class"]


def _no_sample_header(out: Path) -> bytes:
    """The sample file cut to its header, whose last checkpoint counts no
    sample, written back in canonical form."""
    head = json.loads((out / "samples.jsonl").read_text().split("\n", 1)[0])
    head["checkpoints"] = [{"n": 0, "J": 0.0}]
    data = json.dumps(head, separators=(",", ":")).encode() + b"\n"
    (out / "samples.jsonl").write_bytes(data)
    return data


@pytest.mark.parametrize("command", ["boundary", "fit"])
def test_sample_file_with_no_rows_is_integrity_failure(tmp_path, capsys, command):
    """A header that counts no sample is no file `run_sampling` writes, so
    a standalone stage refuses it as unparsable: exit 4 with one line."""
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out))
    assert main(["sample", "--config", str(cfg)]) == 0
    _no_sample_header(out)
    capsys.readouterr()
    assert main([command, "--config", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert err == (f"integrity error: {out / 'samples.jsonl'}: cannot parse: "
                   f"the header counts no sample\n")


def test_pipeline_resamples_a_sample_file_with_no_rows(tmp_path):
    """A warm pipeline whose state records the digest of a header-only
    sample file samples again instead of failing on it."""
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out))
    assert main(["pipeline", "--config", str(cfg)]) == 0
    own = (out / "samples.jsonl").read_bytes()
    state = json.loads((out / "stage_state.json").read_text())
    state["sample"]["output"] = hashlib.sha256(_no_sample_header(out)).hexdigest()
    (out / "stage_state.json").write_text(json.dumps(state))
    assert main(["pipeline", "--config", str(cfg)]) == 0
    assert (out / "samples.jsonl").read_bytes() == own


@pytest.mark.parametrize("command", ["boundary", "fit"])
@pytest.mark.parametrize("edit", [_move_row([5.0, 0.0]), _move_row([1e300, -12.6]),
                                  _swap_labels],
                         ids=["row-outside-box", "row-far-outside-box", "swapped-labels"])
def test_sample_rows_contradicting_their_header_are_refused(tmp_path, capsys, command, edit):
    """A canonical sample file whose rows contradict its own header (a row
    outside the header's box, or labels the header's plant does not give)
    fails integrity in the standalone stages that read it: one line, exit 4,
    no warning. The fit stage gets a boundary file extracted from the edited
    rows, so only the rows themselves can refuse it."""
    from cbfsynth.boundary import extract_boundary, save_boundary
    from cbfsynth.sampler import load_samples

    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out))
    assert main(["sample", "--config", str(cfg)]) == 0
    path = out / "samples.jsonl"
    head, *lines = path.read_text().splitlines()
    rows = [json.loads(line) for line in lines]
    edit(rows)
    path.write_text("\n".join([head] + [json.dumps(r, separators=(",", ":")) for r in rows])
                    + "\n")
    s = load_samples(path)   # still a well-formed file
    save_boundary(extract_boundary(s, 0.05), out / "boundary.jsonl")
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(cfg)]) == 4
    assert not caught
    err = capsys.readouterr().err
    assert err.startswith("integrity error:") and err.count("\n") == 1
    assert not (out / "candidates_uniform.json").exists()


@pytest.mark.parametrize("command, artifact, corrupt", [
    ("boundary", "samples.jsonl", lambda data: data.replace(b'"class":', b'"class": ', 1)),
    ("simulate", "candidates_uniform.json",
     lambda data: data.replace(b'"version":1', b'"version":9', 1)),
], ids=["samples", "candidates"])
def test_integrity_error_names_the_file_once(tmp_path, capsys, command, artifact, corrupt):
    """A loader's message already starts with the file's path; the one
    integrity line holds that path exactly once."""
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out))
    for stage in ("sample", "boundary", "fit"):
        assert main([stage, "--config", str(cfg)]) == 0
    path = out / artifact
    path.write_bytes(corrupt(path.read_bytes()))
    capsys.readouterr()
    assert main([command, "--config", str(cfg)]) == 4
    _assert_one_integrity_line(capsys.readouterr().err, path)


# -- seeded corruption of every artifact -------------------------------------

def _on_row(edit):
    """Apply `edit` to one row line of a line-per-record file, chosen by the
    seeded generator; the header line is never chosen."""
    def apply(data: bytes, rng: random.Random) -> bytes:
        lines = data.split(b"\n")
        row = rng.randrange(1, len(lines) - 1)
        lines[row] = edit(lines[row])
        return b"\n".join(lines)
    return apply


def _truncate(data: bytes, rng: random.Random) -> bytes:
    return data[:rng.randrange(1, len(data) - 1)]


def _truncate_at_line_end(data: bytes, rng: random.Random) -> bytes:
    """Whole rows dropped from the end: each kept line is intact."""
    lines = data.split(b"\n")
    return b"\n".join(lines[:rng.randrange(2, len(lines) - 1)]) + b"\n"


def _swap_two_labels(data: bytes, rng: random.Random) -> bytes:
    lines = data.split(b"\n")
    rows = {label: [i for i, line in enumerate(lines) if line.endswith(b'"%s"}' % label)]
            for label in (b"feasible", b"infeasible")}
    i, j = (rng.choice(rows[label]) for label in (b"feasible", b"infeasible"))
    lines[i] = lines[i].replace(b'"feasible"}', b'"infeasible"}')
    lines[j] = lines[j].replace(b'"infeasible"}', b'"feasible"}')
    return b"\n".join(lines)


def _sub(pattern: bytes, repl: bytes):
    return lambda data, rng: re.sub(pattern, repl, data, count=1)


_FIRST_COORDINATE = rb'"x":\[([^,\]]+)'

# artifact -> (the standalone stages that read it, {edit name: edit(data, rng)})
_EDITS = {
    "samples.jsonl": (("boundary", "fit"), {
        "coordinate-as-string": _on_row(lambda row: re.sub(_FIRST_COORDINATE, rb'"x":["\1"', row)),
        "seed-as-string": _sub(rb'"seed":(\d+)', rb'"seed":"\1"'),
        "row-out-of-box": _on_row(lambda row: re.sub(_FIRST_COORDINATE, b'"x":[5.0', row)),
        "labels-swapped": _swap_two_labels,
        "truncated": _truncate,
        "truncated-at-a-line-end": _truncate_at_line_end,
        "class-deleted": _on_row(lambda row: re.sub(rb',"class":"[a-z]+"', b"", row)),
        "zero-tol-deleted": _sub(rb'"zero_tol":[^,]+,', b""),
    }),
    "boundary.jsonl": (("fit",), {
        "coordinate-as-string": _on_row(lambda row: re.sub(_FIRST_COORDINATE, rb'"x":["\1"', row)),
        "epsilon-as-string": _sub(rb'"epsilon":([^,]+)', rb'"epsilon":"\1"'),
        "row-out-of-box": _on_row(lambda row: re.sub(_FIRST_COORDINATE, b'"x":[5.0', row)),
        "normalized-flipped": _sub(rb'"normalized":true', b'"normalized":false'),
        "truncated": _truncate,
        "truncated-at-a-line-end": _truncate_at_line_end,
        "checksum-deleted": _sub(rb',"source_checksum":"[0-9a-f]+"', b""),
        "x-deleted": _on_row(lambda row: row.replace(b'"x":', b'"y":')),
    }),
    "candidates_uniform.json": (("simulate",), {
        "document-as-list": lambda data, rng: b"[" + data.rstrip() + b"]\n",
        "offset-as-string": _sub(rb'"offset":([^,}]+)', rb'"offset":"\1"'),
        "offset-as-bool": _sub(rb'"offset":([^,}]+)', b'"offset":true'),
        "scale-as-string": _sub(rb'"scale":\[([^,\]]+)', rb'"scale":["\1"'),
        "feasible-as-string": _sub(rb'"feasible":true', b'"feasible":"yes"'),
        "feasible-flipped": _sub(rb'"feasible":true', b'"feasible":false'),
        "candidates-emptied": _sub(rb'"candidates":\[.*?\],"objective',
                                   b'"candidates":[],"objective'),
        "fraction-as-string": _sub(rb'"containment_fraction":([^,]+)',
                                   rb'"containment_fraction":"\1"'),
        "mode-swapped": _sub(rb'"mode":"uniform","feasible"', b'"mode":"multi","feasible"'),
        "truncated": _truncate,
        "shift-deleted": _sub(rb'"shift":\[[^\]]*\],', b""),
        "verification-deleted": _sub(rb'"verification":\{[^}]*\},', b""),
    }),
    # read by `pipeline` alone
    "run_uniform_1.json": ((), {"truncated": _truncate,
                                "steps-as-string": _sub(rb'"steps":(\d+)', rb'"steps":"\1"')}),
    "traj_uniform_1.csv": ((), {"truncated": _truncate}),
    "stage_state.json": ((), {"truncated": _truncate}),
}


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    """A tiny cold pipeline's output directory and its files' bytes."""
    root = tmp_path_factory.mktemp("clean")
    assert main(["pipeline", "--config", str(tiny_config(root, out=str(root / "out")))]) == 0
    return root / "out", {p.name: p.read_bytes() for p in (root / "out").iterdir()}


def _run_quietly(capsys, argv: list[str]) -> tuple[int, str, list]:
    """Exit code, stderr and warnings of one command."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    return code, capsys.readouterr().err, caught


@pytest.mark.parametrize("artifact, edit", [(a, e) for a, (_, edits) in _EDITS.items()
                                            for e in edits])
def test_seeded_corruption_is_refused_or_repaired(tmp_path, capsys, clean_run, artifact, edit):
    """Each edit of an artifact, placed by a generator seeded with the edit's
    name: every standalone stage that reads the file exits 4 with one line
    and no warning, and `pipeline` either does the same or runs its stages
    again and writes the clean run's bytes."""
    clean, files = clean_run
    stages, edits = _EDITS[artifact]
    out = tmp_path / "out"
    shutil.copytree(clean, out)
    cfg = tiny_config(tmp_path, out=str(out))
    corrupted = edits[edit](files[artifact], random.Random(f"{artifact}:{edit}"))
    assert corrupted != files[artifact]
    (out / artifact).write_bytes(corrupted)
    for stage in stages:
        code, err, caught = _run_quietly(capsys, [stage, "--config", str(cfg)])
        assert (code, err.startswith("integrity error:"), err.count("\n"), caught) \
            == (4, True, 1, []), (stage, code, err)
    code, err, caught = _run_quietly(capsys, ["pipeline", "--config", str(cfg)])
    assert not caught
    if code == 4:
        assert err.startswith("integrity error:") and err.count("\n") == 1, err
    else:
        assert code == 0, err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == files


# boundary edits that leave a canonical file: only the standalone `fit`'s
# compare with a fresh extraction refuses them
_CANONICAL_BOUNDARY_EDITS = ("row-out-of-box", "truncated-at-a-line-end")


@pytest.mark.parametrize("edit", list(_EDITS["boundary.jsonl"][1]))
def test_boundary_edits_reach_the_loader(tmp_path, clean_run, edit):
    """Each seeded boundary edit, given to `load_boundary` itself: a
    ValueError, never another exception, unless the edit leaves a canonical
    file, which loads to a set that writes the edited bytes."""
    corrupted = _EDITS["boundary.jsonl"][1][edit](clean_run[1]["boundary.jsonl"],
                                                  random.Random(f"boundary.jsonl:{edit}"))
    path = tmp_path / "boundary.jsonl"
    path.write_bytes(corrupted)
    if edit in _CANONICAL_BOUNDARY_EDITS:
        assert boundary_bytes(load_boundary(path, dim=2)) == corrupted
    else:
        with pytest.raises(ValueError):
            load_boundary(path, dim=2)


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


def test_pipeline_infeasible_fit_exits_5_and_fits_again(tmp_path, capsys):
    """A fit that finds no feasible candidate stops the pipeline with exit 5,
    writes no report and records no `fit` entry, so the next run fits again.
    The candidates file it leaves holds no feasible fit, and the standalone
    `simulate` refuses it with exit 5 and one line."""
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out), margin="5.0")
    for _ in range(2):
        capsys.readouterr()
        assert main(["pipeline", "--config", str(cfg)]) == 5
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("fit[uniform]: INFEASIBLE: ")
        assert not (out / "report.md").exists()
        assert sorted(json.loads((out / "stage_state.json").read_text())) == ["boundary", "sample"]
    assert lines[0].startswith("sample: reusing ")
    assert main(["simulate", "--config", str(cfg), "--mode", "uniform"]) == 5
    captured = capsys.readouterr()
    cand = out / "candidates_uniform.json"
    assert captured.err == f"error: {cand} holds no feasible candidates\n"
    assert captured.out == ""
    assert not list(out.glob("traj_*"))


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


def test_stray_value_error_exits_2(tmp_path, capsys):
    """A ValueError that no check names as a config or integrity fault exits
    2 with one `error:` line: a set sampled to n = 1 gives the boundary
    radius no neighbour to measure."""
    cfg = tiny_config(tmp_path, out=str(tmp_path / "out"))
    cfg.write_text(cfg.read_text().replace("n_min = 200", "n_min = 1")
                   .replace("n_start = 243", "n_start = 1"))
    assert main(["sample", "--config", str(cfg)]) == 0
    assert "sample: n=1 " in capsys.readouterr().out
    assert main(["boundary", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == \
        "error: need at least 2 samples to set a neighborhood radius\n"


def test_dry_run_touches_nothing(tmp_path):
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out))
    assert main(["pipeline", "--config", str(cfg), "--dry-run"]) == 0
    assert not out.exists()


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


def test_each_command_builds_the_plant_once(tmp_path, monkeypatch):
    """The CLI builds the plant and its input box once per command and hands
    them to every stage, a cold and a warm pipeline included."""
    from cbfsynth import cli
    calls = []
    build = cli.build_system
    monkeypatch.setattr(cli, "build_system", lambda *a: calls.append(a) or build(*a))
    cfg = tiny_config(tmp_path, out=str(tmp_path / "stages"), modes="uniform, multi")
    run = ["--out", str(tmp_path / "run")]
    counts = []
    for argv in (["sample"], ["boundary"], ["fit"], ["simulate"],
                 ["pipeline", *run], ["pipeline", *run]):
        calls.clear()
        assert main(argv[:1] + ["--config", str(cfg)] + argv[1:]) == 0
        counts.append(len(calls))
    assert counts == [1] * 6


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
    path.write_bytes(snapshot["samples.jsonl"].replace(b'"class":', b'"class": ', 1))
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


def test_reused_sample_line_reports_sample_count(tmp_path, capsys):
    """A reused sample file's line ends with the header's sample count, which
    `^sample: .*n=(\\d+)` reads; no row is checked, so no worker count."""
    cfg = tiny_config(tmp_path, out=str(tmp_path / "out"))
    assert main(["pipeline", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["pipeline", "--config", str(cfg)]) == 0
    stdout = capsys.readouterr().out
    line = next(ln for ln in stdout.splitlines() if ln.startswith("sample:"))
    assert line.startswith("sample: reusing ") and line.endswith("(n=243)")
    assert re.search(r"^sample: .*n=(\d+)", stdout, re.M).group(1) == "243"


def _count_checked_loads(monkeypatch) -> list[int]:
    """Count the rows `sampler.load_samples` checks, one entry per load."""
    from cbfsynth import sampler
    loads = []
    original = sampler.load_samples

    def counting(path):
        s = original(path)
        loads.append(len(s))
        return s

    monkeypatch.setattr(sampler, "load_samples", counting)
    return loads


def test_warm_pipeline_parses_no_sample_rows(tmp_path, monkeypatch):
    """With every stage reused, the sample file is judged on its header and
    digest: a run in which checking a row raises still exits 0, and every
    artifact keeps its bytes."""
    from cbfsynth import sampler
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out), modes="uniform, multi")
    assert main(["pipeline", "--config", str(cfg)]) == 0
    snapshot = {p.name: p.read_bytes() for p in out.iterdir()}

    def no_rows(*args):
        raise AssertionError("sample rows parsed on a warm run")

    monkeypatch.setattr(sampler, "_check_rows", no_rows)
    loads = _count_checked_loads(monkeypatch)
    assert main(["pipeline", "--config", str(cfg)]) == 0
    assert loads == []
    assert {p.name: p.read_bytes() for p in out.iterdir()} == snapshot


@pytest.mark.parametrize("change", ["delete-boundary", "fit-value"])
def test_pipeline_checks_sample_rows_once_when_a_later_stage_reruns(tmp_path, monkeypatch,
                                                                    change):
    """A reused sample file whose boundary or fit stage runs again is loaded
    with the full row check exactly once, and the run reproduces the bytes
    a cold run writes."""
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out))
    if change == "fit-value":
        cfg.write_text(cfg.read_text().replace("iterations = 40", "iterations = 41"))
        assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "cold")]) == 0
        expected = {p.name: p.read_bytes() for p in (tmp_path / "cold").iterdir()}
        cfg.write_text(cfg.read_text().replace("iterations = 41", "iterations = 40"))
    assert main(["pipeline", "--config", str(cfg)]) == 0
    if change == "delete-boundary":
        expected = {p.name: p.read_bytes() for p in out.iterdir()}
        (out / "boundary.jsonl").unlink()
    else:
        cfg.write_text(cfg.read_text().replace("iterations = 40", "iterations = 41"))
    loads = _count_checked_loads(monkeypatch)
    assert main(["pipeline", "--config", str(cfg)]) == 0
    assert loads == [243]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == expected


def test_pipeline_refuses_a_sample_file_changed_during_the_run(tmp_path, monkeypatch, capsys):
    """The sample stage is reused on the header's digest. When the boundary
    stage runs again and the full load of the file yields another digest,
    the file changed between the two reads: here two rows swap, which leaves
    a file that passes every check of its own. The run exits 4 and writes no
    boundary."""
    from cbfsynth import sampler
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out))
    assert main(["pipeline", "--config", str(cfg)]) == 0
    (out / "boundary.jsonl").unlink()
    original = sampler.load_samples

    def changed(path):
        lines = path.read_bytes().split(b"\n")   # header, rows, ""
        lines[1], lines[2] = lines[2], lines[1]
        path.write_bytes(b"\n".join(lines))
        return original(path)

    monkeypatch.setattr(sampler, "load_samples", changed)
    capsys.readouterr()
    assert main(["pipeline", "--config", str(cfg)]) == 4
    captured = capsys.readouterr()
    assert captured.err == f"integrity error: {out / 'samples.jsonl'}: changed during the run\n"
    assert captured.out.startswith("sample: reusing ")
    assert not (out / "boundary.jsonl").exists()


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


def test_pipeline_undecodable_stage_state_reruns_stages(tmp_path, capsys):
    """A state file that is not UTF-8 is no record, like one that is not
    JSON: every stage runs again and a valid state is written."""
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out))
    assert main(["pipeline", "--config", str(cfg)]) == 0
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    (out / "stage_state.json").write_bytes(b"\xff\xfe{}")
    capsys.readouterr()
    assert main(["pipeline", "--config", str(cfg)]) == 0
    assert "reusing" not in capsys.readouterr().out
    assert {p.name: p.read_bytes() for p in out.iterdir()} == files


def test_seed_override_changes_samples(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg = tiny_config(tmp_path, out=str(out_a))
    assert main(["sample", "--config", str(cfg)]) == 0
    assert main(["sample", "--config", str(cfg), "--out", str(out_b), "--seed", "77"]) == 0
    assert (out_a / "samples.jsonl").read_bytes() != (out_b / "samples.jsonl").read_bytes()


def test_fit_line_reports_search_counts(tmp_path, capsys):
    """Each fit line states the search's worker processes, evaluations, score
    kernel calls, accepted and rejected offers and root steps per probe call;
    none of it reaches the artifacts. No mode makes more kernel calls than
    evaluations, and multi, whose shrinks are scored as blocks, makes fewer."""
    from cbfsynth.fitter import ROOT_MAX_STEPS
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out), modes="uniform, multi")
    for stage in ("sample", "boundary"):
        assert main([stage, "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["fit", "--config", str(cfg)]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("fit[")]
    assert len(lines) == 2
    pattern = (r"evaluations=(\d+) score_calls=(\d+) offers_accepted=(\d+) "
               r"offers_rejected=(\d+) probe_calls=(\d+) root_steps_mean=([\d.]+) "
               r"root_steps_max=(\d+)$")
    counts = {}
    for mode, line in zip(("uniform", "multi"), lines):
        assert line.startswith(f"fit[{mode}]: objective=")
        m = re.search(pattern, line)
        assert m, line
        counts[mode] = [float(v) for v in m.groups()]
        evals, calls, accepted, _, _, mean, top = counts[mode]
        assert evals > 0 and accepted > 0 and mean <= top <= ROOT_MAX_STEPS
        assert 0 < calls <= evals
        assert int(re.search(r" workers=(\d+) evaluations=", line).group(1)) >= 1
        text = (out / f"candidates_{mode}.json").read_text()
        assert "evaluations" not in text and "root_steps" not in text
        assert "score_calls" not in text
        assert "workers" not in text
    assert counts["uniform"][4:] == [0.0, 0.0, 0.0]
    assert counts["multi"][4] > 0 and counts["multi"][6] > 0
    assert counts["multi"][1] < counts["multi"][0]


# sha256 of the candidate documents below with their `source_checksums`
# removed (the digests of the input files, which change with the sample file's
# format and say nothing of the search), as written by commit c01309c, whose
# search ran its restarts one after another from one random stream, with its
# two golden-section polish lines (the polish and its offer) removed; the
# unmodified commit writes the same uniform and nonuniform files
_SEQUENTIAL_SEARCH_DIGESTS = {
    "uniform": "57bd58562f21ac6529ff473ddd91b7a28d8994b5ecfdac5cf8103d2f44d16c38",
    "nonuniform": "0e19b4b54a733e0df4b4a2bf97cdc8811b1d32aca114eba0629a437322d54036",
    "multi": "1af75dbadc0c29b68c0082d4b009ddd2d475adb4e8cf61e8b1d0896452f12610",
}


def test_fit_draws_match_sequential_search(tmp_path):
    """The random draws a fit makes up front reproduce the order of a search
    that runs its restarts one after another: with more restarts than seeds
    in every mode, each random population and every block-pass jitter of the
    multi seeds come from the shared stream, and the candidate files match
    the sequential search's byte for byte."""
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out), modes="uniform, nonuniform, multi")
    cfg.write_text(cfg.read_text().replace("restarts = 1", "restarts = 4"))
    for stage in ("sample", "boundary", "fit"):
        assert main([stage, "--config", str(cfg)]) == 0
    for mode, digest in _SEQUENTIAL_SEARCH_DIGESTS.items():
        data = (out / f"candidates_{mode}.json").read_bytes()
        doc = json.loads(data)
        del doc["source_checksums"]
        # that commit's config echo also held two settings since deleted, at
        # the values every fit then used
        echo = list(doc["config_echo"].items())
        at = [key for key, _ in echo].index("margin") + 1
        doc["config_echo"] = dict(echo[:at] + [("objective", "sample_count")] + echo[at:]
                                  + [("volume_region", None)])
        search = (json.dumps(doc, separators=(",", ":")) + "\n").encode()
        assert hashlib.sha256(search).hexdigest() == digest, mode


def test_simulate_line_reports_filter_active(tmp_path, capsys):
    """Each simulate line counts the steps whose applied input differs from the
    nominal one, as the trajectory records them; the count is never saved."""
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out))
    for stage in ("sample", "boundary", "fit"):
        assert main([stage, "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg)]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("simulate[")]
    assert len(lines) == 1
    m = re.search(r" infeasible=\d+ filter_active=(\d+) terminal=", lines[0])
    assert m, lines[0]
    header, *rows = (out / "traj_uniform_1.csv").read_text().splitlines()
    cols = header.split(",")
    nominal, applied = cols.index("u_nom_1"), cols.index("u_1")
    active = sum(float(r.split(",")[nominal]) != float(r.split(",")[applied]) for r in rows)
    assert int(m.group(1)) == active > 0
    assert "filter_active" not in (out / "run_uniform_1.json").read_text()



def _count_closed_loops(monkeypatch) -> list[int]:
    """Count the starts each `simulator.simulate_many` call runs."""
    from cbfsynth import simulator
    calls = []
    original = simulator.simulate_many

    def counting(starts, *args, **kwargs):
        calls.append(len(starts))
        return original(starts, *args, **kwargs)

    monkeypatch.setattr(simulator, "simulate_many", counting)
    return calls


def _forbid_fit_and_rows(monkeypatch):
    """Make fitting any mode or checking a sample row raise."""
    from cbfsynth import fitter, sampler

    def forbidden(*args, **kwargs):
        raise AssertionError("a reused stage ran")

    for mode in ("uniform", "nonuniform", "multi"):
        monkeypatch.setattr(fitter, f"fit_{mode}", forbidden)
    monkeypatch.setattr(sampler, "_check_rows", forbidden)


def _files(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in out.iterdir()}


def test_warm_pipeline_runs_no_closed_loop(tmp_path, monkeypatch, capsys):
    """With every stage reused the closed loop never runs: a run in which
    simulating raises exits 0, prints one reusing line per mode, and every
    file in the output directory keeps its bytes."""
    from cbfsynth import simulator
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out), modes="uniform, multi")
    assert main(["pipeline", "--config", str(cfg)]) == 0
    snapshot = _files(out)

    def no_runs(*args, **kwargs):
        raise AssertionError("closed loop ran on a warm run")

    monkeypatch.setattr(simulator, "simulate_many", no_runs)
    capsys.readouterr()
    assert main(["pipeline", "--config", str(cfg)]) == 0
    stdout = capsys.readouterr().out
    lines = [ln for ln in stdout.splitlines() if ln.startswith("simulate[")]
    assert lines == [f"simulate[{m}]: reusing the runs of 1 of 1 starts"
                     for m in ("uniform", "multi")]
    assert "filter_active=" not in stdout
    assert _files(out) == snapshot


@pytest.mark.parametrize("change", ["tamper-trajectory", "delete-manifest"])
def test_pipeline_reruns_simulate_on_changed_run_file(tmp_path, monkeypatch, capsys, change):
    """A trajectory or manifest that no longer hashes to its recorded digest
    re-runs the simulate stage alone, which restores every byte."""
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out))
    assert main(["pipeline", "--config", str(cfg)]) == 0
    snapshot = _files(out)
    if change == "tamper-trajectory":
        (out / "traj_uniform_1.csv").write_bytes(snapshot["traj_uniform_1.csv"] + b"\n")
    else:
        (out / "run_uniform_1.json").unlink()
    _forbid_fit_and_rows(monkeypatch)
    calls = _count_closed_loops(monkeypatch)
    capsys.readouterr()
    assert main(["pipeline", "--config", str(cfg)]) == 0
    stdout = capsys.readouterr().out
    for stage in ("sample", "boundary", "fit"):
        assert re.search(rf"^{stage}: reusing ", stdout, re.M), stage
    assert calls == [1]
    assert _files(out) == snapshot


def test_simulate_setting_reruns_only_simulate(tmp_path, monkeypatch):
    """Editing a [simulate] value re-runs the closed loop without refitting,
    and writes what a cold run with the new value writes."""
    out, cold = tmp_path / "out", tmp_path / "cold"
    cfg = tiny_config(tmp_path, out=str(out))
    assert main(["pipeline", "--config", str(cfg)]) == 0
    cfg.write_text(cfg.read_text().replace("horizon = 0.5", "horizon = 0.5\nkp = 7.0"))
    assert main(["pipeline", "--config", str(cfg), "--out", str(cold)]) == 0
    _forbid_fit_and_rows(monkeypatch)
    calls = _count_closed_loops(monkeypatch)
    assert main(["pipeline", "--config", str(cfg)]) == 0
    assert calls == [1]
    assert _files(out) == _files(cold)
    assert json.loads((out / "run_uniform_1.json").read_text())["config"]["kp"] == 7.0


def _reusing_stages(stdout: str) -> list[str]:
    return [ln.split(":")[0] for ln in stdout.splitlines() if ": reusing " in ln]


def test_respelled_config_runs_no_stage(tmp_path, monkeypatch, capsys):
    """Each stage is keyed on its resolved settings, so a config that spells
    the same settings otherwise (a padded seed, a default plant parameter and
    `zero_tol` written out, the modes in another order) reuses every stage
    and leaves every file's bytes as they were."""
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out), modes="uniform, multi")
    assert main(["pipeline", "--config", str(cfg)]) == 0
    snapshot = _files(out)
    text = cfg.read_text()
    for old, new in [("seed = 3", "seed = 03"), (_PLANT, _PLANT + "\ngamma2 = 0.1"),
                     ("growth = 3.0", "growth = 3.0\nzero_tol = 1e-9"),
                     ("modes = uniform, multi", "modes = multi, uniform")]:
        assert old in text
        text = text.replace(old, new, 1)
    cfg.write_text(text)
    _forbid_fit_and_rows(monkeypatch)
    calls = _count_closed_loops(monkeypatch)
    capsys.readouterr()
    assert main(["pipeline", "--config", str(cfg)]) == 0
    assert _reusing_stages(capsys.readouterr().out) == [
        "sample", "boundary", "fit", "simulate[uniform]", "simulate[multi]"]
    assert calls == []
    assert _files(out) == snapshot


def test_sampling_edit_with_same_samples_reruns_only_sample(tmp_path, monkeypatch, capsys):
    """An `n_max` edit that the run never reaches re-samples, writes the same
    sample file, and so reuses the boundary, fit and simulate stages."""
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out))
    assert main(["pipeline", "--config", str(cfg)]) == 0
    snapshot = _files(out)
    cfg.write_text(cfg.read_text().replace("growth = 3.0", "growth = 3.0\nn_max = 1999999"))
    _forbid_fit_and_rows(monkeypatch)
    calls = _count_closed_loops(monkeypatch)
    capsys.readouterr()
    assert main(["pipeline", "--config", str(cfg)]) == 0
    stdout = capsys.readouterr().out
    assert re.search(r"^sample: n=243 ", stdout, re.M)
    assert _reusing_stages(stdout) == ["boundary", "fit", "simulate[uniform]"]
    assert calls == []
    files = _files(out)
    old_state = json.loads(snapshot.pop("stage_state.json"))
    new_state = json.loads(files.pop("stage_state.json"))
    assert files == snapshot
    assert old_state.pop("sample")["config_hash"] != new_state.pop("sample")["config_hash"]
    assert new_state == old_state


@pytest.mark.parametrize("x_init", ["-9, -30; -1, 35", "-1, 35"],
                         ids=["one-skipped", "all-skipped"])
def test_warm_pipeline_reproduces_skipped_starts(tmp_path, monkeypatch, x_init):
    """A start outside the fitted set is skipped and writes no file; the
    warm run recomputes it from h at the starts and writes the same report.
    A closed-loop row with no run behind it shows nothing, so it reads FAIL,
    with the same measured and target text as a passing row."""
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out))
    cfg.write_text(cfg.read_text().replace("x_init = -9, -30", f"x_init = {x_init}"))
    assert main(["pipeline", "--config", str(cfg)]) == 0
    runs = 1 if x_init.startswith("-9") else 0
    assert len(list(out.glob("run_*.json"))) == runs
    row = (f"| closed-loop safety [uniform] | {runs} runs, 1 skipped, breaches = 0, "
           f"infeasible steps = 0 | zero breaches and infeasible steps | "
           f"{'pass' if runs else 'FAIL'} |")
    assert row in (out / "report.md").read_text().splitlines()
    snapshot = _files(out)
    calls = _count_closed_loops(monkeypatch)
    assert main(["pipeline", "--config", str(cfg)]) == 0
    assert calls == []
    assert _files(out) == snapshot


def test_pipeline_upgrades_simulate_state_without_digests(tmp_path, monkeypatch):
    """A simulate entry that records only its config hash and modes, as
    written before run digests were kept, re-runs the simulate stage alone."""
    out = tmp_path / "out"
    cfg = tiny_config(tmp_path, out=str(out), modes="uniform, multi")
    assert main(["pipeline", "--config", str(cfg)]) == 0
    snapshot = _files(out)
    state = json.loads(snapshot["stage_state.json"])
    state["simulate"] = {"config_hash": state["simulate"]["config_hash"],
                         "modes": ["uniform", "multi"]}
    (out / "stage_state.json").write_text(json.dumps(state, indent=1, sort_keys=True) + "\n")
    _forbid_fit_and_rows(monkeypatch)
    calls = _count_closed_loops(monkeypatch)
    assert main(["pipeline", "--config", str(cfg)]) == 0
    assert calls == [1, 1]
    assert _files(out) == snapshot
