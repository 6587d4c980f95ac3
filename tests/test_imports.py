import ast
import importlib
from pathlib import Path

import pytest

from conftest import run_fresh

SRC = Path(__file__).resolve().parents[1] / "src" / "cbfsynth"

# the one module that may import scipy: an infeasible QP's phase-1 LP
SCIPY_ALLOWED = {"qp.py"}


def _imported(path: Path):
    """(line, dotted name) of each module `path` imports, at module level or
    inside a function, a relative import's under `cbfsynth`. `from m import
    a` gives `m` and `m.a`, as `a` may be a submodule."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["cbfsynth" * bool(node.level), node.module]))
            yield node.lineno, base
            yield from ((node.lineno, f"{base}.{alias.name}") for alias in node.names)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_import_outside_phase1(path):
    """No package module but `qp` imports scipy, at module level or inside a
    function, so a cold pipeline runs on numpy alone."""
    if path.name in SCIPY_ALLOWED:
        return
    found = [line for line, name in _imported(path) if name.split(".")[0] == "scipy"]
    assert not found, f"{path.name} imports scipy at line(s) {found}"


def test_import_scan_sees_qp_phase1():
    """The scan finds the import it allows, so it is not blind."""
    assert "scipy" in {name.split(".")[0] for _, name in _imported(SRC / "qp.py")}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_parallel_imported_by_fitter_only(path):
    """No package module but `fitter` imports `parallel`, in any form, so the
    fit's restarts stay the one forked path; the scan sees `fitter`'s import."""
    found = [line for line, name in _imported(path) if name == "cbfsynth.parallel"]
    assert bool(found) == (path.name == "fitter.py"), \
        f"{path.name} imports parallel at line(s) {found}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_fork_path(path):
    """No package module but `parallel` calls `fork`, bare or as `os.fork`,
    and none imports `multiprocessing`, so every child is forked, collected
    and reaped in one place."""
    forks = [line for line, _ in _attribute_calls(path, "fork", bare=True)]
    assert bool(forks) == (path.name == "parallel.py"), f"{path.name} forks at line(s) {forks}"
    found = [line for line, name in _imported(path) if name.split(".")[0] == "multiprocessing"]
    assert not found, f"{path.name} imports multiprocessing at line(s) {found}"


def test_fork_scan_sees_both_forms(tmp_path):
    """The scans find `os.fork()`, a bare `fork()` and a `multiprocessing`
    import in either form inside a function, and skip a fork not called, so
    they are not blind."""
    path = tmp_path / "probe.py"
    path.write_text("import os\n"
                    "pid = os.fork()\n"
                    "def start():\n"
                    "    from multiprocessing import pool\n"
                    "    import multiprocessing.connection\n"
                    "    return fork(), os.fork\n")
    assert [line for line, _ in _attribute_calls(path, "fork", bare=True)] == [2, 6]
    assert sorted({line for line, name in _imported(path)
                   if name.split(".")[0] == "multiprocessing"}) == [4, 5]


# the `fitter` functions that may call a mode's exists-input check: the score
# kernel (behind the cut and the deferral), the deferred flush and the
# full-set acceptance test
EXISTS_INPUT_CALLERS = {"_score", "_flush", "_hard_feasible"}


def _attribute_calls(path: Path, attr: str, bare: bool = False) -> list[tuple[int, str]]:
    """(line, innermost enclosing function, "" at module level) of each call
    of an attribute named `attr` in `path`, and with `bare` of the name too."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            called = child.func if isinstance(child, ast.Call) else None
            if (isinstance(called, ast.Attribute) and called.attr == attr
                    or bare and isinstance(called, ast.Name) and called.id == attr):
                found.append((child.lineno, func))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            visit(child, getattr(child, "name", "<lambda>") if inner else func)

    visit(ast.parse(path.read_text()), "")
    return found


def test_exists_input_called_behind_the_cut_and_deferral():
    """In `fitter`, only `_score`, `_flush` and `_hard_feasible` call a
    mode's `exists_input`, so every penalty the search reads passes the cut
    and the deferral."""
    found = _attribute_calls(SRC / "fitter.py", "exists_input")
    assert {func for _, func in found} <= EXISTS_INPUT_CALLERS, found


def test_exists_input_scan_sees_hard_feasible(tmp_path):
    """The scan finds the call in `_hard_feasible`, and attributes a call to
    the innermost function or lambda around it, so it is not blind."""
    assert "_hard_feasible" in {f for _, f in _attribute_calls(SRC / "fitter.py", "exists_input")}
    path = tmp_path / "probe.py"
    path.write_text("def _score(mode):\n"
                    "    def fun():\n"
                    "        return mode.exists_input()\n"
                    "    return mode.exists_input(), lambda: mode.exists_input()\n"
                    "mode.exists_input()\n")
    assert _attribute_calls(path, "exists_input") == [
        (3, "fun"), (4, "_score"), (4, "<lambda>"), (5, "")]


# the `fitter` functions that call `system.barrier`: the one function forming
# each candidate's rows over the samples, the offset cap at the boundary
# samples, the root finder on the chords and the verification's gradient at
# the probes
BARRIER_CALLERS = {"rows", "capped", "boundary_probes", "verify_candidate"}


def test_barrier_rows_formed_in_one_function():
    """In `fitter`, `barrier` is called from these functions alone, so every
    row of h over the samples comes from `_SearchContext.rows`: a second row
    path fails here."""
    found = _attribute_calls(SRC / "fitter.py", "barrier", bare=True)
    assert {func for _, func in found} == BARRIER_CALLERS, found


def test_barrier_scan_sees_a_bare_call(tmp_path):
    """The scan finds a call of the bare name and of the attribute, and
    skips a name that is not called, so it is not blind."""
    path = tmp_path / "probe.py"
    path.write_text("def rows(ctx):\n"
                    "    return barrier(ctx.hcf, x, p), system.barrier(ctx.hcf, x, p)\n"
                    "kernel = barrier\n")
    assert _attribute_calls(path, "barrier", bare=True) == [(2, "rows"), (2, "rows")]
    assert _attribute_calls(path, "barrier") == [(2, "rows")]


# names of the chord pool's end indices: the score kernel gathers no h there
POOL_ENDS = {"ends", "ends_full"}


def _pool_end_takes(path: Path) -> list[int]:
    """Lines of `path` with a `.take(...)` call whose arguments read a name
    or attribute in POOL_ENDS."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "take"):
            continue
        for arg in [*node.args, *(k.value for k in node.keywords)]:
            if any(isinstance(sub, ast.Name) and sub.id in POOL_ENDS
                   or isinstance(sub, ast.Attribute) and sub.attr in POOL_ENDS
                   for sub in ast.walk(arg)):
                found.add(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_take_at_the_pool_ends(path):
    """No package module gathers h at the chord pool's ends: a queued check
    carries the chords `metrics` picked, not an (s, 8,192) array."""
    assert not _pool_end_takes(path), f"{path.name} takes at pool ends, line(s) " \
        f"{_pool_end_takes(path)}"


def test_pool_end_scan_sees_both_forms(tmp_path):
    """The scan finds a take at either name, read off an object or bare and
    as a keyword, and skips other takes, so it is not blind."""
    path = tmp_path / "probe.py"
    path.write_text("h_ends = h_rows.take(self.ends, axis=1)\n"
                    "h = h_all.take(ctx.ends_full, axis=1)[None]\n"
                    "h = h_all.take(indices=ends)\n"
                    "h = h_all.take(idx, axis=1)\n")
    assert _pool_end_takes(path) == [1, 2, 3]


def _format_version_uses(path: Path) -> list[int]:
    """Lines of `path` that import `FORMAT_VERSION` from any module or read it
    off one (`smp.FORMAT_VERSION`)."""
    tree = ast.parse(path.read_text())
    return sorted({line for line, name in _imported(path) if name.endswith(".FORMAT_VERSION")}
                  | {node.lineno for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and node.attr == "FORMAT_VERSION"})


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_sample_format_version_used_by_sampler_only(path):
    """No package module but `sampler` imports the sample file's
    `FORMAT_VERSION` or reads it off the module, so a sample-file bump
    relabels no other artifact."""
    found = _format_version_uses(path)
    assert not found or path.name == "sampler.py", \
        f"{path.name} uses FORMAT_VERSION at line(s) {found}"


def test_format_version_scan_sees_both_forms(tmp_path):
    """The scan finds an import of the name and a read off the module, so it
    is not blind."""
    path = tmp_path / "probe.py"
    path.write_text("from .sampler import FORMAT_VERSION\n"
                    "from . import sampler as smp\n"
                    "v = smp.FORMAT_VERSION\n")
    assert _format_version_uses(path) == [1, 3]


def _row_dict_lines(path: Path) -> list[int]:
    """Lines of `path` holding a dict display with the key "x": a JSON row
    built as a dict, to be dumped."""
    return sorted({node.lineno for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Dict)
                   and any(isinstance(k, ast.Constant) and k.value == "x" for k in node.keys)})


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_rows_formatted_by_sampler_only(path):
    """No package module but `sampler` builds a `{"x": ...}` row, so the
    sample and boundary files get their rows from one codec, `_format_rows`,
    which their loaders check against."""
    found = _row_dict_lines(path)
    assert not found or path.name == "sampler.py", \
        f"{path.name} builds an x row at line(s) {found}"


def test_row_scan_sees_a_dict_row(tmp_path):
    """The scan finds an x key in a dumped row and among other keys, and
    skips other keys and a key that is a name, so it is not blind."""
    path = tmp_path / "probe.py"
    path.write_text('line = json.dumps({"x": row.tolist()})\n'
                    'rec = {"t": 0.0, "x": row}\n'
                    'rec = {"y": row}\n'
                    'rec = {x: row}\n')
    assert _row_dict_lines(path) == [1, 2]


def _h_formula_lines(path: Path) -> list[int]:
    """Lines of `path` where a `.value(...)` call, a constraint's z, is an
    operand of `+` or `+=`: the barrier formula z(D x + c) + eps."""
    def z_call(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "value")

    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            operands = (node.left, node.right)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            operands = (node.value,)
        else:
            continue
        if any(map(z_call, operands)):
            found.add(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_barrier_formed_in_system_only(path):
    """No package module but `system` adds an offset to z(...), so every
    barrier value comes from `system.barrier`, the one evaluation kernel."""
    found = _h_formula_lines(path)
    assert not found or path.name == "system.py", \
        f"{path.name} forms z(...) + eps at line(s) {found}"


def test_barrier_scan_sees_the_kernel(tmp_path):
    """The scan finds `barrier`'s own formula, the only one in `system`, and
    each form it looks for, so it is not blind."""
    source = (SRC / "system.py").read_text().splitlines()
    lines = _h_formula_lines(SRC / "system.py")
    assert len(lines) == 1 and "hcf.value(y) + offset" in source[lines[0] - 1]
    path = tmp_path / "probe.py"
    path.write_text("h = hcf.value(x * d + c) + eps\n"
                    "h = eps + self.hcf.value(y)\n"
                    "h += sys.hcf.value(y)\n"
                    "g = hcf.value(y) - eps\n")
    assert _h_formula_lines(path) == [1, 2, 3]


# the settings layer and the plant: what every pipeline process loads first
SETTINGS_LAYER = ("config.py", "system.py")


def _package_imports(path: Path) -> list[tuple[int, str]]:
    """(line, module) of each package module but `system` that `path` imports."""
    return [(line, name) for line, name in _imported(path)
            if name.startswith("cbfsynth.") and name.split(".")[1] != "system"]


@pytest.mark.parametrize("name", SETTINGS_LAYER)
def test_settings_layer_imports_system_only(name):
    """`config` and `system` import no package module but `system`, at module
    level or inside a function, so loading a config runs no stage module."""
    found = _package_imports(SRC / name)
    assert not found, f"{name} imports {found}"


def test_settings_layer_scan_sees_a_stage_import(tmp_path):
    """The scan finds a stage import in either form, so it is not blind."""
    path = tmp_path / "probe.py"
    path.write_text("from .system import BoxSet\n"
                    "from .fitter import FitConfig\n"
                    "def f():\n"
                    "    from . import simulator\n")
    assert [line for line, _ in _package_imports(path)] == [2, 2, 4]


def test_config_load_runs_no_stage_module():
    """A fresh process that loads the shipped config and builds its plant
    holds no package module but the package, `config` and `system`."""
    out = run_fresh("""
        import sys
        import cbfsynth.config
        import cbfsynth.system

        cfg = cbfsynth.config.load_config(sys.argv[1])
        cbfsynth.system.build_system(cfg.system_name, cfg.system_params)
        print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "cbfsynth")))
    """, str(SRC.parents[1] / "configs" / "double_integrator.cfg"))
    assert out.split() == ["cbfsynth", "cbfsynth.config", "cbfsynth.system"]


# every name `cbfsynth/__init__.py` exported while it imported each module
# eagerly, with the module that bound it
EXPORTED = {
    "system": "BoxSet CbfCandidate HardConstraint SystemModel barrier build_system eval_h_batch "
              "identity_candidate make_double_integrator register_system registered_systems",
    "qp": "QpProblem QpSolution QpStatus solve_box_qp",
    "sampler": "SampleClass SampleHeader SampleSet draw_batch load_samples read_header "
               "run_sampling save_samples",
    "boundary": "BoundarySet auto_epsilon extract_boundary load_boundary save_boundary",
    "fitter": "FitConfig FitResult SearchCounts VerificationReport check_redundancy fit_multi "
              "fit_nonuniform fit_uniform load_fit save_fit verify_candidate",
    "simulator": "FilterConfig InvarianceReport SimConfig Trajectory check_invariance "
                 "hdot_rate_bound nominal_controller reference_spline safety_filter_many "
                 "simulate simulate_many step",
    "config": "ConfigError PipelineConfig load_config parse_config",
}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTED.items()
                                          for n in names.split()])
def test_package_exports_resolve_on_first_use(module, name):
    """Each name resolves through `from cbfsynth import name` to the object
    its old module binds, and `dir(cbfsynth)` lists it."""
    import cbfsynth

    namespace = {}
    exec(f"from cbfsynth import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"cbfsynth.{module}"), name)
    assert name in dir(cbfsynth)
