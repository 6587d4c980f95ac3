import ast
from pathlib import Path

import pytest

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
