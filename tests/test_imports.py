import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cbfsynth"

# the one module that may import scipy: an infeasible QP's phase-1 LP
SCIPY_ALLOWED = {"qp.py"}


def _imported_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.lineno, node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_import_outside_phase1(path):
    """No package module but `qp` imports scipy, at module level or inside a
    function, so a cold pipeline runs on numpy alone."""
    if path.name in SCIPY_ALLOWED:
        return
    found = [line for line, root in _imported_roots(ast.parse(path.read_text()))
             if root == "scipy"]
    assert not found, f"{path.name} imports scipy at line(s) {found}"


def test_import_scan_sees_qp_phase1():
    """The scan finds the import it allows, so it is not blind."""
    tree = ast.parse((SRC / "qp.py").read_text())
    assert "scipy" in {root for _, root in _imported_roots(tree)}
