"""The benchmark under perfbench/ imports, calls and patches cbfsynth names
from outside the package. Each of them must still resolve, so that removing
a public name cannot silently break a benchmark run."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text())


def _literal(tree: ast.Module, name: str):
    """The value of a module-level literal assignment `name = ...`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets
                                             if isinstance(t, ast.Name)] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no literal {name} in the tracer")


@pytest.mark.parametrize("script", ["run.py", "probe.py"])
def test_perfbench_cbfsynth_names_resolve(script):
    """Every `from cbfsynth... import` name, every attribute taken from an
    imported cbfsynth module (`sim.simulate`, `fitter.load_fit`, ...) and
    every (module, "name") pair that run.py patches with setattr exists."""
    tree = _tree(script)
    modules = {}        # local name -> imported cbfsynth module
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cbfsynth"):
            mod = importlib.import_module(node.module)
            for alias in node.names:
                try:   # a name defined in the module, else a submodule, as `import` does
                    value = (getattr(mod, alias.name) if hasattr(mod, alias.name) else
                             importlib.import_module(f"{node.module}.{alias.name}"))
                except ImportError:
                    missing.append(f"{node.module}.{alias.name}")
                    continue
                if inspect.ismodule(value):
                    modules[alias.asname or alias.name] = value
    assert modules or script == "probe.py"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules and not hasattr(modules[node.value.id], node.attr):
            missing.append(f"{node.value.id}.{node.attr}")
        if isinstance(node, ast.Tuple) and len(node.elts) == 2 \
                and isinstance(node.elts[0], ast.Name) and node.elts[0].id in modules \
                and isinstance(node.elts[1], ast.Constant) \
                and not hasattr(modules[node.elts[0].id], node.elts[1].value):
            missing.append(f"{node.elts[0].id}.{node.elts[1].value}")
    assert not missing, missing


def test_tracer_bindings_resolve():
    """The tracer wraps each layer module's functions plus the names in its
    FOREIGN (a function bound into a layer) and METHODS (a class method)
    tables; each must be found where the table says."""
    tree = _tree("tracer.py")
    mods = {name: importlib.import_module(f"cbfsynth.{name}")
            for name in _literal(tree, "LAYERS")}
    foreign = _literal(tree, "FOREIGN")
    methods = _literal(tree, "METHODS")
    assert ("qp", "linprog", "qp.linprog") in foreign
    assert ("simulator", "Trajectory", "to_csv") in methods
    for site, attr, _ in foreign:
        assert callable(getattr(mods[site], attr, None)), f"{site}.{attr}"
    for site, cls, attr in methods:
        assert callable(getattr(getattr(mods[site], cls, None), attr, None)), \
            f"{site}.{cls}.{attr}"
