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


def _hook_result_chains() -> dict[str, set[tuple[str, ...]]]:
    """Per hooked function ("sampler.run_sampling", ...), the attribute
    chains its hook in run.py's `install_hooks` reads off the function's
    result: `result.tracker.jaccard` is ("tracker", "jaccard"), and each
    prefix of a chain is a chain too."""
    install = next(node for node in _tree("run.py").body
                   if isinstance(node, ast.FunctionDef) and node.name == "install_hooks")
    reads: dict[str, set[tuple[str, ...]]] = {}
    for hook in install.body:
        if isinstance(hook, ast.FunctionDef):
            reads[hook.name] = set()
            for node in ast.walk(hook):
                chain = []
                while isinstance(node, ast.Attribute):
                    chain.insert(0, node.attr)
                    node = node.value
                if chain and isinstance(node, ast.Name) and node.id == "result":
                    reads[hook.name].add(tuple(chain))
    table = next(node for node in ast.walk(install) if isinstance(node, ast.Dict))
    return {ast.literal_eval(key): reads[value.id]
            for key, value in zip(table.keys, table.values)}


def test_hook_result_scan_sees_the_sampling_hook():
    """The scan is not blind: it finds the feasible fraction the sampling
    hook reads off both sampling functions' results."""
    chains = _hook_result_chains()
    assert ("tracker", "jaccard") in chains["sampler.run_sampling"]
    assert chains["sampler.load_samples"] == chains["sampler.run_sampling"]
    assert chains["boundary.extract_boundary"] == set()


def test_hook_result_attributes_resolve(di, tmp_path):
    """Every attribute chain a hook reads off a result resolves on a real
    result of the hooked function: here a small `run_sampling` set and its
    `load_samples` round trip. A hook that starts reading attributes off
    another function's result needs a real result of it here."""
    from cbfsynth.sampler import load_samples, run_sampling, save_samples

    from conftest import REFERENCE_BOUNDS

    sampled = run_sampling(*di, REFERENCE_BOUNDS, n_min=200, delta=1.0, growth=3.0, seed=3)
    save_samples(sampled, tmp_path / "samples.jsonl")
    results = {"sampler.run_sampling": sampled,
               "sampler.load_samples": load_samples(tmp_path / "samples.jsonl")}
    missing = []
    for target, chains in _hook_result_chains().items():
        assert target in results or not chains, f"no real result of {target}"
        for chain in chains:
            value = results[target]
            for attr in chain:
                if not hasattr(value, attr):
                    missing.append(f"{target}: result.{'.'.join(chain)}")
                    break
                value = getattr(value, attr)
    assert not missing, missing
