"""In-memory span tracer that wraps cbfsynth's public functions from outside.

Every public module-level function of each layer is replaced, at every module
that binds it, by a wrapper that records one span per call: a name, a start
and end time, the id of the enclosing span and the id of the benchmark
operation it belongs to. A function imported into another module
(``from .qp import solve_box_qp``) is wrapped at that binding too, and its
span name carries the binding site (``qp.solve_box_qp@simulator``), so calls
are counted where the consumer makes them. Nothing inside ``src/`` changes;
``uninstall`` puts every original back.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import time
from collections import defaultdict

LAYERS = ("config", "system", "qp", "sampler", "boundary", "fitter", "simulator", "cli")

# Functions defined outside the package whose calls belong to a layer:
# (binding module, attribute, span name).
FOREIGN = (("qp", "linprog", "qp.linprog"),)

# Public methods worth a span of their own: (module, class, method).
METHODS = (("simulator", "Trajectory", "to_csv"),)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.hooks: dict[str, object] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self.op = 0
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        mods = {name: importlib.import_module(f"cbfsynth.{name}") for name in LAYERS}
        owner = {}
        for layer, mod in mods.items():
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    owner[fn] = f"{layer}.{attr}"
        for site, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                name = owner.get(fn) if inspect.isfunction(fn) else None
                if name is None:
                    continue
                if name.split(".")[0] != site:
                    name = f"{name}@{site}"
                self._patch(mod, attr, name)
        for site, attr, name in FOREIGN:
            self._patch(mods[site], attr, name)
        for site, cls, attr in METHODS:
            self._patch(getattr(mods[site], cls), attr, f"{site}.{cls}.{attr}")

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patched):
            setattr(obj, attr, original)
        self._patched.clear()

    def _patch(self, obj, attr: str, name: str) -> None:
        original = getattr(obj, attr)
        setattr(obj, attr, self._wrap(original, name))
        self._patched.append((obj, attr, original))

    def _wrap(self, fn, name: str):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else 0
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, tracer.op, name, t0, t1))
            hook = tracer.hooks.get(name)
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- analysis ------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span time not covered by the span's direct children."""
        child = defaultdict(int)
        for _, parent, _, _, t0, t1 in self.spans:
            child[parent] += t1 - t0
        out = dict.fromkeys(LAYERS, 0.0)
        for sid, _, _, name, t0, t1 in self.spans:
            out[name.split(".")[0]] += (t1 - t0 - child.get(sid, 0)) * 1e-9
        return out

    def layers_seen(self) -> set[str]:
        return {s[3].split(".")[0] for s in self.spans}

    def write(self, path) -> None:
        """JSON lines: a header naming the fields, then one array per span."""
        with open(path, "w") as f:
            f.write(json.dumps({"fields": ["id", "parent", "op", "name", "start_ns", "end_ns"]})
                    + "\n")
            for span in self.spans:
                f.write(json.dumps(span, separators=(",", ":")) + "\n")
