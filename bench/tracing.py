"""Layer spans recorded from outside the program.

``Tracer.install`` replaces the entry points of each sphkol module (its
module-level functions, plus the methods of the few classes that are layer
boundaries) with wrappers that record a span per call, in every sphkol module
namespace that binds them.  ``uninstall`` puts the originals back.  Value types
such as ``SpectralField`` are not wrapped: a span per method call there costs
more than the work it times.

A span is (name id, start, end, parent index); a layer's self time is the
duration of its spans minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

# Module -> layer.  rotating is left out on purpose: its one diagonal
# multiplier costs nothing measurable, and its time falls to its caller.
LAYERS = {
    "sphkol.harmonics": "harmonics",
    "sphkol.sht": "sht",
    "sphkol.operators": "operators",
    "sphkol.pde_solver": "pde_solver",
    "sphkol.reduced_ode": "reduced_ode",
    "sphkol.cli": "cli",
    "sphkol.serialize": "cli",
}
BOUNDARY_CLASSES = {
    "sphkol.harmonics": ("QuadratureGrid",),
    "sphkol.pde_solver": ("Stepper",),
}
ROOT = "bench.op"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.wrapped: set[str] = set()  # entry points found at the last install
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        self.wrapped.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, stack[-1] if stack else -1)

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        self.wrapped.clear()
        holders = [m for n, m in list(sys.modules.items()) if n == "sphkol" or n.startswith("sphkol.")]
        for modname, layer in LAYERS.items():
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != modname:
                    continue
                traced = self._wrap(f"{layer}.{attr}", obj)
                for holder in holders:
                    for bound, value in list(vars(holder).items()):
                        if value is obj:
                            self._patch(holder, bound, traced)
            for clsname in BOUNDARY_CLASSES.get(modname, ()):
                cls = getattr(mod, clsname, None)
                if cls is not None:
                    self._install_class(cls, f"{layer}.{clsname}")

    def _install_class(self, cls, prefix: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if isinstance(obj, functools.cached_property):
                prop = functools.cached_property(self._wrap(f"{prefix}.{attr}", obj.func))
                prop.__set_name__(cls, attr)
                self._patch(cls, attr, prop)
            elif inspect.isfunction(obj) and (attr == "__init__" or not attr.startswith("__")):
                self._patch(cls, attr, self._wrap(f"{prefix}.{attr}", obj))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def root(self):
        """Wrapper that records one benchmark operation as the root span."""
        return self._wrap(ROOT, lambda fn, *args: fn(*args))

    def take(self) -> list:
        """The spans recorded so far; the tracer starts empty again."""
        out = list(self.spans)
        self.spans.clear()
        return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list, names: list[str]) -> dict:
    """Per-layer self time and per-entry-point calls and inclusive time of one op's spans."""
    child = [0.0] * len(spans)
    for nid, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    inclusive: dict[str, float] = defaultdict(float)
    outer = Counter()  # synthesis/analysis entries not nested in another of the same kind
    for i, (nid, start, end, parent) in enumerate(spans):
        name = names[nid]
        dur = end - start
        self_s[layer_of(name)] += dur - child[i]
        calls[name] += 1
        inclusive[name] += dur
        if layer_of(name) == "sht":
            parent_name = names[spans[parent][0]] if parent >= 0 else ""
            for kind in ("synth", "analy"):
                if kind in name.rsplit(".", 1)[-1] and not (
                    layer_of(parent_name) == "sht" and kind in parent_name.rsplit(".", 1)[-1]
                ):
                    outer[kind] += 1
    roots = [end - start for nid, start, end, parent in spans if parent < 0]
    return {
        "wall_s": sum(roots),
        "self_s": dict(self_s),
        "calls": dict(calls),
        "inclusive_s": dict(inclusive),
        "synth_calls": outer["synth"],
        "analysis_calls": outer["analy"],
    }
