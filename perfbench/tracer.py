"""Outside-in span tracer for the scmac layers.

The tracer wraps the public functions and public methods of each scmac
module, found by walking the module rather than from a fixed list, and
installs each wrapper at every place another scmac module binds the
original: `from .converters import asc_encode` in `pipelines`, the module
attribute that `mac_mod.product_matrix` or intra-module calls resolve
through, and the package namespace. Nothing under `src/` is edited, and
`uninstall` puts every original back.

Every call of a wrapped function is one span: layer, start, end, parent
span and operation id. Spans are kept in flat in-memory arrays while the
program runs and reduced or written out afterwards. A layer's self time is
the duration of its spans minus the part their child spans cover; since
the program is single-threaded, children nest inside their parent and never
overlap, so the covered part is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array
from contextlib import contextmanager

import numpy as np

# module -> layer; `pipelines` is split further by PIPELINE_SPANS
LAYER_OF_MODULE = {
    "scmac.distributions": "distributions",
    "scmac.converters": "converters",
    "scmac.lfsr": "lfsr",
    "scmac.bitstream": "bitstream",
    "scmac._prng": "prng",
    "scmac.mac": "mac",
    "scmac.energy": "energy",
    "scmac.pipelines": "pipelines",
    "scmac.config": "config",
    "scmac.cli": "cli",
}
PIPELINE_SPANS = {
    "conventional_pipeline": "pipelines.conventional",
    "proposed_pipeline": "pipelines.proposed",
    "exact_oracle": "pipelines.oracle",
}
# the remaining public callables of `pipelines` (run_comparison, result
# accessors, config helpers) form the plain `pipelines` span
LAYERS = (
    "distributions",
    "converters",
    "lfsr",
    "bitstream",
    "prng",
    "mac",
    "energy",
    "pipelines",
    "pipelines.conventional",
    "pipelines.proposed",
    "pipelines.oracle",
    "config",
    "cli",
)
ROOT = "op"  # the benchmark's own span around one operation
NAMES = (ROOT,) + LAYERS


def _layer_for(module_name: str, attr: str) -> str:
    layer = LAYER_OF_MODULE[module_name]
    if layer == "pipelines":
        return PIPELINE_SPANS.get(attr, layer)
    return layer


_METHOD_KINDS = (types.FunctionType, property, classmethod, staticmethod)


def discover(modules=None):
    """Yield (owner, attribute, raw object, layer) for every traceable callable.

    `owner` is the module for module-level functions and the class for
    methods; `raw` is the object as stored there (a function, a property,
    a classmethod or staticmethod, or an lru_cache wrapper). A generator
    function's span ends when it returns its generator, so the time spent
    iterating lands in the caller.
    """
    if modules is None:
        modules = [sys.modules[name] for name in LAYER_OF_MODULE if name in sys.modules]
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                for m_attr, raw in list(vars(obj).items()):
                    if m_attr.startswith("_"):
                        continue
                    if isinstance(raw, _METHOD_KINDS):
                        yield obj, m_attr, raw, _layer_for(mod.__name__, attr)
            elif callable(obj):
                yield mod, attr, obj, _layer_for(mod.__name__, attr)


class Tracer:
    """Collects spans from wrapped scmac callables; see the module docstring."""

    def __init__(self):
        self.layer_ids = {name: i for i, name in enumerate(NAMES)}
        self.names = array("h")
        self.parents = array("q")
        self.ops = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self._stack = [-1]
        self.op_id = -1
        self._patches = []  # (owner, attribute, original) in installation order

    # -- recording ---------------------------------------------------------

    def _begin(self, lid: int) -> int:
        i = len(self.names)
        self.names.append(lid)
        self.parents.append(self._stack[-1])
        self.ops.append(self.op_id)
        self.ends.append(0)
        self.starts.append(time.perf_counter_ns())
        self._stack.append(i)
        return i

    def _end(self, i: int) -> None:
        self.ends[i] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap_function(self, fn, layer: str):
        lid = self.layer_ids[layer]
        begin, end = self._begin, self._end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = begin(lid)
            try:
                return fn(*args, **kwargs)
            finally:
                end(i)

        return traced

    def _wrap_raw(self, raw, layer: str):
        if isinstance(raw, property):
            fget = raw.fget and self._wrap_function(raw.fget, layer)
            return property(fget, raw.fset, raw.fdel, raw.__doc__)
        if isinstance(raw, classmethod):
            return classmethod(self._wrap_function(raw.__func__, layer))
        if isinstance(raw, staticmethod):
            return staticmethod(self._wrap_function(raw.__func__, layer))
        return self._wrap_function(raw, layer)

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one benchmark operation; layer spans nest inside it."""
        self.op_id = op_id
        i = self._begin(self.layer_ids[ROOT])
        try:
            yield
        finally:
            self._end(i)
            self.op_id = -1

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every discovered callable at each scmac binding site."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrapped = {}  # id(original module-level function) -> wrapper
        try:
            for owner, attr, raw, layer in list(discover()):
                new = self._wrap_raw(raw, layer)
                if isinstance(owner, type):
                    self._patches.append((owner, attr, raw))
                    setattr(owner, attr, new)
                else:
                    wrapped[id(raw)] = (raw, new)
            # module-level functions: every scmac namespace that binds them
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "scmac" or name.startswith("scmac.")):
                    continue
                for attr, obj in list(vars(mod).items()):
                    hit = wrapped.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        self._patches.append((mod, attr, obj))
                        setattr(mod, attr, hit[1])
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        """Restore every original object, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed_for(self, op_id: int):
        """Install, trace one operation, and always restore the originals."""
        self.install()
        try:
            with self.operation(op_id):
                yield
        finally:
            self.uninstall()

    # -- reduction ---------------------------------------------------------

    def span_arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.names, dtype=np.int16).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int64).copy(),
            "op": np.frombuffer(self.ops, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.starts, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.ends, dtype=np.int64).copy(),
        }

    def layer_totals(self, op_id: int) -> dict[str, dict[str, float]]:
        """Per-name self seconds and call count for one operation."""
        return layer_totals(self.span_arrays(), op_id)

    def write(self, path: str) -> None:
        """Write all recorded spans, with the name table, as an .npz file."""
        np.savez(path, names=np.array(NAMES), **self.span_arrays())


def layer_totals(spans: dict[str, np.ndarray], op_id: int) -> dict[str, dict[str, float]]:
    """Self time and call count per span name, over the spans of one operation.

    Self time of a span = its duration minus the summed durations of its
    direct children.
    """
    dur = (spans["end_ns"] - spans["start_ns"]).astype(np.float64)
    parent = spans["parent"]
    n = dur.size
    has_parent = parent >= 0
    child_cover = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_ns = dur - child_cover
    mine = spans["op"] == op_id
    names = spans["name"][mine]
    self_by_name = np.bincount(names, weights=self_ns[mine], minlength=len(NAMES))
    calls_by_name = np.bincount(names, minlength=len(NAMES))
    return {
        name: {"self_s": float(self_by_name[i]) / 1e9, "calls": int(calls_by_name[i])}
        for i, name in enumerate(NAMES)
    }
