"""Per-layer span tracing, patched onto the program from the benchmark side.

The program under test is never edited: :class:`Tracer` replaces the
functions and methods of every loaded ``repro`` module with wrappers
(and puts every original back on :meth:`Tracer.uninstall`).  A wrapper
counts each call; when the call crosses from one layer into another it
also records a span ``(name, start, end, parent)`` in flat in-memory
arrays.  Calls that stay inside the caller's layer record no span: the
layer's self time is the same either way, and skipping them keeps the
span count (and the tracing overhead) proportional to layer crossings.

Private methods are wrapped as well as public ones, because event
callbacks (``Link._deliver``, ``TcpFlow._on_rto``, ...) are private and
the engine calls them directly: leaving them bare would bill their time
to the engine.  Modules outside :data:`LAYERS` are traced as the
``unattributed`` pseudo-layer, so experiment code, loss models and
invariant checkers do not inflate the layer that happens to call them.

:func:`fold` turns the spans into per-layer self times: a span's self
time is its duration minus its direct children's durations, and a
layer's self time is the sum over its spans.  Time outside every span
plus the ``unattributed`` layer's self time is ``unattributed_s``, so
the named layers plus ``unattributed_s`` add up to the traced wall time.
"""

from __future__ import annotations

import enum
import functools
import inspect
import sys
import time
import types
from array import array
from collections.abc import Callable, Iterable
from typing import Any

__all__ = ["LAYERS", "UNATTRIBUTED", "LAYER_NAMES", "layer_of", "Patcher",
           "Tracer", "fold", "callable_attributes"]

#: Layer -> the modules (or packages) it covers.  Order is the report order.
LAYERS: dict[str, tuple[str, ...]] = {
    "engine": ("repro.simulator.engine",),
    "link": ("repro.simulator.link",),
    "switch": ("repro.simulator.switch", "repro.simulator.packet"),
    "transport": ("repro.simulator.tcp", "repro.simulator.udp",
                  "repro.simulator.apps"),
    "fluid": ("repro.simulator.fluid",),
    "protocol": ("repro.core.protocol",),
    "counters": ("repro.core.counters", "repro.core.hashtree",
                 "repro.core.zooming"),
    "detector": ("repro.core.detector",),
    "fabric": ("repro.fabric.graph", "repro.fabric.reroute",
               "repro.fabric.deployment"),
    "telemetry": ("repro.telemetry", "repro.obs"),
    "service": ("repro.service.ladder", "repro.service.supervision"),
    "runtime": ("repro.runtime.executor", "repro.runtime.jobs"),
}
UNATTRIBUTED = "unattributed"
LAYER_NAMES: tuple[str, ...] = (*LAYERS, UNATTRIBUTED)
_LAYER_INDEX = {name: i for i, name in enumerate(LAYER_NAMES)}

#: Root package whose modules are traced; other modules are left alone.
ROOT_PACKAGE = "repro"

#: Dunder methods worth a span: construction and callable objects.
_TRACED_DUNDERS = frozenset({"__init__", "__call__"})

_NO_SPAN = -1


def layer_of(module: str, root: str = ROOT_PACKAGE) -> str | None:
    """The layer a module belongs to, ``unattributed`` for the rest of
    the program, or ``None`` for modules outside it."""
    for layer, prefixes in LAYERS.items():
        for prefix in prefixes:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    if module == root or module.startswith(root + "."):
        return UNATTRIBUTED
    return None


LayerFn = Callable[[str], "str | None"]


def _program_modules(layer_fn: LayerFn) -> list[tuple[str, types.ModuleType]]:
    return [(name, mod) for name, mod in sorted(sys.modules.items())
            if mod is not None and layer_fn(name) is not None]


def callable_attributes(layer_fn: LayerFn = layer_of) -> dict[tuple[str, str], Any]:
    """Every function of the program's modules and classes, by location.

    Compared by identity before :meth:`Tracer.install` and after
    :meth:`Tracer.uninstall`, it shows that no wrapper was left behind.
    """
    out: dict[tuple[str, str], Any] = {}
    for modname, module in _program_modules(layer_fn):
        for attr, obj in vars(module).items():
            if isinstance(obj, types.FunctionType):
                out[(modname, attr)] = obj
            elif isinstance(obj, type) and obj.__module__ == modname:
                for name, member in vars(obj).items():
                    if isinstance(member, types.FunctionType | staticmethod | classmethod):
                        out[(f"{modname}:{obj.__qualname__}", name)] = member
    return out


class Patcher:
    """Sets attributes and restores every original, newest first."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def _traceable(fn: Any) -> bool:
    """Plain functions only; generators would close their span at creation."""
    return (isinstance(fn, types.FunctionType)
            and not inspect.isgeneratorfunction(fn)
            and not inspect.iscoroutinefunction(fn))


class Tracer:
    """Wraps the program's functions and records layer-crossing spans.

    Args:
        layer_fn: module name -> layer (``None`` = leave untraced).
        always_span: ``module:qualname`` names that record a span on
            every call, even inside their own layer (used to time the
            payload checksum separately from the rest of the protocol).
    """

    def __init__(self, layer_fn: LayerFn = layer_of,
                 always_span: Iterable[str] = ()) -> None:
        self.layer_fn = layer_fn
        self.always_span = frozenset(always_span)
        #: Per traced function: ``module:qualname``, layer index, calls.
        self.names: list[str] = []
        self.name_layer = array("i")
        self.calls: list[int] = []
        #: Spans, one entry per array index; parent -1 = top level.
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        #: Open span index and its layer index (the wrappers' shared cursor).
        self._state = [_NO_SPAN, _NO_SPAN]
        self._patcher = Patcher()

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn: Callable[..., Any], name: str, layer: str) -> Callable[..., Any]:
        """A wrapper that counts calls to ``fn`` and spans layer crossings."""
        nid = len(self.names)
        layer_id = _LAYER_INDEX[layer]
        self.names.append(name)
        self.name_layer.append(layer_id)
        self.calls.append(0)
        always = name in self.always_span
        calls = self.calls
        state = self._state
        add_name = self.span_name.append
        add_parent = self.span_parent.append
        add_start = self.span_start.append
        add_end = self.span_end.append
        ends = self.span_end
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            calls[nid] += 1
            parent, parent_layer = state
            if parent_layer == layer_id and not always:
                return fn(*args, **kwargs)
            idx = len(ends)
            add_name(nid)
            add_parent(parent)
            add_end(0.0)
            state[0] = idx
            state[1] = layer_id
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                state[0] = parent
                state[1] = parent_layer

        functools.update_wrapper(traced, fn)
        return traced

    def install(self) -> None:
        """Wrap every function and method of the loaded program modules.

        Only modules already imported are patched, so run the workload
        once untraced first (it imports everything it needs lazily).
        """
        originals: dict[int, tuple[Any, Any]] = {}
        seen_classes: set[int] = set()
        modules = _program_modules(self.layer_fn)
        for modname, module in modules:
            layer = self.layer_fn(modname)
            assert layer is not None
            short = modname.split(".", 1)[-1]
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != modname:
                    continue
                if _traceable(obj):
                    wrapper = self.wrap(obj, f"{short}:{obj.__qualname__}", layer)
                    originals[id(obj)] = (obj, wrapper)
                    self._patcher.set(module, attr, wrapper)
                elif (isinstance(obj, type) and id(obj) not in seen_classes
                      and not issubclass(obj, enum.Enum)):
                    seen_classes.add(id(obj))
                    self._wrap_class(obj, short, layer)
        # ``from .x import f`` aliases still point at the original.
        for _modname, module in modules:
            for attr, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patcher.set(module, attr, hit[1])

    def _wrap_class(self, cls: type, short: str, layer: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("__") and attr not in _TRACED_DUNDERS:
                continue
            if isinstance(obj, staticmethod | classmethod):
                fn = obj.__func__
                if _traceable(fn):
                    kind = type(obj)
                    self._patcher.set(cls, attr, kind(
                        self.wrap(fn, f"{short}:{fn.__qualname__}", layer)))
            elif _traceable(obj):
                self._patcher.set(
                    cls, attr, self.wrap(obj, f"{short}:{obj.__qualname__}", layer))

    def uninstall(self) -> None:
        """Put every patched attribute back."""
        self._patcher.restore()

    # -- results -------------------------------------------------------------

    def call_count(self, *names: str) -> int:
        """Total calls of the given ``module:qualname`` functions."""
        wanted = set(names)
        return sum(c for n, c in zip(self.names, self.calls) if n in wanted)

    def spans(self) -> dict[str, Any]:
        """The recorded spans and name table, as numpy arrays.

        The span arrays are views of the recording buffers: take them
        after :meth:`uninstall`, when nothing appends any more.
        """
        import numpy as np

        def view(buffer: array, dtype: Any) -> Any:
            return np.frombuffer(buffer, dtype=dtype) if len(buffer) else np.zeros(0, dtype)

        return {
            "name": view(self.span_name, np.int32),
            "parent": view(self.span_parent, np.int32),
            "start": view(self.span_start, np.float64),
            "end": view(self.span_end, np.float64),
            "names": np.array(self.names, dtype=str),
            "name_layer": view(self.name_layer, np.int32),
            "calls": np.array(self.calls, dtype=np.int64),
        }


def fold(spans: dict[str, Any], wall_s: float,
         inclusive: dict[str, Iterable[str]] | None = None) -> dict[str, Any]:
    """Per-layer self times of one traced run.

    Args:
        spans: the arrays of :meth:`Tracer.spans`.
        wall_s: traced wall time the spans were recorded in.
        inclusive: metric -> ``module:qualname`` names whose *outermost*
            spans' full durations it sums (e.g. time in the checksum).

    Returns ``self_s`` (layer -> seconds, named layers only),
    ``unattributed_s``, ``build_s`` per layer (its outermost spans that
    ran outside any engine span, i.e. building before or between
    simulations), the ``inclusive`` sums, and ``consistent``: spans nest
    inside their parents and inside the wall interval.
    """
    import numpy as np

    name = spans["name"]
    parent = spans["parent"]
    dur = spans["end"] - spans["start"]
    n = len(name)
    span_layer = spans["name_layer"][name] if n else np.zeros(0, dtype=np.int32)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=n) if n else np.zeros(0)
    self_t = dur - child
    layer_self = np.bincount(span_layer, weights=self_t,
                             minlength=len(LAYER_NAMES)) if n else np.zeros(len(LAYER_NAMES))
    outside = wall_s - float(dur[~has_parent].sum())
    unattributed = outside + float(layer_self[_LAYER_INDEX[UNATTRIBUTED]])
    tolerance = 1e-6 * max(wall_s, 1.0)
    consistent = bool(outside >= -tolerance
                      and (n == 0 or float(self_t.min()) >= -tolerance))

    def ancestor_has(mask: Any) -> Any:
        """Per span: does some proper ancestor satisfy ``mask``?"""
        found = np.zeros(n, dtype=bool)
        anc = parent.copy()
        live = anc >= 0
        while live.any():
            idx = np.nonzero(live)[0]
            found[idx] |= mask[anc[idx]]
            anc[idx] = parent[anc[idx]]
            live = anc >= 0
        return found

    def outermost_s(member: Any) -> float:
        if not member.any():
            return 0.0
        return float(dur[member & ~ancestor_has(member)].sum())

    in_engine = ancestor_has(span_layer == _LAYER_INDEX["engine"])
    build_s = {layer: outermost_s((span_layer == _LAYER_INDEX[layer]) & ~in_engine)
               for layer in LAYERS}
    names = list(spans["names"])
    sums: dict[str, float] = {}
    for metric, labels in (inclusive or {}).items():
        wanted = set(labels)
        ids = [i for i, label in enumerate(names) if label in wanted]
        sums[metric] = outermost_s(np.isin(name, ids))

    return {
        "wall_s": wall_s,
        "self_s": {layer: float(layer_self[_LAYER_INDEX[layer]]) for layer in LAYERS},
        "unattributed_s": unattributed,
        "build_s": build_s,
        "inclusive": sums,
        "consistent": consistent,
        "spans": n,
        "self_by_name": np.bincount(name, weights=self_t, minlength=len(names))
        if n else np.zeros(len(names)),
    }
