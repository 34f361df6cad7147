"""Span tracing of qce's layers, installed from outside the library.

Only the traced run installs it. Every public function of a layer module is
wrapped at the import bindings through which other modules call it (a name
bound in another ``qce`` module, or a module object bound there, which is
swapped for a proxy whose functions are wrapped). Public methods and
``__init__`` of the layer's classes are wrapped on the class itself, since a
class binding cannot be swapped without breaking ``isinstance``. Everything
is restored on exit.

A span is ``(op, layer, name, start, end, parent)``; ``parent`` indexes the
span list, and each op has a root span of layer ``outside`` that covers the
whole timed operation. Spans are held in memory and written out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
import types

LAYERS = (
    "matcore",
    "entropy",
    "resolutions",
    "shannon",
    "grassopt",
    "audit",
    "serialize",
    "cli",
    "rand",
)
ROOT_LAYER = "outside"


class Tracer:
    """Collects spans for the op that is currently open; idle otherwise."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._op = None

    @contextlib.contextmanager
    def op(self, op_id):
        self._op = op_id
        root = self._open()
        try:
            yield
        finally:
            self._close(root, ROOT_LAYER, "op")
            self._op = None

    def wrap(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            idx = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, layer, name)

        return traced

    def adopt(self, child_spans) -> None:
        """Graft spans recorded by a child process under the open span."""
        base = len(self.spans)
        parent = self._stack[-1]
        for layer, name, start, end, child_parent in child_spans:
            p = parent if child_parent < 0 else base + child_parent
            self.spans.append((self._op, layer, name, start, end, p))

    def _open(self) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((self._op, None, None, time.perf_counter(), None, parent))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, layer: str, name: str) -> None:
        end = time.perf_counter()
        self._stack.pop()
        op, _, _, start, _, parent = self.spans[idx]
        self.spans[idx] = (op, layer, name, start, end, parent)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _public_members(mod):
    for attr, obj in vars(mod).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if isinstance(obj, (types.FunctionType, type)):
            yield attr, obj


def _wrap_class(tracer: Tracer, layer: str, cls, undo: list) -> None:
    for attr, member in list(vars(cls).items()):
        if attr != "__init__" and attr.startswith("_"):
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(member, types.FunctionType):
            replacement = tracer.wrap(layer, name, member)
        elif isinstance(member, (classmethod, staticmethod)):
            replacement = type(member)(tracer.wrap(layer, name, member.__func__))
        else:
            continue
        undo.append((cls, attr, member))
        setattr(cls, attr, replacement)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every layer's public API for the duration of the block."""
    layer_mods = {name: importlib.import_module(f"qce.{name}") for name in LAYERS}
    callers = [m for n, m in list(sys.modules.items()) if n == "qce" or n.startswith("qce.")]
    undo: list = []
    wrapped: dict[int, object] = {}
    proxies: dict[int, types.ModuleType] = {}
    try:
        for layer, mod in layer_mods.items():
            proxy = types.ModuleType(mod.__name__)
            proxy.__dict__.update(vars(mod))
            for attr, obj in _public_members(mod):
                if isinstance(obj, type):
                    _wrap_class(tracer, layer, obj, undo)
                else:
                    wrapped[id(obj)] = tracer.wrap(layer, f"{layer}.{attr}", obj)
                    setattr(proxy, attr, wrapped[id(obj)])
            proxies[id(mod)] = proxy
        for caller in callers:
            for attr, obj in list(vars(caller).items()):
                replacement = wrapped.get(id(obj)) or (
                    proxies.get(id(obj)) if isinstance(obj, types.ModuleType) else None
                )
                if replacement is not None and caller is not _defining_module(obj):
                    undo.append((caller, attr, obj))
                    setattr(caller, attr, replacement)
        yield tracer
    finally:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)


def _defining_module(obj):
    return sys.modules.get(getattr(obj, "__module__", None) or "")


def layer_report(spans) -> dict:
    """Self time and calls into each layer, summed over all ops.

    A span's self time is its duration minus the durations of its direct
    children. A call into a layer is a span whose parent belongs to another
    layer (or is the op root); calls within one layer are not counted.
    """
    child_time = [0.0] * len(spans)
    for _, _, _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time = {layer: 0.0 for layer in (ROOT_LAYER,) + LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    ops = set()
    total = 0.0
    for idx, (op, layer, _, start, end, parent) in enumerate(spans):
        ops.add(op)
        self_time[layer] += (end - start) - child_time[idx]
        if layer == ROOT_LAYER:
            total += end - start
        elif parent < 0 or spans[parent][1] != layer:
            calls[layer] += 1
    n_ops = max(len(ops), 1)
    return {
        "ops": len(ops),
        "total_s": total,
        "self_share": {k: (v / total if total > 0 else 0.0) for k, v in self_time.items()},
        "calls_per_op": {k: v / n_ops for k, v in calls.items()},
    }
