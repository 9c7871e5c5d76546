"""Span tracing from outside the package: module attributes are swapped for
timing wrappers, so nothing under ``src/`` changes.

Layers are the package modules.  Every public function of a layer (and
every public method of its classes) is wrapped, wherever another package
module bound it by name, so cross-module calls and calls inside the layer
go through the wrapper.  Two exceptions keep the numbers meaningful:
``cli`` wraps only ``main``, so parser set-up and envelope formatting stay
in the CLI's self time, and ``rates`` is wrapped only where other modules
call it, so its internal calls are not counted twice.

Names are looked up at install time; one that a refactor removed simply
records no spans.  Spans are kept in flat arrays in memory and reduced to
per-layer figures when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import Counter
from time import perf_counter
from typing import Any, Callable

LAYERS = ("cli", "scenario", "channel", "optimizer", "regions", "rates")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter[str] = Counter()
        self.current_op = -1
        self.active = False
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.current_op)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.start[idx] = t0
                self.end[idx] = t1
                self._stack.pop()
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self, hooks: dict[str, Callable] | None = None) -> None:
        """Wrap the package's public callables.  ``hooks`` maps a span name
        to ``f(counts, result)``, called after each traced call."""
        hooks = hooks or {}
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"macwiretap.{layer}")
            except ImportError:
                continue
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if layer == "cli" and attr != "main":
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrapper = self._wrap(name, obj, hooks.get(name))
                    targets = [m for lay, m in modules.items() if not (layer == "rates" and lay == "rates")]
                    for target in targets:
                        for bound, value in list(vars(target).items()):
                            if value is obj:
                                self._set(target, bound, wrapper)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj, hooks)

    def _wrap_methods(self, layer: str, cls: type, hooks: dict[str, Callable]) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                wrapped = type(member)(self._wrap(name, member.__func__, hooks.get(name)))
            elif inspect.isfunction(member):
                wrapped = self._wrap(name, member, hooks.get(name))
            else:
                continue
            self._set(cls, attr, wrapped)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reducing ----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, Any]]:
        """Per span name: calls, total seconds, self seconds (duration minus
        the part covered by child spans), and calls and seconds per op id."""
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict[str, Any]] = {}
        for i in range(n):
            name = self.names[self.name[i]]
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                          "by_op": Counter(), "calls_by_op": Counter()})
            entry["calls"] += 1
            entry["s"] += dur[i]
            entry["self_s"] += dur[i] - child[i]
            entry["by_op"][self.op[i]] += dur[i]
            entry["calls_by_op"][self.op[i]] += 1
        return out
