"""In-memory spans around calls into figwasp's layers, recorded from outside.

A `Tracer` replaces module and class attributes of the program with
wrappers that record one span per call: a layer name, start and end
times, and the index of the enclosing span. Spans live in flat arrays, so
a traced optimisation run of a few hundred thousand calls costs a few MB.
Self time of a span is its duration minus the durations of its direct
children. Wrapping draws nothing from the program's random stream and
passes arguments and results through unchanged, unless an ``after`` hook
deliberately returns a wrapped object.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, NamedTuple

import numpy as np


class LayerTotals(NamedTuple):
    calls: int
    total_s: float
    self_s: float


def resolve(module: str, path: str) -> tuple[Any, str]:
    """(owner, attribute name) of ``module.path``; the owner is None if missing."""
    owner = importlib.import_module(module)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
    return owner, attr


class Tracer:
    def __init__(self):
        self._name_ids: dict[str, int] = {}
        self._span_name = array("i")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._patched: list[tuple[Any, str, Any]] = []
        self.counters: dict[str, float] = defaultdict(float)
        # span names with at least one patched attribute that exists
        self.present: set[str] = set()

    def wrap_fn(self, fn: Callable, name: str, after: Callable | None = None) -> Callable:
        """Return ``fn`` wrapped so each call records a span called ``name``.

        ``after(args, kwargs, result)`` runs outside the span and returns
        what the caller receives.
        """
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        span_name, parent, start, end, stack = self._span_name, self._parent, self._start, self._end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            span_name.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            return result if after is None else after(args, kwargs, result)

        return traced

    def patch(self, module: str, path: str, name: str, after: Callable | None = None) -> bool:
        """Replace ``module.path`` (``attr`` or ``Class.attr``) by a traced wrapper.

        Returns False, and wraps nothing, when the attribute does not exist.
        """
        owner, attr = resolve(module, path)
        original = getattr(owner, attr, None)
        if original is None:
            return False
        setattr(owner, attr, self.wrap_fn(original, name, after))
        self._patched.append((owner, attr, original))
        self.present.add(name)
        return True

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, patches: Callable[["Tracer"], None]):
        """Apply ``patches(self)`` for the duration of the block, then restore."""
        try:
            patches(self)
            yield self
        finally:
            self.restore()

    def totals(self) -> dict[str, LayerTotals]:
        """Calls, total time and self time per span name."""
        n = len(self._start)
        names = sorted(self._name_ids, key=self._name_ids.get)
        if n == 0:
            return {name: LayerTotals(0, 0.0, 0.0) for name in names}
        ids = np.frombuffer(self._span_name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        duration = np.frombuffer(self._end) - np.frombuffer(self._start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested], minlength=n)
        own = duration - child
        k = len(names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=duration, minlength=k)
        self_time = np.bincount(ids, weights=own, minlength=k)
        return {
            name: LayerTotals(int(calls[i]), float(total[i]), float(self_time[i]))
            for i, name in enumerate(names)
        }
