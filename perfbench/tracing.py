"""In-memory span recorder for the traced benchmark run.

Spans are recorded by the benchmark's own code around calls into the
layers' public functions: either directly (``with tracer.span(...)``)
or by rebinding a layer function to a recording wrapper for the life of
one worker process.  Nothing under ``src/`` is edited.

A span is ``[name, start_ns, end_ns, parent, op]``: ``parent`` is the
index of the enclosing span on the same thread (``-1`` at the top) and
``op`` the index of the benchmark op that was running (``-1`` during
set-up, ``-2`` during output checks).  Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import List, NamedTuple


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.op = -1
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        """Start a span under the current one and return its index; the
        caller ends it by setting ``spans[index][2]``."""
        stack = self._stack()
        rec = [name, time.perf_counter_ns(), 0,
               stack[-1] if stack else -1, self.op]
        with self._lock:
            self.spans.append(rec)
            return len(self.spans) - 1

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        stack = self._stack()
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.spans[index][2] = time.perf_counter_ns()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def rebind(self, module_name: str, attr: str, name: str) -> bool:
        """Wrap ``module.attr`` and every other binding of the same
        function object in the loaded ``repro`` modules (``from x import
        f`` copies).  Returns False, recording nothing, when the target
        does not exist."""
        module = sys.modules.get(module_name)
        orig = getattr(module, attr, None) if module else None
        if orig is None:
            return False
        traced = self.wrap(orig, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, traced)
        return True

    def rebind_method(self, cls, attr: str, name: str) -> bool:
        orig = cls.__dict__.get(attr)
        if orig is None:
            return False
        setattr(cls, attr, self.wrap(orig, name))
        return True


class Row(NamedTuple):
    name: str
    ms: float
    self_ms: float
    op: int


def rows(spans: List[list]) -> List[Row]:
    """One row per span.  Self time is the span's duration minus the
    time its direct child spans cover."""
    child_ns = defaultdict(int)
    for span in spans:
        if span[3] >= 0:
            child_ns[span[3]] += span[2] - span[1]
    return [Row(s[0], (s[2] - s[1]) / 1e6,
                (s[2] - s[1] - child_ns[i]) / 1e6, s[4])
            for i, s in enumerate(spans)]


def total(rows: List[Row], name: str, field: str = "ms") -> float:
    return sum(getattr(r, field) for r in rows if r.name == name)


def each(rows: List[Row], name: str) -> List[float]:
    return [r.ms for r in rows if r.name == name]
