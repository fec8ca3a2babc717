"""One bounded compile-once cache, and the indented-source builder the
code generators write with.

The pysim FSM backends (:mod:`repro.codegen.pysim`) and the cycle
kernels (:mod:`repro.rtl.kernel`) are both pure functions of their
generated source text, so each keeps a process-wide
:class:`SourceCache` keyed by the SHA-256 of that text
(:func:`source_key`): two builds of the same design (a harness sweep
rebuilding row after row, a server worker, a process-pool worker)
compile once.  FSM planning (:mod:`repro.core.fsmplan`) is a pure
function of the process, and keeps a third instance keyed by a digest
of the process itself.  Every instance holds at most :data:`CAP`
entries and evicts the least recently used one past that.
Thread-safe -- harness sweeps and server workers build simulators
concurrently.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional

#: entries each cache keeps; past it the least recently used is evicted
CAP = 128


class Emitter:
    """Tiny indented-source builder: ``line`` appends at the current
    indent (four spaces per level), ``push``/``pop`` change it."""

    def __init__(self):
        self.lines: List[str] = []
        self._indent = 1    # generated bodies live inside one function

    def line(self, text: str = ""):
        self.lines.append("    " * self._indent + text if text else "")

    def push(self):
        self._indent += 1

    def pop(self):
        self._indent -= 1


def source_key(source: str) -> str:
    """The cache key of a generated source: its SHA-256 hex digest."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


class SourceCache:
    """``key -> built object``, built at most once per distinct key
    while the entry lives, with the counters the benchmarks and the
    server's ``/stats`` read."""

    def __init__(self):
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: Optional[str], build: Callable[[], object]):
        """The object cached under ``key``; ``build()`` runs on a miss
        (outside the lock -- building can be slow).  A ``None`` key
        builds every time, stores nothing and counts a miss."""
        if key is None:
            built = build()
            with self._lock:
                self._misses += 1
            return built
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return hit
        built = build()
        with self._lock:
            winner = self._entries.setdefault(key, built)
            # a concurrent caller may have built the same key first;
            # only the insertion counts as a miss, so hits + misses
            # always equals calls
            if winner is built:
                self._misses += 1
                if len(self._entries) > CAP:
                    self._entries.popitem(last=False)
                    self._evictions += 1
            else:
                self._entries.move_to_end(key)
                self._hits += 1
        return winner

    def stats(self) -> Dict[str, int]:
        """``hits``/``misses``/``entries``/``evictions`` counters."""
        with self._lock:
            return {"hits": self._hits, "misses": self._misses,
                    "entries": len(self._entries),
                    "evictions": self._evictions}

    def clear(self) -> None:
        """Drop every entry and reset the counters (tests)."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0
