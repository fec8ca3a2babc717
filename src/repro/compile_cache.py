"""One compile-once cache for generated Python source, and the
indented-source builder both generators write it with.

The pysim FSM backends (:mod:`repro.codegen.pysim`) and the cycle
kernels (:mod:`repro.rtl.kernel`) are both pure functions of their
generated source text, so each keeps a process-wide
:class:`SourceCache` keyed by the SHA-256 of that text: two builds of
the same design (a harness sweep rebuilding row after row, a server
worker, a process-pool worker) compile once.  Thread-safe -- harness
sweeps and server workers build simulators concurrently.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Callable, Dict, List


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
    """``source -> compiled object``, built at most once per distinct
    text, with the hit/miss counters the benchmarks read."""

    def __init__(self):
        self._entries: Dict[str, object] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get(self, source: str, build: Callable[[str], object]):
        """The compiled object for ``source``; ``build(source)`` runs on
        first sight (outside the lock -- compilation can be slow)."""
        key = source_key(source)
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None:
                self._hits += 1
                return hit
        built = build(source)
        with self._lock:
            winner = self._entries.setdefault(key, built)
            # a concurrent caller may have compiled the same source
            # first; only the insertion counts as a miss, so hits +
            # misses always equals calls and misses equals entries
            if winner is built:
                self._misses += 1
            else:
                self._hits += 1
        return winner

    def stats(self) -> Dict[str, int]:
        """``hits``/``misses``/``entries`` counters."""
        with self._lock:
            return {"hits": self._hits, "misses": self._misses,
                    "entries": len(self._entries)}

    def clear(self) -> None:
        """Drop every entry and reset the counters (tests)."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
