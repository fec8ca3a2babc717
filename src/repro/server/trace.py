"""Live trace streaming: a monitor tap on the simulator feeding a
bounded, shared delta ring.

The simulation runs on a job-queue worker *thread* (CPU-bound Python);
WebSocket clients live on the server's asyncio loop.  The bridge
between the two must never stall the simulation on a slow client and
must never grow memory per client, so it is built the other way around
from a per-client mailbox:

* :class:`TraceTap` registers as a ``Simulator.on_cycle`` monitor (this
  is also what cleanly disables the compiled cycle-kernel fast path --
  a streamed run takes the interpreted per-cycle path, which is the
  only path with a per-cycle hook).  Each cycle it computes the delta
  of every watched wire against the last emitted value plus the
  cumulative toggle count, and publishes it.
* :class:`TraceHub` keeps the deltas in one bounded ring shared by all
  subscribers.  Publishing is append-and-evict -- O(1), no waiting --
  so the simulation thread never blocks.
* :class:`TraceSubscription` is a cursor into the ring plus a wakeup
  event on the subscriber's asyncio loop.  A client that falls behind
  by more than the ring depth loses the evicted deltas: its ``dropped``
  counter records exactly how many, and the stream's end frame flags
  the loss instead of silently pretending completeness.  Late
  subscribers replay whatever the ring still holds, so streams opened
  after a job finished still see its (tail of) history.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Dict, List, Optional, Tuple


class TraceTap:
    """Per-cycle waveform/activity delta emitter (a simulator monitor).

    Attach with ``sim.on_cycle(tap)`` before the run and detach with
    ``sim.remove_monitor(tap)`` after; each call publishes::

        {"type": "delta", "cycle": c,
         "changes": {label: new_value, ...},   # watched wires that moved
         "activity": total_toggles_so_far}
    """

    def __init__(self, sim, hub: "TraceHub"):
        self._sim = sim
        self._hub = hub
        self._last: Dict[str, int] = {}

    def __call__(self, cycle: int) -> None:
        changes: Dict[str, int] = {}
        last = self._last
        for label, wire, _series in self._sim.waveform._watched:
            value = wire.value
            if last.get(label) != value:
                changes[label] = value
                last[label] = value
        self._hub.publish({
            "type": "delta",
            "cycle": cycle,
            "changes": changes,
            "activity": self._sim.total_activity(),
        })


class TraceSubscription:
    """One client's cursor into a hub's ring, with an asyncio wakeup."""

    def __init__(self, hub: "TraceHub", loop: asyncio.AbstractEventLoop):
        self._hub = hub
        self._loop = loop
        self._event = asyncio.Event()
        # replay from the very first delta: anything already evicted is
        # counted as dropped, so a late subscriber is *told* what the
        # retained tail omits instead of silently starting mid-stream
        self.cursor = 0
        self.dropped = 0

    def _wake(self) -> None:
        self._event.set()

    async def deltas(self):
        """Yield deltas in order until the hub closes and the cursor
        catches up.  Evicted-past deltas are skipped and counted in
        ``dropped``; the generator itself never blocks the producer."""
        hub = self._hub
        while True:
            self._event.clear()
            batch, self.cursor, lost = hub.read_from(self.cursor)
            self.dropped += lost
            for delta in batch:
                yield delta
            if hub.closed and self.cursor >= hub.next_seq():
                return
            await self._event.wait()


class TraceHub:
    """A bounded, thread-safe delta ring with asyncio subscribers.

    ``depth`` bounds total retained deltas (the per-client buffer bound:
    every subscriber reads through this one window).  The producer side
    (:meth:`publish`, :meth:`close`) is called from the simulation
    worker thread; the consumer side (:meth:`subscribe`,
    :meth:`read_from`) from the server's asyncio loop.
    """

    def __init__(self, depth: int = 4096):
        if depth < 1:
            raise ValueError(f"trace ring depth must be >= 1, got {depth}")
        self._lock = threading.Lock()
        self._buf: List[dict] = []
        self._base = 0            # sequence number of _buf[0]
        self._next = 0            # sequence number the next delta gets
        self._depth = depth
        self._subs: List[TraceSubscription] = []
        self.closed = False
        self.end: Optional[dict] = None

    # -- producer side (worker thread) ---------------------------------
    def publish(self, delta: dict) -> None:
        with self._lock:
            if self.closed:
                return
            self._buf.append(delta)
            self._next += 1
            overflow = len(self._buf) - self._depth
            if overflow > 0:
                del self._buf[:overflow]
                self._base += overflow
            subs = list(self._subs)
        self._wake_all(subs)

    def close(self, **end_info) -> None:
        """Mark the stream finished; ``end_info`` lands in the shared
        end record each client's final frame is built from."""
        with self._lock:
            if self.closed:
                return
            self.end = {"type": "end", **end_info}
            self.closed = True
            subs = list(self._subs)
        self._wake_all(subs)

    @staticmethod
    def _wake_all(subs: List[TraceSubscription]) -> None:
        for sub in subs:
            try:
                sub._loop.call_soon_threadsafe(sub._wake)
            except RuntimeError:
                pass             # subscriber's loop already shut down

    # -- consumer side (asyncio loop) ----------------------------------
    def subscribe(self, loop: Optional[asyncio.AbstractEventLoop] = None
                  ) -> TraceSubscription:
        loop = loop or asyncio.get_event_loop()
        sub = TraceSubscription(self, loop)
        with self._lock:
            self._subs.append(sub)
        return sub

    def unsubscribe(self, sub: TraceSubscription) -> None:
        with self._lock:
            if sub in self._subs:
                self._subs.remove(sub)

    def read_from(self, cursor: int) -> Tuple[List[dict], int, int]:
        """``(batch, new_cursor, lost)``: everything retained at or
        after ``cursor``, the cursor to resume from, and how many deltas
        between the old cursor and the batch were already evicted."""
        with self._lock:
            lost = max(0, self._base - cursor)
            start = max(cursor, self._base) - self._base
            batch = self._buf[start:]
            return batch, self._next, lost

    def next_seq(self) -> int:
        with self._lock:
            return self._next

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "depth": self._depth,
                "retained": len(self._buf),
                "published": self._next,
                "subscribers": len(self._subs),
            }
