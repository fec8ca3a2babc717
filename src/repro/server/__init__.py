"""``repro.server`` -- the long-lived simulation service.

A stdlib-only asyncio subsystem that turns the one-shot
``Session``/``ScenarioRegistry`` API into a serving architecture:

* :mod:`~repro.server.app` -- HTTP endpoints (browse the registry,
  submit run/sweep/bench jobs, poll, fetch structured results) plus
  WebSocket trace streaming, all over asyncio streams.
* :mod:`~repro.server.jobs` -- a bounded job queue with explicit 429
  backpressure, thread workers sharing the process-wide warm pysim and
  cycle-kernel compile caches, and a result cache that makes repeated
  submissions O(1).
* :mod:`~repro.server.trace` -- the per-cycle waveform/activity delta
  tap and the bounded ring that fans deltas out to WebSocket clients
  without ever stalling the simulation.
* :mod:`~repro.server.client` -- a small blocking client (tests,
  examples, CI smoke).

Start one with ``python -m repro serve``, ``Session().serve()``, or
directly::

    from repro.server import ReproServer, ServerClient

    with ReproServer(port=0).start_in_thread() as server:
        client = ServerClient(port=server.port)
        result = client.run("streams", cycles=256)
"""

from .app import ReproServer
from .client import JobFailed, ServerBusy, ServerClient, ServerError
from .jobs import Backpressure, BadSubmission, Job, JobQueue, ResultCache
from .trace import TraceHub, TraceSubscription, TraceTap

__all__ = [
    "ReproServer",
    "ServerClient",
    "ServerError",
    "ServerBusy",
    "JobFailed",
    "JobQueue",
    "Job",
    "Backpressure",
    "BadSubmission",
    "ResultCache",
    "TraceHub",
    "TraceSubscription",
    "TraceTap",
]
