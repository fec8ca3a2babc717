"""Declarative sweep jobs (:class:`JobSpec`), the executors that run
them -- ``serial`` and ``process`` -- and :func:`run_batch`, the one
entry point the sweeps go through.

Scenario sweeps and sharded fault-injection campaigns are lists of
*independent* jobs.  A :class:`JobSpec` *describes* a job instead of
capturing it in a closure: a registered job ``kind``, the scenario
registry name it targets, a frozen :class:`~repro.api.SimConfig`, and
a tuple of picklable parameters.  Workers rebuild the work from the
description, so the same spec list runs identically on either
executor:

* ``serial``  -- in-process, submission order; the default and the
  profiling/debugging reference;
* ``process`` -- a :class:`~concurrent.futures.ProcessPoolExecutor` with
  chunked sharding and real multi-core speedup.

Guarantees shared by both executors:

* **Determinism** -- results are keyed by job name in submission order;
  the output never depends on completion order, and every job owns its
  RNGs and simulators.
* **Exception propagation** -- the first failing job *in submission
  order* re-raises in the caller.  For process workers the original
  exception is re-raised where picklable, with the worker's formatted
  traceback attached via an :class:`ExecutorError` cause, so remote
  failures debug like local ones.

This module runs generic JobSpecs only: job kinds are registered with
:func:`job_kind` by the modules that own them (the scenario runs in
:mod:`repro.api`, the campaign shards in :mod:`repro.inject.campaign`),
resolved lazily through ``_KIND_HOMES`` so workers only import what
their jobs need.  The paper harnesses and ``Session.bench`` run in the
caller's process and submit no jobs: measured on two cores, the pool
never beat a serial run of them.
"""

from __future__ import annotations

import importlib
import os
import pickle
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: the available execution strategies, validated by the config layer
EXECUTORS = ("serial", "process")

#: how many chunks each process worker should receive on average; >1 so
#: uneven job costs still balance across the pool
_CHUNKS_PER_WORKER = 4

#: how many times a pool whose worker died abnormally is rebuilt, and
#: the pause before each rebuild (seconds)
_MAX_RETRIES = 1
_RETRY_BACKOFF = 0.25


# ---------------------------------------------------------------------------
# job descriptions
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class JobSpec:
    """One declarative, picklable sweep job.

    ``kind``
        a registered job kind (see :func:`job_kind`);
    ``name``
        the result key -- unique within one batch, submission order is
        result order;
    ``config``
        the :class:`~repro.api.SimConfig` the job runs under (may be
        ``None`` for kinds that take no simulation config);
    ``scenario``
        the scenario-registry name the job targets, when it targets one;
    ``params``
        extra kind-specific parameters as a ``(key, value)`` tuple --
        everything in it must pickle.
    """

    kind: str
    name: str
    config: object = None
    scenario: Optional[str] = None
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self):
        if not isinstance(self.kind, str) or not self.kind:
            raise ValueError(f"JobSpec.kind must be a non-empty str, "
                             f"got {self.kind!r}")
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"JobSpec.name must be a non-empty str, "
                             f"got {self.name!r}")
        object.__setattr__(self, "params", tuple(
            (str(k), v) for k, v in self.params))

    def param(self, key: str, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default


# ---------------------------------------------------------------------------
# job kinds
# ---------------------------------------------------------------------------
#: kind name -> handler; handlers take a JobSpec and return a picklable
#: result
JOB_KINDS: Dict[str, Callable[[JobSpec], object]] = {}

#: kinds implemented by modules this one must not import eagerly -- the
#: module registers the kind at import time; workers import on demand
_KIND_HOMES = {
    "run_scenario": "repro.api",
    "inject_campaign": "repro.inject.campaign",
}


def job_kind(name: str):
    """Register a job-kind handler under ``name`` (decorator)."""
    def decorate(handler):
        if name in JOB_KINDS:
            raise ValueError(f"job kind {name!r} is already registered")
        JOB_KINDS[name] = handler
        return handler
    return decorate


def execute_job(spec: JobSpec):
    """Run one :class:`JobSpec` in this process and return its result."""
    handler = JOB_KINDS.get(spec.kind)
    if handler is None and spec.kind in _KIND_HOMES:
        importlib.import_module(_KIND_HOMES[spec.kind])
        handler = JOB_KINDS.get(spec.kind)
    if handler is None:
        known = ", ".join(sorted(set(JOB_KINDS) | set(_KIND_HOMES)))
        raise ValueError(
            f"unknown job kind {spec.kind!r}: known kinds are {known}"
        )
    return handler(spec)


# ---------------------------------------------------------------------------
# failure propagation
# ---------------------------------------------------------------------------
class ExecutorError(RuntimeError):
    """A job failed inside an executor.

    For process workers the original exception is re-raised in the
    caller where picklable, with an ``ExecutorError`` as its
    ``__cause__`` carrying the worker's formatted traceback; when the
    original cannot cross the process boundary the ``ExecutorError``
    itself is raised.
    """

    def __init__(self, job_name: str, message: str,
                 worker_traceback: Optional[str] = None):
        detail = f"job {job_name!r} failed: {message}"
        if worker_traceback:
            detail += f"\n--- worker traceback ---\n{worker_traceback}"
        super().__init__(detail)
        self.job_name = job_name
        self.worker_traceback = worker_traceback


def _outcome_of(spec: JobSpec):
    """Run one spec, catching failures into a picklable outcome tuple."""
    try:
        return ("ok", execute_job(spec))
    except Exception as exc:              # shipped to the caller, not lost
        tb = traceback.format_exc()
        try:
            pickle.loads(pickle.dumps(exc))
            payload = exc
        except Exception:
            payload = None
        return ("err", (payload, repr(exc), tb))


def _raise_outcome(name: str, error) -> None:
    exc, rep, tb = error
    cause = ExecutorError(name, rep, tb)
    if exc is not None:
        raise exc from cause
    raise cause


# ---------------------------------------------------------------------------
# the executors
# ---------------------------------------------------------------------------
class SerialExecutor:
    """Submission-order in-process execution (the reference)."""

    name = "serial"

    def run(self, specs: Sequence[JobSpec]) -> Dict[str, object]:
        return {s.name: execute_job(s) for s in specs}


def _chunked(items: List, size: int) -> List[List]:
    return [items[i:i + size] for i in range(0, len(items), size)]


def _worker_init() -> None:
    """Process-pool initializer: restore the default SIGTERM action.

    Fork workers inherit the CLI's SIGTERM->KeyboardInterrupt mapping,
    which would turn ``Process.terminate()`` into "abort this chunk,
    start the next queued one"; pool workers must actually die on
    SIGTERM."""
    import signal

    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):
        pass


def _run_chunk(specs: List[JobSpec]) -> List[Tuple[str, object]]:
    return [_outcome_of(spec) for spec in specs]


def _mp_context():
    import multiprocessing as mp

    if "fork" in mp.get_all_start_methods():
        # fork is the cheap path and inherits the populated scenario
        # registry and compile caches; spawn/forkserver workers import
        # and compile on demand instead
        return mp.get_context("fork")
    return mp.get_context()


class ProcessExecutor:
    """Chunk-sharded :class:`~concurrent.futures.ProcessPoolExecutor`
    execution of :class:`JobSpec` lists -- the only executor that buys
    wall-clock speedup for GIL-bound sweeps (given >1 core).

    Chunks keep IPC amortized; results come back keyed in submission
    order; the first failing job in submission order re-raises with its
    worker traceback (see :class:`ExecutorError`).

    A worker that dies *abnormally* (killed by a signal, OOM) poisons
    the whole pool: every unfinished future reports
    ``BrokenProcessPool``.  Finished chunks are kept and the unfinished
    ones are retried once on a fresh pool after ``_RETRY_BACKOFF``
    seconds -- transient deaths (an OOM-killed sibling, a container
    resize, a fault-injection campaign worker taking its hang budget
    out badly) clear on retry, while a deterministic crash fails again
    and propagates.  ``self.retries`` counts the rebuilds for tests and
    diagnostics."""

    name = "process"

    def __init__(self, workers: int):
        self.workers = max(1, workers)
        self.retries = 0

    def run(self, jobs: Sequence[JobSpec]) -> Dict[str, object]:
        # imported here: it pulls in multiprocessing, which only a
        # process-pool run needs
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        jobs = list(jobs)
        if not jobs:
            return {}
        ctx = _mp_context()
        slots = self.workers * _CHUNKS_PER_WORKER
        pending = _chunked(jobs, max(1, -(-len(jobs) // slots)))
        results: Dict[str, object] = {}
        self.retries = 0

        def make_pool(n_chunks: int) -> ProcessPoolExecutor:
            return ProcessPoolExecutor(
                max_workers=min(self.workers, n_chunks),
                mp_context=ctx,
                initializer=_worker_init,
            )

        pool = make_pool(len(pending))
        try:
            while True:
                broken: List[List[JobSpec]] = []
                cause: Optional[BaseException] = None
                futures = []
                try:
                    for chunk in pending:
                        futures.append(pool.submit(_run_chunk, chunk))
                except BrokenProcessPool as exc:
                    # the pool died mid-submission: everything not yet
                    # submitted needs the fresh pool too
                    cause = exc
                    broken.extend(pending[len(futures):])
                for chunk, fut in zip(pending, futures):
                    try:
                        payloads = fut.result()
                    except BrokenProcessPool as exc:
                        cause = cause or exc
                        broken.append(chunk)
                        continue
                    for spec, (status, payload) in zip(chunk, payloads):
                        if status == "err":
                            _raise_outcome(spec.name, payload)
                        results[spec.name] = payload
                if not broken:
                    break
                if self.retries >= _MAX_RETRIES:
                    raise ExecutorError(
                        broken[0][0].name,
                        f"worker process died abnormally (signal/OOM) "
                        f"and the retried pool died too; "
                        f"{sum(map(len, broken))} job(s) unfinished",
                    ) from cause
                self.retries += 1
                pool.shutdown(wait=False, cancel_futures=True)
                time.sleep(_RETRY_BACKOFF)
                pending = broken
                pool = make_pool(len(pending))
        except KeyboardInterrupt:
            # a deliberate stop: cancel queued chunks AND terminate the
            # workers mid-chunk. A terminal Ctrl-C delivers SIGINT to
            # the whole foreground group, but a bare signal to the
            # parent does not -- without the terminate, interpreter
            # exit blocks joining workers still grinding their chunk.
            # (snapshot first: shutdown() clears pool._processes; kill,
            # not terminate -- a still-inherited SIGTERM handler would
            # let the worker survive and pick up the next queued chunk)
            workers = dict(getattr(pool, "_processes", None) or {})
            pool.shutdown(wait=False, cancel_futures=True)
            for worker in workers.values():
                if worker.is_alive():
                    worker.kill()
            raise
        except BaseException:
            pool.shutdown(wait=True, cancel_futures=True)
            raise
        pool.shutdown()
        return results


def get_executor(name: str, workers: int = 1):
    """Instantiate the named executor (``serial``/``process``)."""
    if name == "serial":
        return SerialExecutor()
    if name == "process":
        return ProcessExecutor(workers)
    choices = ", ".join(repr(e) for e in EXECUTORS)
    raise ValueError(
        f"unknown executor {name!r}: known executors are {choices}"
    )


def run_batch(specs: Sequence[JobSpec], executor: str = "serial",
              workers: Optional[int] = None) -> Dict[str, object]:
    """Run a JobSpec list on the named executor, returning ``{name:
    result}`` in submission order.

    ``workers`` is the process pool size; it defaults to
    ``min(len(specs), os.cpu_count())``.  The executor name alone picks
    the path: a one-worker ``process`` run still crosses the pickling
    boundary.
    """
    specs = list(specs)
    for spec in specs:
        if not isinstance(spec, JobSpec):
            raise TypeError(
                f"run_batch takes JobSpecs only; got {spec!r} "
                f"({type(spec).__name__})"
            )
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(
            f"duplicate job name(s) {dupes!r}: results are keyed by "
            f"name, so every job in a batch needs a distinct one"
        )
    if workers is None:
        workers = max(1, min(len(specs), os.cpu_count() or 1))
    return get_executor(executor, workers).run(specs)
