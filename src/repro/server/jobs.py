"""The server's job engine: a bounded queue, a thread worker pool over
the process-wide warm compile caches, and a result cache.

Why threads, not processes: the whole point of a long-lived service is
that compile work survives across requests.  The pysim and cycle-kernel
caches (:mod:`repro.codegen.pysim`, :mod:`repro.rtl.kernel`) are
process-global and lock-guarded, so worker *threads* all hit one warm
cache -- the second submission of any topology compiles nothing.  (The
GIL serializes the simulation itself, but jobs still overlap their
pure-Python phases, and a ``sweep`` job may itself fan out on the
``process`` executor for real multi-core work.)

Backpressure is explicit: the queue holds at most ``depth`` not-yet-
started jobs; a submission beyond that raises :class:`Backpressure`,
which the HTTP layer translates into ``429`` + ``Retry-After``.  The
server never accepts unbounded work.

Finished runs are cached under one key: SHA-256 of (stimulus key,
cycles, trace).  The stimulus key
(:func:`repro.rtl.snapshot.stimulus_key`) covers (scenario, seed,
stim), which the builders are deterministic in.  Everything else --
engine, backend, executor, checkpointing, watchdog, ``from_cycle`` --
is deliberately *excluded*: the repo's equivalence suites pin every
engine x backend pair bit-identical and a resumed run bit-identical to
a from-0 run, so a result computed under one serves a submission under
another (the hit is flagged in the result's diagnostics, with the pair
that actually computed it).  The key is checked at submit -- a hit is
answered without building or running anything: O(1), zero recompiles
-- and again when a queued run starts, for a twin that finished
meanwhile.

Identical in-flight submissions coalesce onto one queued/running job --
eight clients asking for the same run occupy one queue slot and pay one
simulation.

Underneath the result cache sits the snapshot tier
(:mod:`repro.rtl.snapshot`): run jobs go through
:func:`repro.api.run_scenario`, so the queue shares the process-wide
:class:`~repro.rtl.snapshot.CheckpointStore` with direct
``Session.run``/``sweep`` callers, and run submissions accept
``from_cycle`` -- the job restores the deepest checkpoint at or below
that cycle for its (topology, stimulus) and simulates only the tail,
which is what lets clients fork divergent runs from a shared prefix.
Streamed resumed runs publish absolute cycle numbers (the trace tap
reads ``sim.cycle``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import queue
import threading
import time
import traceback as traceback_mod
from typing import Dict, List, Optional

from ..api import (
    RunResult,
    Session,
    SimConfig,
    get_registry,
    run_scenario,
)
from ..codegen import pysim
from ..core import fsmplan
from ..rtl import kernel
from ..rtl.snapshot import get_checkpoint_store, stimulus_key
from .trace import TraceHub, TraceTap

#: job lifecycle states, in order
STATES = ("queued", "running", "done", "failed", "cancelled")

#: submission kinds the queue understands
KINDS = ("run", "sweep", "bench", "inject")


class Backpressure(RuntimeError):
    """The bounded queue is full; retry after ``retry_after`` seconds."""

    def __init__(self, depth: int, retry_after: float):
        self.depth = depth
        self.retry_after = retry_after
        super().__init__(
            f"job queue is full ({depth} queued job(s)); "
            f"retry after {retry_after:g}s"
        )


class BadSubmission(ValueError):
    """A submission payload the queue refuses (unknown kind/scenario,
    invalid config overrides, wrong field types)."""


def _check_scenario(kind: str, scenario: object) -> None:
    """Refuse a run or inject submission whose scenario is missing or
    unregistered (the registry's message names close matches)."""
    if not isinstance(scenario, str) or not scenario:
        raise BadSubmission(f"{kind} jobs need a scenario name")
    try:
        get_registry().get(scenario)
    except KeyError as exc:
        raise BadSubmission(str(exc.args[0]))


def _check_selection(scenarios: object, tag: object) -> None:
    """Refuse a sweep or bench submission that names an unknown scenario
    or tag: the selection check the job would fail on once it runs."""
    if scenarios is not None and not (
            isinstance(scenarios, list)
            and all(isinstance(s, str) for s in scenarios)):
        raise BadSubmission("scenarios must be a list of names")
    if tag is not None and not isinstance(tag, str):
        raise BadSubmission(f"tag must be a string, got {tag!r}")
    try:
        get_registry().select(scenarios, tag)
    except KeyError as exc:
        raise BadSubmission(str(exc.args[0]))


_JOB_IDS = itertools.count(1)


class Job:
    """One submitted unit of work and its lifecycle record."""

    __slots__ = (
        "id", "kind", "scenario", "scenarios", "tag", "seeds", "config",
        "stream", "hub", "params", "state", "error", "traceback",
        "result", "cached", "submit_key", "result_key", "submitted",
        "started", "finished",
    )

    def __init__(self, kind: str, config: SimConfig,
                 scenario: Optional[str] = None,
                 scenarios: Optional[List[str]] = None,
                 tag: Optional[str] = None, seeds: Optional[int] = None,
                 stream: bool = False, trace_depth: int = 4096,
                 params: Optional[Dict[str, object]] = None):
        self.id = f"job-{next(_JOB_IDS)}"
        self.kind = kind
        self.scenario = scenario
        self.scenarios = scenarios
        self.tag = tag
        self.seeds = seeds
        self.config = config
        self.stream = stream
        self.hub = TraceHub(depth=trace_depth) if stream else None
        self.params = params or {}
        self.state = "queued"
        self.error: Optional[str] = None
        self.traceback: Optional[str] = None   # full worker traceback
        self.result = None           # RunResult (run) or plain data
        self.cached: Optional[str] = None      # None | "submit"
        self.submit_key = self._submit_key()
        self.result_key = (_result_key(scenario, config)
                           if kind == "run" else None)
        self.submitted = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None

    def _submit_key(self) -> str:
        material = json.dumps({
            "kind": self.kind,
            "scenario": self.scenario,
            "scenarios": self.scenarios,
            "tag": self.tag,
            "seeds": self.seeds,
            "config": self.config.to_json(),
            "params": self.params,
        }, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def record(self, include_result: bool = False) -> Dict[str, object]:
        """The job's wire form (the ``GET /jobs/<id>`` body)."""
        out: Dict[str, object] = {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "scenario": self.scenario,
            "config": self.config.to_dict(),
            "stream": self.stream,
            "cached": self.cached,
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
        }
        if self.kind != "run":
            out["scenarios"] = self.scenarios
            out["tag"] = self.tag
            out["seeds"] = self.seeds
        if self.error is not None:
            out["error"] = self.error
        if self.traceback is not None:
            out["traceback"] = self.traceback
        if include_result and self.state == "done":
            out["result"] = self.result_payload()
        return out

    def result_payload(self):
        """The JSON-ready result body: the pinned
        :meth:`~repro.api.RunResult.to_dict` schema for run jobs, the
        already-structured rows/maps for sweep/bench."""
        if isinstance(self.result, RunResult):
            return self.result.to_dict(include_activity=True,
                                       include_samples=True)
        return self.result


def _result_key(scenario: str, config: SimConfig) -> str:
    """The result-cache key of a run: SHA-256 of (stimulus key, cycles,
    trace) -- nothing that cannot change the result."""
    material = json.dumps(
        [stimulus_key(scenario, config), config.cycles, config.trace],
        separators=(",", ":"))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class ResultCache:
    """Finished-run storage (run-kind jobs only), keyed by
    :func:`_result_key`.

    Stored results are detached (``sim=None``) so the cache holds
    sampled data, not live module graphs.  ``hits`` counts runs
    answered from the cache, at submit or when a queued run starts;
    ``misses`` counts submissions the cache could not answer at submit
    (the second lookup, when a queued run starts, counts only a hit).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._results: Dict[str, RunResult] = {}
        self._hits = 0
        self._misses = 0

    def lookup(self, key: str, count_miss: bool) -> Optional[RunResult]:
        with self._lock:
            hit = self._results.get(key)
            if hit is not None:
                self._hits += 1
            elif count_miss:
                self._misses += 1
            return hit

    def store(self, key: str, result: RunResult) -> None:
        detached = dataclasses.replace(result, sim=None)
        with self._lock:
            self._results.setdefault(key, detached)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "entries": len(self._results),
            }


class JobQueue:
    """Bounded submissions, thread workers, shared warm caches."""

    def __init__(self, config: Optional[SimConfig] = None,
                 depth: int = 16, workers: int = 2,
                 retry_after: float = 1.0, trace_depth: int = 4096):
        if depth < 1:
            raise ValueError(f"queue depth must be >= 1, got {depth}")
        if workers < 1:
            raise ValueError(f"worker count must be >= 1, got {workers}")
        self.config = config if config is not None else SimConfig()
        self.depth = depth
        self.retry_after = retry_after
        self.trace_depth = trace_depth
        self.cache = ResultCache()
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue()
        self._lock = threading.RLock()
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._inflight: Dict[str, Job] = {}    # submit_key -> live run job
        self._queued = 0
        self._coalesced = 0
        self._accepting = False
        self._workers = [
            threading.Thread(target=self._worker_loop, daemon=True,
                             name=f"repro-job-worker-{i}")
            for i in range(workers)
        ]

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "JobQueue":
        self._accepting = True
        for worker in self._workers:
            worker.start()
        return self

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> Dict[str, int]:
        """Stop accepting, cancel everything still queued, and (when
        ``drain``) wait for running jobs to finish.  Returns
        ``{"cancelled": n, "drained": m}`` for the shutdown log line."""
        with self._lock:
            self._accepting = False
            cancelled = 0
            for job in self._jobs.values():
                if job.state == "queued":
                    job.state = "cancelled"
                    job.finished = time.time()
                    self._inflight.pop(job.submit_key, None)
                    cancelled += 1
            running = sum(1 for j in self._jobs.values()
                          if j.state == "running")
        for _ in self._workers:
            self._queue.put(None)
        if drain:
            deadline = None if timeout is None else time.time() + timeout
            for worker in self._workers:
                if not worker.is_alive():
                    continue
                remaining = None if deadline is None \
                    else max(0.0, deadline - time.time())
                worker.join(remaining)
        return {"cancelled": cancelled, "drained": running}

    # -- submission ----------------------------------------------------
    def submit(self, payload: Dict[str, object]) -> Job:
        """Validate and accept one submission; returns the (possibly
        shared or already-done) job.  Raises :class:`BadSubmission` on
        malformed payloads and :class:`Backpressure` when full."""
        job = self._job_from(payload)
        with self._lock:
            if not self._accepting:
                raise Backpressure(self.depth, self.retry_after)
            if job.kind == "run" and not job.stream:
                cached = self.cache.lookup(job.result_key,
                                           count_miss=True)
                if cached is not None:
                    job.state = "done"
                    job.started = job.finished = time.time()
                    self._answer(job, cached)
                    self._remember(job)
                    return job
            if job.kind == "run":
                existing = self._inflight.get(job.submit_key)
                if existing is not None and (existing.stream
                                             or not job.stream):
                    # identical work already queued/running: share it
                    # (a stream request needs a hub, so it only shares
                    # a job that has one)
                    self._coalesced += 1
                    return existing
            if self._queued >= self.depth:
                raise Backpressure(self.depth, self.retry_after)
            self._queued += 1
            self._remember(job)
            if job.kind == "run":
                self._inflight[job.submit_key] = job
        self._queue.put(job)
        return job

    def _remember(self, job: Job) -> None:
        self._jobs[job.id] = job
        self._order.append(job.id)

    def _job_from(self, payload: Dict[str, object]) -> Job:
        if not isinstance(payload, dict):
            raise BadSubmission(
                f"submission must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        kind = payload.get("kind", "run")
        if kind not in KINDS:
            raise BadSubmission(
                f"unknown job kind {kind!r}: known kinds are "
                + ", ".join(repr(k) for k in KINDS)
            )
        overrides = payload.get("config") or {}
        if not isinstance(overrides, dict):
            raise BadSubmission("config must be an object of SimConfig "
                                "field overrides")
        cycles = payload.get("cycles")
        if cycles is not None:
            overrides = {**overrides, "cycles": cycles}
        try:
            config = self.config.replace(**overrides)
        except (TypeError, ValueError) as exc:
            raise BadSubmission(f"bad config override: {exc}")
        stream = bool(payload.get("stream", False))
        trace_depth = payload.get("trace_buffer", self.trace_depth)
        if not isinstance(trace_depth, int) or isinstance(trace_depth, bool) \
                or trace_depth < 1:
            raise BadSubmission(
                f"trace_buffer must be a positive int, got {trace_depth!r}"
            )
        scenario = payload.get("scenario")
        scenarios = payload.get("scenarios")
        tag = payload.get("tag")
        seeds = payload.get("seeds")
        params = {}
        if kind == "run":
            _check_scenario(kind, scenario)
            from_cycle = payload.get("from_cycle")
            if from_cycle is not None:
                if not isinstance(from_cycle, int) \
                        or isinstance(from_cycle, bool) or from_cycle < 0:
                    raise BadSubmission(
                        f"from_cycle must be a non-negative int, got "
                        f"{from_cycle!r}"
                    )
                if from_cycle >= config.cycles:
                    raise BadSubmission(
                        f"from_cycle {from_cycle} must be below the "
                        f"run's cycle count {config.cycles} (nothing "
                        f"would be simulated)"
                    )
                params["from_cycle"] = from_cycle
        elif kind == "inject":
            if stream:
                raise BadSubmission(
                    "trace streaming applies to run jobs only, not "
                    "'inject' (a campaign runs many forked tails, not "
                    "one waveform)"
                )
            _check_scenario(kind, scenario)
            faults = payload.get("faults", 25)
            if not isinstance(faults, int) or isinstance(faults, bool) \
                    or faults < 1:
                raise BadSubmission(
                    f"faults must be a positive int, got {faults!r}")
            params["faults"] = faults
            for key in ("inject_seed", "tail_budget"):
                value = payload.get(key)
                if value is None:
                    continue
                if not isinstance(value, int) or isinstance(value, bool) \
                        or (key == "tail_budget" and value < 1):
                    raise BadSubmission(
                        f"{key} must be an int"
                        + (" >= 1" if key == "tail_budget" else "")
                        + f", got {value!r}")
                params[key] = value
        else:
            if stream:
                raise BadSubmission(
                    f"trace streaming applies to run jobs only, not "
                    f"{kind!r} (sweeps and benches have no single "
                    f"per-cycle waveform)"
                )
            _check_selection(scenarios, tag)
            if seeds is not None and (
                    not isinstance(seeds, int) or isinstance(seeds, bool)
                    or seeds < 1):
                raise BadSubmission(
                    f"seeds must be a positive int, got {seeds!r}")
            if kind == "bench":
                for key in ("warmup", "repeats"):
                    if key in payload:
                        value = payload[key]
                        if not isinstance(value, int) \
                                or isinstance(value, bool) or value < 0:
                            raise BadSubmission(
                                f"{key} must be a non-negative int, "
                                f"got {value!r}")
                        params[key] = value
        return Job(kind=kind, config=config, scenario=scenario,
                   scenarios=scenarios, tag=tag, seeds=seeds,
                   stream=stream, trace_depth=trace_depth, params=params)

    # -- queries -------------------------------------------------------
    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return [self._jobs[jid] for jid in self._order]

    def cancel(self, job_id: str) -> Optional[Job]:
        """Cancel a queued job; running jobs cannot be preempted (the
        caller answers 409 for those)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state != "queued":
                return job
            job.state = "cancelled"
            job.finished = time.time()
            self._queued -= 1
            if self._inflight.get(job.submit_key) is job:
                del self._inflight[job.submit_key]
            return job

    def stats(self) -> Dict[str, object]:
        with self._lock:
            states: Dict[str, int] = {state: 0 for state in STATES}
            for job in self._jobs.values():
                states[job.state] += 1
            return {
                "depth": self.depth,
                "queued": self._queued,
                "workers": len(self._workers),
                "states": states,
                "coalesced": self._coalesced,
                "result_cache": self.cache.stats(),
                # the snapshot tier under the result cache: the
                # process-wide store every run_scenario caller shares
                "checkpoints": get_checkpoint_store().stats(),
                "compile_caches": {
                    "plan": fsmplan.cache_stats(),
                    "pysim": pysim.cache_stats(),
                    "kernel": kernel.cache_stats(),
                },
            }

    # -- execution (worker threads) ------------------------------------
    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            with self._lock:
                if job.state != "queued":
                    continue                 # cancelled while queued
                self._queued -= 1
                job.state = "running"
                job.started = time.time()
            try:
                self._execute(job)
                job.state = "done"
            except Exception as exc:     # report, never kill the worker
                job.error = f"{type(exc).__name__}: {exc}"
                # the full traceback rides along in the job record so a
                # remote client can diagnose an unexpected worker crash
                # without access to the server's logs
                job.traceback = traceback_mod.format_exc()
                job.state = "failed"
            finally:
                job.finished = time.time()
                with self._lock:
                    if self._inflight.get(job.submit_key) is job:
                        del self._inflight[job.submit_key]
                if job.hub is not None:
                    job.hub.close(cycles=job.config.cycles,
                                  state=job.state, error=job.error)

    def _execute(self, job: Job) -> None:
        if job.kind == "run":
            self._execute_run(job)
        elif job.kind == "inject":
            session = Session(job.config)
            job.result = session.inject_campaign(
                job.scenario,
                faults=job.params.get("faults", 25),
                inject_seed=job.params.get("inject_seed"),
                tail_budget=job.params.get("tail_budget"))
        elif job.kind == "sweep":
            session = Session(job.config)
            results = session.sweep(
                job.scenarios or None, tag=job.tag,
                seeds=None if not job.seeds else range(
                    job.config.seed, job.config.seed + job.seeds))
            job.result = {
                name: r.to_dict(include_activity=True)
                for name, r in results.items()
            }
        else:                            # bench
            session = Session(job.config)
            job.result = session.bench(
                job.scenarios or None, tag=job.tag,
                warmup=job.params.get("warmup", 20),
                repeats=job.params.get("repeats", 1))

    def _execute_run(self, job: Job) -> None:
        cfg = job.config
        if not job.stream:
            # a twin submission may have finished while this one queued
            # (its miss was counted at submit)
            cached = self.cache.lookup(job.result_key, count_miss=False)
            if cached is not None:
                self._answer(job, cached)
                return
        sim = get_registry().build(job.scenario, cfg)
        # a stream's tap is attached after any restore, so a resumed
        # stream begins at the restored boundary in absolute cycles
        job.result = run_scenario(
            job.scenario, cfg, sim=sim,
            resume=job.params.get("from_cycle"),
            on_cycle=None if job.hub is None else TraceTap(sim, job.hub))
        self.cache.store(job.result_key, job.result)

    @staticmethod
    def _answer(job: Job, cached: RunResult) -> None:
        """Answer ``job`` from a cache hit re-labelled for its
        requester: the requesting config is echoed, and the diagnostics
        say the result cache answered and which engine/backend pair
        actually computed the result (it may differ from the
        request's).  The label is ``"submit"`` -- the cache keyed at
        submission -- whether the hit came at submit or when the
        queued run started."""
        job.cached = "submit"
        job.result = dataclasses.replace(
            cached, config=job.config,
            diagnostics={
                **cached.diagnostics,
                "result_cache": "submit",
                "computed_by": {
                    "engine": cached.config.engine,
                    "backend": cached.config.backend,
                },
            })
