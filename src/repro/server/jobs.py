"""The server's job engine: a bounded queue, a thread worker pool over
the process-wide warm compile caches, and a content-addressed result
cache.

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

Results are cached at two levels, both keyed by content:

* **submit key** -- SHA-256 of (kind, scenario, canonical config JSON).
  A repeat submission of a finished run is answered without building or
  running anything: O(1), zero recompiles.
* **content key** -- SHA-256 of (topology fingerprint, result-relevant
  config, stimulus hash), computed after elaboration.  The topology
  fingerprint is the cycle-kernel source digest
  (:func:`repro.rtl.kernel.topology_shape`) when the topology has one
  -- a pure function of the topology shape, stable across builds and
  processes -- and the stimulus hash covers (scenario, seed, stim),
  which the builders are deterministic in.  Engine and backend are
  deliberately *excluded*: the repo's equivalence suites pin every
  engine x backend pair bit-identical, so a result computed under one
  pair serves a submission under another (the hit is flagged in the
  result's diagnostics, with the pair that actually computed it).

Identical in-flight submissions coalesce onto one queued/running job --
eight clients asking for the same run occupy one queue slot and pay one
simulation.  This is the first slice of the ROADMAP's incremental-
resimulation item: repeated requests are O(1) cache hits.

Underneath the result cache sits the snapshot tier
(:mod:`repro.rtl.snapshot`): the queue shares the process-wide
:class:`~repro.rtl.snapshot.CheckpointStore` with direct
``Session.run``/``sweep`` callers, the prefix keys reuse the same
topology-fingerprint + stimulus-hash derivation as the content keys
above, and run submissions accept ``from_cycle`` -- the job restores
the deepest checkpoint at or below that cycle for its (topology,
stimulus) and simulates only the tail, which is what lets clients fork
divergent runs from a shared prefix.  Streamed resumed runs publish
absolute cycle numbers (the trace tap reads ``sim.cycle``).
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
    _result_of,
    get_registry,
)
from ..codegen import pysim
from ..rtl import kernel
from ..rtl.simulator import advance
from ..rtl.snapshot import (
    Checkpointer,
    get_checkpoint_store,
    prefix_key,
    resume_longest_prefix,
    stimulus_key,
    topology_key,
)
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


_JOB_IDS = itertools.count(1)


class Job:
    """One submitted unit of work and its lifecycle record."""

    __slots__ = (
        "id", "kind", "scenario", "scenarios", "tag", "seeds", "config",
        "stream", "hub", "params", "state", "error", "traceback",
        "result", "cached", "submit_key", "content_key", "submitted",
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
        self.cached: Optional[str] = None      # None | "submit" | "content"
        self.submit_key = self._submit_key()
        self.content_key: Optional[str] = None
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

    @property
    def finished_state(self) -> bool:
        return self.state in ("done", "failed", "cancelled")

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


class ResultCache:
    """Content-addressed finished-run storage (run-kind jobs only).

    Stored results are detached (``sim=None``) so the cache holds
    sampled data, not live module graphs.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._by_submit: Dict[str, str] = {}
        self._by_content: Dict[str, RunResult] = {}
        self._hits = 0
        self._content_hits = 0
        self._misses = 0

    def lookup_submit(self, submit_key: str) -> Optional[RunResult]:
        with self._lock:
            content_key = self._by_submit.get(submit_key)
            if content_key is None:
                self._misses += 1
                return None
            self._hits += 1
            return self._by_content[content_key]

    def lookup_content(self, submit_key: str, content_key: str
                       ) -> Optional[RunResult]:
        with self._lock:
            hit = self._by_content.get(content_key)
            if hit is not None:
                self._content_hits += 1
                self._by_submit[submit_key] = content_key
            return hit

    def store(self, submit_key: str, content_key: str,
              result: RunResult) -> None:
        detached = dataclasses.replace(result, sim=None)
        with self._lock:
            self._by_content.setdefault(content_key, detached)
            self._by_submit[submit_key] = content_key

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self._hits,
                "content_hits": self._content_hits,
                "misses": self._misses,
                "entries": len(self._by_content),
                "submit_keys": len(self._by_submit),
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
        # the snapshot tier under the result cache: the process-wide
        # store, shared with direct Session.run/sweep callers
        self.checkpoints = get_checkpoint_store()
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
                cached = self.cache.lookup_submit(job.submit_key)
                if cached is not None:
                    job.state = "done"
                    job.cached = "submit"
                    job.started = job.finished = time.time()
                    job.result = self._annotated(cached, job.config,
                                                 "submit")
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
            if not isinstance(scenario, str) or not scenario:
                raise BadSubmission("run jobs need a scenario name")
            registry = get_registry()
            if scenario not in registry:
                try:
                    registry.get(scenario)   # raises with suggestions
                except KeyError as exc:
                    raise BadSubmission(str(exc.args[0]))
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
            if not isinstance(scenario, str) or not scenario:
                raise BadSubmission("inject jobs need a scenario name")
            registry = get_registry()
            if scenario not in registry:
                try:
                    registry.get(scenario)   # raises with suggestions
                except KeyError as exc:
                    raise BadSubmission(str(exc.args[0]))
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
            if scenarios is not None and not (
                    isinstance(scenarios, list)
                    and all(isinstance(s, str) for s in scenarios)):
                raise BadSubmission("scenarios must be a list of names")
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
                "checkpoints": self.checkpoints.stats(),
                "compile_caches": {
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
        sim = get_registry().build(job.scenario, cfg)
        job.content_key = self._content_key(job, sim)
        if not job.stream:
            # from_cycle is deliberately absent from the content key: a
            # resumed run is bit-identical to the from-0 run, so either
            # answers the other
            cached = self.cache.lookup_content(job.submit_key,
                                               job.content_key)
            if cached is not None:
                job.cached = "content"
                job.result = self._annotated(cached, cfg, "content")
                return
        from_cycle = job.params.get("from_cycle")
        every = cfg.checkpoint_every
        extra = None
        resumed = 0
        key = None
        if from_cycle is not None or every:
            key = prefix_key(job.scenario, cfg, sim)
            limit = cfg.cycles if from_cycle is None else from_cycle
            resumed = resume_longest_prefix(sim, key, limit,
                                            self.checkpoints)
            extra = {"resumed_from": resumed,
                     "simulated_cycles": cfg.cycles - resumed}
        tap = None
        if job.hub is not None:
            # attached after the restore: a resumed stream begins at the
            # restored boundary and publishes absolute cycle numbers
            tap = TraceTap(sim, job.hub)
            sim.on_cycle(tap)
        t0 = time.perf_counter()
        on_boundary = None
        if every:
            on_boundary = Checkpointer(self.checkpoints, key, job.scenario)
        advance(sim, cfg.cycles - sim.cycle,
                max_wall_time=cfg.max_wall_time, every=every,
                on_boundary=on_boundary)
        elapsed = time.perf_counter() - t0
        if tap is not None:
            sim.remove_monitor(tap)
        job.result = _result_of(job.scenario, cfg, sim, cfg.cycles,
                                elapsed, extra)
        self.cache.store(job.submit_key, job.content_key, job.result)

    @staticmethod
    def _content_key(job: Job, sim) -> str:
        """The content address of a run: topology fingerprint x
        result-relevant config x stimulus hash, derived through the
        same :mod:`repro.rtl.snapshot` helpers the checkpoint tier's
        prefix keys use.  Engine/backend/executor knobs are excluded --
        results are pinned bit-identical across them -- so submissions
        differing only in those share one entry."""
        cfg = job.config
        material = json.dumps(
            ["run", topology_key(job.scenario, cfg, sim),
             stimulus_key(job.scenario, cfg), cfg.cycles, cfg.trace],
            separators=(",", ":"))
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    @staticmethod
    def _annotated(cached: RunResult, config: SimConfig,
                   level: str) -> RunResult:
        """A cache hit re-labelled for its requester: the requesting
        config is echoed, and the diagnostics say which cache level
        answered and which engine/backend pair actually computed the
        result (they may differ from the request on a content hit)."""
        return dataclasses.replace(
            cached, config=config,
            diagnostics={
                **cached.diagnostics,
                "result_cache": level,
                "computed_by": {
                    "engine": cached.config.engine,
                    "backend": cached.config.backend,
                },
            })
