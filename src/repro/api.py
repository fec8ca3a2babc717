"""The unified run-time surface: ``SimConfig`` -> ``Session`` -> results.

Every run-time knob -- settle engine, FSM backend, executor, seed --
lives in one config that the scenario builders, the sweeps, the four
harness drivers and the benchmark all take.  The surface has three
pieces:

* :class:`SimConfig` -- one frozen, validated configuration record for
  every axis the simulation stack exposes.  Invalid values fail at
  construction time with actionable errors naming the known choices.
* :class:`ScenarioRegistry` -- scenarios register themselves once (by
  decorator, with tags like ``rtl``/``anvil``/``sweep``/``cpu``) and
  are then
  uniformly enumerable, benchable, batchable and testable.  The
  canonical instance is populated by :mod:`repro.harness.scenarios`;
  use :func:`get_registry` to obtain it fully populated.
* :class:`Session` -- owns a ``SimConfig``, builds simulators from the
  registry, runs single scenarios or JobSpec sweeps (through
  :func:`~repro.rtl.executors.run_batch`), measures benchmark pairs,
  and drives the four paper harnesses.  Every run returns a structured
  :class:`RunResult`.

``python -m repro`` (:mod:`repro.__main__`) is a thin CLI over a
``Session``.

Quickstart::

    from repro import Session, SimConfig

    s = Session(SimConfig(engine="levelized", backend="pycompiled"))
    result = s.run("anvil_aes", cycles=500)
    print(result.total_activity, result.cycles_per_second)
    for name, r in s.sweep(tag="anvil", cycles=200).items():
        print(name, r.total_activity)
"""

from __future__ import annotations

import dataclasses
import difflib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .codegen.simfsm import BACKENDS
from .errors import SimulationError
from .rtl.executors import EXECUTORS, JobSpec, job_kind, run_batch
from .rtl.simulator import ENGINES, Simulator, advance
from .rtl.snapshot import (
    Checkpointer,
    Snapshot,
    get_checkpoint_store,
    prefix_key,
    resume_longest_prefix,
)
from .rtl.waveform import Waveform


def _choices(known: Sequence[str]) -> str:
    return ", ".join(repr(k) for k in known)


def _env_checkpoint_every() -> Optional[int]:
    """``$REPRO_CHECKPOINT_EVERY`` as a cycle interval; unset, empty or
    ``0`` mean off (None)."""
    raw = os.environ.get("REPRO_CHECKPOINT_EVERY", "").strip()
    if raw in ("", "0"):
        return None
    try:
        every = int(raw)
    except ValueError:
        every = -1
    if every < 1:
        raise ValueError(
            f"REPRO_CHECKPOINT_EVERY must be a non-negative int cycle "
            f"interval (0 disables), got {raw!r}"
        )
    return every


def _env_max_wall_time() -> Optional[float]:
    """``$REPRO_MAX_WALL_TIME`` as a wall-clock budget in seconds;
    unset, empty or ``0`` mean no watchdog (None)."""
    raw = os.environ.get("REPRO_MAX_WALL_TIME", "").strip()
    if raw in ("", "0"):
        return None
    try:
        budget = float(raw)
    except ValueError:
        budget = -1.0
    if budget <= 0:
        raise ValueError(
            f"REPRO_MAX_WALL_TIME must be a positive number of seconds "
            f"(0 disables), got {raw!r}"
        )
    return budget


# ---------------------------------------------------------------------------
# SimConfig
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SimConfig:
    """One immutable record of every run-time knob.

    ``engine``
        module-level settle scheduling (:data:`repro.rtl.simulator.ENGINES`):
        ``levelized`` (the default), ``kernel`` (the levelized topology
        exec-compiled into a per-topology cycle kernel) or ``brute``
        (the seed reference).  ``None`` resolves to ``$REPRO_ENGINE``
        when set, else ``levelized``;
    ``backend``
        compiled-Anvil FSM execution (:data:`repro.codegen.simfsm.BACKENDS`);
    ``executor``
        sweep execution strategy (:data:`repro.rtl.executors.EXECUTORS`):
        ``serial`` (in-process, the default) or ``process`` (picklable
        JobSpecs on a multi-core process pool).  ``None`` resolves to
        ``$REPRO_EXECUTOR`` when set, else ``serial``;
    ``jobs``
        process-pool worker count (``None`` -> ``min(jobs in the
        sweep, os.cpu_count())``);
    ``seed``
        stimulus RNG seed -- builders are deterministic in it;
    ``cycles``
        default cycle count for :meth:`Session.run`/:meth:`Session.sweep`;
    ``stim``
        stimulus depth override (``None`` -> each scenario's default);
    ``trace``
        when true, :class:`RunResult` carries the rendered ASCII waveform;
    ``checkpoint_every``
        auto-checkpoint interval in cycles: :meth:`Session.run` (and the
        ``run_scenario`` executor jobs behind :meth:`Session.sweep`)
        snapshot the simulator every N cycles into the process-wide
        :class:`~repro.rtl.snapshot.CheckpointStore` and, before
        running, restore the longest stored prefix whose (topology,
        stimulus) matches -- so a re-run simulates only the tail.
        ``None`` resolves to ``$REPRO_CHECKPOINT_EVERY`` when set and
        non-zero, else off.
    ``max_wall_time``
        wall-clock watchdog budget in seconds: :meth:`Session.run`, the
        executor jobs and fault-injection tails cancel a run with
        :class:`~repro.errors.WatchdogTimeout` once it has simulated
        past this budget (checked at every cycle boundary, see
        :func:`~repro.rtl.simulator.advance`).  ``None`` resolves to
        ``$REPRO_MAX_WALL_TIME`` when set and non-zero, else no
        watchdog.
    """

    engine: Optional[str] = None
    backend: str = "interp"
    executor: Optional[str] = None
    jobs: Optional[int] = None
    seed: int = 0
    cycles: int = 1000
    stim: Optional[int] = None
    trace: bool = False
    checkpoint_every: Optional[int] = None
    max_wall_time: Optional[float] = None

    def __post_init__(self):
        if self.engine is None:
            env = os.environ.get("REPRO_ENGINE")
            object.__setattr__(self, "engine", env or "levelized")
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}: known engines are "
                f"{_choices(ENGINES)} (did REPRO_ENGINE leak a typo?)"
            )
        if self.executor is None:
            env = os.environ.get("REPRO_EXECUTOR")
            object.__setattr__(self, "executor", env or "serial")
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}: known executors "
                f"are {_choices(EXECUTORS)} (did REPRO_EXECUTOR leak a "
                f"typo?)"
            )
        if self.jobs is not None and (
                not isinstance(self.jobs, int) or isinstance(self.jobs, bool)
                or self.jobs < 1):
            raise ValueError(
                f"jobs must be a positive int worker count or None, "
                f"got {self.jobs!r}"
            )
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}: known backends are "
                f"{_choices(BACKENDS)}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        if not isinstance(self.cycles, int) or isinstance(self.cycles, bool) \
                or self.cycles < 1:
            raise ValueError(
                f"cycles must be a positive int, got {self.cycles!r}"
            )
        if self.stim is not None and (
                not isinstance(self.stim, int) or isinstance(self.stim, bool)
                or self.stim < 1):
            raise ValueError(
                f"stim must be a positive int or None, got {self.stim!r}"
            )
        if self.checkpoint_every is None:
            object.__setattr__(
                self, "checkpoint_every", _env_checkpoint_every())
        if self.checkpoint_every is not None and (
                not isinstance(self.checkpoint_every, int)
                or isinstance(self.checkpoint_every, bool)
                or self.checkpoint_every < 1):
            raise ValueError(
                f"checkpoint_every must be a positive int cycle interval "
                f"or None, got {self.checkpoint_every!r} (did "
                f"REPRO_CHECKPOINT_EVERY leak a typo?)"
            )
        if self.max_wall_time is None:
            object.__setattr__(self, "max_wall_time", _env_max_wall_time())
        if self.max_wall_time is not None and (
                not isinstance(self.max_wall_time, (int, float))
                or isinstance(self.max_wall_time, bool)
                or self.max_wall_time <= 0):
            raise ValueError(
                f"max_wall_time must be a positive number of seconds or "
                f"None, got {self.max_wall_time!r} (did "
                f"REPRO_MAX_WALL_TIME leak a typo?)"
            )

    @classmethod
    def _unknown_fields(cls, names) -> Optional[str]:
        """The error text for any of ``names`` that is not a field."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(names) - known)
        if not unknown:
            return None
        return (f"unknown SimConfig field(s) {_choices(unknown)}: known "
                f"fields are {_choices(sorted(known))}")

    def replace(self, **overrides) -> "SimConfig":
        """A copy with ``overrides`` applied (re-validated)."""
        problem = self._unknown_fields(overrides)
        if problem:
            raise TypeError(problem)
        return dataclasses.replace(self, **overrides)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable mapping of every field (the shape echoed
        into benchmark blobs and ``--json`` CLI output)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimConfig":
        problem = cls._unknown_fields(data)
        if problem:
            raise ValueError(problem)
        return cls(**data)

    def to_json(self) -> str:
        """The canonical JSON form: sorted keys, compact separators.

        This is the pinned wire schema -- the server, the CLI ``--json``
        paths and the benchmark blobs all serialize configs through
        here, and the server's result cache uses the canonical text as
        key material (equal configs always hash equally)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "SimConfig":
        """Inverse of :meth:`to_json` (re-validated on construction)."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(
                f"SimConfig JSON must decode to an object, got "
                f"{type(data).__name__}"
            )
        return cls.from_dict(data)


def resolve_config(config: Union["SimConfig", "Session", None] = None,
                   **overrides) -> SimConfig:
    """Coerce ``(config, legacy keyword overrides)`` into one ``SimConfig``.

    This is the compatibility seam the harness drivers share: ``config``
    may be a ``SimConfig``, a ``Session`` (its config is taken) or
    ``None`` (defaults); any override whose value is not ``None`` wins
    over the corresponding config field.
    """
    if isinstance(config, Session):
        config = config.config
    cfg = config if config is not None else SimConfig()
    if not isinstance(cfg, SimConfig):
        raise TypeError(
            f"config must be a SimConfig, a Session or None, got "
            f"{type(cfg).__name__}"
        )
    overrides = {k: v for k, v in overrides.items() if v is not None}
    return cfg.replace(**overrides) if overrides else cfg


# ---------------------------------------------------------------------------
# the scenario registry
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """One registered workload: a deterministic simulator builder."""

    name: str
    builder: Callable[..., Simulator]
    tags: frozenset
    description: str = ""

    def build(self, config: SimConfig) -> Simulator:
        """Elaborate under ``config``."""
        kwargs = dict(engine=config.engine, seed=config.seed,
                      backend=config.backend)
        if config.stim is not None:
            kwargs["stim"] = config.stim
        return self.builder(**kwargs)


class UnknownScenarioError(KeyError):
    """Raised on a registry lookup miss, of a scenario name or a tag (a
    user-input error: the message names close matches and the known
    names, and the CLI reports it without a traceback)."""


def _unknown(what: str, key: str,
             known: Sequence[str]) -> UnknownScenarioError:
    close = difflib.get_close_matches(key, known, n=3)
    hint = f" (did you mean {_choices(close)}?)" if close else ""
    return UnknownScenarioError(
        f"unknown {what} {key!r}{hint}: known {what}s are {_choices(known)}")


class ScenarioRegistry:
    """Named, tagged, enumerable scenarios -- defined once, consumed by
    the executor sweeps, the benchmark, the equivalence tests and the
    CLI alike.

    >>> registry = ScenarioRegistry()
    >>> @registry.scenario("toy", tags=("rtl",))
    ... def build_toy(engine="levelized", seed=0, stim=100,
    ...               backend="interp"):
    ...     ...
    """

    def __init__(self):
        self._scenarios: Dict[str, Scenario] = {}

    # -- registration --------------------------------------------------
    def scenario(self, name: str, tags: Sequence[str] = (),
                 description: str = ""):
        """Decorator form of :meth:`add`; returns the builder unchanged."""
        def decorate(builder):
            self.add(name, builder, tags=tags, description=description)
            return builder
        return decorate

    def add(self, name: str, builder: Callable[..., Simulator],
            tags: Sequence[str] = (), description: str = "") -> Scenario:
        if name in self._scenarios:
            raise ValueError(f"scenario {name!r} is already registered")
        if not description and builder.__doc__:
            description = builder.__doc__.strip().splitlines()[0]
        sc = Scenario(name=name, builder=builder, tags=frozenset(tags),
                      description=description)
        self._scenarios[name] = sc
        return sc

    def remove(self, name: str) -> bool:
        """Drop a registered scenario; True if it was present."""
        return self._scenarios.pop(name, None) is not None

    # -- lookup --------------------------------------------------------
    def get(self, name: str) -> Scenario:
        try:
            return self._scenarios[name]
        except KeyError:
            raise _unknown("scenario", name, self.names()) from None

    def names(self, tag: Optional[str] = None, *,
              exclude: Optional[str] = None) -> List[str]:
        """Registered names in registration order, optionally filtered
        to those carrying ``tag`` and/or not carrying ``exclude``.  A
        ``tag`` no scenario carries raises :class:`UnknownScenarioError`."""
        if tag is not None and tag not in self.tags():
            raise _unknown("tag", tag, self.tags())
        return [
            s.name for s in self._scenarios.values()
            if (tag is None or tag in s.tags)
            and (exclude is None or exclude not in s.tags)
        ]

    def tags(self) -> List[str]:
        """Every tag in use, sorted."""
        return sorted({t for s in self._scenarios.values() for t in s.tags})

    def select(self, names: Optional[Sequence[str]] = None,
               tag: Optional[str] = None) -> List[str]:
        """The scenarios a sweep or bench runs: ``names`` if given, else
        every scenario carrying ``tag``, else every non-sweep scenario
        (the all-in-one sweeps would duplicate the individual families'
        work).  An unknown name or tag raises
        :class:`UnknownScenarioError` before anything runs."""
        if names:
            for name in names:
                self.get(name)
            return list(names)
        return self.names(tag, exclude=None if tag == "sweep" else "sweep")

    def build(self, name: str,
              config: Optional[SimConfig] = None) -> Simulator:
        return self.get(name).build(config or SimConfig())

    def __contains__(self, name: str) -> bool:
        return name in self._scenarios

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self._scenarios.values())

    def __len__(self) -> int:
        return len(self._scenarios)

    def __repr__(self):
        return f"ScenarioRegistry({self.names()})"


#: the canonical registry.  :mod:`repro.harness.scenarios` populates it
#: at import time; call :func:`get_registry` to get it populated.
REGISTRY = ScenarioRegistry()


def get_registry() -> ScenarioRegistry:
    """The canonical registry, with the bundled scenarios registered."""
    from .harness import scenarios  # noqa: F401  (imports register)
    return REGISTRY


def list_scenarios(tag: Optional[str] = None) -> List[str]:
    """Names of every registered scenario (optionally tag-filtered)."""
    return get_registry().names(tag)


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------
def _sampled(samples: Dict[str, List[int]]) -> Waveform:
    """A waveform that carries sampled data only (no watched wires)."""
    waveform = Waveform()
    waveform.samples = {label: list(series)
                        for label, series in samples.items()}
    return waveform


@dataclass(frozen=True)
class RunResult:
    """What one scenario run produced: the one result type of every run
    surface (see :func:`run_scenario`).

    ``config`` is the config this run used (a seeded sweep's run
    carries its own seed); ``cycles`` the run's cycle count;
    ``activity`` the per-wire toggle map keyed by ``(module, wire)``;
    ``waveform`` the live waveform handle (``trace`` its rendered form
    when the config asked for it); ``seconds`` the wall-clock of
    restoring a prefix plus simulating (elaboration excluded); ``sim``
    the live simulator, which pickling drops (the samples cross).

    ``diagnostics`` is one contract on every surface:

    * ``engine``, ``modules``, ``watched_signals`` and ``final_cycle``
      are always present;
    * ``resumed_from`` (0 when nothing was restored) and
      ``simulated_cycles`` whenever the run could resume: a checkpoint
      interval, a ``from_cycle`` or a checkpoint file;
    * ``checkpoints_stored`` whenever the run checkpoints;
    * a sweep adds ``job_seconds`` (the job's own ``seconds``; the
      result's is the whole sweep's) and ``sweep_size``;
    * a server cache hit adds ``result_cache`` and ``computed_by``.
    """

    scenario: str
    config: SimConfig
    cycles: int
    total_activity: int
    activity: Dict[Tuple[str, str], int]
    waveform: Waveform
    seconds: float
    trace: Optional[str] = None
    diagnostics: Dict[str, object] = field(default_factory=dict)
    sim: Simulator = field(default=None, repr=False, compare=False)

    def __getstate__(self):
        # simulators (and the wires a live waveform watches) stay in
        # their process; the sampled data crosses
        return {**self.__dict__, "sim": None,
                "waveform": _sampled(self.waveform.samples)}

    @property
    def cycles_per_second(self) -> float:
        return self.cycles / self.seconds if self.seconds > 0 else 0.0

    def to_dict(self, include_activity: bool = False,
                include_samples: bool = False) -> Dict[str, object]:
        """The pinned JSON-serializable schema of one run.

        This one shape is the CLI ``--json`` output, the server wire
        format and the benchmark record: activity keys flatten to
        ``"module/wire"`` strings, waveform samples (when asked for)
        ride along as ``{label: [value, ...]}``.  :meth:`from_dict`
        inverts it."""
        out: Dict[str, object] = {
            "scenario": self.scenario,
            "config": self.config.to_dict(),
            "cycles": self.cycles,
            "total_activity": self.total_activity,
            "seconds": self.seconds,
            "cycles_per_second": self.cycles_per_second,
            "diagnostics": dict(self.diagnostics),
        }
        if include_activity:
            out["activity"] = {
                f"{module}/{wire}": count
                for (module, wire), count in sorted(self.activity.items())
            }
        if include_samples:
            out["samples"] = {
                label: list(series)
                for label, series in sorted(self.waveform.samples.items())
            }
        if self.trace is not None:
            out["trace"] = self.trace
        return out

    def to_json(self) -> str:
        """The full wire form: :meth:`to_dict` with activity and
        samples included, canonically encoded.  Round-trips through
        :meth:`from_json` bit-identically on every observable (cycles,
        activity, samples, trace)."""
        return json.dumps(
            self.to_dict(include_activity=True, include_samples=True),
            sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunResult":
        """Rebuild a result from its :meth:`to_dict` form.

        The reconstructed result carries the sampled waveform data but
        no live simulator (``sim`` is ``None``) -- it is the shape a
        server client receives.  ``cycles_per_second`` is a derived
        property and is recomputed, not read back."""
        activity: Dict[Tuple[str, str], int] = {}
        for key, count in (data.get("activity") or {}).items():
            module, _, wire = key.partition("/")
            activity[(module, wire)] = count
        config = data.get("config")
        return cls(
            scenario=data["scenario"],
            config=SimConfig.from_dict(config)
            if isinstance(config, dict) else config,
            cycles=data["cycles"],
            total_activity=data["total_activity"],
            activity=activity,
            waveform=_sampled(data.get("samples") or {}),
            seconds=data.get("seconds", 0.0),
            trace=data.get("trace"),
            diagnostics=dict(data.get("diagnostics") or {}),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))


def _result_of(name: str, config: SimConfig, sim: Simulator,
               cycles: int, seconds: float,
               extra_diagnostics: Optional[Dict[str, object]] = None
               ) -> RunResult:
    diagnostics = {
        "engine": sim.engine,
        "modules": len(sim.modules),
        "watched_signals": len(sim.waveform.samples),
        "final_cycle": sim.cycle,
    }
    diagnostics.update(extra_diagnostics or {})
    return RunResult(
        scenario=name,
        config=config,
        cycles=cycles,
        total_activity=sim.total_activity(),
        activity=dict(sim.activity),
        waveform=sim.waveform,
        seconds=seconds,
        trace=sim.waveform.render() if config.trace else None,
        diagnostics=diagnostics,
        sim=sim,
    )


def _check_resumable(scenario: str, config: SimConfig, key: str,
                     snap: Snapshot) -> None:
    """Refuse a checkpoint file this run cannot continue."""
    if snap.scenario and snap.scenario != scenario:
        raise SimulationError(
            f"the checkpoint was taken from scenario {snap.scenario!r}, "
            f"not {scenario!r}")
    if snap.key and snap.key != key:
        raise SimulationError(
            f"the checkpoint's prefix key {snap.key[:12]} differs from "
            f"this run's {key[:12]}: it was taken under another seed, "
            f"stim or build of {scenario!r}")
    if snap.cycle >= config.cycles:
        raise SimulationError(
            f"the checkpoint is at cycle {snap.cycle}, at or past the "
            f"run's last cycle {config.cycles}: nothing would be "
            f"simulated")


def run_scenario(scenario: str, config: SimConfig, *,
                 sim: Optional[Simulator] = None,
                 resume: Union[int, Snapshot, None] = None,
                 on_cycle: Optional[Callable[[int], None]] = None,
                 on_checkpoint: Optional[
                     Callable[[int, Snapshot], None]] = None
                 ) -> RunResult:
    """Run one registered scenario to ``config.cycles``: the one run
    path behind :meth:`Session.run`, the ``run_scenario`` sweep jobs,
    the server's run jobs and ``python -m repro run``.

    ``sim`` is the scenario already built under ``config``.  ``resume``
    is a cycle (restore the deepest prefix stored at or below it) or a
    checkpoint-file :class:`~repro.rtl.snapshot.Snapshot` (refused with
    :class:`~repro.errors.SimulationError` when its scenario or prefix
    key differ from this run's, or it is at or past ``config.cycles``);
    without one, ``config.checkpoint_every`` restores the deepest prefix
    stored up to ``config.cycles``.  ``checkpoint_every`` also stores a
    checkpoint every N cycles and at the end, each handed to
    ``on_checkpoint(cycle, snap)``.  ``on_cycle`` is a monitor attached
    after the restore, so it sees absolute cycle numbers.
    """
    if sim is None:
        sim = get_registry().build(scenario, config)
    every = config.checkpoint_every
    store = get_checkpoint_store()
    extra: Dict[str, object] = {}
    t0 = time.perf_counter()
    if resume is not None or every:
        key = prefix_key(scenario, config, sim)
        if isinstance(resume, Snapshot):
            _check_resumable(scenario, config, key, resume)
            sim.restore(resume)
        else:
            resume_longest_prefix(
                sim, key, config.cycles if resume is None else resume, store)
        extra = {"resumed_from": sim.cycle,
                 "simulated_cycles": config.cycles - sim.cycle}
    checkpointer = (Checkpointer(store, key, scenario, on_checkpoint)
                    if every else None)
    if on_cycle is not None:
        sim.on_cycle(on_cycle)
    try:
        advance(sim, config.cycles - sim.cycle,
                max_wall_time=config.max_wall_time, every=every,
                on_boundary=checkpointer)
    finally:
        if on_cycle is not None:
            sim.remove_monitor(on_cycle)
    if checkpointer is not None:
        extra["checkpoints_stored"] = checkpointer.stored
    return _result_of(scenario, config, sim, config.cycles,
                      time.perf_counter() - t0, extra)


# ---------------------------------------------------------------------------
# the scenario job kind (run by repro.rtl.executors on either executor)
# ---------------------------------------------------------------------------
@job_kind("run_scenario")
def _run_scenario_job(spec: JobSpec) -> RunResult:
    """Run a registered scenario under the spec's config."""
    return run_scenario(spec.scenario, spec.config)


def _bench_scenario(scenario: str, config: SimConfig, warmup: int,
                    repeats: int) -> RunResult:
    """Best-of-N cycles/second measurement of one scenario x config.

    Each of ``repeats`` runs is rebuilt from scratch, runs ``warmup``
    cycles untimed, then ``config.cycles`` timed; the best rate wins.
    One untimed warm-up iteration runs first so one-time compile costs
    (pycompiled sources, cycle kernels) land outside every timed
    repeat -- without it, first-repeat compile time showed up as
    inflated variance on small-cycle scenarios.
    """
    registry = get_registry()
    registry.build(scenario, config).run(warmup + config.cycles)
    best_elapsed, sim = float("inf"), None
    for _ in range(max(repeats, 1)):
        sim = registry.build(scenario, config)
        sim.run(warmup)
        t0 = time.perf_counter()
        sim.run(config.cycles)
        best_elapsed = min(best_elapsed, time.perf_counter() - t0)
    return _result_of(scenario, config, sim, config.cycles, best_elapsed)


# ---------------------------------------------------------------------------
# Session
# ---------------------------------------------------------------------------
class Session:
    """A configured front door to the whole simulation stack.

    A ``Session`` owns one :class:`SimConfig` (its defaults for every
    run), resolves scenarios through the registry, and exposes the
    operations the repository previously scattered over loose keyword
    arguments: single runs, batch sweeps, benchmark pairs, and the four
    paper harness drivers.  Per-call ``**overrides`` produce a derived
    config for that call only.
    """

    def __init__(self, config: Optional[SimConfig] = None, **overrides):
        self.config = resolve_config(config, **overrides)

    @property
    def registry(self) -> ScenarioRegistry:
        return get_registry()

    def with_config(self, **overrides) -> "Session":
        """A new session whose config differs by ``overrides``."""
        return Session(self.config.replace(**overrides))

    # -- building and running ------------------------------------------
    def build(self, scenario: str, **overrides) -> Simulator:
        """Elaborate one registered scenario under this session's config."""
        cfg = resolve_config(self.config, **overrides)
        return self.registry.build(scenario, cfg)

    def run(self, scenario: str, cycles: Optional[int] = None,
            **overrides) -> RunResult:
        """Build and run one scenario (see :func:`run_scenario`)."""
        return run_scenario(
            scenario, resolve_config(self.config, cycles=cycles, **overrides))

    def sweep(self, scenarios: Optional[Sequence[str]] = None,
              tag: Optional[str] = None, cycles: Optional[int] = None,
              seeds: Optional[Sequence[int]] = None,
              **overrides) -> Dict[str, RunResult]:
        """Run many scenarios as one executor sweep.

        Every selected scenario becomes one declarative
        :class:`~repro.rtl.executors.JobSpec` (``run_scenario``), and
        the whole list runs on the configured executor -- ``serial`` by
        default, ``process`` for real multi-core sweeps (workers build
        and run each scenario from its registry description, so nothing
        unpicklable crosses the pool boundary).

        ``seeds`` turns the sweep into a stimulus campaign: every
        scenario runs once per seed, keyed ``"name@s<seed>"``.

        Returns results keyed in selection order; each result's
        ``seconds`` is the wall-clock of the whole sweep (on the process
        pool the scenarios run concurrently, so per-scenario wall-clock
        is not separable -- ``diagnostics["job_seconds"]`` has each
        job's own run-phase timing), and its config is its own job's.
        """
        cfg = resolve_config(self.config, cycles=cycles, **overrides)
        names = self.registry.select(scenarios, tag)
        if seeds is None:
            specs = [
                JobSpec(kind="run_scenario", name=name, scenario=name,
                        config=cfg)
                for name in names
            ]
        else:
            seeds = list(seeds)
            specs = [
                JobSpec(kind="run_scenario", name=f"{name}@s{s}",
                        scenario=name, config=cfg.replace(seed=s))
                for name in names for s in seeds
            ]
        t0 = time.perf_counter()
        runs = run_batch(specs, cfg.executor, cfg.jobs)
        elapsed = time.perf_counter() - t0
        return {
            name: dataclasses.replace(run, seconds=elapsed, diagnostics={
                **run.diagnostics, "job_seconds": run.seconds,
                "sweep_size": len(specs)})
            for name, run in runs.items()
        }

    # -- fault injection -----------------------------------------------
    def inject_campaign(self, scenario: str, faults: int = 25, *,
                        inject_seed: Optional[int] = None,
                        tail_budget: Optional[int] = None,
                        **overrides) -> Dict[str, object]:
        """Run a seeded fault-injection campaign against one scenario.

        ``faults`` injections are sampled from
        ``random.Random(inject_seed or config.seed)`` over every
        injectable site x the golden run's cycle span, each forked from
        a warm prefix snapshot, run under a cycle-budget (and optional
        ``max_wall_time``) watchdog and classified against the golden
        run -- see :mod:`repro.inject.campaign` for the taxonomy and
        the result shape.

        With a ``serial`` executor (or ``jobs=1``) the whole campaign
        runs in-process.  Otherwise the plan is split into one
        contiguous slice per worker, each an ``inject_campaign``
        :class:`~repro.rtl.executors.JobSpec` that runs the serial
        campaign over its slice (``run_campaign(shard=...)``), and the
        outcomes are merged in plan order.  The parent builds nothing,
        and the merged result is the serial one (``elapsed`` aside)."""
        from .inject.campaign import assemble_result, run_campaign

        cfg = resolve_config(self.config, **overrides)
        seed = cfg.seed if inject_seed is None else inject_seed
        workers = cfg.jobs if cfg.jobs is not None else (
            os.cpu_count() or 1)
        if cfg.executor == "serial" or workers <= 1 or faults <= 1:
            return run_campaign(
                scenario, cfg, n_faults=faults, inject_seed=seed,
                tail_budget=tail_budget)

        t0 = time.perf_counter()
        count = min(workers, faults)
        specs = [
            JobSpec(kind="inject_campaign", name=f"{scenario}@f{i}",
                    scenario=scenario, config=cfg, params=(
                        ("n_faults", faults),
                        ("inject_seed", seed),
                        ("tail_budget", tail_budget),
                        ("shard", (i, count)),
                    ))
            for i in range(count)
        ]
        shards = list(run_batch(specs, cfg.executor, cfg.jobs).values())
        golden, budget = shards[0]["golden"], shards[0]["tail_budget"]
        if any(s["golden"] != golden or s["tail_budget"] != budget
               for s in shards):
            raise SimulationError(
                f"{scenario} campaign shards disagree on the golden run "
                f"or the tail budget: "
                + "; ".join(f"{s['golden']} budget {s['tail_budget']}"
                            for s in shards))
        return assemble_result(
            scenario, cfg, seed, budget, golden,
            [rec for s in shards for rec in s["outcomes"]],
            time.perf_counter() - t0)

    # -- benchmarking --------------------------------------------------
    def bench(self, scenarios: Optional[Sequence[str]] = None,
              tag: Optional[str] = None, *, cycles: Optional[int] = None,
              warmup: int = 20, repeats: int = 1) -> List[Dict[str, object]]:
        """Measure this config against a baseline per scenario.

        The baseline is the reference pair (``brute`` engine, ``interp``
        backend) with this session's seed/stim, so the result reads as
        "what the configured fast paths buy".  Each row carries
        cycles/second for both configs, the speedup, and whether the two
        runs' waveforms and activity are equivalent.

        The measurements run one at a time in this process -- per
        scenario the baseline, then the configured side -- because
        timing runs that share cores corrupt each other's cycles/second.
        Each runs one untimed warm-up iteration first, so compile costs
        (pycompiled sources, cycle kernels) never pollute the timed
        repeats.
        """
        cfg = resolve_config(self.config, cycles=cycles)
        base = cfg.replace(engine="brute", backend="interp")
        rows = []
        for name in self.registry.select(scenarios, tag):
            b = _bench_scenario(name, base, warmup, repeats)
            c = _bench_scenario(name, cfg, warmup, repeats)
            rows.append({
                "scenario": name,
                "baseline": {"config": base.to_dict(),
                             "cycles_per_second": b.cycles_per_second},
                "configured": {"config": cfg.to_dict(),
                               "cycles_per_second": c.cycles_per_second},
                "speedup": (c.cycles_per_second / b.cycles_per_second
                            if b.cycles_per_second else 0.0),
                "equivalent": (b.activity == c.activity
                               and b.waveform.samples == c.waveform.samples),
            })
        return rows

    # -- serving -------------------------------------------------------
    def serve(self, host: str = "127.0.0.1", port: int = 8642,
              queue_depth: int = 16, workers: int = 2,
              background: bool = False, **server_kwargs):
        """Serve this session's config as a long-lived simulation
        service (:mod:`repro.server`): HTTP endpoints for the scenario
        registry and job submission, WebSocket trace streaming, one
        process-wide warm compile cache shared by every worker.

        Blocking by default (returns after a clean SIGINT/SIGTERM
        shutdown); ``background=True`` instead starts the server on a
        daemon thread and returns the live
        :class:`~repro.server.ReproServer` (call ``.close()`` when
        done) -- the shape tests and notebooks want."""
        from .server import ReproServer

        server = ReproServer(config=self.config, host=host, port=port,
                             queue_depth=queue_depth, workers=workers,
                             **server_kwargs)
        if background:
            return server.start_in_thread()
        server.serve_forever()
        return server

    # -- the paper harnesses -------------------------------------------
    def table1(self, fast: bool = False):
        """Table 1 rows, with the activity simulations on this session's
        engine and backend."""
        from .harness.table1 import generate_table1
        return generate_table1(fast=fast, config=self.config)

    def table2(self) -> Dict[str, Dict[str, object]]:
        from .harness.table2 import generate_table2
        return generate_table2(config=self.config)

    def figures(self) -> Dict[str, object]:
        from .harness.figures import generate_figures
        return generate_figures(config=self.config)

    def appendix_a(self, fast: bool = False) -> Dict[str, object]:
        """Appendix A under this session's backend, always serial (see
        :func:`repro.harness.appendix_a.appendix_a` for why the session
        executor is deliberately not consulted)."""
        from .harness.appendix_a import appendix_a
        return appendix_a(config=self.config, fast=fast)

    def __repr__(self):
        return f"Session({self.config!r})"
