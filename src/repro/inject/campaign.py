"""Fault-injection campaigns: fork-from-snapshot sweeps + AVF readout.

A campaign asks "what happens when a bit flips?" N times against one
scenario and classifies every answer against the uninjected golden run:

* **masked** -- the architectural final state is bit-identical;
* **sdc** -- silent data corruption: state differs, nothing fired;
* **detected** -- the machine noticed: the Y86 ``stat`` left its golden
  value (halt with SADR/SINS/...) or an Anvil safety contract raised;
* **hang** -- the tail exceeded its cycle budget (or tripped the
  optional ``max_wall_time`` wall-clock watchdog) without halting.

The driver never re-simulates a prefix: it walks one simulator forward
through the distinct injection cycles, captures a
:class:`~repro.rtl.snapshot.Snapshot` at each into a campaign-local
:class:`~repro.rtl.snapshot.CheckpointStore`, then forks every
injection sharing that prefix from the warm snapshot (restore is
in-place and bit-exact, so one tail simulator serves the whole sweep).

Campaigns shard: the ``inject_campaign`` :class:`~repro.rtl.executors.
JobSpec` kind runs an explicit fault list in a worker, and
``Session.inject_campaign`` splits a sampled plan across the process
executor and re-aggregates -- same outcomes, any executor.
"""

from __future__ import annotations

import hashlib
import random
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import AnvilError, SimulationError, WatchdogTimeout
from ..rtl.executors import job_kind
from ..rtl.simulator import advance
from ..rtl.snapshot import (
    CheckpointStore,
    capture,
    prefix_key,
    restore,
    state_sig,
)
from .faults import Fault, FaultInjector, enumerate_sites, sample_faults

#: outcome taxonomy, in histogram order
OUTCOMES = ("masked", "sdc", "detected", "hang")


def _halt_module(sim):
    """The architectural reference point: the first module exposing a
    ``halted`` flag plus an ``arch_state()`` fingerprint (the Y86
    pipeline CPU).  ``None`` means a fixed-cycle scenario, classified
    on whole-simulator state instead."""
    for m in sim.modules:
        if hasattr(m, "halted") and hasattr(m, "arch_state"):
            return m
    return None


def _arch_digest(state) -> str:
    """Stable digest of an architectural state (registers, flags, pc,
    stat, instret, memory) -- engine- and backend-independent."""
    h = hashlib.sha256()
    h.update(",".join(map(str, state.registers)).encode())
    h.update(
        f"|{state.zf}{state.sf}{state.of}|{state.pc}|{state.stat}|"
        f"{state.instret}|".encode()
    )
    h.update(bytes(state.memory))
    return h.hexdigest()[:16]


def _golden_pass(sim, cpu, cfg) -> Dict[str, object]:
    """Run the uninjected reference and fingerprint its final state."""
    if cpu is None:
        advance(sim, cfg.cycles, max_wall_time=cfg.max_wall_time)
        return {"cycles": cfg.cycles, "stat": None,
                "digest": state_sig(sim)[:16]}
    sim.run_until(lambda: cpu.halted, limit=cfg.cycles)
    return {"cycles": sim.cycle, "stat": cpu.stat,
            "digest": _arch_digest(cpu.arch_state())}


def _run_tail(sim, cpu, golden: Dict[str, object], budget: int,
              max_wall_time: Optional[float]) -> None:
    """Advance an injected fork to its classification point: the exact
    halt cycle (or the absolute cycle ``budget``) for CPU scenarios,
    the golden cycle count for fixed-cycle ones -- under the optional
    wall-clock watchdog."""
    if cpu is None:
        advance(sim, int(golden["cycles"]) - sim.cycle,
                max_wall_time=max_wall_time)
    else:
        advance(sim, budget - sim.cycle, stop=lambda: cpu.halted,
                max_wall_time=max_wall_time)


def _classify(sim, cpu, golden: Dict[str, object],
              error: Optional[BaseException]
              ) -> Tuple[str, Optional[str]]:
    if isinstance(error, WatchdogTimeout):
        return "hang", None
    if error is not None:
        return "detected", None
    if cpu is not None:
        if not cpu.halted:
            return "hang", None
        digest = _arch_digest(cpu.arch_state())
        if cpu.stat != golden["stat"]:
            return "detected", digest
        return ("masked" if digest == golden["digest"] else "sdc",
                digest)
    digest = state_sig(sim)[:16]
    return ("masked" if digest == golden["digest"] else "sdc", digest)


def aggregate(outcomes: Sequence[dict]
              ) -> Tuple[Dict[str, int], Dict[str, dict]]:
    """Fold outcome records into the classification histogram and the
    per-site AVF-style vulnerability table (vulnerability = fraction of
    that site's faults that were *not* masked)."""
    hist = dict.fromkeys(OUTCOMES, 0)
    rows: Dict[str, Dict[str, int]] = {}
    for rec in outcomes:
        hist[rec["outcome"]] += 1
        row = rows.setdefault(rec["site"], dict.fromkeys(OUTCOMES, 0))
        row[rec["outcome"]] += 1
    table = {}
    for site in sorted(rows):
        row = rows[site]
        total = sum(row.values())
        table[site] = dict(row, faults=total, vulnerability=round(
            1.0 - row["masked"] / total, 4))
    return hist, table


def assemble_result(scenario: str, cfg, inject_seed: int,
                    faults: Sequence[Fault], budget: int,
                    golden: Dict[str, object], outcomes: List[dict],
                    elapsed: float) -> Dict[str, object]:
    """The campaign's pinned result shape.  Everything except
    ``elapsed`` and ``config`` is a pure function of (scenario, config
    determinism axes, faults) -- the byte-identity tests compare the
    rest verbatim."""
    hist, table = aggregate(outcomes)
    return {
        "scenario": scenario,
        "faults": len(faults),
        "inject_seed": inject_seed,
        "tail_budget": budget,
        "golden": golden,
        "histogram": hist,
        "table": table,
        "outcomes": outcomes,
        "config": cfg.to_dict(),
        "elapsed": round(elapsed, 6),
    }


def plan_faults(scenario: str, config=None, n_faults: int = 25,
                inject_seed: Optional[int] = None,
                include_state: bool = True,
                **overrides) -> Tuple[Dict[str, object], List[Fault]]:
    """Golden pass + seeded sampling plan, without running any tails.

    Returns ``(golden, faults)``.  ``Session.inject_campaign`` uses
    this to sample once in the parent and shard the explicit fault list
    across executor workers."""
    from ..api import get_registry, resolve_config

    cfg = resolve_config(config, **overrides)
    seed = cfg.seed if inject_seed is None else inject_seed
    sim = get_registry().build(scenario, cfg)
    cpu = _halt_module(sim)
    golden = _golden_pass(sim, cpu, cfg)
    sites = enumerate_sites(sim, include_state=include_state)
    rng = random.Random(seed)
    faults = sample_faults(sites, n_faults, rng, int(golden["cycles"]))
    return golden, faults


def default_budget(golden_cycles: int) -> int:
    """The default tail cycle budget: enough slack for stalls and
    recovery, small enough that runaway loops classify quickly."""
    return 2 * golden_cycles + 64


def run_campaign(scenario: str, config=None, *, n_faults: int = 25,
                 faults: Optional[Sequence] = None,
                 inject_seed: Optional[int] = None,
                 tail_budget: Optional[int] = None,
                 include_state: bool = True,
                 **overrides) -> Dict[str, object]:
    """Run one fault-injection campaign serially and return the result
    dict (see :func:`assemble_result`).

    With ``faults`` omitted, ``n_faults`` are sampled from
    ``random.Random(inject_seed or config.seed)`` over every injectable
    site x the golden run's cycle span.  An explicit ``faults``
    sequence (:class:`~repro.inject.faults.Fault` objects or their
    ``to_dict`` forms) runs exactly those -- the sharded path and the
    pinned classification tests use this."""
    from ..api import resolve_config

    cfg = resolve_config(config, **overrides)
    seed = cfg.seed if inject_seed is None else inject_seed
    start = time.perf_counter()

    if faults is None:
        golden, plan = plan_faults(
            scenario, cfg, n_faults=n_faults, inject_seed=seed,
            include_state=include_state)
    else:
        from ..api import get_registry

        sim = get_registry().build(scenario, cfg)
        golden = _golden_pass(sim, _halt_module(sim), cfg)
        plan = [f if isinstance(f, Fault) else Fault.from_dict(dict(f))
                for f in faults]
    if not plan:
        raise SimulationError("fault injection: empty fault list")

    budget = tail_budget if tail_budget else default_budget(
        int(golden["cycles"]))
    budget = max(budget, max(f.cycle for f in plan) + 1)

    # prefix pass: walk one simulator forward through the distinct
    # injection cycles, snapshotting each boundary once
    from ..api import get_registry

    walker = get_registry().build(scenario, cfg)
    key = prefix_key(scenario, cfg, walker)
    cycles_needed = sorted({f.cycle for f in plan})
    store = CheckpointStore(capacity=len(cycles_needed))
    for cycle in cycles_needed:
        advance(walker, cycle - walker.cycle,
                max_wall_time=cfg.max_wall_time)
        store.put(key, cycle, capture(walker, scenario=scenario, key=key))

    # injection pass: fork every fault from its warm prefix snapshot
    cpu = _halt_module(walker)
    outcomes: List[dict] = []
    for index, fault in enumerate(plan):
        _cycle, snap = store.best(key, fault.cycle)
        restore(walker, snap)
        injector = FaultInjector(fault).arm(walker)
        error: Optional[BaseException] = None
        try:
            _run_tail(walker, cpu, golden, budget, cfg.max_wall_time)
        except AnvilError as exc:   # includes WatchdogTimeout
            error = exc
        finally:
            injector.disarm()
        outcome, digest = _classify(walker, cpu, golden, error)
        record = dict(fault.to_dict())
        record.update(
            index=index, site=fault.site, outcome=outcome,
            fired=injector.fired, end_cycle=walker.cycle, digest=digest,
        )
        if error is not None and not isinstance(error, WatchdogTimeout):
            record["error"] = f"{type(error).__name__}: {error}"
        outcomes.append(record)

    return assemble_result(scenario, cfg, seed, plan, budget, golden,
                           outcomes, time.perf_counter() - start)


@job_kind("inject_campaign")
def _inject_campaign_job(spec) -> Dict[str, object]:
    """Executor entry point: one campaign shard in a worker process.

    ``faults`` arrives as a tuple of ``Fault.to_dict`` forms (JobSpecs
    must stay picklable and comparable); an empty tuple means "sample
    ``n_faults`` locally", which keeps single-shard submissions cheap."""
    shard = [Fault.from_dict(dict(d)) for d in spec.param("faults", ())]
    return run_campaign(
        spec.scenario, spec.config,
        n_faults=spec.param("n_faults", 25),
        faults=shard or None,
        inject_seed=spec.param("inject_seed"),
        tail_budget=spec.param("tail_budget"),
    )
