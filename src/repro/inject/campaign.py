"""Fault-injection campaigns: fork-from-snapshot sweeps + AVF readout.

A campaign asks "what happens when a bit flips?" N times against one
scenario and classifies every answer against the uninjected golden run:

* **masked** -- the architectural final state is bit-identical;
* **sdc** -- silent data corruption: state differs, nothing fired;
* **detected** -- the machine noticed: the Y86 ``stat`` left its golden
  value (halt with SADR/SINS/...) or an Anvil safety contract raised;
* **hang** -- the tail exceeded its cycle budget (or tripped the
  optional ``max_wall_time`` wall-clock watchdog) without halting.

A fault that cannot be armed, or whose tail raises anything but an
:class:`~repro.errors.AnvilError`, is not classified: the campaign
aborts with a :class:`~repro.errors.SimulationError` that names the
fault and the file and line the original exception came from.

One build serves the whole campaign: the driver captures the fresh
simulator at cycle 0, runs the golden pass on it, enumerates sites and
samples the plan from the finished run, then restores cycle 0.  It
never re-simulates a prefix: it walks that simulator forward through
the distinct injection cycles, captures a
:class:`~repro.rtl.snapshot.Snapshot` of the golden run at each, and
forks every injection from the snapshot at its cycle (restore is
in-place and bit-exact, so one simulator serves the whole sweep).

A tail stops as soon as it re-converges with the golden run.  Once the
injector has disarmed itself (the fault's window has closed), the tail
compares its state with the golden snapshot at every later injection
cycle (:func:`~repro.rtl.snapshot.matches`: wire values, pending
scheduler state, every module's plain-data state).  Restore being
bit-exact rests on module state being plain data and structural
attributes never changing mid-run; the same premise makes a match final:
from there the tail repeats the golden run, so its record is the one
the full tail would produce -- ``masked`` with the golden cycle count
as ``end_cycle`` and the golden digest -- and ``converged_at`` names the
checkpoint cycle (``None`` for a tail that ran to its end).  On CPU
scenarios a tail stops early only when the golden halt lies within its
cycle budget; otherwise the full tail is a ``hang``.

Campaigns shard: a shard is the serial campaign over one contiguous
slice of the plan (``run_campaign(shard=(index, count))``).  It
samples the whole plan, fixes the one tail budget and walks the same
golden checkpoints, and runs only its slice's tails, so its records
equal the serial campaign's for that slice, ``converged_at`` included.
``Session.inject_campaign`` runs one ``inject_campaign``
:class:`~repro.rtl.executors.JobSpec` per slice on the process executor
and merges the outcomes in plan order -- the result does not depend on
the executor.
"""

from __future__ import annotations

import hashlib
import random
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import AnvilError, SimulationError, WatchdogTimeout
from ..rtl.executors import job_kind
from ..rtl.simulator import advance
from ..rtl.snapshot import Snapshot, capture, matches, restore, state_sig
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


def _golden_pass(scenario: str, sim, cpu, cfg) -> Dict[str, object]:
    """Run the uninjected reference and fingerprint its final state."""
    if cpu is None:
        advance(sim, cfg.cycles, max_wall_time=cfg.max_wall_time)
        return {"cycles": cfg.cycles, "stat": None,
                "digest": state_sig(sim)[:16]}
    sim.run(cfg.cycles, stop=lambda: cpu.halted)
    if not cpu.halted:
        raise SimulationError(
            f"{scenario}: the golden run did not halt within {cfg.cycles} "
            f"cycles; raise the cycle limit (cycles=, or --cycles on the "
            f"command line)")
    return {"cycles": sim.cycle, "stat": cpu.stat,
            "digest": _arch_digest(cpu.arch_state())}


def _run_tail(sim, cpu, golden: Dict[str, object], budget: int,
              max_wall_time: Optional[float],
              golden_at: Optional[Dict[int, Snapshot]] = None
              ) -> Optional[int]:
    """Advance an injected fork to its classification point: the exact
    halt cycle (or the absolute cycle ``budget``) for CPU scenarios,
    the golden cycle count for fixed-cycle ones -- in one
    :func:`~repro.rtl.simulator.advance` call, under one wall-clock
    deadline.

    ``golden_at`` maps cycles to golden-run snapshots: once the
    injector has disarmed, the tail stops at the first of those cycles
    where its state :func:`~repro.rtl.snapshot.matches` the golden
    run's and returns that cycle.  It returns ``None`` for a tail that
    ran to its end -- always so without ``golden_at``, the full-tail
    reference path."""
    golden_at = golden_at or {}
    converged_at = None

    def stop() -> bool:
        nonlocal converged_at
        if cpu is not None and cpu.halted:
            return True
        snap = golden_at.get(sim.cycle)
        if snap is None or sim._inject_hook is not None \
                or not matches(sim, snap):
            return False
        converged_at = sim.cycle
        return True

    end = int(golden["cycles"]) if cpu is None else budget
    advance(sim, end - sim.cycle, stop=stop, max_wall_time=max_wall_time)
    return converged_at


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


def assemble_result(scenario: str, cfg, inject_seed: int, budget: int,
                    golden: Dict[str, object], outcomes: List[dict],
                    elapsed: float) -> Dict[str, object]:
    """The campaign's pinned result shape.  Everything except
    ``elapsed`` and ``config`` is a pure function of (scenario, config
    determinism axes, the fault plan) -- the byte-identity tests compare
    the rest verbatim."""
    hist, table = aggregate(outcomes)
    return {
        "scenario": scenario,
        "faults": len(outcomes),
        "inject_seed": inject_seed,
        "tail_budget": budget,
        "golden": golden,
        "histogram": hist,
        "table": table,
        "outcomes": outcomes,
        "config": cfg.to_dict(),
        "elapsed": round(elapsed, 6),
    }


def _sample(sim, golden: Dict[str, object], n_faults: int,
            seed: int) -> List[Fault]:
    """The seeded sampling plan over the sites of ``sim`` after its
    golden pass and the golden run's cycle span."""
    return sample_faults(enumerate_sites(sim), n_faults,
                         random.Random(seed), int(golden["cycles"]))


def default_budget(golden_cycles: int) -> int:
    """The default tail cycle budget: enough slack for stalls and
    recovery, small enough that runaway loops classify quickly."""
    return 2 * golden_cycles + 64


def _aborted(scenario: str, index: int, fault: Fault,
             exc: Exception) -> SimulationError:
    """The error that ends a campaign whose fault could not be armed,
    or whose tail crashed outside the simulator's own error types: it
    names the fault and where the original exception was raised."""
    where = traceback.extract_tb(exc.__traceback__)[-1]
    return SimulationError(
        f"{scenario} campaign aborted at fault {index} ({fault.kind} on "
        f"{fault.site} at cycle {fault.cycle}): {type(exc).__name__}: "
        f"{exc} (at {'/'.join(Path(where.filename).parts[-2:])}:"
        f"{where.lineno})")


def run_campaign(scenario: str, config=None, *, n_faults: int = 25,
                 faults: Optional[Sequence[Fault]] = None,
                 inject_seed: Optional[int] = None,
                 tail_budget: Optional[int] = None,
                 shard: Optional[Tuple[int, int]] = None
                 ) -> Dict[str, object]:
    """Run one fault-injection campaign serially and return the result
    dict (see :func:`assemble_result`).

    With ``faults`` omitted, ``n_faults`` are sampled from
    ``random.Random(inject_seed or config.seed)`` over every injectable
    site x the golden run's cycle span; an explicit ``faults`` list of
    :class:`~repro.inject.faults.Fault` objects runs exactly those (the
    hand-placed classification tests use this).  ``tail_budget`` is
    the absolute cycle budget of every tail (``None``:
    :func:`default_budget`).  Each outcome record's ``converged_at`` is
    the injection cycle where its tail re-converged with the golden
    run, or ``None``.

    ``shard=(index, count)`` runs only the tails of the ``index``-th of
    ``count`` contiguous, near-equal slices of the plan, numbered by
    plan index; everything else -- the plan, the budget, the golden
    checkpoints -- is the whole campaign's, so the shard's records are
    the serial campaign's records for that slice."""
    from ..api import get_registry, resolve_config

    if tail_budget is not None and tail_budget < 1:
        raise SimulationError(
            f"fault injection: the tail budget must be a positive cycle "
            f"count, got {tail_budget}")
    if faults is None and n_faults < 1:
        raise SimulationError(
            f"fault injection: the fault count must be positive, got "
            f"{n_faults}")
    if shard is not None and not 0 <= shard[0] < shard[1]:
        raise SimulationError(
            f"fault injection: shard {shard} is not (index, count) with "
            f"0 <= index < count")
    cfg = resolve_config(config)
    seed = cfg.seed if inject_seed is None else inject_seed
    start = time.perf_counter()

    sim = get_registry().build(scenario, cfg)
    origin = capture(sim, scenario=scenario)
    cpu = _halt_module(sim)
    golden = _golden_pass(scenario, sim, cpu, cfg)
    plan = _sample(sim, golden, n_faults, seed) if faults is None \
        else list(faults)
    if not plan:
        raise SimulationError("fault injection: empty fault list")
    part, parts = shard or (0, 1)
    mine = range(len(plan) * part // parts,
                 len(plan) * (part + 1) // parts)

    budget = default_budget(int(golden["cycles"])) if tail_budget is None \
        else tail_budget
    budget = max(budget, max(f.cycle for f in plan) + 1)

    # prefix pass: walk the golden run again from cycle 0 through the
    # distinct injection cycles, snapshotting each boundary once
    restore(sim, origin)
    checkpoints = {}
    for cycle in sorted({f.cycle for f in plan}):
        advance(sim, cycle - sim.cycle, max_wall_time=cfg.max_wall_time)
        checkpoints[cycle] = capture(sim, scenario=scenario)
    # a CPU tail whose budget ends before the golden halt is a hang
    # even if it re-converges, so it runs to its budget
    golden_at = checkpoints if cpu is None or \
        int(golden["cycles"]) <= budget else None

    # injection pass: fork every fault from its warm prefix snapshot
    outcomes: List[dict] = []
    for index in mine:
        fault = plan[index]
        restore(sim, checkpoints[fault.cycle])
        injector = FaultInjector(fault)
        try:
            injector.arm(sim)
        except Exception as exc:
            raise _aborted(scenario, index, fault, exc) from exc
        error: Optional[BaseException] = None
        converged_at = None
        try:
            converged_at = _run_tail(sim, cpu, golden, budget,
                                     cfg.max_wall_time, golden_at)
        except AnvilError as exc:   # includes WatchdogTimeout
            error = exc
        except Exception as exc:
            raise _aborted(scenario, index, fault, exc) from exc
        finally:
            injector.disarm()
        if converged_at is None:
            outcome, digest = _classify(sim, cpu, golden, error)
            end_cycle = sim.cycle
        else:
            outcome, digest = "masked", golden["digest"]
            end_cycle = int(golden["cycles"])
        record = dict(fault.to_dict())
        record.update(
            index=index, site=fault.site, outcome=outcome,
            fired=injector.fired, end_cycle=end_cycle, digest=digest,
            converged_at=converged_at,
        )
        if error is not None and not isinstance(error, WatchdogTimeout):
            record["error"] = f"{type(error).__name__}: {error}"
        outcomes.append(record)

    return assemble_result(scenario, cfg, seed, budget, golden, outcomes,
                           time.perf_counter() - start)


@job_kind("inject_campaign")
def _inject_campaign_job(spec) -> Dict[str, object]:
    """Executor entry point: one campaign shard in a worker process."""
    return run_campaign(
        spec.scenario, spec.config,
        n_faults=spec.param("n_faults"),
        inject_seed=spec.param("inject_seed"),
        tail_budget=spec.param("tail_budget"),
        shard=spec.param("shard"),
    )
