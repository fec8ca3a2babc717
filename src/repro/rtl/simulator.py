"""Two-phase cycle-based RTL simulator.

Each cycle:

1. **settle** -- evaluate combinational logic until no wire changes value
   (divergence indicates a combinational loop and raises
   :class:`~repro.errors.SimulationError`);
2. **sample** -- the waveform recorder captures the settled wire values
   (this is what the paper's waveform figures show);
3. **tick** -- every module's clock edge updates its registers.

Three settle engines are available:

* ``engine="levelized"`` (default) -- the change-driven, levelized
  scheduler of :mod:`repro.rtl.scheduler`: dependency-ordered evaluation,
  dirty-set propagation, incremental toggle accounting.
* ``engine="kernel"`` -- the levelized topology exec-compiled into a
  per-topology cycle kernel (:mod:`repro.rtl.kernel`): ``run(n)``
  executes N cycles in one generated loop with straight-line
  evaluation, fused activity accounting, columnar waveform sampling
  and no per-cycle method dispatch -- ``run(n, stop=...)`` checks its
  stop predicate inside that loop.  Falls back to the levelized
  per-cycle path automatically whenever the fast path cannot apply
  (monitors, an armed inject hook, ``step``, unhinted modules,
  catch-all wires, mid-run ``add``) -- observables are bit-identical
  either way.
* ``engine="brute"`` -- the original bounded fixpoint that re-evaluates
  every module and snapshots every wire per iteration.  Kept as the
  semantic reference: the equivalence tests pin the other engines
  against it, and ``benchmarks/bench_simulator.py`` measures the
  speedups.

:meth:`Simulator.run` is the one per-cycle loop, and :func:`advance`
the one driver above it (wall-clock watchdog, checkpoint segments);
everything that simulates -- sessions, executor jobs, the server,
fault-injection campaigns, the fuzzer -- goes through the two.

The simulator also exposes an *activity* counter per wire (toggle
counts), which feeds the dynamic-power estimate of the synthesis cost
model.  Counts are keyed by ``(module name, wire name)`` so same-named
wires in different modules never merge (the seed keyed them by bare wire
name, skewing the power estimate).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import SimulationError, WatchdogTimeout
from .module import Module
from .scheduler import CombScheduler
from .waveform import Waveform

#: the available settle engines, in (reference, default, fastest)
#: order; the config layer (:mod:`repro.api`) validates against this
#: tuple
ENGINES = ("brute", "levelized", "kernel")


class Simulator:
    def __init__(self, name: str = "sim", max_settle_iters: int = 64,
                 engine: str = "levelized"):
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r} (use 'levelized', 'kernel' "
                f"or 'brute')"
            )
        self.name = name
        self.engine = engine
        self.modules: List[Module] = []
        self.cycle = 0
        self.max_settle_iters = max_settle_iters
        self.waveform = Waveform()
        self.scheduler = CombScheduler(self)
        self._monitors: List[Callable[[int], None]] = []
        # fault-injection hook (repro.inject): called with the simulator
        # after settle and before activity commit/sample/tick, i.e. at
        # the exact point where a transient upset lands on settled wires
        # or on register state about to be consumed by tick().  While
        # armed the compiled cycle-kernel fast path stands down (the
        # hook needs every cycle); it re-arms when the hook disarms.
        self._inject_hook: Optional[Callable[["Simulator"], None]] = None
        self._prev_values: Dict[int, int] = {}   # brute engine only
        # the compiled cycle kernel for the current (topology, watch
        # count) pair, read only by the kernel engine's fast path, so
        # the other engines never compile one.  None means no usable
        # kernel -- either never compiled or the topology is
        # unsupported; the distinction lives in _kernel_key, which
        # matching prevents a re-plan until the topology or watch count
        # changes
        self._kernel = None
        self._kernel_key = None

    def add(self, module: Module) -> Module:
        self.modules.append(module)
        self.scheduler.invalidate()
        return module

    def watch(self, wire, label: str = ""):
        """Record a wire in the waveform output."""
        self.waveform.watch(wire, label)

    def on_cycle(self, fn: Callable[[int], None]):
        """Register a monitor callback invoked after each settle phase.

        While any monitor is registered the compiled cycle-kernel fast
        path stands down (the kernel has no per-cycle callout; monitors
        need every cycle) -- detach with :meth:`remove_monitor` to
        re-arm it."""
        self._monitors.append(fn)

    def remove_monitor(self, fn: Callable[[int], None]) -> bool:
        """Detach a monitor registered via :meth:`on_cycle`; returns
        whether it was attached."""
        try:
            self._monitors.remove(fn)
            return True
        except ValueError:
            return False

    # ------------------------------------------------------------------
    def _all_wires(self):
        for m in self.modules:
            yield from m.wires()

    def settle(self) -> int:
        """Run combinational logic to a fixpoint; returns the number of
        evaluation passes taken."""
        if self.engine == "brute":
            return self._settle_brute()
        return self.scheduler.settle()

    def _settle_brute(self):
        """The seed algorithm: full re-evaluation with dict snapshots."""
        for iteration in range(self.max_settle_iters):
            before = {id(w): w.value for w in self._all_wires()}
            for m in self.modules:
                m.eval_comb()
            after = {id(w): w.value for w in self._all_wires()}
            if before == after:
                return iteration + 1
        raise SimulationError(
            f"combinational logic did not settle in "
            f"{self.max_settle_iters} iterations at cycle {self.cycle}"
        )

    def step(self):
        """Advance one full clock cycle.

        Always the interpreted path, even under ``engine="kernel"``:
        a single-cycle caller (a test bench poking wires between
        steps) re-dispatches every cycle, which is exactly the overhead
        the kernel exists to amortize -- multi-cycle runs, including
        run-until-event ones, go through :meth:`run` instead."""
        self.settle()
        hook = self._inject_hook
        if hook is not None:
            hook(self)
        # toggle counting for the power model: the scheduler tracks which
        # wires changed during settle, no full snapshot needed
        if self.engine == "brute":
            self._brute_activity()
        else:
            self.scheduler.commit_activity()
        self.waveform.sample(self.cycle)
        for fn in self._monitors:
            fn(self.cycle)
        for m in self.modules:
            m.tick()
        self.cycle += 1

    def _brute_activity(self):
        """The seed's per-step toggle accounting: a full pass over every
        wire with a dict lookup per wire.  Kept verbatim (modulo the
        per-module keying fix) so benchmarks measure the seed engine's
        true cost; results land in the scheduler's counters so both
        engines report identically."""
        sch = self.scheduler
        sch.sync_registry()
        prev_values = self._prev_values
        toggles = sch._toggles
        values = sch._values
        prev_settled = sch._prev_settled
        for w, wi in sch._scan_all:
            v = w.value
            prev = prev_values.get(id(w))
            if prev is not None and prev != v:
                toggles[wi] += (prev ^ v).bit_count()
            prev_values[id(w)] = v
            values[wi] = v
            prev_settled[wi] = v

    def run(self, cycles: int,
            stop: Optional[Callable[[], bool]] = None) -> int:
        """Advance up to ``cycles`` cycles; returns the number advanced.

        ``stop`` is a zero-argument predicate checked at every cycle
        boundary -- once before the first cycle, then after each
        completed one -- ending the run the first time it holds (so a
        stop that is already true advances nothing).  On
        ``engine="kernel"`` the compiled loop calls it in place, with
        ``sim.cycle`` synced to the boundary; the interpreted engines
        call it after each :meth:`step`."""
        if stop is not None and stop():
            return 0
        kernel = self.engine == "kernel"
        done = 0
        while done < cycles:
            if kernel:
                n, stopped = self._kernel_advance(cycles - done, stop)
                done += n
                if stopped or done >= cycles:
                    break
            # the interpreted cycle: every cycle of the interpreted
            # engines, and one fallback cycle whenever the kernel's fast
            # path disengages (monitors, unsupported topology, pending
            # scheduler state, mid-run add) before it is tried again
            self.step()
            done += 1
            if stop is not None and stop():
                break
        return done

    def _kernel_advance(self, cycles: int,
                        stop: Optional[Callable[[], bool]] = None
                        ) -> Tuple[int, bool]:
        """Run up to ``cycles`` cycles through the compiled cycle
        kernel; returns ``(cycles completed, stop fired)`` -- ``(0,
        False)`` when the fast path cannot engage and the caller falls
        back to :meth:`step`."""
        kern = self._fast_path()
        if kern is None:
            return 0, False
        # late watches: pad once here so the kernel's per-cycle sample
        # is a plain append
        for _label, _wire, series in self.waveform._watched:
            if len(series) < self.cycle:
                series.extend([0] * (self.cycle - len(series)))
        return kern.fn(self, self.scheduler, cycles, stop)

    def _fast_path(self):
        """The compiled cycle kernel the next :meth:`run` enters, or
        ``None`` when the fast path cannot engage: monitors and an
        armed inject hook need every cycle, an unprimed activity
        baseline (first cycle after build) or changed wires pending
        from a standalone settle() belong to the interpreted commit,
        and an unsupported topology has no kernel.  The kernel is
        compiled once per (topology, watch count) pair."""
        if self._monitors or self._inject_hook is not None:
            return None
        sch = self.scheduler
        sch._ensure_built()
        if sch._needs_prime or sch._changed:
            return None
        key = (sch._topo_key, len(self.waveform._watched))
        if self._kernel_key != key:
            from .kernel import build_plan, kernel_for

            self._kernel = kernel_for(build_plan(self))
            self._kernel_key = key
        return self._kernel

    def snapshot(self):
        """Capture the complete cycle-boundary state (wire values,
        toggle counters, pending scheduler bookkeeping, module
        registers/latches/queues, waveform series, cycle number) as a
        picklable :class:`~repro.rtl.snapshot.Snapshot`.

        Engine-portable: a snapshot taken under any engine restores
        into any other (the equivalence suites pin the engines to
        identical boundary states), and restoring leaves the compiled
        cycle kernel's fast path armed -- its flat locals are rebound
        from the scheduler columns at every kernel entry."""
        from .snapshot import capture

        return capture(self)

    def restore(self, snap):
        """Restore a :meth:`snapshot` into this simulator (in place, or
        into a fresh deterministic rebuild of the same scenario); the
        resumed run is bit-identical to one that never stopped."""
        from .snapshot import restore

        restore(self, snap)

    def run_until(self, predicate: Callable[[], bool], limit: int = 10000):
        """Run until ``predicate()`` holds or the cycle limit; returns
        cycles elapsed.  Raises :class:`~repro.errors.SimulationError`
        when the limit passes with the predicate still false."""
        elapsed = self.run(limit, stop=predicate)
        if elapsed >= limit and not predicate():
            raise SimulationError(f"run_until exceeded {limit} cycles")
        return elapsed

    @property
    def activity(self) -> Dict[Tuple[str, str], int]:
        """Per-wire toggle counts keyed by ``(module name, wire name)``."""
        return self.scheduler.activity()

    def total_activity(self) -> int:
        return self.scheduler.total_activity()

    def __repr__(self):
        return (
            f"Simulator({self.name!r}, cycle={self.cycle}, "
            f"engine={self.engine!r})"
        )


def advance(sim: Simulator, cycles: int, *,
            stop: Optional[Callable[[], bool]] = None,
            max_wall_time: Optional[float] = None,
            every: Optional[int] = None,
            on_boundary: Optional[Callable[[Simulator], None]] = None
            ) -> int:
    """Advance ``sim`` by up to ``cycles`` cycles through
    :meth:`Simulator.run`; returns the number advanced.

    The one driver above ``run``:

    * ``stop`` ends the run early, exactly as in :meth:`Simulator.run`;
    * ``max_wall_time`` (seconds from entry; ``None``/``0`` for no
      budget) is a wall-clock watchdog, checked as one more stop
      predicate at every cycle boundary: when it expires with cycles
      left, :class:`~repro.errors.WatchdogTimeout` cancels the pending
      work instead of letting a hung or pathological simulation wedge
      its worker.  A run whose last cycle completes late still
      succeeds -- the watchdog never discards completed work;
    * ``every``/``on_boundary`` cut the run into checkpoint segments:
      ``on_boundary(sim)`` runs at every absolute multiple of ``every``
      cycles and where the run ends (once per boundary, and not where
      the watchdog cancels), so boundaries stored before a timeout
      survive.
    """
    deadline = time.monotonic() + max_wall_time if max_wall_time else None
    expired = False

    def watchdog() -> bool:
        nonlocal expired
        if stop is not None and stop():
            expired = False
            return True
        expired = time.monotonic() > deadline
        return expired

    pred = stop if deadline is None else watchdog
    done = 0
    while done < cycles:
        n = cycles - done
        if every:
            n = min(n, every - sim.cycle % every)
        ran = sim.run(n, stop=pred)
        done += ran
        if ran < n and expired:
            raise WatchdogTimeout(
                f"wall-clock watchdog cancelled {sim.name!r} at cycle "
                f"{sim.cycle}: {cycles - done} of {cycles} requested "
                f"cycles unsimulated when the budget expired"
            )
        if ran and on_boundary is not None:
            on_boundary(sim)
        if ran < n:
            break
    return done
