"""Compiled per-topology cycle kernels: the ``engine="kernel"`` settle
engine.

The levelized scheduler (:mod:`repro.rtl.scheduler`) already avoids the
seed's snapshot dicts, but every cycle still pays full interpreter
overhead: a ``settle()`` call that rebinds ~15 locals and re-walks the
group list, dirty-set bookkeeping for blocks that can never be re-marked,
a separate ``commit_activity()`` pass, ``Waveform.sample()`` with its
per-signal length check, and a ``tick()`` sweep that calls into every
module -- including the ones whose ``tick`` is the base-class no-op.
For the common case -- an acyclic, fully-hinted topology whose
evaluation order is static once built -- all of that dispatch is
knowable at build time.

This module exec-compiles that knowledge into a **cycle kernel**: one
generated Python function that runs N cycles in a single loop with
everything bound to locals --

* straight-line ``eval_comb`` calls in level order for singleton groups,
  each followed by inline output-change checks against the scheduler's
  value table (recording changed wires for the activity commit);
* a bounded local fixpoint loop for each strongly connected group of
  modules (SCC), with intra-group dirty flags resolved to individual
  locals; a block that reads one of its own outputs is a one-member
  SCC.  These are the plan's two step kinds;
* a fused incremental toggle-accounting pass over exactly the wires
  that changed this cycle (``prev -> settled``, same arithmetic as
  :meth:`~repro.rtl.scheduler.CombScheduler.commit_activity`);
* columnar waveform sampling -- one pre-bound ``series.append`` per
  watched signal, no length checks (the entry wrapper pads once);
* the tick sweep over only the modules that override ``tick``.

The kernel shares the scheduler's state tables (``_values``,
``_prev_settled``, ``_toggles``), so kernel cycles and interpreted
cycles interleave freely and bit-identically: the equivalence suite
pins ``kernel`` against both ``levelized`` and ``brute`` on waveforms,
activity counts and cycle counts.

Fast-path contract (when the kernel *disengages*)
-------------------------------------------------

:meth:`~repro.rtl.simulator.Simulator.run` is the one per-cycle loop.
It asks :func:`kernel_for` for a kernel and falls back to one
interpreted cycle whenever the fast path cannot apply:

* a module with undeclared ``comb_outputs()`` (the scheduler must then
  scan every wire after every evaluation -- exactly the cost the kernel
  exists to remove), reported as an unsupported plan;
* catch-all wires: tracked wires that no module lists in
  ``comb_outputs()`` (a lone test-bench sink whose inputs are poked
  between runs), which only the interpreted settle rescans, also
  reported as an unsupported plan;
* monitors registered or a fault-injection hook armed (both observe
  between settle and tick; the kernel has no per-cycle callout),
  checked at entry and, for monitors, per cycle;
* pending scheduler state from a standalone ``settle()`` call or an
  un-primed activity baseline (first cycle of a fresh simulator);
* mid-run ``Simulator.add`` -- the scheduler's invalidation flag is
  checked every kernel cycle and breaks out to a rebuild.

A ``stop`` predicate does *not* disengage it: the generated loop syncs
``sim.cycle`` after every completed cycle and calls ``stop()`` itself,
so run-until-event callers (``run_until``, halt-driven fault-injection
tails, the differential fuzzer) stay inside one kernel entry instead of
re-entering it every cycle.  Only single ``step()`` calls are
interpreted by definition.

Like the levelized engine, the kernel assumes topology is stable while
modules evaluate: a module that adopts new wires or registers watches
*from inside* ``eval_comb``/``tick`` is only picked up at the next
``run``/``step`` entry (the levelized engine notices one settle
earlier).  No bundled module does this; ``Simulator.add`` (the
supported mutation) sets the scheduler's invalidation flag and is
caught at the next kernel cycle in both engines.

Checkpoint/restore (:mod:`repro.rtl.snapshot`) is invisible to the
kernel: snapshots capture the shared scheduler columns at a cycle
boundary, restore writes them back, and the generated entry rebinds
every flat local from those columns -- so a restored simulator
re-engages the fast path immediately, without an interpreted fallback
cycle.  :func:`fast_path_ready` makes that entry check inspectable and
the snapshot tests pin it.

Caching
-------

Generated source is a pure function of the topology *shape* -- group
structure, per-block output scan indices, intra-group reader edges,
tick overrides and the watched-signal count -- so
the compile cache (:class:`~repro.compile_cache.SourceCache`, shared
with :mod:`repro.codegen.pysim`) is keyed by the SHA-256 of the source
itself.  Two simulators of the same scenario (a harness sweep
rebuilding row after row, a server worker) compile once;
:func:`cache_stats` exposes the hit/miss counters and
:func:`clear_cache` resets them (tests).
"""

from __future__ import annotations

import marshal
from collections import Counter
from typing import Dict, List, Optional, Tuple

from ..compile_cache import Emitter, SourceCache, source_key

__all__ = [
    "KernelPlan",
    "CycleKernel",
    "build_plan",
    "generate_source",
    "kernel_for",
    "fast_path_ready",
    "cache_stats",
    "clear_cache",
]


class KernelPlan:
    """The structural description a cycle kernel is generated from.

    Extracted from a built :class:`~repro.rtl.scheduler.CombScheduler`:
    everything here is an index into the scheduler's module/wire tables,
    so the generated source never embeds object identities and identical
    topology shapes share one compilation.
    """

    __slots__ = ("n_modules", "steps", "tick_idx", "n_watched",
                 "unsupported")

    def __init__(self, n_modules: int,
                 steps: List[tuple],
                 tick_idx: Tuple[int, ...],
                 n_watched: int,
                 unsupported: Optional[str] = None):
        self.n_modules = n_modules
        #: evaluation steps in level order; each is one of
        #:   ("single", mi, (wi, ...))
        #:   ("scc",    (mi, ...), {mi: ((wi, (in-group readers...)), ...)})
        #: a block that reads one of its own outputs is a one-member scc
        self.steps = steps
        self.tick_idx = tick_idx
        self.n_watched = n_watched
        #: human-readable reason the fast path cannot apply, or None
        self.unsupported = unsupported


def build_plan(sim) -> KernelPlan:
    """Extract a :class:`KernelPlan` from ``sim``'s built scheduler.

    The scheduler must already be built (``_ensure_built``); the plan
    mirrors its topology tables at that instant.
    """
    from .module import Module

    sch = sim.scheduler
    n_mod = len(sim.modules)
    n_watched = len(sim.waveform._watched)
    if sch._undeclared_writers:
        bad = [m.name for m in sim.modules if m.comb_outputs() is None]
        return KernelPlan(
            n_mod, [], (), n_watched,
            unsupported=(
                "module(s) without comb_outputs() hints: "
                f"{bad[:4]!r} -- the kernel needs a fully-hinted "
                f"topology (every wire's writer known at build time)"
            ),
        )
    if sch._catch_all:
        return KernelPlan(
            n_mod, [], (), n_watched,
            unsupported=(
                f"{len(sch._catch_all)} catch-all wire(s) -- tracked "
                f"wires no module lists in comb_outputs(), which only "
                f"the interpreted settle rescans"
            ),
        )

    scan_idx = [tuple(wi for _w, wi in mscan) for mscan in sch._scan]
    readers = sch._readers
    self_mark = sch._self_mark

    steps: List[tuple] = []
    for group in sch._groups:
        if len(group) == 1 and not self_mark[group[0]]:
            steps.append(("single", group[0], scan_idx[group[0]]))
        else:
            # a multi-module SCC, or a block that reads one of its own
            # outputs (a one-member SCC)
            members = sorted(group)
            in_group = set(members)
            body = {}
            for mi in members:
                body[mi] = tuple(
                    (wi, tuple(oi for oi in readers[wi]
                               if oi in in_group
                               and (oi != mi or self_mark[mi])))
                    for wi in scan_idx[mi]
                )
            steps.append(("scc", tuple(members), body))

    tick_idx = tuple(
        mi for mi, m in enumerate(sim.modules)
        if type(m).tick is not Module.tick
    )
    return KernelPlan(n_mod, steps, tick_idx, n_watched)


# ---------------------------------------------------------------------------
# source generation
# ---------------------------------------------------------------------------
def _fused_wires(plan: KernelPlan) -> set:
    """Wire indices whose toggle accounting can fuse into the scan.

    A wire settles at its scan site -- so ``prev -> settled`` accounting
    can happen right there, against a local mirror of the previous
    settled value, with no changed-list and no commit pass -- iff the
    scan provably runs exactly once per cycle: the wire has exactly one
    writer, and that writer is a singleton block.  Everything else (SCC
    members, self-feeding blocks among them, and multi-writer wires)
    may see the wire change several times per settle, where only the
    final value counts.
    """
    writers: Counter = Counter()
    single_out: set = set()
    for step in plan.steps:
        if step[0] == "scc":
            for scans in step[2].values():
                writers.update(wi for wi, _r in scans)
        else:
            writers.update(step[2])
            single_out.update(step[2])
    return {wi for wi in single_out if writers[wi] == 1}


def _emit_scan(em: Emitter, wi: int, fused: set, dirty_targets=()):
    """Inline output-change check for one scanned wire.

    Both shapes compare against a local mirror of the wire's last seen
    value (``_p{wi}``) and re-read the attribute only on the rare
    change path, so the common unchanged case costs one attribute load
    and one compare.  Fused sites account toggles immediately (their
    mirror is the previous *settled* value); dynamic sites additionally
    fold into the scheduler's value table and the changed list for the
    end-of-settle commit, and re-dirty ``dirty_targets`` (the flags of
    the wire's readers in the writer's SCC, the writer's own when it
    feeds itself).
    """
    em.line(f"if _w{wi}.value != _p{wi}:")
    em.push()
    em.line(f"_x = _w{wi}.value")
    if wi in fused:
        em.line(f"toggles[{wi}] += (_p{wi} ^ _x).bit_count()")
        em.line(f"_p{wi} = _x")
        em.pop()
        return
    em.line(f"_p{wi} = _x")
    em.line(f"values[{wi}] = _x")
    em.line(f"chg_app({wi})")
    for target in dirty_targets:
        em.line(f"{target} = 1")
    em.pop()


def _emit_pass(em: Emitter, plan: KernelPlan, fused: set) -> int:
    """One full settle pass in level order; returns the number of
    unconditional (straight-line) evaluations, for the eval counter."""
    n_plain = 0
    for step in plan.steps:
        if step[0] == "single":
            _kind, mi, scan = step
            n_plain += 1
            em.line(f"_e{mi}()")
            for wi in scan:
                _emit_scan(em, wi, fused)
        else:   # scc
            _kind, members, body = step
            mlist = ", ".join(str(mi) for mi in members)
            em.line(f"# SCC [{mlist}]: local fixpoint "
                    f"(genuine combinational feedback)")
            for mi in members:
                em.line(f"_g{mi} = 1")
            anyd = " or ".join(f"_g{mi}" for mi in members)
            em.line("for _i in range(_mx):")
            em.push()
            em.line(f"if not ({anyd}):")
            em.push()
            em.line("break")
            em.pop()
            for mi in members:
                em.line(f"if _g{mi}:")
                em.push()
                em.line(f"_g{mi} = 0")
                em.line(f"_e{mi}()")
                em.line("_ev += 1")
                for wi, group_readers in body[mi]:
                    _emit_scan(em, wi, fused,
                               tuple(f"_g{oi}" for oi in group_readers))
                em.pop()
            em.pop()
            em.line("else:")
            em.push()
            if len(members) == 1:
                # a block feeding itself gets the levelized engine's
                # singleton bound: _mx evaluations, and an error only
                # when the last one left it dirty
                em.line(f"if {anyd}:")
                em.push()
            # the diagnostic reads sim.cycle; sync it before raising
            # (the finally block only runs after the error is built)
            em.line("sim.cycle = cyc")
            em.line(f"raise _err([{mlist}])")
            em.pop()
            if len(members) == 1:
                em.pop()
    return n_plain


def _emit_cycle_body(em: Emitter, plan: KernelPlan, fused: set,
                     dynamic: bool):
    """One full simulated cycle: the settle pass, the end-of-settle
    activity commit, waveform sampling, the tick sweep, and the cycle
    counters."""
    n_plain = _emit_pass(em, plan, fused)
    if n_plain:
        em.line(f"_ev += {n_plain}")
    if dynamic:
        # end-of-settle commit: prev -> settled for the wires that may
        # change more than once per settle (fused sites already
        # accounted themselves at their single scan point)
        em.line("for _k in chg:")
        em.push()
        em.line("_x = values[_k]")
        em.line("_p = prev[_k]")
        em.line("if _p != _x:")
        em.push()
        em.line("toggles[_k] += (_p ^ _x).bit_count()")
        em.line("prev[_k] = _x")
        em.pop()
        em.pop()
        em.line("del chg[:]")
    # columnar waveform sampling
    for i in range(plan.n_watched):
        em.line(f"_a{i}(_v{i}.value)")
    # tick sweep (only modules that override tick)
    for mi in plan.tick_idx:
        em.line(f"_t{mi}()")
    em.line("cyc += 1")
    em.line("done += 1")


def generate_source(plan: KernelPlan) -> str:
    """Deterministically render ``plan`` as a Python module defining
    ``_KERNEL(sim, sch, n, stop) -> (cycles completed, stop fired)``.

    ``stop`` is ``None`` or a zero-argument predicate checked after
    every completed cycle, with ``sim.cycle`` already synced to the
    boundary it observes."""
    scanned_set = set()
    eval_idx = []
    for step in plan.steps:
        if step[0] == "scc":
            eval_idx.extend(step[1])
            for scans in step[2].values():
                scanned_set.update(wi for wi, _r in scans)
        else:
            eval_idx.append(step[1])
            scanned_set.update(step[2])
    fused = _fused_wires(plan)
    dynamic = bool(scanned_set - fused)

    head = [
        f"# cycle kernel: {plan.n_modules} module(s), "
        f"{len(scanned_set)} scanned wire(s) ({len(fused)} fused), "
        f"{plan.n_watched} watched signal(s)",
        "def _KERNEL(sim, sch, n, stop):",
    ]
    em = Emitter()
    em.line("mods = sim.modules")
    em.line("wires = sch._wires")
    em.line("values = sch._values")
    em.line("prev = sch._prev_settled")
    em.line("toggles = sch._toggles")
    em.line("watched = sim.waveform._watched")
    em.line("mons = sim._monitors")
    em.line("_mx = sim.max_settle_iters")
    em.line("_err = sch._loop_error")
    for mi in sorted(eval_idx):
        em.line(f"_e{mi} = mods[{mi}].eval_comb")
    for wi in sorted(scanned_set):
        em.line(f"_w{wi} = wires[{wi}]")
    for wi in sorted(scanned_set):
        # local mirror of the wire's last seen value: the previous
        # settled value for fused sites, the live value table for
        # dynamic ones (values == prev at entry -- the wrapper bails on
        # pending scheduler state; dynamic sites keep values[] in
        # lockstep on their change path)
        em.line(f"_p{wi} = values[{wi}]")
    for mi in plan.tick_idx:
        em.line(f"_t{mi} = mods[{mi}].tick")
    for i in range(plan.n_watched):
        em.line(f"_a{i} = watched[{i}][2].append")
        em.line(f"_v{i} = watched[{i}][1]")
    if dynamic:
        em.line("chg = []")
        em.line("chg_app = chg.append")
    em.line("cyc = sim.cycle")
    em.line("done = 0")
    em.line("stopped = False")
    em.line("_ev = 0")
    em.line("try:")
    em.push()
    em.line("while done < n:")
    em.push()
    # per-cycle guard: topology invalidation (mid-run add -- sim.add
    # sets the stale flag) and monitors registered mid-run.  Anything
    # only module code could mutate without tripping these (adopting
    # wires or adding watches from inside eval/tick) is picked up at
    # the next run/step entry instead -- see the module docstring.
    em.line("if sch._stale or mons:")
    em.push()
    em.line("break")
    em.pop()
    _emit_cycle_body(em, plan, fused, dynamic)
    em.line("if stop is not None:")
    em.push()
    em.line("sim.cycle = cyc")
    em.line("if stop():")
    em.push()
    em.line("stopped = True")
    em.line("break")
    em.pop()
    em.pop()
    em.pop()
    em.pop()
    em.line("finally:")
    em.push()
    em.line("sim.cycle = cyc")
    em.line("sch.eval_count += _ev")
    em.line("sch.settle_count += done")
    for wi in sorted(fused):
        # sync the local mirrors back so interpreted cycles, activity
        # queries and rebuild carry-over see the settled state
        em.line(f"values[{wi}] = prev[{wi}] = _p{wi}")
    em.pop()
    em.line("return done, stopped")
    return "\n".join(head + em.lines) + "\n"


# ---------------------------------------------------------------------------
# compilation + cache
# ---------------------------------------------------------------------------
class CycleKernel:
    """A compiled cycle kernel: the generated runner, its source, the
    source's compile-cache key and the code object compiled from it."""

    __slots__ = ("key", "source", "code", "fn")

    def __init__(self, key: str, source: str, code, fn):
        self.key = key
        self.source = source
        self.code = code
        self.fn = fn


def _bind(key: str, source: str, code) -> CycleKernel:
    ns: Dict[str, object] = {}
    exec(code, ns)
    return CycleKernel(key, source, code, ns["_KERNEL"])


_CACHE = SourceCache("kernel", lambda kernel: marshal.dumps(kernel.code))

#: compile-cache counters (``hits``/``misses``/``entries``/
#: ``evictions``, ``disk_hits``/``disk_misses``/``disk_rejected``; the
#: benchmark's cache-stats hook) and their reset (tests)
cache_stats = _CACHE.stats
clear_cache = _CACHE.clear


def kernel_for(plan: KernelPlan) -> Optional[CycleKernel]:
    """Return the compiled kernel for ``plan`` (``None`` when the plan
    is unsupported)."""
    if plan.unsupported:
        return None
    source = generate_source(plan)
    key = source_key(source)
    return _CACHE.get(
        key,
        lambda: _bind(key, source, compile(source, "<cycle-kernel>", "exec")),
        lambda body: _bind(key, source, marshal.loads(body)))


def fast_path_ready(sim) -> bool:
    """Whether the compiled fast path can engage for ``sim``'s *next*
    ``run()`` call without an interpreted fallback cycle.

    This is the entry check of
    :meth:`~repro.rtl.simulator.Simulator._kernel_advance` itself: no
    monitors, no armed inject hook, scheduler built with no pending
    prime or dirty set, and a supported topology.  The
    checkpoint layer (:mod:`repro.rtl.snapshot`) restores the scheduler
    columns the generated code rebinds its flat locals from at every
    entry, so a restored simulator must report ready whenever the
    snapshot's source did -- the snapshot test suite pins that
    invariant so restores never silently degrade ``engine="kernel"``
    runs to the per-cycle interpreter.
    """
    return sim._fast_path() is not None
