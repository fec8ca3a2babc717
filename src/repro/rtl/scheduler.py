"""Levelized, change-driven combinational scheduler.

The seed simulator settled each cycle by re-evaluating *every* module's
combinational logic in a bounded fixpoint loop and snapshotting *all*
wire values into fresh dicts on every iteration -- O(iterations x wires)
per cycle, dominated by allocation.  This module replaces that loop with
the classic levelized dirty-set algorithm used by cycle-based simulators:

1. **Build** (cached): every module is one combinational block.  Block
   *outputs* are the wires ``eval_comb`` may write, block *inputs* the
   wires it may read -- taken from the optional
   :meth:`~repro.rtl.module.Module.comb_inputs` /
   :meth:`~repro.rtl.module.Module.comb_outputs` hints, conservatively
   defaulting to "all tracked wires".  Writer->reader edges induce a
   module dependency graph; its strongly connected components
   (iterative Tarjan) are levelized into a topological order of groups.
2. **Settle** (per cycle): every block starts dirty (register state may
   have changed at the clock edge).  Groups are evaluated in level
   order; after each evaluation only that block's output wires are
   scanned, and a change marks exactly the readers of the changed wire
   dirty.  Multi-module groups (genuine combinational feedback, e.g. a
   valid/ack handshake pair) iterate to a local fixpoint.  A group that
   fails to stabilize within ``max_settle_iters`` is a true
   combinational loop and raises :class:`~repro.errors.SimulationError`
   naming the unstable wires and the modules on the cycle.
3. **Catch-all scan**: one O(wires) pass per settle absorbs writes to
   wires the writer never declared or tracked (e.g. a test bench poking
   a foreign module's wires), preserving the seed engine's semantics
   for undisciplined modules.

Activity (toggle) accounting is incremental: only wires that actually
changed during a settle are compared against their previous settled
value -- no full-wire snapshot dicts.  Counts are keyed per *wire
object* and reported under ``(owning module, wire name)`` keys, fixing
the seed bug where same-named wires in different modules silently merged
their toggle counts.

The build is cached per simulator and invalidated by
:meth:`CombScheduler.invalidate` (called from ``Simulator.add``) or by a
cheap topology fingerprint check, so late wiring (``Module.adopt`` after
``add``, e.g. ``bind_endpoint``) is picked up automatically.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from ..errors import SimulationError


class CombScheduler:
    """Per-:class:`~repro.rtl.simulator.Simulator` evaluation engine."""

    def __init__(self, sim):
        self.sim = sim
        self._stale = True
        self._topo_key: Optional[tuple] = None
        # _topo_key answers "did the topology change?", the signature
        # "what is it?" (snapshots, checkpoint prefix keys)
        self._sig: Optional[str] = None
        # wire registry (parallel lists indexed by wire index)
        self._wires: List = []
        self._values: List[int] = []
        self._prev_settled: List[Optional[int]] = []
        self._toggles: List[int] = []
        self._owner: List[int] = []
        self._readers: List[Tuple[int, ...]] = []
        # module tables
        self._scan: List[List[tuple]] = []      # module -> [(wire, idx)]
        self._scan_all: List[tuple] = []        # every wire with its index
        self._catch_all: List[tuple] = []       # wires no writer scans
        self._eval_fns: List = []               # bound eval_comb per module
        self._self_mark: List[bool] = []
        self._groups: List[List[int]] = []      # SCCs in topological order
        self._all_dirty = b""
        self._dirty = bytearray()
        self._changed: set = set()
        self._needs_prime = True
        self._undeclared_writers = True   # conservative until built
        # statistics (benchmarks / tests)
        self.eval_count = 0
        self.settle_count = 0

    # -- cache management --------------------------------------------------
    def invalidate(self):
        self._stale = True

    def _fingerprint(self) -> tuple:
        # the identity component hashes the *ordered* id tuple:
        # reordering sim.modules changes the evaluation order and the
        # activity attribution, so it must invalidate the cached
        # topology (an order-insensitive sum would not)
        modules = self.sim.modules
        return (
            len(modules),
            sum(len(m._wires) for m in modules),
            hash(tuple(map(id, modules))),
        )

    def _ensure_built(self):
        if self._stale or self._topo_key != self._fingerprint():
            self._rebuild()

    def _rebuild(self):
        modules = list(self.sim.modules)
        n_mod = len(modules)
        # carry per-wire accounting across rebuilds (modules added mid-run
        # must not reset toggle counts of existing wires)
        carried = {
            id(w): (self._values[i], self._prev_settled[i], self._toggles[i])
            for i, w in enumerate(self._wires)
        }

        wires: List = []
        windex: Dict[int, int] = {}
        owner: List[int] = []
        mod_tracked: List[List[int]] = []

        def register(w, mi: int) -> int:
            wi = windex.get(id(w))
            if wi is None:
                wi = len(wires)
                windex[id(w)] = wi
                wires.append(w)
                owner.append(mi)
            return wi

        for mi, m in enumerate(modules):
            seen = dict.fromkeys(register(w, mi) for w in m.wires())
            mod_tracked.append(list(seen))

        self_mark: List[bool] = []
        in_sets: List[List[int]] = []
        scan: List[List[tuple]] = []
        undeclared_writers = False
        for mi, m in enumerate(modules):
            ins = m.comb_inputs()
            outs = m.comb_outputs()
            if outs is None:
                # no write declaration: the module may write wires it
                # does not even track, so the catch-all scan must cover
                # every wire
                undeclared_writers = True
            if ins is None:
                in_idx = list(mod_tracked[mi])
            else:
                in_idx = list(dict.fromkeys(register(w, mi) for w in ins))
            if outs is None:
                out_idx = list(mod_tracked[mi])
            else:
                out_idx = list(dict.fromkeys(register(w, mi) for w in outs))
            in_sets.append(in_idx)
            scan.append([(wires[wi], wi) for wi in out_idx])
            # a block reading one of its own outputs may combinationally
            # feed itself (always true for undeclared/conservative
            # blocks): re-mark it dirty when its outputs change
            self_mark.append(bool(set(in_idx) & set(out_idx)))

        n_wire = len(wires)
        readers_l: List[List[int]] = [[] for _ in range(n_wire)]
        for mi, in_idx in enumerate(in_sets):
            for wi in in_idx:
                readers_l[wi].append(mi)

        # module dependency graph: writer -> reader per shared wire
        succ: List[set] = [set() for _ in range(n_mod)]
        for mi in range(n_mod):
            for _w, wi in scan[mi]:
                for oi in readers_l[wi]:
                    if oi != mi or self_mark[mi]:
                        succ[mi].add(oi)
        # Tarjan already yields the SCCs topologically ordered -- that
        # order IS the levelization the settle loop walks
        groups = _tarjan_scc(n_mod, succ)

        values = [0] * n_wire
        prev: List[Optional[int]] = [None] * n_wire
        toggles = [0] * n_wire
        for wi, w in enumerate(wires):
            got = carried.get(id(w))
            if got is not None:
                values[wi], prev[wi], toggles[wi] = got
            else:
                values[wi] = w.value
                self._needs_prime = True

        self._wires = wires
        self._values = values
        self._prev_settled = prev
        self._toggles = toggles
        self._owner = owner
        self._readers = [tuple(r) for r in readers_l]
        self._scan = scan
        self._scan_all = [(w, wi) for wi, w in enumerate(wires)]
        # the per-settle catch-all need only cover wires no declared
        # writer scans (test-bench pokes land there); scanned wires are
        # re-checked after every writer evaluation anyway.  With any
        # undeclared writer in the mix, cover everything.
        self._undeclared_writers = undeclared_writers
        if undeclared_writers:
            self._catch_all = self._scan_all
        else:
            covered = {wi for mscan in scan for _w, wi in mscan}
            self._catch_all = [
                (w, wi) for w, wi in self._scan_all if wi not in covered
            ]
        self._eval_fns = [m.eval_comb for m in modules]
        self._self_mark = self_mark
        self._groups = [sorted(g) for g in groups]
        self._all_dirty = bytes([1]) * n_mod
        self._dirty = bytearray(n_mod)
        self._changed = {wi for wi in self._changed if wi < n_wire}
        self._stale = False
        self._topo_key = self._fingerprint()
        self._sig = None

    def signature(self) -> str:
        """SHA-256 over each module's type and name and the names of the
        wires it tracks and declares in ``comb_inputs()`` and
        ``comb_outputs()`` (the declarations carry the connectivity).
        Names, not identities, so equal builds agree across engines,
        backends and processes.  Kept until the next rebuild."""
        self._ensure_built()
        if self._sig is None:
            h = hashlib.sha256()
            for m in self.sim.modules:
                h.update(f"{type(m).__name__}\0{m.name}\0".encode())
                for wires in (m.wires(), m.comb_inputs(), m.comb_outputs()):
                    # \x03 marks an undeclared (None) list
                    h.update(b"\x03" if wires is None else b"".join(
                        w.name.encode() + b"\x01" for w in wires))
                    h.update(b"\x02")
            self._sig = h.hexdigest()
        return self._sig

    # -- introspection -----------------------------------------------------
    def levels(self) -> List[List[str]]:
        """Module names per evaluation group, in topological order (for
        docs, tests and debugging)."""
        self._ensure_built()
        modules = self.sim.modules
        return [[modules[mi].name for mi in g] for g in self._groups]

    # -- the per-cycle fixpoint --------------------------------------------
    def settle(self) -> int:
        """Evaluate combinational logic to a fixpoint; returns the number
        of evaluation passes (1 for a pure feed-forward design)."""
        self._ensure_built()
        sim = self.sim
        values = self._values
        changed = self._changed
        changed_add = changed.add
        readers = self._readers
        scan = self._scan
        evals_fns = self._eval_fns
        self_mark = self._self_mark
        dirty = self._dirty
        max_iters = sim.max_settle_iters
        evals = 0

        # a clock edge may have changed any register, so every block is
        # dirty at the start of the cycle.  (Wires poked from outside
        # eval_comb -- test benches writing inputs between steps -- are
        # absorbed by the catch-all scan below.)
        dirty[:] = self._all_dirty

        passes = 0
        for _outer in range(max_iters):
            passes += 1
            for group in self._groups:
                if len(group) == 1:
                    # fast path: an acyclic block settles in one shot
                    # (or a bounded few, if it feeds itself)
                    mi = group[0]
                    iters = 0
                    while dirty[mi]:
                        iters += 1
                        if iters > max_iters:
                            raise self._loop_error(group)
                        dirty[mi] = 0
                        evals_fns[mi]()
                        evals += 1
                        mark = self_mark[mi]
                        for w, wi in scan[mi]:
                            v = w.value
                            if v != values[wi]:
                                values[wi] = v
                                changed_add(wi)
                                for oi in readers[wi]:
                                    if oi != mi or mark:
                                        dirty[oi] = 1
                    continue
                # a strongly connected group (combinational feedback,
                # e.g. a handshake pair): iterate to a local fixpoint
                for _it in range(max_iters):
                    busy = False
                    for mi in group:
                        if not dirty[mi]:
                            continue
                        busy = True
                        dirty[mi] = 0
                        evals_fns[mi]()
                        evals += 1
                        mark = self_mark[mi]
                        for w, wi in scan[mi]:
                            v = w.value
                            if v != values[wi]:
                                values[wi] = v
                                changed_add(wi)
                                for oi in readers[wi]:
                                    if oi != mi or mark:
                                        dirty[oi] = 1
                    if not busy:
                        break
                else:
                    raise self._loop_error(group)
            # catch-all: writes to wires the writer never declared/tracked
            rescan_hit = False
            for w, wi in self._catch_all:
                v = w.value
                if v != values[wi]:
                    values[wi] = v
                    changed_add(wi)
                    rescan_hit = True
                    for oi in readers[wi]:
                        dirty[oi] = 1
            if not rescan_hit and 1 not in dirty:
                self.eval_count += evals
                self.settle_count += 1
                return passes
        raise SimulationError(
            f"combinational logic did not settle in {max_iters} "
            f"iterations at cycle {sim.cycle}"
        )

    def _loop_error(self, group: List[int]) -> SimulationError:
        """Diagnose a non-settling group: evaluate each member once more
        and report which wires are still changing."""
        modules = self.sim.modules
        values = self._values
        unstable: set = set()
        for mi in group:
            modules[mi].eval_comb()
            for w, wi in self._scan[mi]:
                if w.value != values[wi]:
                    unstable.add(wi)
                    values[wi] = w.value
        mod_names = [modules[mi].name for mi in group]
        wire_names = sorted(self._wires[wi].name for wi in unstable)
        return SimulationError(
            f"combinational loop did not settle after "
            f"{self.sim.max_settle_iters} iterations at cycle "
            f"{self.sim.cycle}: unstable wires "
            f"[{', '.join(wire_names)}] in the cycle through modules "
            f"[{', '.join(mod_names)}]"
        )

    # -- fault injection ----------------------------------------------------
    def poke(self, wire, value: int) -> None:
        """Force ``wire`` to ``value`` at the current point in the cycle.

        The fault-injection hook runs between settle and the activity
        commit, where ``Wire.set`` alone would desynchronize the
        scheduler: the settled column and the changed set must see the
        corrupted value or the toggle accounting diverges from the
        brute engine (whose full scan reads ``wire.value`` directly).
        The corrupted wire needs no dirty propagation here -- the next
        settle starts with every module dirty, so the wire's writer
        recomputes it exactly as hardware would after a transient
        upset."""
        v = value & wire.mask
        wire.value = v
        if self.sim.engine == "brute":
            return
        self._ensure_built()
        for w, wi in self._scan_all:
            if w is wire:
                if self._values[wi] != v:
                    self._values[wi] = v
                    self._changed.add(wi)
                return
        raise SimulationError(
            f"cannot poke untracked wire {wire.name!r} in "
            f"{self.sim.name!r}"
        )

    # -- activity accounting ----------------------------------------------
    def sync_registry(self):
        """Make sure the wire registry reflects the current module set
        (used by the brute-force engine, which bypasses settle())."""
        self._ensure_built()

    def commit_activity(self):
        """Fold the settled values of this cycle's changed wires into the
        toggle counters (called once per clock step, after settle)."""
        values = self._values
        prev = self._prev_settled
        toggles = self._toggles
        for wi in self._changed:
            v = values[wi]
            p = prev[wi]
            if p is not None and p != v:
                toggles[wi] += (p ^ v).bit_count()
            prev[wi] = v
        self._changed.clear()
        if self._needs_prime:
            # first step a wire is seen: record its settled value as the
            # toggle baseline (matches the seed engine's first-cycle
            # behaviour)
            for wi, v in enumerate(values):
                if prev[wi] is None:
                    prev[wi] = v
            self._needs_prime = False

    def activity(self) -> Dict[Tuple[str, str], int]:
        """Toggle counts keyed by ``(module name, wire name)``.

        The owning module is the first module (in ``Simulator.add``
        order) that tracks the wire, so two same-named wires in different
        modules report separately."""
        self._ensure_built()
        modules = self.sim.modules
        out: Dict[Tuple[str, str], int] = {}
        for wi, count in enumerate(self._toggles):
            if not count:
                continue
            key = (modules[self._owner[wi]].name, self._wires[wi].name)
            out[key] = out.get(key, 0) + count
        return out

    def total_activity(self) -> int:
        return sum(self._toggles)


def _tarjan_scc(n: int, succ: List[set]) -> List[List[int]]:
    """Iterative Tarjan; returns SCCs in topological order (sources
    first)."""
    index = [0] * n
    low = [0] * n
    on_stack = [False] * n
    visited = [False] * n
    stack: List[int] = []
    sccs: List[List[int]] = []
    counter = [1]

    for root in range(n):
        if visited[root]:
            continue
        work = [(root, iter(sorted(succ[root])))]
        visited[root] = True
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if not visited[w]:
                    visited[w] = True
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(sorted(succ[w]))))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    scc.append(w)
                    if w == v:
                        break
                sccs.append(scc)
    sccs.reverse()   # Tarjan emits sinks first; we evaluate sources first
    return sccs
