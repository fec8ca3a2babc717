"""Cycle-k snapshot/restore and the checkpoint tier.

A :class:`Snapshot` captures the complete observable state of a
simulator at a clock-cycle boundary:

* wire values, the scheduler's settled/previous columns and per-wire
  toggle counters (the activity model);
* the pending dirty set and prime flag, so a restored scheduler resumes
  with exactly the bookkeeping a from-0 run would have -- in particular
  ``values == prev_settled`` with an empty dirty set at a boundary,
  which is the precondition the compiled cycle kernel's fast path
  checks before engaging, so a restored kernel run re-enters the
  generated loop without bailing out (its flat locals are rebound from
  the scheduler columns at every kernel entry);
* every module's plain-data attributes (register files, pipeline
  latches, stimulus queues/cursors, Anvil activation bookkeeping) via a
  recursive pure-data encoder.  Attributes holding structural objects
  (wires, ports, modules, callables, plans) are never mutated mid-run
  by construction, so they are skipped at capture and left untouched at
  restore;
* the waveform series recorded so far and the monitor-visible cycle
  number, so a resumed run appends samples at absolute cycle numbers.

Snapshots contain only plain data, so they pickle across the process
pool and into checkpoint files (:func:`save_checkpoint`).

The :class:`CheckpointStore` is the incremental-re-simulation tier on
top: checkpoints are content-addressed by *prefix key* -- topology
fingerprint (:func:`repro.rtl.kernel.topology_shape`) + stimulus-prefix
hash + cycle -- so a re-run whose (topology, stimulus) matches a prior
run restores the longest checkpointed prefix and simulates only the
tail.  Prefix
sharing is valid across *cycle counts* of one deterministic build
(scenario, seed, stim), not across stimulus edits: scenario builders
consume one shared RNG at build time, so any stimulus knob change
re-deals the whole deck.
"""

from __future__ import annotations

import hashlib
import json
import marshal
import operator
import os
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import SimulationError

#: bump when the Snapshot layout changes; restore refuses mismatches
#: (2: endpoint send queues keep their consumed entries, read through
#: the ``len(sent[m])`` cursor; activations lost ``retired``)
SNAPSHOT_VERSION = 2


# ---------------------------------------------------------------------------
# pure-data encoding of module state
# ---------------------------------------------------------------------------
class _Structural(Exception):
    """Raised when a value is not plain data (wires, ports, callables,
    plans): the whole attribute is structural and is skipped."""


_SCALARS = (type(None), bool, int, float, str, bytes)
_FSM_TYPES = None


def _fsm_types():
    """(Activation, _SlotView) from the Anvil runtime, imported lazily
    so rtl stays importable without the codegen package loaded."""
    global _FSM_TYPES
    if _FSM_TYPES is None:
        from ..codegen.simfsm import Activation, _SlotView

        _FSM_TYPES = (Activation, _SlotView)
    return _FSM_TYPES


def _encode(v):
    """Deep-copy ``v`` into an immutable, picklable form; raises
    :class:`_Structural` when any part is not plain data."""
    if isinstance(v, _SCALARS):
        return v
    t = type(v)
    if t is list:
        return ("l", tuple(_encode(x) for x in v))
    if t is tuple:
        return ("t", tuple(_encode(x) for x in v))
    if t is dict:
        return ("d", tuple((_encode(k), _encode(x)) for k, x in v.items()))
    if t is set:
        return ("s", tuple(_encode(x) for x in v))
    if t is frozenset:
        return ("f", tuple(_encode(x) for x in v))
    if t is bytearray:
        return ("b", bytes(v))
    activation, slot_view = _fsm_types()
    if t is activation:
        return ("a", v.start, _encode(v.fired), _encode(v.dead),
                _encode(v.slots), v.spawned, _encode(v.cache))
    if t is slot_view:
        return ("v", _encode(v.base), _encode(v.overlay))
    raise _Structural(type(v).__name__)


def _decode(v):
    if isinstance(v, _SCALARS):
        return v
    tag = v[0]
    if tag == "l":
        return [_decode(x) for x in v[1]]
    if tag == "t":
        return tuple(_decode(x) for x in v[1])
    if tag == "d":
        return {_decode(k): _decode(x) for k, x in v[1]}
    if tag == "s":
        return {_decode(x) for x in v[1]}
    if tag == "f":
        return frozenset(_decode(x) for x in v[1])
    if tag == "b":
        return bytearray(v[1])
    if tag == "a":
        activation, _slot_view = _fsm_types()
        act = activation(v[1])
        act.fired = _decode(v[2])
        act.dead = _decode(v[3])
        act.slots = _decode(v[4])
        act.spawned = v[5]
        act.cache = _decode(v[6])
        return act
    if tag == "v":
        activation, slot_view = _fsm_types()
        return slot_view(_decode(v[1]), _decode(v[2]))
    raise SimulationError(f"unknown snapshot encoding tag {tag!r}")


def _module_state(m) -> Tuple[Tuple[str, object], ...]:
    out = []
    for attr in sorted(m.__dict__):
        try:
            out.append((attr, _encode(m.__dict__[attr])))
        except _Structural:
            continue
    return tuple(out)


def _restore_module(m, state):
    captured = set()
    for attr, enc in state:
        captured.add(attr)
        setattr(m, attr, _decode(enc))
    # drop plain-data attributes the module grew *after* the snapshot
    # (lazily-added bookkeeping); structural attributes stay untouched
    for attr in list(m.__dict__):
        if attr in captured:
            continue
        try:
            _encode(m.__dict__[attr])
        except _Structural:
            continue
        delattr(m, attr)


# ---------------------------------------------------------------------------
# snapshot capture / restore
# ---------------------------------------------------------------------------
def structure_sig(sim) -> str:
    """SHA-256 over the module/wire identity of ``sim``: restore refuses
    a snapshot whose structure does not match the target simulator."""
    h = hashlib.sha256()
    for m in sim.modules:
        h.update(type(m).__name__.encode("utf-8"))
        h.update(b"\x00")
        h.update(m.name.encode("utf-8"))
        h.update(b"\x00")
        for w in m.wires():
            h.update(w.name.encode("utf-8"))
            h.update(b"\x01")
        h.update(b"\x02")
    return h.hexdigest()


@dataclass
class Snapshot:
    """Complete cycle-boundary state of one simulator (plain data only:
    picklable across the process pool and into checkpoint files)."""

    version: int
    cycle: int
    engine: str                 # engine that produced it (informational)
    sig: str                    # structure_sig of the source simulator
    values: Tuple[int, ...]
    prev_settled: Tuple[Optional[int], ...]
    toggles: Tuple[int, ...]
    changed: Tuple[int, ...]
    needs_prime: bool
    eval_count: int
    settle_count: int
    module_state: Tuple[Tuple[Tuple[str, object], ...], ...]
    samples: Tuple[Tuple[str, Tuple[int, ...]], ...]
    scenario: str = ""          # provenance (informational)
    key: str = ""               # prefix key, when stored in a store

    def nbytes(self) -> int:
        """Approximate size (pickle length) -- store accounting."""
        return len(pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL))


def capture(sim, scenario: str = "", key: str = "") -> Snapshot:
    """Snapshot ``sim`` at its current cycle boundary."""
    sch = sim.scheduler
    sch._ensure_built()
    return Snapshot(
        version=SNAPSHOT_VERSION,
        cycle=sim.cycle,
        engine=sim.engine,
        sig=structure_sig(sim),
        values=tuple(w.value for w in sch._wires),
        prev_settled=tuple(sch._prev_settled),
        toggles=tuple(sch._toggles),
        changed=tuple(sorted(sch._changed)),
        needs_prime=sch._needs_prime,
        eval_count=sch.eval_count,
        settle_count=sch.settle_count,
        module_state=tuple(_module_state(m) for m in sim.modules),
        samples=tuple(
            (label, tuple(series))
            for label, _wire, series in sim.waveform._watched
        ),
        scenario=scenario,
        key=key,
    )


def restore(sim, snap: Snapshot) -> None:
    """Restore ``snap`` into ``sim`` (in place, or into a fresh
    deterministic rebuild of the same scenario).

    After restore the simulator is at the exact cycle-k boundary state
    of the run that produced the snapshot: wire values, scheduler
    columns, toggle counters, module registers/latches/queues, waveform
    series and cycle number all match bit-for-bit, across engines (the
    state model is engine-independent; the equivalence suites pin the
    engines to identical boundary states).
    """
    if snap.version != SNAPSHOT_VERSION:
        raise SimulationError(
            f"snapshot version {snap.version} != {SNAPSHOT_VERSION}"
        )
    sch = sim.scheduler
    sch._ensure_built()
    if structure_sig(sim) != snap.sig:
        raise SimulationError(
            f"snapshot does not match simulator {sim.name!r}: the "
            f"module/wire structure differs (was the snapshot taken "
            f"from a different scenario, seed or backend?)"
        )
    if len(sch._wires) != len(snap.values):
        raise SimulationError(
            f"snapshot has {len(snap.values)} wires, simulator has "
            f"{len(sch._wires)}"
        )
    for wi, w in enumerate(sch._wires):
        w.value = snap.values[wi]
    sch._values[:] = snap.values
    sch._prev_settled[:] = snap.prev_settled
    sch._toggles[:] = snap.toggles
    sch._changed.clear()
    sch._changed.update(snap.changed)
    sch._needs_prime = snap.needs_prime
    sch.eval_count = snap.eval_count
    sch.settle_count = snap.settle_count
    # brute-engine activity baseline: at a clean boundary the settled
    # value *is* the baseline, so the per-wire dict is synthesized
    # rather than carried (snapshots stay engine-portable)
    if snap.cycle > 0:
        sim._prev_values = {
            w: v for w, v in zip(map(id, sch._wires), snap.values)
        }
    else:
        sim._prev_values = {}
    for m, state in zip(sim.modules, snap.module_state):
        _restore_module(m, state)
    saved = dict(snap.samples)
    watched = {label for label, _w, _s in sim.waveform._watched}
    if watched != set(saved):
        raise SimulationError(
            f"snapshot watch list {sorted(saved)} does not match the "
            f"simulator's {sorted(watched)}"
        )
    for label, _wire, series in sim.waveform._watched:
        # in place: the kernel prebinds .append on these exact lists
        series[:] = saved[label]
    sim.cycle = snap.cycle


_VALUE = operator.attrgetter("value")


def matches(sim, snap: Snapshot) -> bool:
    """Whether ``sim``, at ``snap``'s cycle boundary, holds ``snap``'s
    state in everything that drives its future: the scheduler's pending
    prime flag and dirty set, every wire value and every module's
    plain-data state.  Observers that nothing downstream reads back --
    toggle counters, eval/settle counts, waveform samples -- are not
    compared.  Since restore is bit-exact, a match means a run from
    here repeats the snapshot's run cycle for cycle.

    Cheapest state first, returning at the first difference: module
    state is encoded one attribute at a time, never captured whole.
    Safe inside a cycle-kernel stop predicate: it reads wire ``.value``
    (current there), not the scheduler's value columns (stale for fused
    wires until the kernel exits).  ``==`` equates ``1``, ``1.0`` and
    ``True``, so a match is confirmed on marshal's type-tagged image.
    ``sim`` must have the structure ``snap`` was taken from, as for
    :func:`restore`."""
    sch = sim.scheduler
    if (sim.cycle != snap.cycle or sch._needs_prime != snap.needs_prime
            or sorted(sch._changed) != list(snap.changed)
            or len(sim.modules) != len(snap.module_state)):
        return False
    values = tuple(map(_VALUE, sch._wires))
    if values != snap.values:
        return False
    live = []
    for m, state in zip(sim.modules, snap.module_state):
        attrs = m.__dict__
        encoded = []
        for attr, enc in state:
            try:
                got = _encode(attrs[attr])
            except (KeyError, _Structural):
                return False
            if got != enc:
                return False
            encoded.append((attr, got))
        live.append(tuple(encoded))
    for m, state in zip(sim.modules, snap.module_state):
        # a plain-data attribute the module grew that the snapshot lacks
        names = {attr for attr, _enc in state}
        for attr, value in m.__dict__.items():
            if attr in names:
                continue
            try:
                _encode(value)
            except _Structural:
                continue
            return False
    return marshal.dumps((values, tuple(live)), 0) == \
        marshal.dumps((snap.values, snap.module_state), 0)


def save_checkpoint(path, snap: Snapshot) -> None:
    """Pickle ``snap`` to ``path`` (parent directories created)."""
    path = os.fspath(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "wb") as fh:
        pickle.dump(snap, fh, protocol=pickle.HIGHEST_PROTOCOL)


def load_checkpoint(path) -> Snapshot:
    with open(os.fspath(path), "rb") as fh:
        snap = fh.read()
    obj = pickle.loads(snap)
    if not isinstance(obj, Snapshot):
        raise SimulationError(f"{path}: not a repro checkpoint file")
    return obj


# ---------------------------------------------------------------------------
# prefix keys (the stimulus key is shared with the server's result cache)
# ---------------------------------------------------------------------------
def _sha(material) -> str:
    return hashlib.sha256(
        json.dumps(material, sort_keys=True, separators=(",", ":"))
        .encode("utf-8")
    ).hexdigest()


def stimulus_key(scenario: str, config) -> str:
    """Hash of the deterministic stimulus identity: builders are pure
    functions of (scenario, seed, stim), so this names the whole
    stimulus stream."""
    return _sha([scenario, config.seed, config.stim])


def topology_key(scenario: str, config, sim=None) -> str:
    """Topology fingerprint: the kernel-source digest from
    :func:`repro.rtl.kernel.topology_shape` when the topology has one
    (engine/backend-independent -- the equivalence suites pin them
    bit-identical), else a builder-identity fallback."""
    digest = None
    if sim is not None:
        from .kernel import topology_shape

        digest = topology_shape(sim)
    if digest is None:
        digest = f"builder:{scenario}:{config.engine}:{config.backend}"
    return digest


def state_sig(sim) -> str:
    """SHA-256 over the simulator's current plain-data module state.
    Computed on a freshly built simulator this fingerprints the entire
    stimulus content (builders precompute queues/tables at build time),
    which the shape-only topology digest cannot see."""
    blob = pickle.dumps(
        tuple(_module_state(m) for m in sim.modules),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return hashlib.sha256(blob).hexdigest()


def prefix_key(scenario: str, config, sim=None) -> str:
    """Content address of a run prefix: topology fingerprint +
    stimulus-prefix hash (+ the built simulator's initial-state
    fingerprint when available).  Cycle count deliberately excluded --
    that is what lets a longer re-run restore a shorter run's
    checkpoint."""
    material = ["prefix", topology_key(scenario, config, sim),
                stimulus_key(scenario, config)]
    if sim is not None:
        material.append(state_sig(sim))
    return _sha(material)


# ---------------------------------------------------------------------------
# the checkpoint store
# ---------------------------------------------------------------------------
class CheckpointStore:
    """LRU-bounded, content-addressed, in-memory checkpoint store.

    Entries are keyed ``(prefix_key, cycle)``; eviction drops the least
    recently used one (``run --checkpoint-dir`` is how checkpoints go
    to disk).  Thread-safe (the server's worker threads and direct
    Session callers share one process-wide store, like the compile
    caches).
    """

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._mem: "OrderedDict[Tuple[str, int], Snapshot]" = OrderedDict()
        self._stats = {"hits": 0, "misses": 0, "stores": 0, "evictions": 0}

    def put(self, key: str, cycle: int, snap: Snapshot) -> bool:
        """Store a checkpoint; returns False when the (key, cycle) slot
        is already filled (re-runs re-produce identical snapshots)."""
        k = (key, cycle)
        with self._lock:
            if k in self._mem:
                self._mem.move_to_end(k)
                return False
            self._mem[k] = snap
            self._stats["stores"] += 1
            while len(self._mem) > self.capacity:
                self._mem.popitem(last=False)
                self._stats["evictions"] += 1
            return True

    def best(self, key: str, max_cycle: int
             ) -> Optional[Tuple[int, Snapshot]]:
        """The deepest checkpoint for ``key`` at or below ``max_cycle``
        (None counts as a prefix-cache miss)."""
        with self._lock:
            best = max(
                (c for (k, c) in self._mem if k == key and c <= max_cycle),
                default=None,
            )
            if best is None:
                self._stats["misses"] += 1
                return None
            self._stats["hits"] += 1
            self._mem.move_to_end((key, best))
            return best, self._mem[(key, best)]

    def cycles(self, key: str) -> List[int]:
        with self._lock:
            return sorted(c for (k, c) in self._mem if k == key)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            out = dict(self._stats)
            out["entries"] = len(self._mem)
            return out

    def clear(self) -> None:
        with self._lock:
            self._mem.clear()
            for k in self._stats:
                self._stats[k] = 0


_DEFAULT_STORE: Optional[CheckpointStore] = None
_DEFAULT_LOCK = threading.Lock()


def get_checkpoint_store() -> CheckpointStore:
    """The process-wide default store, shared by direct ``Session``
    callers, sweep workers and the server's job queue."""
    global _DEFAULT_STORE
    with _DEFAULT_LOCK:
        if _DEFAULT_STORE is None:
            _DEFAULT_STORE = CheckpointStore()
        return _DEFAULT_STORE


def reset_checkpoint_store() -> None:
    """Drop the process-wide store (tests)."""
    global _DEFAULT_STORE
    with _DEFAULT_LOCK:
        _DEFAULT_STORE = None


# ---------------------------------------------------------------------------
# checkpointed runs
# ---------------------------------------------------------------------------
def resume_longest_prefix(sim, key: str, cycles: int,
                          store: CheckpointStore) -> int:
    """Restore the deepest checkpoint for ``key`` at or below
    ``cycles`` into ``sim``; returns the cycle resumed from (0 when no
    usable checkpoint exists or ``sim`` already advanced past it)."""
    hit = store.best(key, cycles)
    if hit is None:
        return 0
    cycle, snap = hit
    if cycle <= sim.cycle:
        return 0
    restore(sim, snap)
    return cycle


class Checkpointer:
    """An :func:`~repro.rtl.simulator.advance` ``on_boundary`` callback
    that captures each boundary into ``store`` under the prefix ``key``
    (and hands every snapshot to ``on_checkpoint(cycle, snap)`` when
    given); ``stored`` counts the checkpoints newly stored."""

    def __init__(self, store: CheckpointStore, key: str,
                 scenario: str = "",
                 on_checkpoint: Optional[
                     Callable[[int, Snapshot], None]] = None):
        self.store = store
        self.key = key
        self.scenario = scenario
        self.on_checkpoint = on_checkpoint
        self.stored = 0

    def __call__(self, sim) -> None:
        snap = capture(sim, scenario=self.scenario, key=self.key)
        if self.store.put(self.key, sim.cycle, snap):
            self.stored += 1
        if self.on_checkpoint is not None:
            self.on_checkpoint(sim.cycle, snap)
