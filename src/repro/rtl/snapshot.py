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
  latches, stimulus queues/cursors, Anvil activation bookkeeping), each
  as its pickle image: bytes from the C pickler in fast mode at a
  pinned protocol, so equal values give equal bytes (sets in their
  iteration order, which equal sets need not share, except an
  activation's dead set, imaged sorted) and ``1``, ``1.0`` and ``True``
  give different ones.  Plain data is ``None``, ``bool``,
  ``int``, ``float``, ``str``, ``bytes``, ``bytearray``, ``list``,
  ``tuple``, ``dict``, ``set`` and ``frozenset`` of exactly those types
  (a subclass, such as an ``IntEnum``, is not), nested freely, plus the
  Anvil runtime's activations and slot views, pickled by value.  An
  attribute holding anything else (wires, ports, modules, callables,
  plans) is structural: never mutated mid-run by construction, so it is
  skipped at capture and left untouched at restore.  :func:`restore`
  unpickles the images, :func:`matches` compares them byte for byte and
  :func:`state_sig` hashes them;
* the waveform series recorded so far and the monitor-visible cycle
  number, so a resumed run appends samples at absolute cycle numbers.

Snapshots contain only plain data, so they pickle across the process
pool and into checkpoint files (:func:`save_checkpoint`).

The :class:`CheckpointStore` is the incremental-re-simulation tier on
top: checkpoints are content-addressed by *prefix key* -- the
scheduler's topology signature (which :func:`restore` checks too) +
stimulus-prefix hash + initial-state hash, stored per cycle -- so a
re-run whose (topology, stimulus) matches a prior run restores the
longest checkpointed prefix and simulates only the tail.
Prefix sharing is valid across *cycle counts* of one deterministic
build (scenario, seed, stim), not across stimulus edits: scenario
builders consume one shared RNG at build time, so any stimulus knob
change re-deals the whole deck.
"""

from __future__ import annotations

import hashlib
import io
import json
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
#: the ``len(sent[m])`` cursor; activations lost ``retired``;
#: 3: module attributes are pickle images;
#: 4: an activation's dead events are imaged in sorted order;
#: 5: ``sig`` also covers each module's declared comb inputs and
#: outputs)
SNAPSHOT_VERSION = 5


# ---------------------------------------------------------------------------
# module state as pickle images
# ---------------------------------------------------------------------------
#: pinned, so images, and the state sigs and prefix keys hashed from
#: them, do not move with the interpreter's default protocol
_PROTOCOL = 5


class _Structural(Exception):
    """Raised when a value is not plain data (wires, ports, callables,
    plans): the whole attribute is structural and is skipped."""


def _activation(start, fired, dead, slots, spawned, cache):
    """Rebuild an Anvil :class:`~repro.codegen.simfsm.Activation` from
    its image."""
    from ..codegen.simfsm import Activation

    act = Activation(start)
    act.fired, act.dead, act.slots = fired, set(dead), slots
    act.spawned, act.cache = spawned, cache
    return act


def _slot_view(base, overlay):
    """Rebuild an Anvil slot view from its image."""
    from ..codegen.simfsm import _SlotView

    return _SlotView(base, overlay)


class _Images(pickle.Pickler):
    """Pickle images of plain data.  The C pickler writes the builtin
    scalars and containers itself and asks :meth:`reducer_override`
    about any other object: activations and slot views pickle by value
    through the two reconstructors above, anything else is structural.
    Fast mode keeps no memo, so equal values give equal bytes, up to the
    iteration order of sets; an activation's dead set, the one set in
    module state, is imaged sorted, so a restore that rebuilds it with
    another iteration order still images it the same."""

    def __init__(self):
        # imported here so rtl stays importable without codegen loaded
        from ..codegen.simfsm import Activation, _SlotView

        self._out = io.BytesIO()
        super().__init__(self._out, protocol=_PROTOCOL)
        self.fast = True
        self._activation_type = Activation
        self._slot_view_type = _SlotView

    def reducer_override(self, obj):
        t = type(obj)
        if t is self._activation_type:
            return _activation, (obj.start, obj.fired, sorted(obj.dead),
                                 obj.slots, obj.spawned, obj.cache)
        if t is self._slot_view_type:
            return _slot_view, (obj.base, obj.overlay)
        if obj is _activation or obj is _slot_view:
            return NotImplemented           # pickled by name
        raise _Structural(t.__name__)

    def image(self, value) -> bytes:
        """``value``'s pickle image; raises :class:`_Structural` when
        any part of it is not plain data."""
        self._out.seek(0)
        self._out.truncate()
        self.dump(value)
        return self._out.getvalue()

    def is_plain(self, value) -> bool:
        try:
            self.image(value)
        except _Structural:
            return False
        return True

    def module_state(self, m) -> Tuple[Tuple[str, bytes], ...]:
        """(attribute, image) for each plain-data attribute of ``m``,
        sorted by name."""
        out = []
        for attr in sorted(m.__dict__):
            try:
                out.append((attr, self.image(m.__dict__[attr])))
            except _Structural:
                continue
        return tuple(out)


# ---------------------------------------------------------------------------
# snapshot capture / restore
# ---------------------------------------------------------------------------
def structure_sig(sim) -> str:
    """``sim``'s topology signature (module types and names, tracked
    wire names, declared comb inputs and outputs), kept by its
    scheduler per build: restore refuses a snapshot whose signature
    does not match the target simulator's."""
    return sim.scheduler.signature()


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
    module_state: Tuple[Tuple[Tuple[str, bytes], ...], ...]
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
        module_state=tuple(map(_Images().module_state, sim.modules)),
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
    engines to identical boundary states).  Every check runs before the
    first write, so a refused snapshot leaves ``sim`` as it was.
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
            f"module/wire structure or its declared connectivity "
            f"differs (was the snapshot taken from a different "
            f"scenario, seed or backend?)"
        )
    if len(sch._wires) != len(snap.values):
        raise SimulationError(
            f"snapshot has {len(snap.values)} wires, simulator has "
            f"{len(sch._wires)}"
        )
    saved = dict(snap.samples)
    watched = {label for label, _w, _s in sim.waveform._watched}
    if watched != set(saved):
        raise SimulationError(
            f"snapshot watch list {sorted(saved)} does not match the "
            f"simulator's {sorted(watched)}"
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
    images = _Images()
    for m, state in zip(sim.modules, snap.module_state):
        captured = {attr for attr, _image in state}
        # drop plain-data attributes the module grew *after* the
        # snapshot (lazily-added bookkeeping); structural ones stay
        for attr in [a for a, v in m.__dict__.items()
                     if a not in captured and images.is_plain(v)]:
            delattr(m, attr)
        for attr, image in state:
            setattr(m, attr, pickle.loads(image))
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
    state is compared one attribute image at a time, byte for byte, so
    ``1``, ``1.0`` and ``True`` never match each other, nor do equal
    sets in another iteration order (a false "no" only lets a caller
    run on).  Safe inside a cycle-kernel stop predicate: it reads wire
    ``.value`` (current there), not the scheduler's value columns
    (stale for fused wires until the kernel exits).  ``sim`` must have
    the structure ``snap`` was taken from, as for :func:`restore`."""
    sch = sim.scheduler
    if (sim.cycle != snap.cycle or sch._needs_prime != snap.needs_prime
            or sorted(sch._changed) != list(snap.changed)
            or len(sim.modules) != len(snap.module_state)
            or tuple(map(_VALUE, sch._wires)) != snap.values):
        return False
    images = _Images()
    for m, state in zip(sim.modules, snap.module_state):
        attrs = m.__dict__
        for attr, image in state:
            try:
                if images.image(attrs[attr]) != image:
                    return False
            except (KeyError, _Structural):
                return False
    for m, state in zip(sim.modules, snap.module_state):
        # a plain-data attribute the module grew that the snapshot lacks
        captured = {attr for attr, _image in state}
        if any(attr not in captured and images.is_plain(value)
               for attr, value in m.__dict__.items()):
            return False
    return True


def save_checkpoint(path, snap: Snapshot) -> None:
    """Pickle ``snap`` to ``path`` (parent directories created)."""
    path = os.fspath(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "wb") as fh:
        pickle.dump(snap, fh, protocol=pickle.HIGHEST_PROTOCOL)


def load_checkpoint(path) -> Snapshot:
    """Read a :func:`save_checkpoint` file.  A file that does not
    unpickle to a snapshot of this layout version is refused with a
    :class:`~repro.errors.SimulationError` naming ``path``."""
    with open(os.fspath(path), "rb") as fh:
        blob = fh.read()
    try:
        obj = pickle.loads(blob)
    except Exception as exc:    # arbitrary bytes raise many exception types
        raise SimulationError(
            f"{path}: not a repro checkpoint file "
            f"({type(exc).__name__}: {exc})") from exc
    if not isinstance(obj, Snapshot):
        raise SimulationError(f"{path}: not a repro checkpoint file")
    if obj.version != SNAPSHOT_VERSION:
        raise SimulationError(
            f"{path}: checkpoint version {obj.version} != "
            f"{SNAPSHOT_VERSION}")
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


def state_sig(sim) -> str:
    """SHA-256 over the simulator's current plain-data module state.
    Computed on a freshly built simulator this fingerprints the entire
    stimulus content (builders precompute queues/tables at build time),
    which the topology signature cannot see."""
    blob = pickle.dumps(tuple(map(_Images().module_state, sim.modules)),
                        protocol=_PROTOCOL)
    return hashlib.sha256(blob).hexdigest()


def prefix_key(scenario: str, config, sim) -> str:
    """Content address of a run prefix: the built simulator's topology
    signature + stimulus-prefix hash + initial-state fingerprint.
    Cycle count deliberately excluded -- that is what lets a longer
    re-run restore a shorter run's checkpoint."""
    return _sha(["prefix", structure_sig(sim),
                 stimulus_key(scenario, config), state_sig(sim)])


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
