"""Seeded fault models and the per-cycle injection hook.

A :class:`Fault` names *where* (``module`` + ``target``), *when*
(``cycle``, plus ``duration`` for stuck-at models) and *how* (``kind``,
``bit``, ``width``) state gets corrupted.  Two target families exist:

* **wire targets** -- the full (or module-local) name of a tracked
  :class:`~repro.rtl.signal.Wire`.  The corruption lands *after* the
  cycle's settle and *before* the activity commit, via
  :meth:`~repro.rtl.scheduler.CombScheduler.poke`, so toggle accounting
  stays bit-identical across all three engines and the wire's driver
  recomputes a clean value on the next settle -- exactly a single-cycle
  transient upset on a net.
* **state targets** -- a plain-data module attribute path
  (``"zf"``, ``"registers[3]"``, ``"E[vala]"``, ``"memory[8]"``),
  corrupted at the same hook point: after this cycle's settle (wires
  stay clean) but before ``tick`` consumes it -- an upset in a
  register/latch/memory cell.

The :class:`FaultInjector` is the hook object armed on
``Simulator._inject_hook``; while armed the compiled cycle-kernel fast
path stands down (the hook must see every cycle), and the injector
disarms itself after the last cycle of its window so the fast path
re-arms for the tail.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass
from typing import Callable, List, Optional, Sequence

from ..errors import SimulationError

#: the supported corruption models, in documentation order
FAULT_KINDS = ("transient_bitflip", "stuck_at_0", "stuck_at_1", "burst")

_ATTR_PATH = re.compile(r"^([A-Za-z_]\w*)(?:\[(\w+)\])?$")


@dataclass(frozen=True)
class Fault:
    """One injection: corrupt ``module.target`` at ``cycle``.

    ``bit`` is the least-significant corrupted bit; ``width`` is the
    number of contiguous bits the model touches (1 for a single-event
    upset, >1 for a multi-bit burst or a multi-bit stuck-at);
    ``duration`` is how many consecutive cycles the corruption is
    re-asserted (1 for transients, >=1 for stuck-at models, where the
    driver's recomputed value is re-overridden every cycle of the
    window)."""

    kind: str
    module: str
    target: str
    cycle: int
    bit: int = 0
    width: int = 1
    duration: int = 1

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (one of {FAULT_KINDS})"
            )
        if self.cycle < 0 or self.bit < 0 or self.width < 1 \
                or self.duration < 1:
            raise ValueError(
                f"invalid fault geometry: cycle={self.cycle} "
                f"bit={self.bit} width={self.width} "
                f"duration={self.duration}"
            )

    @property
    def site(self) -> str:
        """The vulnerability-table key: where this fault lands."""
        return f"{self.module}.{self.target}"

    def mutate(self, value: int) -> int:
        """Apply this fault's corruption to ``value`` (unmasked; the
        write path masks to the target's width)."""
        bits = ((1 << self.width) - 1) << self.bit
        if self.kind == "transient_bitflip" or self.kind == "burst":
            return value ^ bits
        if self.kind == "stuck_at_0":
            return value & ~bits
        return value | bits

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Fault":
        return cls(**data)


@dataclass(frozen=True)
class Site:
    """One injectable location, discovered by :func:`enumerate_sites`."""

    module: str
    target: str
    width: int
    family: str   # "wire" or "state"


class _Target:
    """Resolved read/write access to a fault's location."""

    __slots__ = ("read", "write")

    def __init__(self, read: Callable[[], int], write: Callable[[int], None]):
        self.read = read
        self.write = write


def _find_module(sim, name: str):
    for m in sim.modules:
        if getattr(m, "name", None) == name:
            return m
    known = sorted({m.name for m in sim.modules if hasattr(m, "name")})
    raise SimulationError(
        f"fault injection: no module named {name!r} in {sim.name!r} "
        f"(modules: {', '.join(known)})"
    )


def resolve_target(sim, fault: Fault) -> _Target:
    """Bind a fault to its wire or state location inside ``sim``.

    Wire targets match the full wire name first, then the suffix after
    the owning module's dotted prefix; state targets follow the
    ``attr`` / ``attr[index]`` / ``attr[key]`` grammar over the
    module's plain-data attributes."""
    module = _find_module(sim, fault.module)
    for w in module.wires():
        if w.name == fault.target or \
                w.name.rsplit(".", 1)[-1] == fault.target:
            wire = w
            return _Target(
                lambda: wire.value,
                lambda v: sim.scheduler.poke(wire, v),
            )
    m = _ATTR_PATH.match(fault.target)
    attr, sub = (m.group(1), m.group(2)) if m else (None, None)
    holder = getattr(module, attr, None) if attr else None
    if holder is not None:
        if sub is None and isinstance(holder, int):
            return _Target(
                lambda: getattr(module, attr),
                lambda v: setattr(module, attr, v),
            )
        if sub is not None and isinstance(holder, (list, bytearray)):
            idx = int(sub)
            if 0 <= idx < len(holder):
                mask = 0xFF if isinstance(holder, bytearray) else None
                return _Target(
                    lambda: holder[idx],
                    lambda v: holder.__setitem__(
                        idx, v & mask if mask is not None else v),
                )
        if sub is not None and isinstance(holder, dict) and sub in holder:
            return _Target(
                lambda: holder[sub],
                lambda v: holder.__setitem__(sub, v),
            )
    raise SimulationError(
        f"fault injection: {fault.module!r} has no wire or state "
        f"target {fault.target!r}"
    )


class FaultInjector:
    """The armed hook: applies ``fault`` during its cycle window.

    Arm it on a simulator positioned at or before the fault cycle; the
    hook fires after every settle, checks the window
    ``[cycle, cycle + duration)``, corrupts the target inside it and
    disarms itself after the window's last cycle."""

    def __init__(self, fault: Fault):
        self.fault = fault
        self.fired = 0
        self._target: Optional[_Target] = None
        self._sim = None

    def arm(self, sim) -> "FaultInjector":
        if sim._inject_hook is not None:
            raise SimulationError(
                f"simulator {sim.name!r} already has an injection hook "
                f"armed; disarm it before arming another fault"
            )
        if sim.cycle > self.fault.cycle:
            raise SimulationError(
                f"cannot arm a fault at cycle {self.fault.cycle} on "
                f"{sim.name!r}: the simulator is already at cycle "
                f"{sim.cycle}"
            )
        self._target = resolve_target(sim, self.fault)
        self._sim = sim
        sim._inject_hook = self
        return self

    def disarm(self) -> None:
        sim = self._sim
        if sim is not None and sim._inject_hook is self:
            sim._inject_hook = None
        self._sim = None

    def __call__(self, sim) -> None:
        fault = self.fault
        cycle = sim.cycle
        if cycle < fault.cycle:
            return
        last = fault.cycle + fault.duration - 1
        if cycle > last:
            self.disarm()
            return
        target = self._target
        target.write(fault.mutate(target.read()))
        self.fired += 1
        if cycle >= last:
            self.disarm()


def enumerate_sites(sim) -> List[Site]:
    """Deterministically enumerate every injectable site in ``sim``.

    Wires are listed per owning module (first tracker wins, matching
    the scheduler's activity attribution) under their full names;
    plain integer attributes plus integer list and string-keyed integer
    dict entries follow (pipeline latches, register files, flags).
    Bulk ``bytearray`` memories are skipped -- a memory-array AVF sweep
    would drown the logic sites a campaign is after; target them
    explicitly via ``"memory[addr]"`` instead."""
    sites: List[Site] = []
    seen_wires = set()
    for m in sim.modules:
        name = getattr(m, "name", None)
        if not name:
            continue
        for w in m.wires():
            if id(w) in seen_wires:
                continue
            seen_wires.add(id(w))
            sites.append(Site(name, w.name, w.width, "wire"))
        for attr in sorted(vars(m)):
            if attr.startswith("_") or attr in ("name",):
                continue
            value = vars(m)[attr]
            if isinstance(value, bool):
                continue
            if isinstance(value, int):
                sites.append(Site(name, attr, 64, "state"))
            elif isinstance(value, list) and value and all(
                    isinstance(x, int) and not isinstance(x, bool)
                    for x in value):
                sites.extend(
                    Site(name, f"{attr}[{i}]", 64, "state")
                    for i in range(len(value))
                )
            elif isinstance(value, dict) and value and all(
                    isinstance(k, str) and k.isidentifier()
                    for k in value) and all(
                    isinstance(x, int) and not isinstance(x, bool)
                    for x in value.values()):
                sites.extend(
                    Site(name, f"{attr}[{k}]", 64, "state")
                    for k in sorted(value)
                )
    return sites


def sample_faults(sites: Sequence[Site], count: int, rng,
                  max_cycle: int) -> List[Fault]:
    """Draw ``count`` faults over ``sites`` x ``[0, max_cycle)`` from a
    seeded ``random.Random`` -- the campaign's sampling plan.  Every
    draw consumes a fixed number of RNG values, so the plan is a pure
    function of (sites, count, seed, max_cycle)."""
    if not sites:
        raise SimulationError("fault injection: no injectable sites")
    if max_cycle < 1:
        raise SimulationError(
            f"fault injection: golden run finished in {max_cycle} "
            f"cycles; nothing to inject into"
        )
    faults = []
    for _ in range(count):
        site = sites[rng.randrange(len(sites))]
        kind = FAULT_KINDS[rng.randrange(len(FAULT_KINDS))]
        bit = rng.randrange(site.width)
        raw_width = rng.randrange(2, 5)
        raw_duration = rng.randrange(1, 5)
        width = 1
        if kind == "burst" or kind.startswith("stuck_at"):
            width = max(1, min(raw_width, site.width - bit))
        duration = raw_duration if kind.startswith("stuck_at") else 1
        faults.append(Fault(
            kind=kind, module=site.module, target=site.target,
            cycle=rng.randrange(max_cycle), bit=bit, width=width,
            duration=duration,
        ))
    return faults
