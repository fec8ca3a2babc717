"""Module base class for the RTL simulator.

A module is a bag of registers (Python attributes, updated only in
:meth:`Module.tick`) plus combinational logic (:meth:`Module.eval_comb`,
which may run several times per cycle until all wires settle).  The split
mirrors SystemVerilog's ``always_comb`` / ``always_ff`` discipline:

* ``eval_comb`` must compute wire values *only* from register state and
  input wires, and must be idempotent;
* ``tick`` samples wires and updates register state (the clock edge).
"""

from __future__ import annotations

from typing import List

from .signal import Wire


class Module:
    """Base class of everything the simulator schedules."""

    def __init__(self, name: str):
        self.name = name
        self._wires: List[Wire] = []

    # -- wiring helpers ---------------------------------------------------
    def wire(self, name: str, width: int = 1, value: int = 0) -> Wire:
        w = Wire(f"{self.name}.{name}", width, value)
        w.driver = self.name
        self._wires.append(w)
        return w

    def adopt(self, wire: Wire) -> Wire:
        """Track an externally-created wire for settling detection."""
        self._wires.append(wire)
        return wire

    def wires(self) -> List[Wire]:
        return self._wires

    # -- scheduler hints ---------------------------------------------------
    def comb_inputs(self):
        """Wires whose value :meth:`eval_comb` *reads*, or ``None``.

        ``None`` (the default) means "unknown": the levelized scheduler
        treats every tracked wire as a potential input, which is always
        safe but may force extra re-evaluations.  A module that knows its
        combinational sensitivity list can return it here and will only be
        re-evaluated when one of those wires changes.  If you override
        this, the list must cover *every* wire whose value can influence
        ``eval_comb``'s outputs (register state needs no declaration --
        registers only change at the clock edge)."""
        return None

    def comb_outputs(self):
        """Wires :meth:`eval_comb` may *write*, or ``None``.

        ``None`` (the default) means "unknown": the scheduler scans every
        tracked wire for changes after each evaluation.  Overriding this
        narrows the scan and the dependency edges; the list must cover
        every wire ``eval_comb`` can possibly write."""
        return None

    # -- simulation interface ----------------------------------------------
    def eval_comb(self):
        """Combinational logic; may be called repeatedly until stable."""

    def tick(self):
        """Clock edge: update registers from settled wire values."""

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r})"
