"""Deterministic fault injection for the RTL simulator.

Seeded fault models (:mod:`repro.inject.faults`) corrupt a named
``(module, wire)`` or a named piece of architectural state at cycle *k*
by hooking the simulator between settle and the activity commit, on any
of the three engines.  The campaign driver (:mod:`repro.inject.campaign`)
samples N faults, forks every injection from a warm
:class:`~repro.rtl.snapshot.Snapshot` of its prefix, runs each tail
under a cycle-budget watchdog until it halts, ends or re-converges with
the golden run, and classifies the outcome against the uninjected
golden run (masked / sdc / detected / hang), aggregating an AVF-style
per-site vulnerability table.
"""

from .campaign import OUTCOMES, run_campaign
from .faults import (
    FAULT_KINDS,
    Fault,
    FaultInjector,
    enumerate_sites,
    sample_faults,
)

__all__ = [
    "FAULT_KINDS",
    "Fault",
    "FaultInjector",
    "OUTCOMES",
    "enumerate_sites",
    "run_campaign",
    "sample_faults",
]
