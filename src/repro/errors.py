"""Exception hierarchy for the Anvil reproduction.

The compiler reports *static* errors as :class:`TypeCheckError` subclasses
mirroring the three checks of the paper (Section 5.4):

* Valid Value Use      -> :class:`ValueNotLiveError`
* Valid Register Mutation -> :class:`LoanedRegisterMutationError`
* Valid Message Send   -> :class:`MessageSendError`

Run-time (simulation) violations of channel contracts -- which can only occur
for designs that bypassed the type checker, e.g. baselines or deliberately
unsafe compositions -- raise :class:`ContractViolationError`.
"""

from __future__ import annotations


class AnvilError(Exception):
    """Base class for every error raised by this library."""


class ParseError(AnvilError):
    """Raised by the textual front-end on malformed Anvil source."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{line}:{column}: {message}"
        super().__init__(message)


class ElaborationError(AnvilError):
    """Raised when a process references unknown registers/endpoints/messages."""


class TypeCheckError(AnvilError):
    """Base class for static timing-safety violations.

    Attributes
    ----------
    process:
        Name of the process being checked, if known.
    detail:
        Human-readable description of the failed constraint.
    """

    kind = "timing error"

    def __init__(self, detail: str, process: str = ""):
        self.process = process
        self.detail = detail
        where = f" in process '{process}'" if process else ""
        super().__init__(f"{self.kind}{where}: {detail}")


class ValueNotLiveError(TypeCheckError):
    """A value is used (or sent) outside its inferred lifetime."""

    kind = "Value not live long enough"


class LoanedRegisterMutationError(TypeCheckError):
    """A register is mutated while loaned to a live signal or message."""

    kind = "Attempted assignment to a loaned register"


class MessageSendError(TypeCheckError):
    """Two sends of the same message have overlapping required lifetimes,
    or a send cannot satisfy the channel's sync-mode constraints."""

    kind = "Invalid message send"


class SimulationError(AnvilError):
    """Internal simulator failure (e.g. a combinational loop)."""


class ContractViolationError(AnvilError):
    """A channel timing contract was violated during simulation."""


class WatchdogTimeout(SimulationError):
    """A run exceeded its wall-clock watchdog budget and was cancelled.

    Raised by :func:`repro.rtl.simulator.advance` (and everything
    layered on it: ``Session.run``, the executor workers, the job
    queue) when ``SimConfig(max_wall_time=...)`` is set and the
    simulation does not finish in time.  The fault-injection campaign
    layer classifies it as a ``hang`` outcome.  The message is plain
    text so the exception survives pickling across process-pool
    workers."""


class VerificationError(AnvilError):
    """Raised by the bounded model checker on assertion failure."""

    def __init__(self, message: str, trace=None):
        self.trace = trace or []
        super().__init__(message)


class BudgetExceeded(AnvilError):
    """The bounded model checker ran out of its state/step budget."""

    def __init__(self, message: str, states_explored: int = 0):
        self.states_explored = states_explored
        super().__init__(message)
