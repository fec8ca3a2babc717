"""The Anvil type checker: the three timing-safety checks of Section 5.4.

Given a process, each thread body is unrolled (two iterations --
Lemma C.19 shows that suffices for loops) and elaborated into an event graph
with check obligations.  The checker then discharges:

1. **Valid Value Use** -- every use window of a value lies within the
   value's lifetime: it starts no earlier than the value is available and
   ends no later than the value's intrinsic expiry (e.g. the contract expiry
   of a received message).

2. **Valid Register Mutation** -- a mutation at event ``m`` (new value
   visible at ``m+1``) conflicts with a loan ``[a, b)`` on the same register
   iff the loaned value is still used strictly after the mutation takes
   effect; safety requires ``m <G a`` or ``b <=G m + 1`` in every branch
   case.  Loans are inferred from uses: a use of a register-sourced value
   loans the register from the cycle the register was *read* through the
   end of the use window (Definition C.15 spans a value's creation through
   its last use).

3. **Valid Message Send** -- the payload is live throughout the window the
   contract requires (subsumed by check 1 on a synthetic use), and required
   windows of two sends of the same message never overlap.

All decisions are made by the :class:`~repro.core.oracle.TimingOracle`,
which quantifies over timestamp functions soundly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import (
    LoanedRegisterMutationError,
    MessageSendError,
    TypeCheckError,
    ValueNotLiveError,
)
from ..lang.process import Process
from .graph_builder import BuildResult, GraphBuilder, UseCheck
from .oracle import OracleLimitError, TimingOracle
from .patterns import EndSet

#: unrolled copies of each thread body; two suffice (Lemma C.19)
ITERATIONS = 2


class Loan:
    __slots__ = ("register", "start", "end", "context")

    def __init__(self, register: str, start: int, end: EndSet, context: str):
        self.register = register
        self.start = start
        self.end = end
        self.context = context


class CheckReport:
    """Outcome of type checking one process: errors plus per-thread detail
    useful for the figures (derived action sequences, contract checks)."""

    def __init__(self, process: Process):
        self.process = process
        self.errors: List[TypeCheckError] = []
        self.threads: List[BuildResult] = []
        self.notes: List[str] = []

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_first(self):
        if self.errors:
            raise self.errors[0]

    def __repr__(self):
        state = "SAFE" if self.ok else f"UNSAFE ({len(self.errors)} errors)"
        return f"CheckReport({self.process.name}: {state})"


def check_process(process: Process, max_cases: int = 4096) -> CheckReport:
    """Type check every thread of ``process``.

    Returns a :class:`CheckReport`; raise behaviour is left to the caller
    (use :meth:`CheckReport.raise_first` or :func:`assert_safe`).
    """
    report = CheckReport(process)
    for thread in process.threads:
        result = GraphBuilder(process, thread).build(ITERATIONS)
        report.threads.append(result)
        oracle = TimingOracle(result.graph, max_cases=max_cases)
        _check_thread(process, result, oracle, report)
    _check_cross_thread(process, report)
    return report


def assert_safe(process: Process) -> CheckReport:
    """Type check and raise the first error, if any."""
    report = check_process(process)
    report.raise_first()
    return report


# ----------------------------------------------------------------------
def _check_thread(process, result: BuildResult, oracle: TimingOracle,
                  report: CheckReport):
    loans = _collect_loans(result)

    # 1. Valid Value Use --------------------------------------------------
    for use in result.uses:
        err = _check_use(oracle, use)
        if err:
            report.errors.append(
                ValueNotLiveError(err, process=process.name)
            )

    # 2. Valid Register Mutation ------------------------------------------
    for mut in result.mutations:
        for loan in loans.get(mut.register, []):
            try:
                if oracle.event_lt(mut.at, loan.start):
                    continue  # mutation completes before the loan begins
                if oracle.end_le_event(loan.end, mut.at, shift=1):
                    continue  # the loan is over by the time the new value lands
                why = ""
            except OracleLimitError as exc:
                why = f": {exc}"  # safety unproven: reject
            report.errors.append(
                LoanedRegisterMutationError(
                    f"register {mut.register!r} mutated at e{mut.at} "
                    f"({mut.context}) during loan [e{loan.start}, {loan.end}) "
                    f"({loan.context}){why}",
                    process=process.name,
                )
            )

    # 3. Valid Message Send (overlap) --------------------------------------
    by_message: Dict[Tuple[str, str], list] = {}
    for send in result.sends:
        by_message.setdefault((send.endpoint, send.message), []).append(send)
    for key, sends in by_message.items():
        for i in range(len(sends)):
            for j in range(len(sends)):
                if i == j:
                    continue
                s1, s2 = sends[i], sends[j]
                if not result.graph.is_ancestor(s1.sync, s2.sync):
                    continue  # only check ordered pairs once (s1 before s2)
                try:
                    if oracle.end_le_event(s1.required_end, s2.start):
                        continue
                    why = ""
                except OracleLimitError as exc:
                    why = f": {exc}"
                if _mutually_exclusive(oracle, s1.sync, s2.sync):
                    continue
                report.errors.append(
                    MessageSendError(
                        f"two sends of {key[0]}.{key[1]} have overlapping "
                        f"required lifetimes: [e{s1.sync}, {s1.required_end}) "
                        f"({s1.context}) vs [e{s2.start}, ...) ({s2.context})"
                        f"{why}",
                        process=process.name,
                    )
                )
        # unordered (parallel) sends of the same message
        for i in range(len(sends)):
            for j in range(i + 1, len(sends)):
                s1, s2 = sends[i], sends[j]
                g = result.graph
                if g.is_ancestor(s1.sync, s2.sync) or \
                        g.is_ancestor(s2.sync, s1.sync):
                    continue
                if _mutually_exclusive(oracle, s1.sync, s2.sync):
                    continue
                # structurally unordered but possibly temporally disjoint
                # (e.g. statically timed pipeline stages)
                try:
                    if oracle.end_le_event(s1.required_end, s2.start) or \
                            oracle.end_le_event(s2.required_end, s1.start):
                        continue
                    why = ""
                except OracleLimitError as exc:
                    why = f": {exc}"
                report.errors.append(
                    MessageSendError(
                        f"two unordered sends of {key[0]}.{key[1]} "
                        f"({s1.context} / {s2.context}) may overlap{why}",
                        process=process.name,
                    )
                )


def _check_use(oracle: TimingOracle, use: UseCheck) -> Optional[str]:
    v = use.value
    try:
        if not oracle.event_le(v.start, use.window_start):
            return (
                f"{use.context}: value only available from e{v.start}, "
                f"used from e{use.window_start}"
            )
        if not oracle.end_le_end(use.window_end, v.end):
            return (
                f"{use.context}: value lifetime ends at {v.end} but is "
                f"needed until {use.window_end}"
            )
    except OracleLimitError as exc:
        return f"{use.context}: {exc}"
    return None


def _collect_loans(result: BuildResult) -> Dict[str, List[Loan]]:
    loans: Dict[str, List[Loan]] = {}
    for use in result.uses:
        for reg, read_at in use.value.reg_reads:
            loans.setdefault(reg, []).append(
                Loan(reg, read_at, use.window_end, use.context)
            )
    return loans


def _required_polarities(graph, eid: int):
    """For each branch condition, the polarity ``eid`` requires to be
    reachable (conditions whose both arms are ancestors -- i.e. past the
    join -- impose no requirement)."""
    scope = set(graph.ancestors(eid)) | {eid}
    by_cond = {}
    for a in scope:
        ev = graph[a]
        if ev.kind.value == "branch":
            by_cond.setdefault(ev.cond_id, set()).add(ev.polarity)
    return {
        cond: next(iter(pols))
        for cond, pols in by_cond.items()
        if len(pols) == 1
    }


def _mutually_exclusive(oracle: TimingOracle, a: int, b: int) -> bool:
    """True iff events a and b never co-occur: they require opposite
    polarities of some branch condition."""
    g = oracle.graph
    ra = _required_polarities(g, a)
    rb = _required_polarities(g, b)
    return any(
        cond in rb and rb[cond] != pol for cond, pol in ra.items()
    )


def _check_cross_thread(process: Process, report: CheckReport):
    """Conservative cross-thread checks: threads' event graphs cannot be
    compared, so shared mutable state across threads is rejected when it
    could race."""
    if len(report.threads) < 2:
        return
    mutated_by: Dict[str, set] = {}
    loaned_by: Dict[str, set] = {}
    sent_by: Dict[Tuple[str, str], set] = {}
    for idx, result in enumerate(report.threads):
        for mut in result.mutations:
            mutated_by.setdefault(mut.register, set()).add(idx)
        for use in result.uses:
            for reg, _ in use.value.reg_reads:
                loaned_by.setdefault(reg, set()).add(idx)
        for send in result.sends:
            sent_by.setdefault((send.endpoint, send.message), set()).add(idx)
    for reg, writers in mutated_by.items():
        if len(writers) > 1:
            report.errors.append(
                LoanedRegisterMutationError(
                    f"register {reg!r} mutated by multiple threads",
                    process=process.name,
                )
            )
        readers = loaned_by.get(reg, set()) - writers
        if readers and writers:
            report.notes.append(
                f"register {reg!r} written by thread(s) {sorted(writers)} and "
                f"read by thread(s) {sorted(readers)}: cross-thread reads see "
                f"a one-cycle-stable value only"
            )
    for key, senders in sent_by.items():
        if len(senders) > 1:
            report.errors.append(
                MessageSendError(
                    f"message {key[0]}.{key[1]} sent from multiple threads",
                    process=process.name,
                )
            )
