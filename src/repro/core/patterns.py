"""Durations, event patterns, lifetimes and loan times (Section 5.1/5.2).

A *duration* ``p`` is either a fixed number of cycles ``#k`` or a dynamic
operation ``pi.m`` (the sending/receiving of a message).  An *event pattern*
``e |> p`` denotes the first time ``p`` is satisfied after event ``e``.  A
*lifetime* is an interval ``[e_start, S_end)`` whose end is the earliest
match of a set of patterns; the empty set denotes an eternal lifetime
(the paper writes it with infinity).

A *loan time* of a register is a collection of intervals during which the
register must not be mutated because a signal or an in-flight message sources
its value from it.
"""

from __future__ import annotations

from typing import Optional, Tuple


class Duration:
    """Either ``#k`` (static) or ``endpoint.message`` (dynamic)."""

    __slots__ = ("cycles", "endpoint", "message")

    def __init__(
        self,
        cycles: Optional[int] = None,
        endpoint: str = "",
        message: str = "",
    ):
        if cycles is None and not message:
            raise ValueError("duration must be static (#k) or dynamic (pi.m)")
        self.cycles = cycles
        self.endpoint = endpoint
        self.message = message

    @staticmethod
    def static(k: int) -> "Duration":
        return Duration(cycles=k)

    @staticmethod
    def dynamic(endpoint: str, message: str) -> "Duration":
        return Duration(endpoint=endpoint, message=message)

    @property
    def is_static(self) -> bool:
        return self.cycles is not None

    def __eq__(self, other):
        return (
            isinstance(other, Duration)
            and self.cycles == other.cycles
            and self.endpoint == other.endpoint
            and self.message == other.message
        )

    def __hash__(self):
        return hash((self.cycles, self.endpoint, self.message))

    def __repr__(self):
        if self.is_static:
            return f"#{self.cycles}"
        return f"{self.endpoint}.{self.message}"


class EventPattern:
    """``base |> duration`` -- first satisfaction of ``duration`` after the
    event with id ``base``."""

    __slots__ = ("base", "duration")

    def __init__(self, base: int, duration: Duration):
        self.base = base
        self.duration = duration

    def __eq__(self, other):
        return (
            isinstance(other, EventPattern)
            and self.base == other.base
            and self.duration == other.duration
        )

    def __hash__(self):
        return hash((self.base, self.duration))

    def __repr__(self):
        return f"e{self.base}|>{self.duration}"


class EndSet:
    """A set of event patterns whose earliest match ends a lifetime.

    ``EndSet.eternal()`` (no patterns) means the value never expires.
    """

    __slots__ = ("patterns",)

    def __init__(self, patterns: Tuple[EventPattern, ...] = ()):
        self.patterns = tuple(patterns)

    @staticmethod
    def eternal() -> "EndSet":
        return EndSet(())

    @staticmethod
    def single(base: int, duration: Duration) -> "EndSet":
        return EndSet((EventPattern(base, duration),))

    @property
    def is_eternal(self) -> bool:
        return not self.patterns

    def union(self, other: "EndSet") -> "EndSet":
        """Intersection of lifetimes = earliest of either end (the paper's
        ``S1 (union) S2`` in T-BinOp: more patterns end sooner)."""
        if self.is_eternal:
            return other
        if other.is_eternal:
            return self
        merged = list(self.patterns)
        for p in other.patterns:
            if p not in merged:
                merged.append(p)
        return EndSet(tuple(merged))

    def __eq__(self, other):
        return isinstance(other, EndSet) and set(self.patterns) == set(
            other.patterns
        )

    def __hash__(self):
        return hash(frozenset(self.patterns))

    def __repr__(self):
        if self.is_eternal:
            return "inf"
        return "{" + ", ".join(map(repr, self.patterns)) + "}"


class Lifetime:
    """``[start, end)`` with ``start`` an event id and ``end`` an
    :class:`EndSet`."""

    __slots__ = ("start", "end")

    def __init__(self, start: int, end: EndSet):
        self.start = start
        self.end = end

    @staticmethod
    def eternal(start: int) -> "Lifetime":
        return Lifetime(start, EndSet.eternal())

    def __repr__(self):
        return f"[e{self.start}, {self.end})"


class Loan:
    """A loan interval on a register: the register must stay unchanged in
    ``[start, end)``.  ``reason`` documents which use created the loan (for
    error messages)."""

    __slots__ = ("register", "start", "end", "reason")

    def __init__(self, register: str, start: int, end: EndSet, reason: str):
        self.register = register
        self.start = start
        self.end = end
        self.reason = reason

    def __repr__(self):
        return f"Loan({self.register}, [e{self.start}, {self.end}), {self.reason!r})"


class Mutation:
    """A register mutation starting at event ``at`` (completing one cycle
    later)."""

    __slots__ = ("register", "at", "reason")

    def __init__(self, register: str, at: int, reason: str = ""):
        self.register = register
        self.at = at
        self.reason = reason

    def __repr__(self):
        return f"Mutation({self.register} @ e{self.at})"
