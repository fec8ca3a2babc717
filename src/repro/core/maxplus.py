"""Symbolic max-plus timestamp algebra.

The Anvil type system (Appendix C of the paper) quantifies over *all*
timestamp functions of an event graph: ``e1 <=G e2`` holds iff for every
timestamp function ``tau``, ``tau(e1) <= tau(e2)``.  A timestamp function
assigns each dynamic synchronization event an arbitrary non-negative slack
(how long the message handshake took), so the time of an event is a
*max-plus* expression over slack variables:

    tau(e) = max_i (c_i + sum of slack variables in path i)

We represent such expressions exactly:

* :class:`MpTerm` -- one path contribution ``c + sum(vars)`` where ``vars``
  is a multiset of slack-variable identifiers.
* :class:`MaxExpr` -- the maximum of a set of terms (or ``+infinity`` for
  events that are unreachable in the branch case under consideration).
* :class:`MinExpr` -- the minimum of a set of :class:`MaxExpr` (used for
  event *patterns*, whose time is the earliest of several candidates).

Soundness of the comparisons below: with slack variables ranging over
``[0, +inf)``,

* ``t1`` is dominated by ``t2`` (``t1.const <= t2.const`` and
  ``t1.vars`` a sub-multiset of ``t2.vars``) implies ``value(t1) <=
  value(t2)`` under every assignment;
* hence ``MaxExpr`` ``A <= B`` whenever every term of ``A`` is dominated by
  some term of ``B``; and
* ``min(A_set) <= min(B_set)`` whenever every element of ``B_set`` has some
  element of ``A_set`` below it.

These are exactly the "sound approximations of <=G and <G" the paper's
implementation relies on (Section C.3).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional, Tuple


def _merge_vars(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    """Merge two sorted multisets of variable ids."""
    return tuple(sorted(a + b))


def _vars_subset(a: Tuple[int, ...], b: Tuple[int, ...]) -> bool:
    """Return True iff multiset ``a`` is contained in multiset ``b``."""
    if len(a) > len(b):
        return False
    ia, ib = 0, 0
    while ia < len(a) and ib < len(b):
        if a[ia] == b[ib]:
            ia += 1
            ib += 1
        elif a[ia] > b[ib]:
            ib += 1
        else:
            return False
    return ia == len(a)


class MpTerm:
    """A single max-plus path contribution: ``const + sum(vars)``.

    ``vars`` is a sorted tuple of integer slack-variable identifiers (a
    multiset: the same variable may appear more than once, although in
    acyclic event graphs this does not arise in practice).
    """

    __slots__ = ("const", "vars")

    def __init__(self, const: int = 0, vars: Tuple[int, ...] = ()):
        self.const = const
        self.vars = vars

    def shifted(self, k: int) -> "MpTerm":
        return MpTerm(self.const + k, self.vars)

    def with_var(self, var: int) -> "MpTerm":
        return MpTerm(self.const, _merge_vars(self.vars, (var,)))

    def dominated_by(self, other: "MpTerm") -> bool:
        """True iff ``self <= other`` under every variable assignment."""
        return self.const <= other.const and _vars_subset(self.vars, other.vars)

    def strictly_dominated_by(self, other: "MpTerm") -> bool:
        """True iff ``self < other`` under every variable assignment.

        Because slack variables may be zero, extra variables on ``other``
        do not help; the constant must be strictly smaller.
        """
        return self.const < other.const and _vars_subset(self.vars, other.vars)

    def evaluate(self, assignment) -> int:
        """Concrete value under ``assignment`` (mapping var id -> int)."""
        return self.const + sum(assignment.get(v, 0) for v in self.vars)

    def __eq__(self, other):
        return (
            isinstance(other, MpTerm)
            and self.const == other.const
            and self.vars == other.vars
        )

    def __hash__(self):
        return hash((self.const, self.vars))

    def __repr__(self):
        if not self.vars:
            return f"{self.const}"
        vs = "+".join(f"d{v}" for v in self.vars)
        return f"{self.const}+{vs}"


class MaxExpr:
    """Maximum over a set of :class:`MpTerm`, or ``+infinity``.

    ``MaxExpr.inf()`` is the timestamp of an event that is never reached
    in the branch case under consideration (Definition C.9 assigns such
    events timestamp infinity).  Expressions are never mutated once built,
    so ``zero()``, ``inf()`` and ``maximum`` of a single operand share
    existing instances instead of allocating.
    """

    __slots__ = ("terms", "infinite")

    def __init__(self, terms: Iterable[MpTerm] = (), infinite: bool = False):
        self.infinite = infinite
        self.terms: FrozenSet[MpTerm] = (
            frozenset() if infinite else _prune(frozenset(terms))
        )

    # -- constructors ---------------------------------------------------
    @staticmethod
    def zero() -> "MaxExpr":
        return _ZERO

    @staticmethod
    def inf() -> "MaxExpr":
        return _INF

    # -- algebra --------------------------------------------------------
    def shifted(self, k: int) -> "MaxExpr":
        if self.infinite:
            return self
        return MaxExpr(t.shifted(k) for t in self.terms)

    def with_var(self, var: int) -> "MaxExpr":
        if self.infinite:
            return self
        return MaxExpr(t.with_var(var) for t in self.terms)

    @staticmethod
    def maximum(exprs: Iterable["MaxExpr"]) -> "MaxExpr":
        """max over several expressions; infinity absorbs."""
        exprs = [e for e in exprs]
        if not exprs:
            return _ZERO
        if len(exprs) == 1:
            return exprs[0]
        if any(e.infinite for e in exprs):
            return _INF
        terms = []
        for e in exprs:
            terms.extend(e.terms)
        return MaxExpr(terms)

    # -- comparison (sound under all assignments) -----------------------
    def le(self, other: "MaxExpr") -> bool:
        """Sound check that ``self <= other`` for every assignment."""
        if other.infinite:
            return True
        if self.infinite:
            return False
        return all(
            any(t.dominated_by(u) for u in other.terms) for t in self.terms
        )

    def lt(self, other: "MaxExpr") -> bool:
        """Sound check that ``self < other`` for every assignment."""
        if other.infinite:
            return not self.infinite
        if self.infinite:
            return False
        return all(
            any(t.strictly_dominated_by(u) for u in other.terms)
            for t in self.terms
        )

    def evaluate(self, assignment) -> Optional[int]:
        """Concrete value; ``None`` encodes infinity."""
        if self.infinite:
            return None
        return max(t.evaluate(assignment) for t in self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, MaxExpr)
            and self.infinite == other.infinite
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.infinite, self.terms))

    def __repr__(self):
        if self.infinite:
            return "inf"
        if not self.terms:
            return "max()"
        return "max(" + ", ".join(map(repr, sorted(self.terms, key=repr))) + ")"


def _prune(terms: FrozenSet[MpTerm]) -> FrozenSet[MpTerm]:
    """Drop terms dominated by another term (they never realize the max)."""
    kept = []
    lst = list(terms)
    for i, t in enumerate(lst):
        dominated = False
        for j, u in enumerate(lst):
            if i == j:
                continue
            if t.dominated_by(u) and not (u.dominated_by(t) and j > i):
                dominated = True
                break
        if not dominated:
            kept.append(t)
    return frozenset(kept) if kept else terms


_ZERO = MaxExpr([MpTerm(0, ())])
_INF = MaxExpr(infinite=True)


class MinExpr:
    """Minimum over a set of :class:`MaxExpr`; empty set means infinity.

    Event patterns (``e |> pi.m``) resolve to the earliest of several
    candidate synchronization events, hence a minimum.
    """

    __slots__ = ("alts",)

    def __init__(self, alts: Iterable[MaxExpr] = ()):
        # An infinite alternative never realizes the min unless it is alone.
        alts = list(alts)
        finite = [a for a in alts if not a.infinite]
        self.alts: Tuple[MaxExpr, ...] = tuple(finite) if finite else ()

    @property
    def infinite(self) -> bool:
        return not self.alts

    @staticmethod
    def inf() -> "MinExpr":
        return MinExpr(())

    def le(self, other: "MinExpr") -> bool:
        """Sound check ``min(self) <= min(other)`` for every assignment:
        every alternative of ``other`` must have an alternative of ``self``
        at or below it."""
        if self.infinite:
            return other.infinite
        if other.infinite:
            return True
        return all(any(a.le(b) for a in self.alts) for b in other.alts)

    def lt(self, other: "MinExpr") -> bool:
        if self.infinite:
            return False
        if other.infinite:
            return True
        return all(any(a.lt(b) for a in self.alts) for b in other.alts)

    def le_expr(self, other: MaxExpr) -> bool:
        """Sound check ``min(self) <= other``."""
        if self.infinite:
            return other.infinite
        return any(a.le(other) for a in self.alts)

    def ge_expr(self, other: MaxExpr) -> bool:
        """Sound check ``other <= min(self)`` (every alternative above)."""
        if self.infinite:
            return True
        return all(other.le(a) for a in self.alts)

    def evaluate(self, assignment) -> Optional[int]:
        if self.infinite:
            return None
        vals = [a.evaluate(assignment) for a in self.alts]
        vals = [v for v in vals if v is not None]
        return min(vals) if vals else None

    def __repr__(self):
        if self.infinite:
            return "inf"
        return "min(" + ", ".join(map(repr, self.alts)) + ")"
