"""The timing oracle: sound decision procedures for ``<=G`` and ``<G``.

Definition C.11 of the paper quantifies over every *timestamp function* of
the event graph.  The oracle realizes that quantification:

* handshake slack of each dynamic synchronization event becomes a fresh
  max-plus variable (see :mod:`repro.core.maxplus`);
* branch conditions are enumerated case by case -- but only the conditions
  *relevant* to the events being compared (those labelling their ancestors),
  which keeps the enumeration small;
* within one case, each event's time is an exact max-plus expression, and
  comparisons hold only if they hold in every case;
* an event's time depends only on the conditions in its own cone, so it is
  memoized on the case restricted to that cone and shared by every case
  and every query that agrees there.

Dynamic event patterns ``e |> pi.m`` ("first occurrence of pi.m after e")
are resolved against the graph structurally.  We compute two bounds:

* a *lower* bound -- minimum over every occurrence of ``pi.m`` that might
  happen after ``e`` (descendants and order-incomparable events); used when
  an earlier end is the conservative direction (e.g. the expiry of a
  received value);
* an *upper* bound -- minimum over occurrences *guaranteed* to happen after
  ``e`` (structural descendants); used when a later end is the conservative
  direction (e.g. deciding that a loan has expired before a mutation).

Both directions are sound; which one a check needs is chosen by the type
checker.  This mirrors the paper's statement that the implementation uses
sound approximations of ``<=G`` and ``<G``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .events import EventGraph, EventKind
from .maxplus import MaxExpr, MinExpr
from .patterns import EndSet, EventPattern

Case = Tuple[Tuple[int, bool], ...]
#: A case as bitmasks over condition ids: ``(assigned, values)``, where bit
#: ``c`` of ``assigned`` marks condition ``c`` as fixed and the same bit of
#: ``values`` gives its value.  Unassigned conditions take both arms.
MaskCase = Tuple[int, int]


def _mask_case(case: Case) -> MaskCase:
    assigned = values = 0
    for cond, value in case:
        bit = 1 << cond
        assigned |= bit
        values = (values | bit) if value else (values & ~bit)
    return assigned, values


def _case_tuple(assigned: int, values: int) -> Case:
    return tuple(
        (c, bool(values >> c & 1))
        for c in range(assigned.bit_length()) if assigned >> c & 1
    )


class OracleLimitError(Exception):
    """Raised when branch-case enumeration exceeds the configured limit."""


class TimingOracle:
    """Decides timing relations over one event graph."""

    def __init__(self, graph: EventGraph, max_cases: int = 4096):
        self.graph = graph
        self.max_cases = max_cases
        self._ts_cache: Dict[Tuple[int, int, int], MaxExpr] = {}
        self._candidates_cache: Dict[Tuple[int, str, str, bool], Tuple[int, ...]] = {}
        self._relevant_mask: Optional[int] = None
        self._cone_masks: Optional[List[int]] = None
        self._transparent: Dict[int, MaxExpr] = {}
        self._verdict_cache: Dict[tuple, bool] = {}

    # ------------------------------------------------------------------
    # branch-condition relevance
    # ------------------------------------------------------------------
    def _timing_relevant_conditions(self) -> int:
        """Mask of the conditions that can influence *when* some event occurs.

        A condition whose two arms contain only zero-time events (``#0``
        delays, joins, zero-slack syncs) never shifts any timestamp, so it
        need not be enumerated.  ``gated(e)`` is the set of conditions that
        gate reachability of ``e``: branch arms add their condition, an
        any-join intersects (either arm reaches it), everything else
        unions over its predecessors."""
        if self._relevant_mask is not None:
            return self._relevant_mask
        g = self.graph
        # gated sets hold (cond_id, polarity) pairs: the join of the two
        # arms of one condition intersects to nothing, i.e. becomes
        # unconditional again
        gated: Dict[int, frozenset] = {}
        for ev in g.events:
            if not ev.preds:
                gated[ev.eid] = frozenset()
                continue
            sets = [gated[p] for p in ev.preds]
            if ev.kind is EventKind.JOIN_ANY:
                acc = sets[0]
                for s in sets[1:]:
                    acc = acc & s
            else:
                acc = frozenset().union(*sets)
            if ev.kind is EventKind.BRANCH:
                acc = acc | {(ev.cond_id, ev.polarity)}
            gated[ev.eid] = acc
        candidates = set()
        # exits[c]: the exit joins of condition c, i.e. the any-joins not
        # gated by c with a predecessor that is
        exits: Dict[int, List[int]] = {}
        for ev in g.events:
            takes_time = (
                (ev.kind is EventKind.DELAY and ev.delay > 0)
                or (ev.kind is EventKind.SYNC and ev.static_slack != 0)
            )
            if takes_time:
                candidates.update(c for c, _pol in gated[ev.eid])
            elif ev.kind is EventKind.JOIN_ANY:
                inside = {c for c, _pol in gated[ev.eid]}
                for c in {c for p in ev.preds for c, _pol in gated[p]}:
                    if c not in inside:
                        exits.setdefault(c, []).append(ev.eid)
        # a candidate is only truly relevant if flipping it shifts the
        # timestamp of some event *outside* its arms (balanced branches,
        # e.g. a one-cycle register write on both sides, do not).  Every
        # event but an any-join is gated by each condition gating one of
        # its predecessors, so the first such event is an exit join.
        self._cond_cones()
        relevant = 0
        for cond in candidates:
            memo_t: Dict[int, MaxExpr] = {}
            memo_f: Dict[int, MaxExpr] = {}
            for eid in exits.get(cond, ()):
                if (self._ts_approx(eid, cond, True, memo_t)
                        != self._ts_approx(eid, cond, False, memo_f)):
                    relevant |= 1 << cond
                    break
        self._relevant_mask = relevant
        return relevant

    def _ts_approx(self, eid: int, cond: int, value: bool,
                   memo: Dict[int, MaxExpr]) -> MaxExpr:
        """Approximate timestamps for the relevance analysis: the single
        condition ``cond`` is fixed, every other condition is transparent
        and any-joins take the max over reachable sides (a sound common
        upper shape -- only *equality across the two cases* is used).
        An event without ``cond`` in its cone is the same for every
        ``cond`` and ``value``, so it is memoized once for all of them."""
        if not self._cone_masks[eid] >> cond & 1:
            memo = self._transparent
        cached = memo.get(eid)
        if cached is not None:
            return cached
        ev = self.graph[eid]
        if ev.kind is EventKind.ROOT:
            out = MaxExpr.zero()
        elif ev.kind is EventKind.BRANCH:
            if ev.cond_id == cond and ev.polarity != value:
                out = MaxExpr.inf()
            else:
                out = MaxExpr.maximum(
                    self._ts_approx(p, cond, value, memo) for p in ev.preds
                )
        elif ev.kind is EventKind.JOIN_ANY:
            alts = [
                self._ts_approx(p, cond, value, memo) for p in ev.preds
            ]
            reachable = [a for a in alts if not a.infinite]
            out = (
                MaxExpr.maximum(reachable) if reachable else MaxExpr.inf()
            )
        else:
            base = MaxExpr.maximum(
                self._ts_approx(p, cond, value, memo) for p in ev.preds
            )
            if ev.kind is EventKind.DELAY:
                out = base.shifted(ev.delay)
            elif ev.kind is EventKind.SYNC:
                if ev.static_slack is not None:
                    out = base.shifted(ev.static_slack)
                else:
                    out = base.with_var(ev.eid)
            else:
                out = base
        memo[eid] = out
        return out

    # ------------------------------------------------------------------
    # timestamps
    # ------------------------------------------------------------------
    def ts(self, eid: int, case: Case) -> MaxExpr:
        """Max-plus timestamp of event ``eid`` under branch case ``case``.

        A case is a tuple of ``(condition, value)`` pairs.  A condition it
        leaves out takes both arms, so ``case`` should assign every
        timing-relevant condition in the cone of ``eid`` (the cases
        :meth:`_cases` yields do).  Timestamps are memoized per event on
        the case restricted to that event's condition cone.
        """
        self._cond_cones()
        return self._ts(eid, _mask_case(case))

    def _ts(self, eid: int, case: MaskCase) -> MaxExpr:
        # the cone masks are computed by every entry point (ts, _cases)
        assigned, values = case
        cone = self._cone_masks[eid]
        key = (assigned & cone, values & cone, eid)
        cached = self._ts_cache.get(key)
        if cached is not None:
            return cached
        ev = self.graph[eid]
        if ev.kind is EventKind.ROOT:
            out = MaxExpr.zero()
        elif ev.kind is EventKind.DELAY:
            out = MaxExpr.maximum(
                self._ts(p, case) for p in ev.preds
            ).shifted(ev.delay)
        elif ev.kind is EventKind.SYNC:
            parts = [self._ts(p, case) for p in ev.preds]
            # Successive synchronizations of one message share a single
            # handshake resource and are serialized in program order; a
            # later sync can therefore never complete before an earlier
            # one.  (This matters for overlapped `recursive` iterations.)
            if not any(p.infinite for p in parts):
                for other in self.graph.sync_events(ev.endpoint, ev.message):
                    if other.eid < ev.eid:
                        t = self._ts(other.eid, case)
                        if not t.infinite:
                            parts.append(t)
            base = MaxExpr.maximum(parts)
            if ev.static_slack is not None:
                out = base.shifted(ev.static_slack)
            else:
                out = base.with_var(ev.eid)
        elif ev.kind is EventKind.BRANCH:
            bit = 1 << ev.cond_id
            if assigned & bit and bool(values & bit) != ev.polarity:
                out = MaxExpr.inf()
            else:
                out = MaxExpr.maximum(
                    self._ts(p, case) for p in ev.preds
                )
        elif ev.kind is EventKind.JOIN_ANY:
            alts = [self._ts(p, case) for p in ev.preds]
            reachable = [a for a in alts if not a.infinite]
            if not reachable:
                out = MaxExpr.inf()
            elif len(reachable) == 1:
                out = reachable[0]
            else:
                # A join of branches where more than one side is reachable
                # can only happen when the branch condition was deemed
                # irrelevant; both sides then carry identical timestamps by
                # construction (optimization passes preserve this), so take
                # the max as a safe representative only when they agree.
                first = reachable[0]
                if all(r == first for r in reachable[1:]):
                    out = first
                else:
                    raise OracleLimitError(
                        f"join e{eid} has multiple reachable branches under "
                        f"case {_case_tuple(assigned, values)}; condition "
                        f"set was incomplete"
                    )
        elif ev.kind is EventKind.JOIN_ALL:
            out = MaxExpr.maximum(
                self._ts(p, case) for p in ev.preds
            )
        else:  # pragma: no cover - exhaustive
            raise AssertionError(ev.kind)
        self._ts_cache[key] = out
        return out

    # ------------------------------------------------------------------
    # dynamic pattern candidates
    # ------------------------------------------------------------------
    def _candidates(
        self, base: int, endpoint: str, message: str, guaranteed: bool
    ) -> Tuple[int, ...]:
        key = (base, endpoint, message, guaranteed)
        cached = self._candidates_cache.get(key)
        if cached is not None:
            return cached
        out: List[int] = []
        for ev in self.graph.sync_events(endpoint, message):
            if ev.eid == base:
                continue
            if self.graph.is_ancestor(ev.eid, base):
                continue  # occurs before the base event
            if guaranteed and not self.graph.is_ancestor(base, ev.eid):
                continue  # not provably after the base event
            out.append(ev.eid)
        result = tuple(out)
        self._candidates_cache[key] = result
        return result

    def _pattern_alts(
        self, pattern: EventPattern, case: MaskCase, upper: bool
    ) -> List[MaxExpr]:
        """Alternatives (min-candidates) for an event pattern under a case."""
        base_ts = self._ts(pattern.base, case)
        if base_ts.infinite:
            return []  # pattern base never reached: treated as vacuous
        dur = pattern.duration
        if dur.is_static:
            return [base_ts.shifted(dur.cycles)]
        cands = self._candidates(pattern.base, dur.endpoint, dur.message, upper)
        alts = []
        for c in cands:
            t = self._ts(c, case)
            if not t.infinite:
                alts.append(t)
        return alts

    def _endset_expr(self, end: EndSet, case: MaskCase, upper: bool
                     ) -> MinExpr:
        """MinExpr bound for an :class:`EndSet` (infinite when eternal)."""
        return self._endset_state(end, case, upper)[0]

    def _endset_state(self, end: EndSet, case: MaskCase, upper: bool
                      ) -> Tuple[MinExpr, bool]:
        """Bound plus reachability: the second component is False when every
        pattern base is unreachable in this case (the interval -- and hence
        any obligation built on it -- is vacuous there)."""
        if end.is_eternal:
            return MinExpr.inf(), True
        alts: List[MaxExpr] = []
        reachable = False
        for p in end.patterns:
            if not self._ts(p.base, case).infinite:
                reachable = True
            alts.extend(self._pattern_alts(p, case, upper))
        if not alts:
            return MinExpr.inf(), reachable
        return MinExpr(alts), reachable

    # ------------------------------------------------------------------
    # branch-case enumeration
    # ------------------------------------------------------------------
    def _involved_events(self, eids: Iterable[int], ends: Iterable[EndSet]):
        involved = set(eids)
        for end in ends:
            for p in end.patterns:
                involved.add(p.base)
                if not p.duration.is_static:
                    involved.update(
                        self._candidates(
                            p.base, p.duration.endpoint, p.duration.message, False
                        )
                    )
        return involved

    def _cond_cones(self) -> List[int]:
        """Per-event mask of the branch conditions that can influence its
        timestamp: conditions of its ancestor cone, closed over the
        serialized earlier same-message syncs (they feed the sync's
        timestamp).  Computed once, in topological order."""
        if self._cone_masks is not None:
            return self._cone_masks
        g = self.graph
        cones: List[int] = []
        for ev in g.events:
            acc = 0
            for p in ev.preds:
                acc |= cones[p]
            if ev.kind is EventKind.BRANCH:
                acc |= 1 << ev.cond_id
            elif ev.kind is EventKind.SYNC:
                for other in g.sync_events(ev.endpoint, ev.message):
                    if other.eid < ev.eid:
                        acc |= cones[other.eid]
            cones.append(acc)
        self._cone_masks = cones
        return cones

    def _cases(self, eids: Iterable[int], ends: Iterable[EndSet] = ()
               ) -> Iterator[MaskCase]:
        """Enumerate branch cases over the *timing-relevant* conditions in
        the cones of the involved events (others cannot shift any
        timestamp).  Cases come in increasing order of their value mask,
        the lowest condition id varying fastest."""
        cones = self._cond_cones()
        conds = 0
        for eid in self._involved_events(eids, ends):
            conds |= cones[eid]
        conds &= self._timing_relevant_conditions()
        n = conds.bit_count()
        if 2**n > self.max_cases:
            raise OracleLimitError(
                f"{n} relevant branch conditions exceed the case limit"
            )
        values = 0
        while True:
            yield conds, values
            if values == conds:
                return
            values = (values - conds) & conds

    # ------------------------------------------------------------------
    # public comparisons
    # ------------------------------------------------------------------
    def event_le(self, a: int, b: int) -> bool:
        """``a <=G b``: in every case where ``a`` happens, ``b`` happens no
        earlier."""
        key = ("le", a, b)
        cached = self._verdict_cache.get(key)
        if cached is not None:
            return cached
        out = self._event_le(a, b)
        self._verdict_cache[key] = out
        return out

    def _event_le(self, a: int, b: int) -> bool:
        for case in self._cases((a, b)):
            ta = self._ts(a, case)
            if ta.infinite:
                continue  # vacuous in this case
            if not ta.le(self._ts(b, case)):
                return False
        return True

    def event_lt(self, a: int, b: int) -> bool:
        key = ("lt", a, b)
        cached = self._verdict_cache.get(key)
        if cached is not None:
            return cached
        out = self._event_lt(a, b)
        self._verdict_cache[key] = out
        return out

    def _event_lt(self, a: int, b: int) -> bool:
        for case in self._cases((a, b)):
            ta = self._ts(a, case)
            if ta.infinite:
                continue
            if not ta.lt(self._ts(b, case)):
                return False
        return True

    def event_le_end(self, a: int, end: EndSet, shift: int = 0) -> bool:
        """``a + shift <= earliest(end)`` in every case (value live until at
        least ``a + shift``); uses the *lower* bound of ``end``."""
        if end.is_eternal:
            return True
        key = ("lee", a, end, shift)
        cached = self._verdict_cache.get(key)
        if cached is not None:
            return cached
        out = self._event_le_end(a, end, shift)
        self._verdict_cache[key] = out
        return out

    def _event_le_end(self, a: int, end: EndSet, shift: int = 0) -> bool:
        for case in self._cases((a,), (end,)):
            ta = self._ts(a, case)
            if ta.infinite:
                continue
            bound = self._endset_expr(end, case, upper=False)
            if not bound.ge_expr(ta.shifted(shift)):
                return False
        return True

    def end_le_event(self, end: EndSet, a: int, shift: int = 0) -> bool:
        """``earliest(end) <= a + shift`` in every case; uses the *upper*
        bound of ``end`` (sound for 'the loan expired before the mutation
        takes effect')."""
        if end.is_eternal:
            return False
        key = ("ele", end, a, shift)
        cached = self._verdict_cache.get(key)
        if cached is not None:
            return cached
        out = self._end_le_event(end, a, shift)
        self._verdict_cache[key] = out
        return out

    def _end_le_event(self, end: EndSet, a: int, shift: int = 0) -> bool:
        for case in self._cases((a,), (end,)):
            ta = self._ts(a, case)
            if ta.infinite:
                continue
            bound, reachable = self._endset_state(end, case, upper=True)
            if not reachable:
                continue  # the interval never materializes in this case
            if not bound.le_expr(ta.shifted(shift)):
                return False
        return True

    def end_le_end(self, required: EndSet, available: EndSet) -> bool:
        """``earliest(required) <= earliest(available)``: the available
        lifetime lasts at least as long as required.  Upper bound on the
        requirement, lower bound on the availability."""
        if available.is_eternal:
            return True
        if required.is_eternal:
            return False
        key = ("e2e", required, available)
        cached = self._verdict_cache.get(key)
        if cached is not None:
            return cached
        out = self._end_le_end(required, available)
        self._verdict_cache[key] = out
        return out

    def _end_le_end(self, required: EndSet, available: EndSet) -> bool:
        for case in self._cases((), (required, available)):
            req, req_reachable = self._endset_state(required, case, upper=True)
            if not req_reachable:
                continue  # the requirement is vacuous in this case
            ava = self._endset_expr(available, case, upper=False)
            if not req.le(ava):
                return False
        return True

    def lifetime_within(
        self,
        inner_start: int,
        inner_end: EndSet,
        outer_start: int,
        outer_end: EndSet,
    ) -> bool:
        """``[inner_start, inner_end) (subset of) [outer_start, outer_end)``
        (the paper's interval containment built from ``<=G``)."""
        if not self.event_le(outer_start, inner_start):
            return False
        return self.end_le_end(inner_end, outer_end)
