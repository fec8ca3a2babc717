"""The timing oracle: sound decision procedures for ``<=G`` and ``<G``.

Definition C.11 of the paper quantifies over every *timestamp function* of
the event graph.  The oracle realizes that quantification:

* handshake slack of each dynamic synchronization event becomes a fresh
  max-plus variable (see :mod:`repro.core.maxplus`);
* branch conditions are decided case by case -- but only the conditions
  *relevant* to timing (those whose arms shift some timestamp outside
  them), which keeps the cases few;
* each event's time is one reduced, ordered *case tree* over those
  conditions (an algebraic decision diagram): an inner node tests one
  condition, the highest id on top, and a leaf is the exact max-plus
  expression shared by every case that reaches it.  Leaves are interned
  and nodes hash-consed, so equal subtrees are one object;
* trees are built bottom-up, each from the trees of the events its time
  depends on by applying the event kind's rule leaf by leaf, so a
  condition appears in a tree only where it moves that timestamp, and
  every query shares them;
* a query walks the product of the trees of the events it reads, false
  arm first (the order of the cases the cells stand for), checks each
  combination of leaves once, and holds only if it holds in every one;
* an any-join whose reachable sides differ in a case is a conflict leaf
  there, and only a query that reads it raises :class:`OracleLimitError`,
  naming the first case that reaches it.

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

from operator import attrgetter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .events import Event, EventGraph, EventKind
from .maxplus import MaxExpr, MinExpr
from .patterns import EndSet, EventPattern

Case = Tuple[Tuple[int, bool], ...]


def _mask_case(case: Case) -> Tuple[int, int]:
    """``case`` as bitmasks ``(assigned, values)``: bit ``c`` of
    ``assigned`` marks condition ``c`` as fixed and the same bit of
    ``values`` gives its value."""
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
    """Raised when a query cannot be decided: the timing-relevant branch
    conditions in the cones of its events have more combinations than the
    case limit, or, in a case the query reads, an any-join has reachable
    sides with different timestamps (the join conflict: the condition set
    was incomplete)."""


def _conflict_message(join: int, assigned: int, values: int) -> str:
    return (
        f"join e{join} has multiple reachable branches under case "
        f"{_case_tuple(assigned, values)}; condition set was incomplete"
    )


class _Conflict:
    """Leaf value of an any-join whose reachable sides disagree, and of
    every event whose time is read through it."""

    __slots__ = ("join",)

    def __init__(self, join: int):
        self.join = join

    def __eq__(self, other):
        return isinstance(other, _Conflict) and other.join == self.join

    def __hash__(self):
        return hash(self.join)


class _ConflictRead(Exception):
    """A query read a :class:`_Conflict` leaf; the walk, which knows the
    case, turns it into an :class:`OracleLimitError`."""

    def __init__(self, join: int):
        super().__init__(join)
        self.join = join


class _Node:
    """A case-tree node.  An inner node tests condition ``var``: ``lo`` is
    the tree where it is false, ``hi`` where it is true, and both test
    only lower conditions.  A leaf has ``var == -1`` and its timestamp (a
    :class:`MaxExpr`, or a :class:`_Conflict`) in ``value``."""

    __slots__ = ("var", "lo", "hi", "value")

    def __init__(self, var: int, lo, hi, value):
        self.var = var
        self.lo = lo
        self.hi = hi
        self.value = value


_VAR = attrgetter("var")


def _read(cell, eid: int) -> MaxExpr:
    """Timestamp of ``eid`` in ``cell``, a mapping from event id to leaf."""
    value = cell[eid].value
    if value.__class__ is _Conflict:
        raise _ConflictRead(value.join)
    return value


def _first_conflict(values: Sequence) -> Optional[_Conflict]:
    for v in values:
        if v.__class__ is _Conflict:
            return v
    return None


# Per-kind timestamp rules, applied leaf by leaf: ``values`` are the
# timestamps of the event's predecessors (then, for a sync, of the earlier
# syncs of its message) in one case.  A predecessor's conflict is read
# before the event's own rule, in predecessor order.
def _latest(ev: Event, values: List):
    """ROOT (no predecessors: time 0), BRANCH (before its gate) and
    JOIN_ALL."""
    return _first_conflict(values) or MaxExpr.maximum(values)


def _delay(ev: Event, values: List):
    return _first_conflict(values) or \
        MaxExpr.maximum(values).shifted(ev.delay)


def _sync(ev: Event, values: List):
    npreds = len(ev.preds)
    parts = values[:npreds]
    conflict = _first_conflict(parts)
    if conflict:
        return conflict
    # Successive synchronizations of one message share a single handshake
    # resource and are serialized in program order; a later sync can
    # therefore never complete before an earlier one.  (This matters for
    # overlapped `recursive` iterations.)
    if not any(p.infinite for p in parts):
        for t in values[npreds:]:
            if t.__class__ is _Conflict:
                return t
            if not t.infinite:
                parts.append(t)
    base = MaxExpr.maximum(parts)
    if ev.static_slack is None:
        return base.with_var(ev.eid)
    return base.shifted(ev.static_slack)


def _join_any(ev: Event, values: List):
    conflict = _first_conflict(values)
    if conflict:
        return conflict
    reachable = [v for v in values if not v.infinite]
    if not reachable:
        return MaxExpr.inf()
    # More than one side is reachable only when the branch condition was
    # deemed irrelevant; both sides then carry identical timestamps by
    # construction (optimization passes preserve this), so one side stands
    # for all only when they agree.  Leaves are interned: equal values are
    # one object.
    first = reachable[0]
    if all(r is first for r in reachable[1:]):
        return first
    return _Conflict(ev.eid)


class TimingOracle:
    """Decides timing relations over one event graph."""

    def __init__(self, graph: EventGraph, max_cases: int = 4096):
        self.graph = graph
        self.max_cases = max_cases
        self._candidates_cache: Dict[Tuple[int, str, str, bool], Tuple[int, ...]] = {}
        self._relevant_mask: Optional[int] = None
        self._cone_masks: Optional[List[int]] = None
        self._transparent: Dict[int, MaxExpr] = {}
        self._verdict_cache: Dict[tuple, bool] = {}
        # case trees, per mask of the conditions they test: event -> tree
        self._forest: Dict[int, Dict[int, _Node]] = {}
        self._leaves: Dict[object, _Node] = {}
        self._nodes: Dict[Tuple[int, _Node, _Node], _Node] = {}
        self._products: Dict[Tuple[_Node, ...], list] = {}

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
    # timestamps: case trees
    # ------------------------------------------------------------------
    def ts(self, eid: int, case: Case) -> MaxExpr:
        """Max-plus timestamp of event ``eid`` under branch case ``case``.

        A case is a tuple of ``(condition, value)`` pairs.  A condition it
        leaves out takes both arms: the timestamp is read off the case
        tree of ``eid`` over exactly the conditions ``case`` assigns.
        """
        assigned, values = _mask_case(case)
        node = self._tree(eid, assigned)
        while node.var >= 0:
            node = node.hi if values >> node.var & 1 else node.lo
        if node.value.__class__ is _Conflict:
            raise OracleLimitError(
                _conflict_message(node.value.join, assigned, values)
            )
        return node.value

    def _leaf(self, value) -> _Node:
        """The leaf of ``value``: one per distinct timestamp."""
        leaf = self._leaves.get(value)
        if leaf is None:
            leaf = self._leaves[value] = _Node(-1, None, None, value)
        return leaf

    def _node(self, var: int, lo: _Node, hi: _Node) -> _Node:
        """The node testing ``var`` over ``lo`` and ``hi``: one per
        distinct triple, and ``lo`` itself when both arms are one subtree,
        so trees stay reduced."""
        if lo is hi:
            return lo
        key = (var, lo, hi)
        node = self._nodes.get(key)
        if node is None:
            node = self._nodes[key] = _Node(var, lo, hi, None)
        return node

    def _tree(self, eid: int, split: int) -> _Node:
        """Case tree of ``eid`` over the conditions in mask ``split``,
        built on first use from the trees of the events its time depends
        on: its predecessors and, for a sync, the earlier syncs of its
        message."""
        trees = self._forest.get(split)
        if trees is None:
            trees = self._forest[split] = {}
        tree = trees.get(eid)
        if tree is None:
            ev = self.graph[eid]
            kind = ev.kind
            deps = [trees.get(p) or self._tree(p, split) for p in ev.preds]
            if kind is EventKind.SYNC:
                deps.extend(trees.get(other.eid) or
                            self._tree(other.eid, split) for other in
                            self.graph.sync_events(ev.endpoint, ev.message)
                            if other.eid < eid)
                rule = _sync
            elif kind is EventKind.DELAY:
                rule = _delay
            elif kind is EventKind.JOIN_ANY:
                rule = _join_any
            else:
                rule = _latest
            tree = self._apply(rule, ev, tuple(deps), {})
            if kind is EventKind.BRANCH and split >> ev.cond_id & 1:
                tree = self._gate(tree, ev.cond_id, ev.polarity, {})
            trees[eid] = tree
        return tree

    def _apply(self, rule: Callable, ev: Event, trees: Tuple[_Node, ...],
               memo: Dict[Tuple[_Node, ...], _Node]) -> _Node:
        """The tree mapping each case to ``rule(ev, leaf values)`` of the
        leaves ``trees`` map it to."""
        out = memo.get(trees)
        if out is None:
            top = max(map(_VAR, trees), default=-1)
            if top < 0:
                out = self._leaf(rule(ev, [t.value for t in trees]))
            else:
                out = self._node(
                    top,
                    self._apply(rule, ev, tuple([t.lo if t.var == top else t
                                                 for t in trees]), memo),
                    self._apply(rule, ev, tuple([t.hi if t.var == top else t
                                                 for t in trees]), memo),
                )
            memo[trees] = out
        return out

    def _gate(self, tree: _Node, cond: int, polarity: bool,
              memo: Dict[_Node, _Node]) -> _Node:
        """``tree`` where condition ``cond`` has value ``polarity``, and
        unreached (infinite) where it has the other, without reading
        ``tree`` there: the tree of a branch whose condition is tested."""
        out = memo.get(tree)
        if out is None:
            if tree.var > cond:
                out = self._node(tree.var,
                                 self._gate(tree.lo, cond, polarity, memo),
                                 self._gate(tree.hi, cond, polarity, memo))
            else:
                arm = tree
                if tree.var == cond:
                    arm = tree.hi if polarity else tree.lo
                inf = self._leaf(MaxExpr.inf())
                out = (self._node(cond, inf, arm) if polarity
                       else self._node(cond, arm, inf))
            memo[tree] = out
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
        self, pattern: EventPattern, cell, upper: bool
    ) -> List[MaxExpr]:
        """Alternatives (min-candidates) for an event pattern in a cell."""
        base_ts = _read(cell, pattern.base)
        if base_ts.infinite:
            return []  # pattern base never reached: treated as vacuous
        dur = pattern.duration
        if dur.is_static:
            return [base_ts.shifted(dur.cycles)]
        cands = self._candidates(pattern.base, dur.endpoint, dur.message, upper)
        alts = []
        for c in cands:
            t = _read(cell, c)
            if not t.infinite:
                alts.append(t)
        return alts

    def _endset_expr(self, end: EndSet, cell, upper: bool) -> MinExpr:
        """MinExpr bound for an :class:`EndSet` (infinite when eternal)."""
        return self._endset_state(end, cell, upper)[0]

    def _endset_state(self, end: EndSet, cell, upper: bool
                      ) -> Tuple[MinExpr, bool]:
        """Bound plus reachability: the second component is False when every
        pattern base is unreachable in this cell (the interval -- and hence
        any obligation built on it -- is vacuous there)."""
        if end.is_eternal:
            return MinExpr.inf(), True
        alts: List[MaxExpr] = []
        reachable = False
        for p in end.patterns:
            if not _read(cell, p.base).infinite:
                reachable = True
            alts.extend(self._pattern_alts(p, cell, upper))
        if not alts:
            return MinExpr.inf(), reachable
        return MinExpr(alts), reachable

    # ------------------------------------------------------------------
    # deciding a query over the case trees
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

    def _holds(self, eids: Iterable[int], ends: Iterable[EndSet],
               check: Callable) -> bool:
        """True iff ``check(cell)`` holds in every case of the
        timing-relevant conditions in the cones of the involved events
        (others cannot shift any timestamp).  A cell maps each involved
        event to its leaf in a case.

        The cells are those of the product of the involved events' trees,
        in the order of the first case reaching each (:meth:`_cells`), so
        the first failing cell holds the first failing case, and a join
        conflict the check reads is reported under that case.  When every
        tree is a leaf, the trees themselves are the one cell."""
        cones = self._cond_cones()
        involved = self._involved_events(eids, ends)
        conds = 0
        for eid in involved:
            conds |= cones[eid]
        relevant = self._timing_relevant_conditions()
        conds &= relevant
        n = conds.bit_count()
        if 2**n > self.max_cases:
            raise OracleLimitError(
                f"{n} relevant branch conditions exceed the case limit"
            )
        trees = self._forest.get(relevant)
        if trees is None:
            trees = self._forest[relevant] = {}
        split = []
        for eid in involved:
            if (trees.get(eid) or self._tree(eid, relevant)).var >= 0:
                split.append(eid)
        values = 0
        try:
            if not split:
                return check(trees)
            cell = {eid: trees[eid] for eid in involved}
            for values, leaves in self._cells(
                    tuple([trees[eid] for eid in split])):
                cell.update(zip(split, leaves))
                if not check(cell):
                    return False
            return True
        except _ConflictRead as exc:
            raise OracleLimitError(
                _conflict_message(exc.join, conds, values)) from None

    def _cells(self, nodes: Tuple[_Node, ...]
               ) -> List[Tuple[int, Tuple[_Node, ...]]]:
        """The cells of the product of the trees ``nodes``: each distinct
        combination of their leaves, with the first case reaching it (a
        mask of the conditions set true), in the order of those cases.
        Cases run false arm first, so the cells under the false arm of the
        top condition come first, then the new ones under its true arm.
        Memoized: products of equal subtrees are one list."""
        cells = self._products.get(nodes)
        if cells is None:
            top = max(map(_VAR, nodes))
            if top < 0:
                cells = [(0, nodes)]
            else:
                cells = self._cells(tuple([n.lo if n.var == top else n
                                           for n in nodes]))
                hi = self._cells(tuple([n.hi if n.var == top else n
                                        for n in nodes]))
                seen = {leaves for _values, leaves in cells}
                bit = 1 << top
                cells = cells + [(values | bit, leaves)
                                 for values, leaves in hi
                                 if leaves not in seen]
            self._products[nodes] = cells
        return cells

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
        def check(cell) -> bool:
            ta = _read(cell, a)
            return ta.infinite or ta.le(_read(cell, b))  # vacuous if unreached

        return self._holds((a, b), (), check)

    def event_lt(self, a: int, b: int) -> bool:
        key = ("lt", a, b)
        cached = self._verdict_cache.get(key)
        if cached is not None:
            return cached
        out = self._event_lt(a, b)
        self._verdict_cache[key] = out
        return out

    def _event_lt(self, a: int, b: int) -> bool:
        def check(cell) -> bool:
            ta = _read(cell, a)
            return ta.infinite or ta.lt(_read(cell, b))

        return self._holds((a, b), (), check)

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
        def check(cell) -> bool:
            ta = _read(cell, a)
            if ta.infinite:
                return True
            bound = self._endset_expr(end, cell, upper=False)
            return bound.ge_expr(ta.shifted(shift))

        return self._holds((a,), (end,), check)

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
        def check(cell) -> bool:
            ta = _read(cell, a)
            if ta.infinite:
                return True
            bound, reachable = self._endset_state(end, cell, upper=True)
            if not reachable:
                return True  # the interval never materializes in this case
            return bound.le_expr(ta.shifted(shift))

        return self._holds((a,), (end,), check)

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
        def check(cell) -> bool:
            req, req_reachable = self._endset_state(required, cell, upper=True)
            if not req_reachable:
                return True  # the requirement is vacuous in this case
            ava = self._endset_expr(available, cell, upper=False)
            return req.le(ava)

        return self._holds((), (required, available), check)

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
