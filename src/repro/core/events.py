"""Event graph: the intermediate representation of the Anvil compiler.

Events are abstract time points (Section 5.1/5.3 of the paper).  Nodes of the
graph are labelled with how their time relates to their predecessors':

========= ===========================================================
kind      time of the event
========= ===========================================================
ROOT      0 (start of a thread iteration)
DELAY     ``max(preds) + n``  (label ``#n``; the paper's blue edges)
SYNC      ``max(preds) + slack`` where slack is an arbitrary
          non-negative handshake delay (a fresh max-plus variable),
          or a fixed constant when the sync mode is static/dependent
BRANCH    same cycle as its predecessor, but only reached when its
          branch condition has the matching polarity (red edges)
JOIN_ANY  the earliest reached predecessor (orange edges, label ``⊕``)
JOIN_ALL  the latest predecessor (label ``#0``)
========= ===========================================================

Each event additionally carries its *effects*, as in the paper's compiler
(Section 6): **latches** (the overlay writes of received data, sync
success flags and branch conditions), **commits** (register writes and
debug prints, made at the clock edge), a sync's ``payload`` and
``guard``, and a branch's ``cond_expr``.  The graph builder records them,
the optimizer carries them through merges, and FSM planning
(:mod:`repro.core.fsmplan`) gives each sync its ``port``; every backend
then reads them off the event, so the graph is the single IR shared by
the type checker and the code generator.
"""

from __future__ import annotations

import enum
from typing import (Dict, FrozenSet, List, NamedTuple, Optional, Sequence,
                    Tuple)

from ..codegen.rexpr import RExpr


class EventKind(enum.Enum):
    ROOT = "root"
    DELAY = "delay"
    SYNC = "sync"
    BRANCH = "branch"
    JOIN_ANY = "join_any"
    JOIN_ALL = "join_all"


class SyncDir(enum.Enum):
    SEND = "send"
    RECV = "recv"


# ---------------------------------------------------------------------------
# latches: overlay writes made when an event fires (combinationally visible
# in the firing cycle, committed into the activation's slots at the edge)
# ---------------------------------------------------------------------------
class LatchRecv(NamedTuple):
    """overlay[slot] = data of the event's own handshake (a receive's
    bypass path)."""
    slot: int


class LatchFlag(NamedTuple):
    """overlay[slot] = 1 iff the event's own handshake transferred this
    cycle (the success bit of a try_send/try_recv)."""
    slot: int


class LatchExpr(NamedTuple):
    """overlay[slot] = eval(source) (a branch condition)."""
    slot: int
    source: RExpr


# ---------------------------------------------------------------------------
# commits: clock-edge effects of a fired event
# ---------------------------------------------------------------------------
class CommitReg(NamedTuple):
    """reg <- eval(source), visible the next cycle."""
    reg: str
    source: RExpr


class CommitPrint(NamedTuple):
    """Log ``fmt`` (with eval(source), if any) at the clock edge."""
    fmt: str
    source: Optional[RExpr]


class Event:
    """A node of the event graph."""

    __slots__ = (
        "eid",
        "kind",
        "preds",
        "delay",
        "endpoint",
        "message",
        "direction",
        "static_slack",
        "conditional",
        "cond_id",
        "polarity",
        "note",
        "latches",
        "commits",
        "payload",
        "guard",
        "cond_expr",
        "port",
    )

    def __init__(
        self,
        eid: int,
        kind: EventKind,
        preds: Sequence[int],
        delay: int = 0,
        endpoint: str = "",
        message: str = "",
        direction: Optional[SyncDir] = None,
        static_slack: Optional[int] = None,
        conditional: bool = False,
        cond_id: int = -1,
        polarity: bool = True,
        note: str = "",
    ):
        self.eid = eid
        self.kind = kind
        self.preds: Tuple[int, ...] = tuple(preds)
        self.delay = delay
        self.endpoint = endpoint
        self.message = message
        self.direction = direction
        self.static_slack = static_slack
        self.conditional = conditional
        self.cond_id = cond_id
        self.polarity = polarity
        self.note = note
        #: LatchRecv / LatchFlag / LatchExpr records, in overlay order
        self.latches: List[tuple] = []
        #: CommitReg / CommitPrint records, in commit order
        self.commits: List[tuple] = []
        self.payload: Optional[RExpr] = None    # SYNC SEND: data driven
        self.guard: Optional[RExpr] = None      # SYNC: valid/ack gate
        self.cond_expr: Optional[RExpr] = None  # BRANCH: latched condition
        #: SYNC: index in the process plan's port table, set by planning
        self.port = -1

    @property
    def sync_key(self) -> Tuple[str, str]:
        return (self.endpoint, self.message)

    def label(self) -> str:
        if self.kind is EventKind.ROOT:
            return "root"
        if self.kind is EventKind.DELAY:
            return f"#{self.delay}"
        if self.kind is EventKind.SYNC:
            return f"{self.endpoint}.{self.message}"
        if self.kind is EventKind.BRANCH:
            return f"&c{self.cond_id}" + ("" if self.polarity else "!")
        if self.kind is EventKind.JOIN_ANY:
            return "(+)"
        return "#0"

    def __repr__(self):
        return f"e{self.eid}[{self.label()}]"


class EventGraph:
    """A DAG of :class:`Event` nodes.

    Nodes must be added in topological order (every predecessor id already
    present), which the graph builder guarantees by construction.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.events: List[Event] = []
        # per event, bit ``p`` of ``_ancestry`` is set when ``p`` is a
        # strict ancestor, and of ``_must`` when ``p`` must precede it
        self._ancestry: List[int] = []
        self._must: List[int] = []
        self._succs: Dict[int, List[int]] = {}
        self._sync_index: Dict[Tuple[str, str], List[Event]] = {}

    # -- construction ----------------------------------------------------
    def add(
        self,
        kind: EventKind,
        preds: Sequence[int] = (),
        **kwargs,
    ) -> Event:
        for p in preds:
            if p >= len(self.events) or p < 0:
                raise ValueError(f"predecessor e{p} not yet in graph")
        ev = Event(len(self.events), kind, preds, **kwargs)
        # an any-join keeps what all its predecessors share, any other
        # event takes the union
        ancestry = must = 0
        for i, p in enumerate(preds):
            bit = 1 << p
            ancestry |= self._ancestry[p] | bit
            if kind is EventKind.JOIN_ANY and i:
                must &= self._must[p] | bit
            else:
                must |= self._must[p] | bit
        self.events.append(ev)
        self._ancestry.append(ancestry)
        self._must.append(must)
        for p in preds:
            self._succs.setdefault(p, []).append(ev.eid)
        if ev.kind is EventKind.SYNC:
            self._sync_index.setdefault(ev.sync_key, []).append(ev)
        return ev

    def root(self) -> Event:
        return self.add(EventKind.ROOT)

    # -- queries ----------------------------------------------------------
    def __len__(self):
        return len(self.events)

    def __getitem__(self, eid: int) -> Event:
        return self.events[eid]

    def successors(self, eid: int) -> List[int]:
        return self._succs.get(eid, [])

    def ancestors(self, eid: int) -> FrozenSet[int]:
        """All strict ancestors of ``eid`` (transitive predecessors)."""
        bits = bin(self._ancestry[eid])[:1:-1]
        return frozenset(i for i, bit in enumerate(bits) if bit == "1")

    def is_ancestor(self, a: int, b: int) -> bool:
        """True iff there is a path from ``a`` to ``b``: ``a`` fires in
        *some* activation that reaches ``b``."""
        return bool(self._ancestry[b] >> a & 1)

    def must_precede(self, a: int, b: int) -> bool:
        """True iff ``a`` fires, no later than ``b``, in *every*
        activation that reaches ``b``.  An any-join is reached through
        one predecessor, so it keeps what all of them share; every other
        event waits for all of its predecessors, so it takes the union.
        Ancestry through one arm of a branch does not order events;
        this does."""
        return bool(self._must[b] >> a & 1)

    def sync_events(self, endpoint: str, message: str) -> List[Event]:
        return self._sync_index.get((endpoint, message), [])

    def conditions(self) -> List[int]:
        """Ids of all branch conditions appearing in the graph."""
        seen = []
        for e in self.events:
            if e.kind is EventKind.BRANCH and e.cond_id not in seen:
                seen.append(e.cond_id)
        return seen

    def stats(self) -> Dict[str, int]:
        by_kind: Dict[str, int] = {}
        for e in self.events:
            by_kind[e.kind.value] = by_kind.get(e.kind.value, 0) + 1
        by_kind["total"] = len(self.events)
        return by_kind

    def to_dot(self) -> str:
        """Render the event graph in Graphviz dot format (for figures)."""
        lines = [f'digraph "{self.name or "event_graph"}" {{']
        for e in self.events:
            lines.append(f'  e{e.eid} [label="e{e.eid}\\n{e.label()}"];')
            for p in e.preds:
                style = {
                    EventKind.DELAY: "color=blue",
                    EventKind.SYNC: "color=black",
                    EventKind.BRANCH: "color=red",
                    EventKind.JOIN_ANY: "color=orange",
                    EventKind.JOIN_ALL: "color=gray",
                }.get(e.kind, "")
                lines.append(f"  e{p} -> e{e.eid} [{style}];")
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self):
        return f"EventGraph({self.name!r}, {len(self.events)} events)"
