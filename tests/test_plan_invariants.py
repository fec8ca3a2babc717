"""What the backends assume of the events a plan runs on.

Recv and flag latches carry no port: every backend reads the port of the
latch's own event, so such a latch must sit on a sync.  Every branch
tests a condition, only syncs drive a payload or gate on a guard, and a
thread plan runs on its optimized graph's own events.  Checked on the
plans of the front-end digest's processes, the Table 2 studies and every
registry scenario, optimized and unoptimized.
"""

import pytest

from helpers import tool_module
from repro.api import SimConfig, get_registry
from repro.codegen import simfsm
from repro.core.events import EventKind, LatchFlag, LatchRecv
from repro.core.fsmplan import build_process_plan
from repro.harness import table2


def _processes():
    """``(source, process)`` for every process the three sources build."""
    out = [("digest", f()) for f in tool_module("frontend_digest").FACTORIES]
    seen = []
    check_process = table2.check_process
    compile_process = simfsm.compile_process
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(table2, "check_process",
                   lambda p: (seen.append(p), check_process(p))[1])
        mp.setattr(simfsm, "compile_process",
                   lambda p, do_optimize=True:
                   (seen.append(p), compile_process(p, do_optimize))[1])
        for case in table2.CASES.values():
            case()
        table2.stream_fifo_safety()
        out += [("table2", p) for p in seen]
        del seen[:]
        cfg = SimConfig(engine="levelized", backend="interp", stim=50)
        for name in get_registry().names():
            get_registry().build(name, cfg)
        out += [("registry", p) for p in seen]
    return out


@pytest.fixture(scope="module")
def events():
    """``(where, plan, thread plan, event)`` for every planned event."""
    out = []
    for source, process in _processes():
        for do_optimize in (True, False):
            plan = build_process_plan(process, do_optimize)
            where = f"{source}:{process.name}:optimize={do_optimize}"
            for tp in plan.threads:
                out += [(where, plan, tp, ev) for ev in tp.events]
    return out


def test_every_source_is_planned(events):
    wheres = {where.split(":")[0] for where, *_ in events}
    assert wheres == {"digest", "table2", "registry"}


def test_recv_and_flag_latches_sit_on_their_own_sync(events):
    n = 0
    for where, plan, _tp, ev in events:
        if any(type(latch) in (LatchRecv, LatchFlag)
               for latch in ev.latches):
            n += 1
            assert ev.kind is EventKind.SYNC, (where, ev)
            assert plan.ports[ev.port].key == ev.sync_key, (where, ev)
    assert n > 0


def test_every_branch_tests_a_condition(events):
    branches = [(where, ev) for where, _plan, _tp, ev in events
                if ev.kind is EventKind.BRANCH]
    assert branches
    for where, ev in branches:
        assert ev.cond_expr is not None, (where, ev)


def test_only_syncs_carry_a_payload_or_a_guard(events):
    carriers = [(where, ev) for where, _plan, _tp, ev in events
                if ev.payload is not None or ev.guard is not None]
    assert any(ev.payload is not None for _where, ev in carriers)
    assert any(ev.guard is not None for _where, ev in carriers)
    for where, ev in carriers:
        assert ev.kind is EventKind.SYNC, (where, ev)


def test_thread_plans_run_on_their_graphs_events(events):
    threads = {id(tp): tp for _where, _plan, tp, _ev in events}
    for tp in threads.values():
        assert len(tp.events) == len(tp.graph.events)
        assert all(a is b for a, b in zip(tp.events, tp.graph.events))
        assert [ev.eid for ev in tp.events] == list(range(tp.n_events))
