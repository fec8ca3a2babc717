"""Execution-log semantics and the Theorem C.20 property.

The dynamic oracle replays sampled executions (random handshake slacks,
random branch outcomes) against the Definition C.15 safety condition:
well-typed processes must yield only safe logs; the paper's ill-typed
examples must exhibit unsafe ones.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph_builder import GraphBuilder
from repro.core.typecheck import check_process
from repro.errors import LoanedRegisterMutationError, ValueNotLiveError
from repro.semantics import (
    check_log,
    concrete_times,
    log_is_safe,
    sample_log,
    sample_process_logs,
)

from helpers import one_armed_sync_process, top_safe, top_unsafe


class TestConcreteTimes:
    def test_linear_times(self):
        from repro import Logic, Process
        from repro.lang.terms import cycle, set_reg, read
        p = Process("t")
        p.register("r", Logic(4))
        p.loop(cycle(2) >> set_reg("r", read("r") + 1))
        built = GraphBuilder(p, p.threads[0]).build(1)
        times = concrete_times(built.graph, {}, {})
        assert times[0] == 0          # root
        assert max(t for t in times if t is not None) == 3

    def test_slack_shifts_downstream(self):
        built = GraphBuilder(
            top_safe(), top_safe().threads[0]
        ).build(1)
        proc = top_safe()
        built = GraphBuilder(proc, proc.threads[0]).build(1)
        sync_eids = [e.eid for e in built.graph.events
                     if e.kind.value == "sync"]
        t0 = concrete_times(built.graph, {eid: 0 for eid in sync_eids}, {})
        t3 = concrete_times(built.graph, {eid: 3 for eid in sync_eids}, {})
        last0 = max(t for t in t0 if t is not None)
        last3 = max(t for t in t3 if t is not None)
        assert last3 > last0

    def test_untaken_branch_is_none(self):
        from repro import Logic, Process
        from repro.lang.terms import cycle, if_, read
        p = Process("t")
        p.register("r", Logic(1))
        p.loop(if_(read("r").eq(0), cycle(1), cycle(3)))
        built = GraphBuilder(p, p.threads[0]).build(1)
        conds = {0: True}
        times = concrete_times(built.graph, {}, conds)
        assert any(t is None for t in times)  # the untaken arm


class TestSafetyOracle:
    def test_safe_process_all_logs_safe(self):
        logs = sample_process_logs(top_safe(), samples=60, seed=3)
        for log in logs:
            violations = check_log(log)
            assert not violations, violations

    def test_unsafe_process_logs_unsafe(self):
        logs = sample_process_logs(top_unsafe(), samples=60, seed=3)
        assert any(not log_is_safe(log) for log in logs)

    @pytest.mark.parametrize("factory_name", [
        "fifo_buffer", "spill_register", "passthrough_stream_fifo",
    ])
    def test_stream_designs_dynamically_safe(self, factory_name):
        from repro.anvil_designs import streams
        factory = getattr(streams, factory_name)
        logs = sample_process_logs(factory(), samples=25, seed=7)
        assert all(log_is_safe(log) for log in logs)

    def test_mmu_designs_dynamically_safe(self):
        from repro.anvil_designs.mmu import ptw_process, tlb_process
        for factory in (ptw_process, tlb_process):
            logs = sample_process_logs(factory(), samples=20, seed=11)
            assert all(log_is_safe(log) for log in logs)

    @pytest.mark.parametrize("which,error", [
        ("loan", LoanedRegisterMutationError),
        ("lifetime", ValueNotLiveError),
    ])
    def test_one_armed_syncs_do_not_order_lifetime_ends(self, which, error):
        """A sync reached through one arm of an ``if`` is neither before
        nor after a dynamic lifetime's base event: the checker rejects
        the program, and sampled logs show the unsafe runs."""
        process = one_armed_sync_process(which)
        report = check_process(process)
        assert any(isinstance(e, error) for e in report.errors), \
            report.errors
        logs = sample_process_logs(process, samples=250)
        assert any(check_log(log) for log in logs)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       max_slack=st.integers(min_value=0, max_value=6))
def test_theorem_c20_well_typed_implies_safe(seed, max_slack):
    """Property: every sampled execution of the well-typed Top_Safe is
    safe, for arbitrary handshake slacks."""
    proc = top_safe()
    assert check_process(proc).ok
    built = GraphBuilder(proc, proc.threads[0]).build(2)
    rng = random.Random(seed)
    log = sample_log(built, rng, max_slack=max_slack)
    assert log_is_safe(log), check_log(log)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_ill_typed_counterexamples_exist(seed):
    """The unsafe Top violates Definition C.15 under every sampled slack
    assignment with nonzero memory delay."""
    proc = top_unsafe()
    assert not check_process(proc).ok
    built = GraphBuilder(proc, proc.threads[0]).build(2)
    rng = random.Random(seed)
    log = sample_log(built, rng, max_slack=3)
    # the static 2-cycle contract is violated by construction here
    assert not log_is_safe(log)
