"""BSV scheduler, bounded model checker and synthesis cost model tests."""

import pytest

from repro.bsv import Rule, RuleScheduler, RuleState, TimingContractMonitor
from repro.verif import Assertion, BoundedModelChecker, TransitionSystem


class TestRuleState:
    def test_staged_writes_commit_atomically(self):
        s = RuleState(a=1, b=2)
        s.write("a", 10)
        assert s.read("a") == 1      # pre-cycle value until commit
        s.commit()
        assert s.read("a") == 10

    def test_unknown_register_rejected(self):
        s = RuleState(a=1)
        with pytest.raises(KeyError):
            s.write("nope", 0)

    def test_method_calls_returned_on_commit(self):
        s = RuleState(a=1)
        s.call("fifo.enq", 42)
        calls = s.commit()
        assert calls == [("fifo.enq", 42)]


class TestScheduler:
    def make(self, priority):
        state = RuleState(x=0, y=0)
        rules = [
            Rule("inc_x", lambda s: True,
                 lambda s: s.write("x", s.read("x") + 1)),
            Rule("also_x", lambda s: True,
                 lambda s: s.write("x", s.read("x") + 100)),
            Rule("inc_y", lambda s: True,
                 lambda s: s.write("y", s.read("y") + 1)),
        ]
        return state, RuleScheduler(state, rules, priority)

    def test_conflicting_rules_not_cofired(self):
        state, sched = self.make(["inc_x", "also_x", "inc_y"])
        sched.step()
        # also_x conflicts with inc_x on register x: only one fires
        assert state.read("x") == 1
        assert state.read("y") == 1
        assert sched.trace.fired[0] == ["inc_x", "inc_y"]

    def test_priority_decides_winner(self):
        state, sched = self.make(["also_x", "inc_x", "inc_y"])
        sched.step()
        assert state.read("x") == 100

    def test_guards_respected(self):
        state = RuleState(x=0)
        r = Rule("bounded", lambda s: s.read("x") < 3,
                 lambda s: s.write("x", s.read("x") + 1))
        sched = RuleScheduler(state, [r])
        sched.run(10)
        assert state.read("x") == 3
        assert sched.trace.count("bounded") == 3


class TestContractMonitor:
    def test_detects_pinned_change(self):
        m = TimingContractMonitor()
        m.pin("addr", 5, "in flight")
        m.observe(3, "addr", 5)
        assert m.ok
        m.observe(4, "addr", 6)
        assert not m.ok
        assert "cycle 4" in m.violations[0]

    def test_release_stops_checking(self):
        m = TimingContractMonitor()
        m.pin("addr", 5, "x")
        m.release("addr")
        m.observe(9, "addr", 99)
        assert m.ok


class TestBmc:
    def counter_system(self, bits=4):
        mask = (1 << bits) - 1
        return TransitionSystem(
            {"cnt": 0},
            lambda s, i: {"cnt": (s["cnt"] + 1) & mask},
        )

    def test_finds_violation(self):
        sys_ = self.counter_system()
        bmc = BoundedModelChecker(
            sys_, [Assertion("cnt<10", lambda p, s: s["cnt"] < 10)],
            max_depth=64,
        )
        r = bmc.run()
        assert r.found_violation
        assert r.trace  # counterexample trace provided

    def test_no_violation_on_true_property(self):
        sys_ = self.counter_system()
        bmc = BoundedModelChecker(
            sys_, [Assertion("cnt<16", lambda p, s: s["cnt"] < 16)],
            max_depth=64,
        )
        assert bmc.run().verdict == "no_violation"

    def test_state_budget_exhaustion(self):
        sys_ = TransitionSystem(
            {"cnt": 0},
            lambda s, i: {"cnt": s["cnt"] + 1 + i["x"]},
            input_space=[("x", [0, 1, 2, 3])],
        )
        bmc = BoundedModelChecker(
            sys_, [Assertion("never", lambda p, s: s["cnt"] < 10**9)],
            max_depth=100, max_states=500,
        )
        r = bmc.run()
        assert r.verdict == "budget"
        assert r.states > 0

    def test_input_space_enumerated(self):
        sys_ = TransitionSystem(
            {"v": 0},
            lambda s, i: {"v": i["x"]},
            input_space=[("x", [0, 7])],
        )
        bmc = BoundedModelChecker(
            sys_, [Assertion("v!=7", lambda p, s: s["v"] != 7)],
            max_depth=4,
        )
        assert bmc.run().found_violation


class TestSynthCost:
    def test_fifo_cost_sane(self):
        from repro.anvil_designs.streams import fifo_buffer
        from repro.codegen.simfsm import compile_process
        from repro.synth import estimate_compiled
        r = estimate_compiled(compile_process(fifo_buffer(4, 32)))
        assert r.flops >= 4 * 32          # at least the payload bits
        assert r.area > r.noncomb_area    # some combinational logic
        assert r.fmax > 500               # MHz

    def test_larger_design_costs_more(self):
        from repro.anvil_designs.streams import fifo_buffer
        from repro.codegen.simfsm import compile_process
        from repro.synth import estimate_compiled
        small = estimate_compiled(compile_process(fifo_buffer(2, 8)))
        big = estimate_compiled(compile_process(fifo_buffer(8, 32)))
        assert big.area > 2 * small.area

    def test_shared_expressions_are_costed_as_a_dag(self, monkeypatch):
        # the AES round logic shares subexpressions heavily: walking it
        # as a tree made ~1.8 M children() calls over ~1,300 nodes.  As
        # a DAG, each of three memoized passes (gates, depth, slot
        # reads) expands a node at most once
        from repro.anvil_designs.aes import aes_core
        from repro.codegen import rexpr as rx
        from repro.codegen.simfsm import compile_process
        from repro.synth import estimate_compiled

        compiled = compile_process(aes_core())
        calls, nodes = [0], set()
        for cls in vars(rx).values():
            if isinstance(cls, type) and issubclass(cls, rx.RExpr) \
                    and "children" in vars(cls):
                def counting(self, children=vars(cls)["children"]):
                    calls[0] += 1
                    nodes.add(id(self))
                    return children(self)
                monkeypatch.setattr(cls, "children", counting)
        estimate_compiled(compiled)
        assert nodes
        assert calls[0] <= 3 * len(nodes), (calls[0], len(nodes))

    def test_each_thread_is_charged_for_its_own_logic(self):
        # slot numbers are per thread, so slot 0 of one thread is not
        # slot 0 of another: two threads that each square what they
        # receive need two multipliers
        from helpers import cache_channel
        from repro import Process, Side
        from repro.core.fsmplan import build_process_plan
        from repro.lang.terms import let, recv, send, var
        from repro.synth import estimate_compiled

        def squarers(endpoints):
            p = Process("squarers")
            for ep in endpoints:
                p.endpoint(ep, cache_channel(), Side.RIGHT)
                p.loop(let("x", recv(ep, "req"),
                           send(ep, "res", var("x") * var("x"))))
            return p

        one, two = (estimate_compiled(build_process_plan(squarers(eps))).gates
                    for eps in ("a", "ab"))
        assert one["xor"] == 128
        assert two == {gate: 2 * n for gate, n in one.items()}

    def test_baseline_inventories_available(self):
        from repro.synth import baselines
        for name in ("fifo_buffer", "spill_register", "tlb", "ptw",
                     "aes_core", "axi_demux", "axi_mux", "pipelined_alu",
                     "systolic_array"):
            report = getattr(baselines, name)()
            assert report.area > 0
            assert report.fmax > 0

    def test_power_increases_with_activity_and_area(self):
        from repro.synth.baselines import fifo_buffer
        r = fifo_buffer()
        assert r.power(100, 1000) > r.power(10, 1000)
        assert r.power(10, 1000) > 0


class TestTable1Power:
    def test_activity_agrees_on_both_engine_backend_pairs(self):
        # the dynamic power column's port toggles: every row's workload
        # toggles something, and the fast pair counts what the
        # reference pair does
        from repro.harness.table1 import _activity, _spec_rows

        for spec in _spec_rows():
            reference, fast = (
                _activity(spec["factory"], spec["stimuli"],
                          backend=backend, engine=engine)
                for backend, engine in (("interp", "levelized"),
                                        ("pycompiled", "kernel")))
            assert reference == fast > 0, spec["name"]
