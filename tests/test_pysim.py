"""Backend equivalence: the generated-Python FSM backend must be
observationally identical to the plan interpreter -- bit-identical
waveforms and activity counts, identical debug logs and register files,
identical diagnostics -- plus the plan extraction, expression lowering
and compile-cache machinery underneath it."""

import random
import re

import pytest

from helpers import port_traces, tool_module

from repro import (
    Process,
    Side,
    SimConfig,
    System,
    build_simulation,
    get_registry,
    run_batch,
)
from repro.codegen import pysim
from repro.codegen import rexpr as rx
from repro.codegen.simfsm import AnvilProcessModule, compile_process
from repro.core.events import EventKind
from repro.core import fsmplan
from repro.core.fsmplan import build_process_plan, port_reads, port_writes
from repro.errors import ContractViolationError, SimulationError
from repro.inject import Fault, FaultInjector
from repro.lang.channels import ChannelDef, LifetimeSpec, MessageDef
from repro.lang.terms import (
    cycle,
    if_,
    let,
    read,
    recurse,
    recv,
    send,
    set_reg,
    unit,
    var,
)
from repro.lang.types import Bundle, Logic
from repro.rtl.executors import EXECUTORS, JobSpec
from repro.rtl.snapshot import state_sig

BACKENDS = ("interp", "pycompiled")

#: the compiled-only workloads, enumerated from the canonical registry
ANVIL_SCENARIOS = get_registry().names("anvil", exclude="sweep")


def _build(name, **config):
    """Registry-backed scenario elaboration (the canonical code path)."""
    return get_registry().build(name, SimConfig(**config))


# ---------------------------------------------------------------------------
# expression lowering: to_python must equal eval
# ---------------------------------------------------------------------------
def _random_expr(rng, depth, width):
    """A random RExpr over two registers and two slots."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([
            rx.RLit(rng.getrandbits(width), width),
            rx.RReg("a", width),
            rx.RReg("b", width),
            rx.RSlot(0, width),
            rx.RSlot(1, width),
        ])
    pick = rng.random()
    a = _random_expr(rng, depth - 1, width)
    b = _random_expr(rng, depth - 1, width)
    if pick < 0.55:
        op = rng.choice(["add", "sub", "mul", "and", "or", "xor", "eq",
                         "ne", "lt", "le", "gt", "ge", "concat"])
        w = width if op not in ("eq", "ne", "lt", "le", "gt", "ge") \
            else 1
        return rx.RBin(op, a, b, w)
    if pick < 0.7:
        return rx.RUn(rng.choice(["not", "neg", "redor", "redand",
                                  "redxor"]), a,
                      width if rng.random() < 0.5 else 1)
    if pick < 0.8:
        hi = rng.randrange(a.width) if a.width > 1 else 0
        lo = rng.randrange(hi + 1)
        return rx.RSlice(a, hi, lo)
    if pick < 0.9:
        return rx.RMux(_random_expr(rng, depth - 1, 1), a, b, width)
    return rx.RTable(a, [rng.getrandbits(width) for _ in range(8)], width)


class _BareCtx:
    """Context for rendering expressions outside a process plan."""

    def __init__(self):
        self._n = 0

    def sub(self, node):
        return node.to_python(self)

    def const(self, value):
        return repr(value)

    def temp(self):
        self._n += 1
        return f"_t{self._n}"

    def ready(self, endpoint, message):
        return f"_rd[{(endpoint, message)!r}]"


#: leaf widths of the mixed-width trees: registers, slots, ready flags
_REG_WIDTHS = {"a": 3, "b": 8, "c": 33}
_SLOT_WIDTHS = {0: 1, 1: 12, 2: 40}
_READY = [("ep", "req"), ("ep", "res")]
_FAULT_BIT = 1 << 40      # what a flipped bit 40 leaves in a register


def _mixed_leaf(rng):
    pick = rng.randrange(4)
    if pick == 0:
        w = rng.choice([1, 4, 9, 40])
        return rx.RLit(rng.getrandbits(w), w)
    if pick == 1:
        name = rng.choice(sorted(_REG_WIDTHS))
        return rx.RReg(name, _REG_WIDTHS[name])
    if pick == 2:
        slot = rng.choice(sorted(_SLOT_WIDTHS))
        return rx.RSlot(slot, _SLOT_WIDTHS[slot])
    return rx.RReady(*rng.choice(_READY))


def _mixed_expr(rng, depth):
    """A random RExpr whose nodes mix widths: every node kind, result
    widths below, at and above their operands', shift amounts cut to
    4 bits, tables of 5, 14 and 16 entries under indices of any width."""
    if depth == 0 or rng.random() < 0.2:
        return _mixed_leaf(rng)
    a = _mixed_expr(rng, depth - 1)
    b = _mixed_expr(rng, depth - 1)
    pick = rng.random()
    if pick < 0.35:
        op = rng.choice(["add", "sub", "mul", "and", "or", "xor", "eq",
                         "ne", "lt", "le", "gt", "ge", "concat", "shl",
                         "shr"])
        if op in ("shl", "shr"):
            b = rx.RSlice(b, min(b.width, 4) - 1, 0)
        if op in ("eq", "ne", "lt", "le", "gt", "ge"):
            return rx.RBin(op, a, b, 1)
        w = rng.choice([1, a.width, max(a.width, b.width),
                        max(a.width, b.width) + 1, a.width + b.width])
        return rx.RBin(op, a, b, max(w, 1))
    if pick < 0.45:
        op = rng.choice(["not", "neg", "redor", "redand", "redxor"])
        return rx.RUn(op, a, rng.choice([1, a.width, a.width + 3])
                      if op in ("not", "neg") else 1)
    if pick < 0.55:
        hi = rng.randrange(a.width)
        return rx.RSlice(a, hi, rng.randrange(hi + 1))
    if pick < 0.7:
        dtype = Bundle([("lo", Logic(rng.randint(1, 9))),
                        ("mid", Logic(1)),
                        ("hi", Logic(rng.randint(1, 20)))])
        fields = {"lo": a, "hi": b}
        if rng.random() < 0.5:
            fields["mid"] = _mixed_leaf(rng)
        bundle = rx.RBundle(dtype, fields)
        if rng.random() < 0.5:
            return bundle
        return rx.RField(bundle, dtype, rng.choice(["lo", "mid", "hi"]))
    if pick < 0.85:
        return rx.RMux(_mixed_expr(rng, depth - 1), a, b,
                       rng.choice([1, a.width, max(a.width, b.width)]))
    n = rng.choice([5, 14, 16])
    w = rng.choice([1, 6, 8])
    return rx.RTable(a, [rng.getrandbits(w + 2) for _ in range(n)], w)


def _lowered(expr, regs, slots, ready=None):
    """``expr.to_python`` evaluated on the generated backend's names."""
    namespace = {"_r": regs, "_sl": slots, "_rd": ready or {}}
    return eval(expr.to_python(_BareCtx()), namespace)


class TestExprLowering:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("width", [1, 5, 16])
    def test_to_python_matches_eval_on_random_trees(self, seed, width):
        rng = random.Random(seed)
        regs = {"a": rng.getrandbits(width), "b": rng.getrandbits(width)}
        slots = {0: rng.getrandbits(width), 1: rng.getrandbits(width)}
        env = rx.REnv(regs, slots)
        namespace = {"_r": regs, "_sl": slots}
        for _ in range(40):
            expr = _random_expr(rng, 4, width)
            rendered = expr.to_python(_BareCtx())
            assert eval(rendered, dict(namespace)) == expr.eval(env), \
                rendered

    @pytest.mark.parametrize("seed", range(8))
    def test_to_python_matches_eval_on_mixed_width_trees(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            regs = {name: rng.getrandbits(w) | (
                _FAULT_BIT if rng.random() < 0.3 else 0)
                for name, w in _REG_WIDTHS.items()}
            slots = {slot: rng.getrandbits(w) | (
                _FAULT_BIT if rng.random() < 0.3 else 0)
                for slot, w in _SLOT_WIDTHS.items()}
            ready = {key: rng.randrange(2) for key in _READY}
            env = rx.REnv(regs, slots, lambda ep, msg: ready[(ep, msg)])
            expr = _mixed_expr(rng, 4)
            assert _lowered(expr, regs, slots, ready) == expr.eval(env), \
                expr.to_python(_BareCtx())

    @pytest.mark.parametrize("n", [5, 14, 16])
    @pytest.mark.parametrize("index_width", [2, 3, 4, 5, 8])
    def test_tables_read_zero_past_the_last_entry(self, n, index_width):
        entries = [3 * i + 1 for i in range(n)]
        table = rx.RTable(rx.RReg("i", index_width), entries, 8)
        for i in range(1 << index_width):
            for value in (i, i | _FAULT_BIT):
                env = rx.REnv({"i": value}, {})
                assert _lowered(table, {"i": value}, {}) \
                    == table.eval(env)

    def test_an_out_of_width_register_still_reads_masked(self):
        # the add's result fits its 9 bits, so the add drops its own
        # mask; the register read must still drop the faulted bit 40
        expr = rx.RBin("add", rx.RReg("a", 8), rx.RLit(1, 1), 9)
        regs = {"a": 0xFF | _FAULT_BIT}
        assert _lowered(expr, regs, {}) == 0x100
        assert expr.eval(rx.REnv(regs, {})) == 0x100
        assert _lowered(rx.RSlot(0, 4), {}, {0: 0x9 | _FAULT_BIT}) == 0x9


# ---------------------------------------------------------------------------
# plan extraction
# ---------------------------------------------------------------------------
def _echo_process():
    ch = ChannelDef("echo_ch", [
        MessageDef("req", Side.RIGHT, Logic(8), LifetimeSpec.static(1)),
        MessageDef("res", Side.LEFT, Logic(8), LifetimeSpec.static(1)),
        MessageDef("unused", Side.LEFT, Logic(4), LifetimeSpec.static(1)),
    ])
    p = Process("echo")
    p.endpoint("host", ch, Side.RIGHT)
    p.register("acc", Logic(8))
    p.loop(
        let("x", recv("host", "req"),
            var("x") >> set_reg("acc", var("x") + read("acc"))
            >> send("host", "res", read("acc")))
    )
    return p


class TestPlanExtraction:
    def test_unused_messages_absent_from_port_table(self):
        plan = build_process_plan(_echo_process())
        keys = {pp.key for pp in plan.ports}
        assert ("host", "req") in keys
        assert ("host", "res") in keys
        assert ("host", "unused") not in keys

    def test_sensitivity_roles_match_direction(self):
        plan = build_process_plan(_echo_process())
        by_key = {pp.key: pp for pp in plan.ports}
        recv_port = by_key[("host", "req")]
        send_port = by_key[("host", "res")]
        assert not recv_port.is_sender and send_port.is_sender
        assert port_reads(recv_port) == ("valid", "data")
        assert port_writes(recv_port) == ("ack",)
        assert port_reads(send_port) == ("ack",)
        assert port_writes(send_port) == ("valid", "data")

    def test_module_comb_sets_cover_only_used_messages(self):
        sys_ = System()
        inst = sys_.add(_echo_process())
        sys_.expose(inst, "host")
        ss = build_simulation(sys_)
        mod = ss.module("echo")
        names = {w.name for w in mod.comb_inputs()} | {
            w.name for w in mod.comb_outputs()
        }
        assert names == {
            "ch0.req.valid", "ch0.req.data", "ch0.req.ack",
            "ch0.res.valid", "ch0.res.data", "ch0.res.ack",
        }


# ---------------------------------------------------------------------------
# a settle pass latches into its own copy of the slots
# ---------------------------------------------------------------------------
def _relay_process():
    """Sends each received value on in the cycle it arrives, then its
    successor one cycle later."""
    inp = ChannelDef("inp_ch", [
        MessageDef("m", Side.RIGHT, Logic(8), LifetimeSpec.static(2))])
    p = Process("relay")
    p.endpoint("inp", inp, Side.RIGHT)
    p.endpoint("out", _out_channel(), Side.LEFT)
    p.loop(let("x", recv("inp", "m"),
               var("x") >> send("out", "m", var("x")) >> cycle(1)
               >> send("out", "m", var("x") + 1)))
    return p


class TestSettlePassSlots:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_pass_that_settles_away_latches_nothing(self, backend):
        # the receive fires in the cycle's first settle pass and loses
        # its valid before the second: the pass the clock edge takes
        # latched nothing, so the activation must end the cycle as it
        # began it
        system = System()
        system.expose(system.add(_echo_process()), "host")
        ss = build_simulation(system, backend=backend)
        ss.sim.run(3)       # nothing offered: the loop waits on its receive
        module = ss.module("echo")
        (act,) = module._threads_rt[0]
        before = (list(act.st), list(act.slots))
        req = module.ports["host"]["req"]
        req.valid.value, req.data.value = 1, 42
        module.eval_comb()
        assert 42 in act.cache[2] and act.cache[1] != before[0]
        req.valid.value = 0
        module.eval_comb()
        module.tick()
        assert module._threads_rt[0] == [act]
        assert (act.st, act.slots) == before

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_latched_value_is_read_in_its_latching_cycle(self, backend):
        traces = port_traces(_relay_process(), backend)
        assert len(traces["inp"]) == 7
        assert traces["out"] == [(c + d, v + d) for c, v in traces["inp"]
                                 for d in (0, 1)]


# ---------------------------------------------------------------------------
# backend equivalence on the six design families
# ---------------------------------------------------------------------------
def _state_of(sim):
    anvil = [m for m in sim.modules
             if hasattr(m, "plan") and hasattr(m, "regs")]
    return (
        sim.activity,
        sim.waveform.samples,
        [(m.name, dict(m.regs), list(m.debug_log)) for m in anvil],
    )


class TestBackendEquivalence:
    @pytest.mark.parametrize("name", sorted(ANVIL_SCENARIOS))
    @pytest.mark.parametrize("seed", [0, 11])
    def test_randomized_anvil_scenarios_bit_identical(self, name, seed):
        cycles = 120 if name == "anvil_aes" else 300
        states = {}
        for backend in BACKENDS:
            sim = _build(name, seed=seed, stim=400, backend=backend)
            sim.run(cycles)
            states[backend] = _state_of(sim)
        assert states["interp"] == states["pycompiled"]

    @pytest.mark.parametrize("name", ["streams", "pipeline"])
    def test_mixed_scenarios_bit_identical(self, name):
        """Baseline RTL + compiled twins in one simulator: waveforms and
        activity must not depend on the backend."""
        states = {}
        for backend in BACKENDS:
            sim = _build(name, seed=5, stim=300, backend=backend)
            sim.run(250)
            states[backend] = _state_of(sim)
        assert states["interp"] == states["pycompiled"]

    def test_anvil_sweep_identical_across_engine_backend_matrix(self):
        """All four engine x backend combinations agree on the sweep."""
        states = {}
        for engine in ("brute", "levelized"):
            for backend in BACKENDS:
                sim = _build("anvil_sweep", engine=engine, seed=2,
                             stim=150, backend=backend)
                sim.run(60)
                states[(engine, backend)] = _state_of(sim)
        baseline = states[("levelized", "interp")]
        for key, state in states.items():
            assert state == baseline, key

    def test_contract_violations_identical_across_backends(self):
        """Driving a channel from the wrong side raises the same
        ContractViolationError no matter the backend."""
        messages = {}
        for backend in BACKENDS:
            sys_ = System()
            inst = sys_.add(_echo_process())
            ch = sys_.expose(inst, "host")
            ss = build_simulation(sys_, backend=backend)
            ext = ss.external(ch)
            with pytest.raises(ContractViolationError) as exc:
                ext.send("res", 1)      # the process sends res, not us
            messages[backend] = str(exc.value)
            with pytest.raises(ContractViolationError):
                ext.always_receive("req")
        assert messages["interp"] == messages["pycompiled"]

    def test_debug_prints_identical(self, capsys):
        from repro.lang.terms import dprint

        logs = {}
        for backend in BACKENDS:
            ch = ChannelDef("c", [MessageDef("m", Side.RIGHT, Logic(8),
                                             LifetimeSpec.static(1))])
            p = Process("printer")
            p.endpoint("src", ch, Side.RIGHT)
            p.loop(
                let("x", recv("src", "m"),
                    var("x") >> dprint("got", var("x")))
            )
            sys_ = System()
            inst = sys_.add(p)
            c = sys_.expose(inst, "src")
            ss = build_simulation(sys_, backend=backend)
            ext = ss.external(c)
            for v in (3, 5, 250):
                ext.send("m", v)
            ss.sim.run(12)
            logs[backend] = ss.module("printer").debug_log
        assert logs["interp"] == logs["pycompiled"]
        assert [v for _c, _f, v in logs["interp"]] == [3, 5, 250]


class TestExternalSend:
    def test_one_send_of_many_values_queues_what_single_sends_queue(self):
        ends = []
        for batched in (False, True):
            sys_ = System()
            ch = sys_.expose(sys_.add(_echo_process()), "host")
            ext = build_simulation(sys_).external(ch)
            if batched:
                ext.send("req", 3, 1, 4)
                ext.send("req", 1, 5)
            else:
                for v in (3, 1, 4, 1, 5):
                    ext.send("req", v)
            ends.append(ext)
        assert ends[0]._send_queues == ends[1]._send_queues \
            == {"req": [3, 1, 4, 1, 5]}

    def test_an_empty_send_queues_nothing(self):
        sys_ = System()
        ch = sys_.expose(sys_.add(_echo_process()), "host")
        ext = build_simulation(sys_).external(ch)
        ext.send("req")
        assert ext._send_queues == {}
        ext.send("req", 7)
        ext.send("req")
        assert ext._send_queues == {"req": [7]}
        with pytest.raises(ContractViolationError):
            ext.send("res")     # the process sends res, not us


# ---------------------------------------------------------------------------
# a stale settle cache: the generated clock edge re-fires with the
# reference interpreter
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name,module", [
    ("anvil_memory", "anvil_cached_memory"),
    ("anvil_pipeline", "anvil_alu"),
])
def test_a_stale_cache_refires_like_the_reference(name, module,
                                                  monkeypatch):
    # a flip of the module's cycle between settle and tick leaves every
    # activation's cached settle pass a cycle behind; the generated tick
    # must re-fire those activations exactly as the interpreter's does
    sims = {
        "interp": _build(name, engine="levelized", backend="interp",
                         stim=400),
        "pycompiled": _build(name, engine="kernel", backend="pycompiled",
                             stim=400),
    }
    compiled = set(map(id, sims["pycompiled"].modules))
    refires = []
    reference_fire = AnvilProcessModule._interp_fire

    def counted(self, tp, act, busy):
        if id(self) in compiled:
            refires.append(self.cycle)
        return reference_fire(self, tp, act, busy)

    monkeypatch.setattr(AnvilProcessModule, "_interp_fire", counted)
    fault = Fault("transient_bitflip", module, "cycle", 40, bit=0)
    injectors = [FaultInjector(fault).arm(sim) for sim in sims.values()]
    for cyc in range(1, 121):
        for sim in sims.values():
            sim.run(1)
        assert state_sig(sims["pycompiled"]) == state_sig(sims["interp"]), \
            cyc
    assert [i.fired for i in injectors] == [1, 1]
    assert refires and set(refires) == {41}


# ---------------------------------------------------------------------------
# gate blocks: each fire pass tests an event's gates before the event
# ---------------------------------------------------------------------------
def _out_channel():
    return ChannelDef("out_ch", [
        MessageDef("m", Side.RIGHT, Logic(8), LifetimeSpec.static(1))])


def _deep_chain(stages=60):
    """A loop of ``stages`` ``cycle(1) >> send >> set_reg`` stages: every
    event but the root is a gate, so gates nest ``3 * stages - 1``
    deep."""
    p = Process("deep_chain")
    p.endpoint("out", _out_channel(), Side.LEFT)
    p.register("cnt", Logic(8))
    body = None
    for _ in range(stages):
        stage = (cycle(1) >> send("out", "m", read("cnt"))
                 >> set_reg("cnt", read("cnt") + 1))
        body = stage if body is None else body >> stage
    p.loop(body)
    return p


def _dominators(tp):
    """Per event, its proper dominators by definition: the earlier
    events whose removal cuts it off from the root."""
    doms = [set() for _ in tp.events]
    for d in range(tp.n_events):
        reached = set()
        for ep in tp.events:
            if ep.eid != d and (ep.kind is EventKind.ROOT or any(
                    p in reached for p in ep.preds)):
                reached.add(ep.eid)
        for e in range(d + 1, tp.n_events):
            if e not in reached:
                doms[e].add(d)
    return doms


def _can_wait_or_die(ep):
    return (ep.kind is EventKind.BRANCH
            or (ep.kind is EventKind.DELAY and ep.delay > 0)
            or (ep.kind is EventKind.SYNC and not ep.conditional))


def _activations(ss, name):
    return [(a.start, list(a.st), list(a.slots))
            for acts in ss.module(name)._threads_rt for a in acts]


class TestGateBlocks:
    @pytest.mark.parametrize("factory", tool_module("frontend_digest").FACTORIES,
                             ids=lambda f: f.__name__)
    def test_gates_are_the_dominators_that_can_wait_or_die(self, factory):
        for tp in build_process_plan(factory()).threads:
            assert pysim.gate_chains(tp) == [
                tuple(d for d in sorted(doms)
                      if _can_wait_or_die(tp.events[d]))
                for doms in _dominators(tp)]

    def test_nesting_is_capped(self):
        tp = build_process_plan(_deep_chain()).threads[0]
        chains = pysim.gate_chains(tp)
        assert tp.n_events == 181
        assert max(map(len, chains)) == pysim.MAX_GATE_DEPTH
        # past the cap the deepest events keep the outermost gates
        assert chains[-1] == chains[pysim.MAX_GATE_DEPTH + 1]

    def test_a_chain_deeper_than_the_cap_runs_as_interpreted(self):
        # uncapped, its gates would nest past Python's 100-level
        # indentation limit and the generated source would not compile
        traces = {backend: port_traces(_deep_chain(), backend, cycles=400)
                  for backend in BACKENDS}
        assert len(traces["interp"]["out"]) == 200
        assert traces["pycompiled"] == traces["interp"]

    def test_a_dead_gate_kills_its_block_in_the_same_pass(self):
        # one arm of the branch dies in every iteration, and with it the
        # delay and the send under it, in one slice store: every
        # activation's event states must be the interpreter's at every
        # cycle
        p = Process("gated")
        p.endpoint("out", _out_channel(), Side.LEFT)
        p.register("cnt", Logic(8))
        p.loop(if_(read("cnt").bit(0),
                   cycle(2) >> send("out", "m", read("cnt")),
                   cycle(1) >> send("out", "m", read("cnt") + 100))
               >> set_reg("cnt", read("cnt") + 1))
        assert re.search(r"\n +cur\[\d+:\d+\] = _K\d+\n",
                         pysim.generate_source(build_process_plan(p)))
        sims, ends = {}, {}
        for backend in BACKENDS:
            system = System()
            inst = system.add(p)
            ch = system.expose(inst, "out")
            sims[backend] = build_simulation(system, backend=backend)
            ends[backend] = sims[backend].external(ch)
            ends[backend].always_receive("m")
        for cyc in range(40):
            for ss in sims.values():
                ss.sim.run(1)
            assert _activations(sims["pycompiled"], "gated") \
                == _activations(sims["interp"], "gated"), cyc
        assert {value >= 100 for _c, value in ends["interp"].received["m"]} \
            == {False, True}


    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_dead_branch_stays_dead_when_its_condition_flips(
            self, backend):
        # a branch tests its latched condition slot; flipping the slot
        # after the branch died must not revive it: a settle pass never
        # visits a fired or dead event again
        p = Process("flip")
        p.endpoint("out", _out_channel(), Side.LEFT)
        p.register("cnt", Logic(8))
        p.loop(if_(read("cnt").bit(0),
                   cycle(3) >> send("out", "m", read("cnt")),
                   cycle(3) >> send("out", "m", read("cnt") + 100))
               >> set_reg("cnt", read("cnt") + 1))
        system = System()
        inst = system.add(p)
        system.expose(inst, "out")
        ss = build_simulation(system, backend=backend)
        module = ss.module("flip")
        tp = module.plan.threads[0]
        branches = [ep for ep in tp.events if ep.kind is EventKind.BRANCH]
        ss.sim.run(2)
        (act,) = module._threads_rt[0]
        (dead,) = [ep for ep in branches if act.st[ep.eid] == -1]
        act.slots[dead.cond_expr.slot] ^= 1
        module.eval_comb()
        assert act.cache[1][dead.eid] == -1


def _stalled_recursion():
    p = Process("stall")
    p.endpoint("out", _out_channel(), Side.LEFT)
    p.register("cnt", Logic(8))
    p.recursive(cycle(1) >> recurse() >> send("out", "m", read("cnt")))
    return p


class TestDedup:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stalled_iterations_merge_whatever_cycle_they_fired_at(
            self, backend):
        # nothing receives, so every iteration stalls on its send; those
        # whose delay has fired hold one FSM state although they fired
        # at different cycles, and only the oldest is kept
        system = System()
        system.expose(system.add(_stalled_recursion()), "out")
        ss = build_simulation(system, backend=backend)
        acts = ss.module("stall")._threads_rt
        for cyc in range(200):
            ss.sim.run(1)
            assert len(acts[0]) <= 2, cyc
        assert [a.start for a in acts[0]] == [0, 199]


# ---------------------------------------------------------------------------
# runaway threads: the errors name the cycle, the thread and the limit
# ---------------------------------------------------------------------------
def _run_until_error(process, backend, cycles=200):
    system = System()
    inst = system.add(process)
    for name in process.endpoints:
        system.expose(inst, name)
    ss = build_simulation(system, backend=backend)
    with pytest.raises(SimulationError) as exc:
        ss.sim.run(cycles)
    return ss.sim.cycle, str(exc.value)


class TestRunawayThreads:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_zero_delay_loop(self, backend):
        p = Process("spin")
        p.loop(unit())
        cyc, message = _run_until_error(p, backend)
        assert cyc == 0
        assert message == (
            "spin: cycle 0: thread 0 (loop0): zero-delay loop detected "
            "(more than 16 activations spawned in one cycle, anchored "
            "at e0)")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_too_many_concurrent_activations(self, backend):
        p = Process("pileup")
        p.endpoint("out", _out_channel(), Side.LEFT)
        p.register("cnt", Logic(8))
        p.recursive(cycle(1) >> recurse() >> cycle(100)
                    >> send("out", "m", read("cnt")))
        cyc, message = _run_until_error(p, backend)
        assert cyc == 64
        assert message == (
            "pileup: cycle 64: thread 0 (rec0): too many concurrent "
            "activations (limit 64)")


# ---------------------------------------------------------------------------
# compile cache
# ---------------------------------------------------------------------------
class TestCompileCache:
    def test_identical_processes_share_one_compilation(self):
        pysim.clear_cache()
        from repro.anvil_designs.streams import spill_register

        for _ in range(3):
            # a fresh Process object and a fresh plan each time (the
            # plan cache would hand back the first plan, whose backend
            # memo skips this cache) -- the cache must key on the
            # generated source, not object identity
            fsmplan.clear_cache()
            pysim.backend_for(compile_process(spill_register()))
        stats = pysim.cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 2
        assert stats["entries"] == 1

    def test_optimize_flag_changes_the_key(self):
        pysim.clear_cache()
        from repro.anvil_designs.streams import spill_register

        pysim.backend_for(compile_process(spill_register(), True))
        pysim.backend_for(compile_process(spill_register(), False))
        assert pysim.cache_stats()["entries"] == 2

    def test_generated_source_is_deterministic(self):
        from repro.anvil_designs.memory import cached_memory_process

        a = pysim.generate_source(
            build_process_plan(cached_memory_process()))
        b = pysim.generate_source(
            build_process_plan(cached_memory_process()))
        assert a == b

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_run_batch_backend_wiring(self, executor):
        # each job's config picks its FSM backend, in one mixed batch
        specs = [JobSpec(kind="run_scenario", name=f"memory/{backend}",
                         scenario="anvil_memory", config=SimConfig(
                             backend=backend, stim=200, cycles=100))
                 for backend in BACKENDS]
        out = run_batch(specs, executor, workers=2)
        assert out["memory/interp"].activity \
            == out["memory/pycompiled"].activity
        assert out["memory/interp"].total_activity > 0
        assert out["memory/interp"].waveform.samples \
            == out["memory/pycompiled"].waveform.samples
