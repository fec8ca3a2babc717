"""Backend equivalence: the generated-Python FSM backend must be
observationally identical to the plan interpreter -- bit-identical
waveforms and activity counts, identical debug logs and register files,
identical diagnostics -- plus the plan extraction, expression lowering
and compile-cache machinery underneath it."""

import random

import pytest

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
from repro.codegen.simfsm import compile_process
from repro.core.fsmplan import build_process_plan, port_reads, port_writes
from repro.errors import ContractViolationError
from repro.lang.channels import ChannelDef, LifetimeSpec, MessageDef
from repro.lang.terms import let, read, recv, send, set_reg, var
from repro.lang.types import Logic
from repro.rtl.executors import EXECUTORS, JobSpec

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

    def ready(self, endpoint, message):  # pragma: no cover - unused here
        raise AssertionError("no ports in this test")


class TestExprLowering:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("width", [1, 5, 16])
    def test_to_python_matches_eval_on_random_trees(self, seed, width):
        rng = random.Random(seed)
        regs = {"a": rng.getrandbits(width), "b": rng.getrandbits(width)}
        slots = {0: rng.getrandbits(width), 1: rng.getrandbits(width)}
        env = rx.REnv(regs, slots)
        namespace = {"_r": regs, "_sl": slots, "_ov": {}}
        for _ in range(40):
            expr = _random_expr(rng, 4, width)
            rendered = expr.to_python(_BareCtx())
            assert eval(rendered, dict(namespace)) == expr.eval(env), \
                rendered

    def test_overlay_shadows_committed_slots(self):
        expr = rx.RSlot(3, 8)
        rendered = expr.to_python(_BareCtx())
        assert eval(rendered, {"_sl": {3: 10}, "_ov": {3: 7}}) == 7
        assert eval(rendered, {"_sl": {3: 10}, "_ov": {}}) == 10


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


# ---------------------------------------------------------------------------
# compile cache
# ---------------------------------------------------------------------------
class TestCompileCache:
    def test_identical_processes_share_one_compilation(self):
        pysim.clear_cache()
        from repro.anvil_designs.streams import spill_register

        for _ in range(3):
            # a fresh Process object each time -- the cache must key on
            # the generated source, not object identity
            pysim.backend_for(compile_process(spill_register()).plan)
        stats = pysim.cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 2
        assert stats["entries"] == 1

    def test_optimize_flag_changes_the_key(self):
        pysim.clear_cache()
        from repro.anvil_designs.streams import spill_register

        pysim.backend_for(compile_process(spill_register(), True).plan)
        pysim.backend_for(compile_process(spill_register(), False).plan)
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
