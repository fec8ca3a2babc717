"""The compiled cycle-kernel engine (``engine="kernel"``): bit-identical
observables against the brute and levelized references across every
registry scenario, backend and executor; the in-kernel stop predicate
of ``run(n, stop=...)`` pinned to a ``step()``-by-step reference;
explicit coverage of the bail-out paths (monitors, mid-run ``add``,
unhinted simulators, catch-all wires) and of self-feeding blocks
(one-member SCCs); the compile cache; and the waveform
render/watch and order-sensitive topology fingerprint fixes."""

import pytest

from repro import (
    Module,
    Session,
    SimConfig,
    SimulationError,
    Simulator,
    get_registry,
)
from repro.rtl import kernel
from repro.rtl.executors import EXECUTORS
from repro.rtl.simulator import ENGINES
from repro.rtl.testing import PortSink, PortSource, make_port
from repro.rtl.waveform import Waveform

ALL_SCENARIOS = get_registry().names()


def _build(name, **config):
    return get_registry().build(name, SimConfig(**config))


def _state(sim):
    return (sim.cycle, sim.waveform.samples, sim.activity,
            sim.total_activity())


def _run_state(name, cycles=80, **config):
    sim = _build(name, **config)
    sim.run(cycles)
    return _state(sim)


# ---------------------------------------------------------------------------
# equivalence: every scenario, every engine, both backends, all executors
# ---------------------------------------------------------------------------
class TestEngineEquivalence:
    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_all_scenarios_pin_kernel_to_both_references(self, name):
        states = {
            engine: _run_state(name, seed=3, stim=160, engine=engine)
            for engine in ENGINES
        }
        assert states["kernel"] == states["levelized"] == states["brute"]

    @pytest.mark.parametrize("name", ["anvil_aes", "anvil_mmu",
                                      "anvil_streams", "anvil_sweep"])
    def test_pycompiled_backend_equivalent_under_kernel(self, name):
        ker = _run_state(name, seed=5, stim=200, engine="kernel",
                         backend="pycompiled")
        lev = _run_state(name, seed=5, stim=200, engine="levelized",
                         backend="pycompiled")
        interp = _run_state(name, seed=5, stim=200, engine="kernel",
                            backend="interp")
        assert ker == lev == interp

    def test_kernel_engages_on_the_bundled_scenarios(self):
        # the floor in tools/check_bench.py is only meaningful if the
        # fast path actually runs on these workloads
        sim = _build("sweep", seed=1, stim=120, engine="kernel")
        sim.run(30)
        assert sim._kernel is not None
        assert "_KERNEL" in sim._kernel.source

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_executors_bit_identical_under_kernel(self, executor):
        names = ["streams", "anvil_mmu"]
        reference = Session(SimConfig(
            seed=2, stim=120, engine="levelized", executor="serial",
        )).sweep(names, cycles=50)
        swept = Session(SimConfig(
            seed=2, stim=120, engine="kernel", executor=executor, jobs=2,
        )).sweep(names, cycles=50)
        for name in names:
            assert swept[name].activity == reference[name].activity
            assert (swept[name].waveform.samples
                    == reference[name].waveform.samples)

    def test_interleaved_kernel_and_interpreted_cycles(self):
        # run() batches through the kernel, step() stays interpreted;
        # mixing them must land on the same observables as either alone
        mixed = _build("memory", seed=4, stim=160, engine="kernel")
        mixed.run(20)
        for _ in range(7):
            mixed.step()
        mixed.run(23)
        assert _state(mixed) == _run_state("memory", cycles=50, seed=4,
                                           stim=160, engine="levelized")


# ---------------------------------------------------------------------------
# bail-out paths
# ---------------------------------------------------------------------------
class _Hinted(Module):
    """out = src + 1 combinationally, with exact hints."""

    def __init__(self, name, src_wire, width=8):
        super().__init__(name)
        self.out = self.wire("out", width)
        self.src = self.adopt(src_wire)

    def comb_inputs(self):
        return (self.src,)

    def comb_outputs(self):
        return (self.out,)

    def eval_comb(self):
        self.out.set(self.src.value + 1)

    def tick(self):
        pass


class _SelfFeeding(Module):
    """``out`` steps once per evaluation toward this cycle's entry of
    ``targets``; from ``oscillate_from`` on it toggles instead and never
    settles."""

    def __init__(self, name, targets=(0, 7, 3, 10, 6, 2, 9, 5, 1, 8, 4),
                 oscillate_from=None):
        super().__init__(name)
        self.out = self.wire("out", 4)
        self.targets = targets
        self.target = targets[0]
        self.count = 0
        self.oscillate_from = oscillate_from

    def comb_inputs(self):
        return (self.out,)

    def comb_outputs(self):
        return (self.out,)

    def eval_comb(self):
        v = self.out.value
        if self.oscillate_from is not None \
                and self.count >= self.oscillate_from:
            self.out.set(v ^ 1)
        elif v != self.target:
            self.out.set(v + 1 if v < self.target else v - 1)

    def tick(self):
        self.count += 1
        self.target = self.targets[self.count % len(self.targets)]


class TestBailouts:
    def test_monitors_fall_back_to_interpreted_cycles(self):
        seen = []
        sim = _build("mmu", seed=1, stim=120, engine="kernel")
        sim.on_cycle(seen.append)
        sim.run(40)
        # the monitor observed every cycle, so the kernel never engaged
        assert seen == list(range(40))
        assert sim._kernel is None
        reference = _build("mmu", seed=1, stim=120, engine="levelized")
        reference.run(40)
        assert _state(sim) == _state(reference)

    def test_mid_run_add_rebuilds_and_reengages(self):
        sims = {}
        for engine in ("levelized", "kernel"):
            sim = Simulator(engine=engine)
            port = make_port("p", 8)
            src = PortSource("src", port)
            src.push(*range(60))
            sim.add(src)
            sim.run(5)                       # topology built without the sink
            sink = PortSink("sink", port)
            sim.add(sink)                    # invalidates mid-run
            sim.run(20)
            sims[engine] = (sim, sink)
        ker, ker_sink = sims["kernel"]
        lev, lev_sink = sims["levelized"]
        assert ker_sink.values() == lev_sink.values() == list(range(20))
        assert ker.activity == lev.activity
        # after the rebuild the kernel re-engaged on the new topology
        assert ker._kernel is not None

    def test_run_until_takes_the_kernel_path(self):
        results = {}
        for engine in ("levelized", "kernel"):
            sim = _build("memory", seed=6, stim=120, engine=engine)
            elapsed = sim.run_until(lambda: sim.cycle >= 17, limit=100)
            results[engine] = (elapsed, _state(sim))
        assert results["kernel"] == results["levelized"]
        # the predicate ran inside the compiled loop, not per step()
        assert sim._kernel is not None
        with pytest.raises(SimulationError, match="exceeded 5 cycles"):
            sim.run_until(lambda: False, limit=5)

    def test_unhinted_modules_fall_back_silently(self):
        from repro.designs.memory import RawMemory

        results = {}
        for engine in ("brute", "levelized", "kernel"):
            sim = Simulator(engine=engine)
            mem = sim.add(RawMemory("mem", latency=2))
            mem.inp.set(7)
            mem.req.set(1)
            sim.run(3)
            results[engine] = (mem.out.value, sim.activity)
        assert results["kernel"] == results["levelized"] \
            == results["brute"]

    def test_external_pokes_between_runs_absorbed(self):
        # test benches poke wires between run() calls; the kernel must
        # see them exactly as the interpreted engines do.  A lone sink
        # leaves the port's valid and data as catch-all wires (no
        # module declares them), which only the interpreted settle
        # rescans, so the kernel engine runs interpreted cycles
        states = {}
        for engine in ("levelized", "kernel"):
            sim = Simulator(engine=engine)
            port = make_port("p", 8)
            sink = PortSink("sink", port)
            sim.add(sink)
            sim.run(4)
            assert not kernel.fast_path_ready(sim)
            assert "2 catch-all wire(s)" in kernel.build_plan(
                sim).unsupported
            port.data.set(0x5A)
            port.valid.set(1)
            sim.run(4)
            states[engine] = (_state(sim), sink.values())
        assert states["kernel"] == states["levelized"]
        assert states["kernel"][1] == [0x5A] * 4

    def test_a_block_feeding_itself_is_a_one_member_scc(self):
        # out climbs one step per evaluation toward a target that jumps
        # every cycle: a block that reads its own output and settles in
        # a data-dependent number of evaluations
        states = {}
        for engine in ENGINES:
            sim = Simulator("self", engine=engine)
            climber = sim.add(_SelfFeeding("climb"))
            sim.add(_Hinted("inc", climber.out))
            sim.watch(climber.out, "climb.out")
            sim.run(1)
            if engine == "kernel":
                assert kernel.fast_path_ready(sim)
                assert [step[0] for step in kernel.build_plan(
                    sim).steps] == ["scc", "single"]
            sim.run(59)
            states[engine] = (_state(sim), sim.scheduler.eval_count)
        assert states["kernel"] == states["levelized"]
        # brute keeps no eval count
        assert states["kernel"][0] == states["brute"][0]
        assert states["kernel"][1] > 60

    @pytest.mark.parametrize("jump, settles", [(3, True), (4, False)])
    def test_a_block_feeding_itself_gets_the_singleton_bound(
            self, jump, settles):
        # at max_settle_iters=4 a climb of 3 takes four evaluations,
        # the last one quiet, which the levelized engine's singleton
        # bound accepts; a climb of 4 exceeds it
        outcomes = {}
        for engine in ("levelized", "kernel"):
            sim = Simulator("bound", max_settle_iters=4, engine=engine)
            sim.add(_SelfFeeding("climb", targets=(0, jump)))
            try:
                sim.run(12)
                outcomes[engine] = (sim.cycle, _state(sim),
                                    sim.scheduler.eval_count)
            except SimulationError as exc:
                outcomes[engine] = (sim.cycle, str(exc))
        assert outcomes["kernel"] == outcomes["levelized"]
        assert (outcomes["kernel"][0] == 12) == settles

    def test_a_block_feeding_itself_that_oscillates_is_diagnosed(self):
        messages = {}
        for engine in ("levelized", "kernel"):
            sim = Simulator("self", engine=engine)
            sim.add(_SelfFeeding("climb", oscillate_from=10))
            with pytest.raises(SimulationError) as exc:
                sim.run(30)
            messages[engine] = (sim.cycle, str(exc.value))
        assert messages["kernel"] == messages["levelized"]
        assert messages["kernel"][0] == 10
        assert "combinational loop" in messages["kernel"][1]
        assert "climb.out" in messages["kernel"][1]

    def test_combinational_loop_diagnosed_inside_the_kernel(self):
        # two cross-coupled hinted inverters: a genuine SCC that
        # oscillates -- the compiled fixpoint loop must raise the same
        # diagnostic shape as the levelized engine
        class HintedInverter(Module):
            def __init__(self, name):
                super().__init__(name)
                self.out = self.wire("out", 1)
                self.src = None

            def connect(self, wire):
                self.src = self.adopt(wire)

            def comb_inputs(self):
                return (self.src,)

            def comb_outputs(self):
                return (self.out,)

            def eval_comb(self):
                self.out.set(~self.src.value)

            def tick(self):
                pass

        messages = {}
        for engine in ("levelized", "kernel"):
            sim = Simulator("ring", engine=engine)
            a, b, c = (HintedInverter(n) for n in "abc")
            a.connect(c.out)
            b.connect(a.out)
            c.connect(b.out)
            for m in (a, b, c):
                sim.add(m)
            with pytest.raises(SimulationError) as exc:
                sim.run(2)
            messages[engine] = str(exc.value)
        for msg in messages.values():
            assert "a.out" in msg and "b.out" in msg and "c.out" in msg
            assert "combinational loop" in msg

    def test_loop_error_mid_batch_names_the_failing_cycle(self):
        # a ring that only starts oscillating at cycle 5: the kernel's
        # diagnostic must name cycle 5 like the levelized engine, not
        # the cycle the batched run entered at
        class GatedInverter(Module):
            def __init__(self, name):
                super().__init__(name)
                self.out = self.wire("out", 1)
                self.src = None
                self.count = 0

            def connect(self, wire):
                self.src = self.adopt(wire)

            def comb_inputs(self):
                return (self.src,)

            def comb_outputs(self):
                return (self.out,)

            def eval_comb(self):
                if self.count >= 5:
                    self.out.set(~self.src.value)
                else:
                    self.out.set(0)

            def tick(self):
                self.count += 1

        messages = {}
        for engine in ("levelized", "kernel"):
            sim = Simulator("gated", engine=engine)
            a, b, c = (GatedInverter(n) for n in "abc")
            a.connect(c.out)
            b.connect(a.out)
            c.connect(b.out)
            for m in (a, b, c):
                sim.add(m)
            with pytest.raises(SimulationError) as exc:
                sim.run(20)
            messages[engine] = str(exc.value)
            assert sim.cycle == 5
        assert "at cycle 5" in messages["kernel"]
        assert "at cycle 5" in messages["levelized"]

    def test_kernel_reads_fresh_stimulus_after_interpreted_prefix(self):
        # first cycle is always interpreted (activity priming); make
        # sure the hand-off point is seamless for a hinted chain
        sims = {}
        for engine in ("levelized", "kernel"):
            sim = Simulator(engine=engine)
            port = make_port("q", 8)
            src = PortSource("src", port)
            src.push(*range(30))
            stage = _Hinted("inc", port.data)
            sink = PortSink("sink", port)
            sim.add(src)
            sim.add(stage)
            sim.add(sink)
            sim.watch(stage.out, "inc.out")
            sim.run(25)
            sims[engine] = sim
        assert _state(sims["kernel"]) == _state(sims["levelized"])


# ---------------------------------------------------------------------------
# run(n, stop=...): the stop predicate checked inside the one run loop
# ---------------------------------------------------------------------------
def _stepped(sim, stop, budget):
    """The semantic reference for ``run(budget, stop=stop)``: one
    ``step()`` at a time, the predicate checked at every boundary."""
    advanced = 0
    while advanced < budget and not stop():
        sim.step()
        advanced += 1
    return advanced


def _stop_matches_stepping(name, engine, **config):
    """``run(80, stop=...)`` on ``engine`` against the stepped ``brute``
    reference, with a data-dependent predicate: total toggles crossing
    the level a 40-cycle run reaches."""
    probe = _build(name, **config)
    probe.run(40)
    level = probe.total_activity()
    ref = _build(name, engine="brute", **config)
    ref_n = _stepped(ref, lambda: ref.total_activity() >= level, 80)
    sim = _build(name, engine=engine, **config)
    n = sim.run(80, stop=lambda: sim.total_activity() >= level)
    assert (n, _state(sim)) == (ref_n, _state(ref))
    assert 0 < n <= 40


class TestStopPredicate:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_all_scenarios_stop_where_stepping_stops(self, name, engine):
        _stop_matches_stepping(name, engine, seed=3, stim=160)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", get_registry().names("anvil"))
    def test_pycompiled_anvil_scenarios_stop_where_stepping_stops(
            self, name, engine):
        _stop_matches_stepping(name, engine, seed=3, stim=160,
                               backend="pycompiled")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_stop_true_on_entry_advances_zero_cycles(self, engine):
        sim = _build("streams", seed=1, stim=120, engine=engine)
        assert sim.run(30, stop=lambda: True) == 0
        sim.run(10)
        before = _state(sim)
        assert sim.run(30, stop=lambda: True) == 0
        assert _state(sim) == before

    @pytest.mark.parametrize("engine", ENGINES)
    def test_never_firing_stop_runs_the_full_budget(self, engine):
        sim = _build("memory", seed=4, stim=160, engine=engine)
        assert sim.run(20, stop=lambda: False) == 20
        for _ in range(7):
            sim.step()
        assert sim.run(23, stop=lambda: False) == 23
        assert _state(sim) == _run_state("memory", cycles=50, seed=4,
                                         stim=160, engine="levelized")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_predicate_sees_the_boundary_cycle(self, engine):
        sim = _build("pipeline", seed=2, stim=120, engine=engine)
        sim.run(5)
        seen = []
        assert sim.run(10, stop=lambda: seen.append(sim.cycle)) == 10
        # once before the first cycle, then after each completed one
        assert seen == list(range(5, 16))

    def test_monitor_attached_matches_stepping(self):
        seen = []
        sim = _build("mmu", seed=1, stim=120, engine="kernel")
        sim.on_cycle(seen.append)
        n = sim.run(40, stop=lambda: sim.cycle == 25)
        assert n == 25 and seen == list(range(25))
        assert sim._kernel is None          # the monitor kept it down
        ref = _build("mmu", seed=1, stim=120, engine="levelized")
        assert _stepped(ref, lambda: ref.cycle == 25, 40) == 25
        assert _state(sim) == _state(ref)

    def test_armed_inject_hook_matches_stepping(self):
        from repro.inject import Fault, FaultInjector

        fault = Fault(kind="stuck_at_1", module="y86_sum_cpu",
                      target="w_icode", cycle=30, bit=0, duration=4)
        outcomes = {}
        for engine in ENGINES:
            sim = _build("y86_sum", engine=engine)
            cpu = next(m for m in sim.modules if hasattr(m, "halted"))
            sim.run(30)
            injector = FaultInjector(fault).arm(sim)
            n = sim.run(400, stop=lambda: cpu.halted)
            injector.disarm()
            outcomes[engine] = (n, injector.fired, cpu.arch_state(),
                                _state(sim))
        assert outcomes["kernel"] == outcomes["levelized"] \
            == outcomes["brute"]
        assert outcomes["kernel"][1] == 4

    def test_fast_path_is_not_ready_while_an_inject_hook_is_armed(self):
        from repro.inject import Fault, FaultInjector

        sim = _build("streams", stim=200, engine="kernel",
                     backend="pycompiled")
        sim.run(5)
        assert kernel.fast_path_ready(sim)
        injector = FaultInjector(Fault(
            kind="transient_bitflip", module="st_src", target="st.a.data",
            cycle=50)).arm(sim)
        # the readiness check and the kernel entry agree: neither engages
        assert not kernel.fast_path_ready(sim)
        assert sim._kernel_advance(10) == (0, False)
        injector.disarm()
        assert kernel.fast_path_ready(sim)

    def test_fast_path_stays_ready_after_a_stopped_kernel_run(self):
        sim = _build("streams", seed=1, stim=200, engine="kernel")
        sim.run(5)
        entries = []
        enter = sim._kernel_advance
        sim._kernel_advance = lambda n, stop=None: (
            entries.append(n), enter(n, stop))[1]
        assert sim.run(100, stop=lambda: sim.cycle == 40) == 35
        # one kernel entry for the whole stopped run, still ready after
        assert entries == [100]
        assert kernel.fast_path_ready(sim)

    def test_fuzzer_reports_exact_halt_cycles(self):
        from repro.designs.y86 import Y86PipelineCpu, attach_anvil_y86
        from repro.isa.assembler import assemble
        from repro.isa.fuzz import differential_check, generate_program

        for seed in (3, 8):
            source = generate_program(seed)
            result = differential_check(
                source, seed=seed, anvil_backends=("interp", "pycompiled"))
            image = assemble(source).image
            ref = Simulator(engine="brute")
            cpu = ref.add(Y86PipelineCpu("cpu", image))
            halt = ref.run_until(lambda: cpu.halted, limit=20_000)
            for engine in ENGINES:
                assert result.cycles[f"rtl/{engine}"] == halt
            for backend in ("interp", "pycompiled"):
                sim = Simulator(engine="brute")
                core, _server, _host = attach_anvil_y86(
                    sim, image, backend=backend)
                assert result.cycles[f"anvil/{backend}"] == sim.run_until(
                    lambda: core.regs["halted"], limit=20_000)


# ---------------------------------------------------------------------------
# the compile cache
# ---------------------------------------------------------------------------
class TestKernelCache:
    def test_same_topology_compiles_once(self):
        kernel.clear_cache()
        for _ in range(3):
            sim = _build("mmu", seed=1, stim=120, engine="kernel")
            sim.run(10)
        stats = kernel.cache_stats()
        assert stats == {"hits": 2, "misses": 1, "entries": 1,
                         "evictions": 0}

    def test_distinct_topologies_get_distinct_kernels(self):
        kernel.clear_cache()
        a = _build("mmu", seed=1, stim=120, engine="kernel")
        b = _build("pipeline", seed=1, stim=120, engine="kernel")
        a.run(10)
        b.run(10)
        assert kernel.cache_stats()["entries"] == 2
        assert a._kernel.source != b._kernel.source

    def test_generated_source_is_deterministic(self):
        sims = [_build("streams", seed=s, stim=120, engine="kernel")
                for s in (0, 9)]
        for sim in sims:
            sim.run(10)
        # different stimulus, same topology shape: identical source
        assert sims[0]._kernel.source == sims[1]._kernel.source

    def test_watch_count_is_part_of_the_kernel_key(self):
        sim = _build("memory", seed=1, stim=160, engine="kernel")
        sim.run(10)
        first = sim._kernel
        extra = sim.modules[0]._wires[0]
        sim.watch(extra, "late.watch")
        sim.run(10)
        assert sim._kernel is not first
        # the late series was padded with zeros up to its watch point
        assert sim.waveform.series("late.watch")[:10] == [0] * 10
        assert len(sim.waveform.series("late.watch")) == 20


# ---------------------------------------------------------------------------
# satellite fixes riding along with this PR
# ---------------------------------------------------------------------------
class TestWaveformFixes:
    def test_render_before_any_sample_reports_no_samples(self):
        sim = Simulator()
        port = make_port("p", 4)
        sim.add(PortSink("sink", port))
        sim.watch(port.data, "data")
        assert sim.waveform.render() == "(no samples)"
        sim.run(2)
        assert "data" in sim.waveform.render()

    def test_render_without_watches_keeps_seed_message(self):
        assert Waveform().render() == "(no signals watched)"

    def test_duplicate_label_for_different_wires_raises(self):
        wf = Waveform()
        a, b = make_port("a", 4), make_port("b", 4)
        wf.watch(a.data, "sig")
        with pytest.raises(ValueError, match="already watching"):
            wf.watch(b.data, "sig")

    def test_same_wire_same_label_dedupes_to_one_series(self):
        sim = Simulator()
        port = make_port("p", 4)
        sim.add(PortSink("sink", port))
        sim.watch(port.data, "data")
        sim.watch(port.data, "data")      # idempotent, not double-sampled
        sim.run(5)
        assert len(sim.waveform.series("data")) == 5


class TestFingerprintOrder:
    def test_module_reorder_invalidates_the_topology(self):
        sim = Simulator()
        port = make_port("p", 8)
        sim.add(PortSource("src", port))
        sim.add(PortSink("sink", port))
        sim.settle()
        before = sim.scheduler._fingerprint()
        sim.modules.reverse()
        after = sim.scheduler._fingerprint()
        # the seed summed module ids, so any permutation collided
        assert before != after
        assert sim.scheduler._topo_key != after   # forces a rebuild
        sim.settle()
        assert sim.scheduler._topo_key == after


class TestConfigAndWarmup:
    def test_repro_engine_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "kernel")
        assert SimConfig().engine == "kernel"
        # an explicit value beats the environment
        assert SimConfig(engine="brute").engine == "brute"
        monkeypatch.setenv("REPRO_ENGINE", "warp-drive")
        with pytest.raises(ValueError, match="REPRO_ENGINE"):
            SimConfig()
