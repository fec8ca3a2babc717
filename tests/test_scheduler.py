"""The levelized, dirty-set scheduler: loop diagnostics, equivalence
against the brute-force reference engine, incremental activity
accounting, cache invalidation and the batch runner."""

import pytest

from repro import (
    Module,
    SimConfig,
    SimulationError,
    Simulator,
    get_registry,
    run_batch,
)
from repro.rtl.executors import EXECUTORS, JobSpec
from repro.rtl.testing import PortSink, PortSource, make_port


def _build(name, **config):
    """Registry-backed scenario elaboration (the canonical code path)."""
    return get_registry().build(name, SimConfig(**config))


def _job(name, scenario, cycles=40, **config):
    """A ``run_scenario`` job over the same registry path as _build."""
    config.setdefault("stim", 100)
    return JobSpec(kind="run_scenario", name=name, scenario=scenario,
                   config=SimConfig(cycles=cycles, **config))


class Inverter(Module):
    """out = ~src combinationally; cross-couple two for a true loop."""

    def __init__(self, name, width=1):
        super().__init__(name)
        self.out = self.wire("out", width)
        self.src = None

    def connect(self, src_wire):
        self.src = src_wire
        self.adopt(src_wire)

    def eval_comb(self):
        if self.src is not None:
            self.out.set(~self.src.value)


class Follower(Module):
    """out = src combinationally (a stable feed-forward block)."""

    def __init__(self, name, src_wire, width=1):
        super().__init__(name)
        self.out = self.wire("out", width)
        self.src = self.adopt(src_wire)

    def eval_comb(self):
        self.out.set(self.src.value)


class TestCombinationalLoops:
    def test_inverter_ring_raises_with_wire_names(self):
        # an odd inverter ring is a true combinational loop: it
        # oscillates instead of settling
        sim = Simulator("looped")
        a, b, c = Inverter("a"), Inverter("b"), Inverter("c")
        a.connect(c.out)
        b.connect(a.out)
        c.connect(b.out)
        for m in (a, b, c):
            sim.add(m)
        with pytest.raises(SimulationError) as exc:
            sim.run(1)
        msg = str(exc.value)
        # the diagnostic names the unstable wires and the cycle's modules
        assert "a.out" in msg and "b.out" in msg and "c.out" in msg
        assert "combinational loop" in msg

    def test_brute_engine_also_rejects_the_loop(self):
        sim = Simulator("looped", engine="brute")
        a, b, c = Inverter("a"), Inverter("b"), Inverter("c")
        a.connect(c.out)
        b.connect(a.out)
        c.connect(b.out)
        for m in (a, b, c):
            sim.add(m)
        with pytest.raises(SimulationError):
            sim.run(1)

    def test_feed_forward_chain_settles_in_one_pass(self):
        sim = Simulator("chain")
        root = Inverter("root")       # free-running: out = ~out? no src
        stages = []
        prev = root.out
        sim.add(root)
        for i in range(5):
            f = Follower(f"f{i}", prev)
            sim.add(f)
            prev = f.out
        assert sim.settle() == 1
        assert prev.value == root.out.value


class TestEquivalenceWithBruteForce:
    """The levelized engine must be observationally identical to the
    seed's brute-force settle loop on the bundled designs."""

    @pytest.mark.parametrize("name", ["aes", "axi", "mmu"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_randomized_waveform_and_activity_equivalence(self, name,
                                                          seed):
        cycles = 400
        sims = {}
        for engine in ("brute", "levelized"):
            sim = _build(name, engine=engine, seed=seed, stim=500)
            sim.run(cycles)
            sims[engine] = sim
        brute, lev = sims["brute"], sims["levelized"]
        assert brute.waveform.samples == lev.waveform.samples
        assert brute.activity == lev.activity
        assert brute.total_activity() == lev.total_activity()

    @pytest.mark.parametrize("name", ["streams", "memory", "pipeline"])
    def test_remaining_families_equivalent(self, name):
        sims = {
            engine: _build(name, engine=engine, seed=2, stim=400)
            for engine in ("brute", "levelized")
        }
        for sim in sims.values():
            sim.run(300)
        assert (sims["brute"].waveform.samples
                == sims["levelized"].waveform.samples)
        assert sims["brute"].activity == sims["levelized"].activity

    def test_external_wire_pokes_seen_by_both_engines(self):
        """Test benches may write wires directly between steps; both
        engines must absorb and count those writes identically."""
        from repro.designs.memory import RawMemory

        results = {}
        for engine in ("brute", "levelized"):
            sim = Simulator(engine=engine)
            mem = sim.add(RawMemory("mem", latency=2))
            mem.inp.set(7)
            mem.req.set(1)
            sim.step()
            sim.step()
            mem.req.set(0)
            sim.settle()
            sim.step()
            results[engine] = (mem.out.value, sim.activity)
        assert results["brute"] == results["levelized"]
        assert results["levelized"][0] == 7


class TestActivityKeying:
    def test_same_named_wires_in_different_modules_stay_separate(self):
        """The seed keyed toggle counts by bare wire name, silently
        merging same-named wires across modules and skewing the
        dynamic-power estimate."""

        class Toggler(Module):
            def __init__(self, name, period):
                super().__init__(name)
                self.w = self.wire("w", 1)
                self.period = period
                self.n = 0

            def eval_comb(self):
                self.w.set(1 if (self.n // self.period) % 2 else 0)

            def tick(self):
                self.n += 1

        sim = Simulator()
        fast = sim.add(Toggler("fast", 1))
        slow = sim.add(Toggler("slow", 4))
        sim.run(32)
        act = sim.activity
        assert act[("fast", "fast.w")] > act[("slow", "slow.w")] > 0
        assert sim.total_activity() == sum(act.values())

    def test_port_wires_attributed_once(self):
        """A port wire adopted by two modules is owned by the first
        adder and counted exactly once."""
        sim = Simulator()
        port = make_port("p", 8)
        src = PortSource("src", port)
        sink = PortSink("sink", port)
        src.push(*range(16))
        sim.add(src)
        sim.add(sink)
        sim.run(20)
        data_keys = [k for k in sim.activity if k[1] == "p.data"]
        assert data_keys == [("src", "p.data")]


class TestCacheInvalidation:
    def test_module_added_mid_run_participates(self):
        sim = Simulator()
        port = make_port("p", 8)
        src = PortSource("src", port)
        src.push(*range(50))
        sim.add(src)
        sim.run(3)            # levelization built without the sink
        sink = PortSink("sink", port)
        sim.add(sink)         # invalidates the cached levelization
        sim.run(10)
        assert sink.values() == list(range(10))

    def test_levels_reflect_dataflow_order(self):
        sim = Simulator()
        port = make_port("p", 8)
        src = PortSource("src", port)
        sink = PortSink("sink", port)
        sim.add(sink)         # added in reverse order on purpose
        sim.add(src)
        sim.settle()
        levels = sim.scheduler.levels()
        flat = [m for group in levels for m in group]
        assert set(flat) == {"src", "sink"}
        # no dependency between them (sink reads no wires), any order is
        # valid -- but each must be its own singleton group
        assert all(len(g) == 1 for g in levels)

    def test_eval_counts_are_minimal_on_feed_forward_designs(self):
        sim = _build("mmu", engine="levelized", seed=0, stim=200)
        sim.run(100)
        sch = sim.scheduler
        # every module exactly once per cycle: the levelized floor
        assert sch.eval_count == len(sim.modules) * sch.settle_count


class TestRunBatch:
    def test_run_batch_preserves_order_and_results(self):
        specs = [_job(f"j{i}", "streams", seed=i) for i in range(8)]
        out = run_batch(specs, "process", workers=2)
        assert list(out) == [f"j{i}" for i in range(8)]
        solo = _build("streams", seed=5, stim=100)
        solo.run(40)
        assert out["j5"].activity == solo.activity
        assert out["j5"].waveform.samples == solo.waveform.samples

    def test_run_batch_serial_fallback(self):
        # with no executor named the batch runs serially in this
        # process, so the live simulators come back with the results
        out = run_batch([_job("a", "streams"), _job("b", "memory")])
        assert list(out) == ["a", "b"]
        assert [r.sim.cycle for r in out.values()] == [40, 40]

    def test_run_batch_propagates_errors(self):
        specs = [_job("ok", "streams"),
                 JobSpec(kind="no_such_kind", name="boom")]
        for executor in EXECUTORS:
            with pytest.raises(ValueError, match="unknown job kind"):
                run_batch(specs, executor, workers=2)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_run_batch_sweep_matches_solo_runs(self, executor):
        names = ("streams", "pipeline")
        out = run_batch([_job(n, n, cycles=150, seed=1, stim=300)
                         for n in names], executor, workers=2)
        for name in names:
            solo = _build(name, seed=1, stim=300)
            solo.run(150)
            assert out[name].diagnostics["final_cycle"] == 150
            assert out[name].total_activity > 0
            assert out[name].activity == solo.activity, name
