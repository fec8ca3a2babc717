"""The checkpoint layer: snapshot/restore bit-identity, the prefix
cache, snapshot transport (pickles and files), and the error surface.

The correctness bar for everything here is *bit-identity*: a simulator
restored at cycle k and run to N must be indistinguishable -- waveform
samples, per-wire activity, totals, cycle count -- from one that ran
0..N without stopping.  That property is what makes warm-prefix re-runs
(the :class:`~repro.rtl.snapshot.CheckpointStore` consulted by
``Session.run``/``sweep`` and the job queue) safe to apply silently.
"""

import glob
import json
import os
import pickle

import pytest

from repro import Session, SimConfig, get_registry
from repro.__main__ import main as cli_main
from repro.errors import SimulationError
from repro.rtl import snapshot as snap_mod
from repro.rtl.kernel import fast_path_ready
from repro.rtl.simulator import ENGINES, advance
from repro.rtl.snapshot import (
    Checkpointer,
    CheckpointStore,
    capture,
    load_checkpoint,
    matches,
    prefix_key,
    reset_checkpoint_store,
    restore,
    save_checkpoint,
)

ALL_SCENARIOS = get_registry().names()


@pytest.fixture(autouse=True)
def _fresh_store():
    """The process-wide store is shared state; isolate every test."""
    reset_checkpoint_store()
    yield
    reset_checkpoint_store()


def _build(name, **config):
    return get_registry().build(name, SimConfig(**config))


def _state(sim):
    return (sim.cycle, sim.waveform.samples, sim.activity,
            sim.total_activity())


# ---------------------------------------------------------------------------
# bit-identity: every scenario, every engine
# ---------------------------------------------------------------------------
class TestRestoreBitIdentity:
    CYCLES = 60
    SPLIT = 30

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_restored_run_matches_from_zero(self, name, engine):
        reference = _build(name, engine=engine, cycles=self.CYCLES,
                           stim=200)
        reference.run(self.CYCLES)

        prefix = _build(name, engine=engine, cycles=self.CYCLES, stim=200)
        prefix.run(self.SPLIT)
        snap = prefix.snapshot()

        resumed = _build(name, engine=engine, cycles=self.CYCLES, stim=200)
        resumed.restore(snap)
        assert resumed.cycle == self.SPLIT
        resumed.run(self.CYCLES - self.SPLIT)
        assert _state(resumed) == _state(reference)

    @pytest.mark.parametrize("backend", ["interp", "pycompiled"])
    @pytest.mark.parametrize("name", ["anvil_streams", "anvil_aes"])
    def test_restored_run_matches_across_backends(self, name, backend):
        reference = _build(name, backend=backend, cycles=self.CYCLES,
                           stim=200)
        reference.run(self.CYCLES)
        prefix = _build(name, backend=backend, cycles=self.CYCLES,
                        stim=200)
        prefix.run(self.SPLIT)
        resumed = _build(name, backend=backend, cycles=self.CYCLES,
                         stim=200)
        resumed.restore(prefix.snapshot())
        resumed.run(self.CYCLES - self.SPLIT)
        assert _state(resumed) == _state(reference)

    @pytest.mark.parametrize("source,target", [("kernel", "brute"),
                                               ("brute", "kernel"),
                                               ("levelized", "kernel")])
    def test_snapshots_are_engine_portable(self, source, target):
        reference = _build("streams", engine=target, cycles=self.CYCLES,
                           stim=200)
        reference.run(self.CYCLES)
        prefix = _build("streams", engine=source, cycles=self.CYCLES,
                        stim=200)
        prefix.run(self.SPLIT)
        resumed = _build("streams", engine=target, cycles=self.CYCLES,
                         stim=200)
        resumed.restore(prefix.snapshot())
        resumed.run(self.CYCLES - self.SPLIT)
        assert _state(resumed) == _state(reference)

    def test_in_place_restore_rewinds_a_live_simulator(self):
        sim = _build("memory", cycles=100, stim=200)
        sim.run(40)
        snap = sim.snapshot()
        sim.run(60)
        reference = _state(sim)
        restore(sim, snap)
        assert sim.cycle == 40
        sim.run(60)
        assert _state(sim) == reference

    def test_restore_leaves_the_kernel_fast_path_armed(self):
        sim = _build("streams", engine="kernel", cycles=100, stim=200)
        sim.run(50)
        resumed = _build("streams", engine="kernel", cycles=100, stim=200)
        resumed.restore(sim.snapshot())
        assert fast_path_ready(resumed)

    def test_restore_then_poke_diverges_only_after_the_fork(self):
        reference = _build("streams", cycles=120, stim=300)
        reference.run(120)
        prefix = _build("streams", cycles=120, stim=300)
        prefix.run(60)
        forked = _build("streams", cycles=120, stim=300)
        forked.restore(prefix.snapshot())
        source = next(m for m in forked.modules if m.name == "st_src")
        source.queue = [word ^ 0xFF for word in source.queue]
        forked.run(60)

        ref_samples = reference.waveform.samples
        fork_samples = forked.waveform.samples
        assert fork_samples != ref_samples
        for label in ref_samples:
            assert (fork_samples[label][:60] == ref_samples[label][:60]), (
                f"{label}: prefix diverged before the fork cycle"
            )


# ---------------------------------------------------------------------------
# matches: the state comparison that ends re-converged fault tails
# ---------------------------------------------------------------------------
class TestMatches:
    def _pair(self, engine="kernel"):
        sim = _build("y86_sum", engine=engine, backend="pycompiled")
        sim.run(40)
        snap = sim.snapshot()
        other = _build("y86_sum", engine=engine, backend="pycompiled")
        other.restore(snap)
        return other, snap

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_restored_simulator_matches_until_it_moves(self, engine):
        sim, snap = self._pair(engine)
        assert matches(sim, snap)
        sim.run(1)
        assert not matches(sim, snap)

    def test_observers_are_not_compared(self):
        sim, snap = self._pair()
        sch = sim.scheduler
        sch._toggles[0] += 3
        sch.eval_count += 5
        sch.settle_count += 1
        for _label, _wire, series in sim.waveform._watched:
            series.append(7)
        assert matches(sim, snap)

    def test_future_driving_state_is_compared(self):
        sim, snap = self._pair()
        wire = sim.scheduler._wires[0]
        wire.value ^= 1
        assert not matches(sim, snap)
        wire.value ^= 1
        cpu = next(m for m in sim.modules if m.name == "y86_sum_cpu")
        cpu.registers[3] += 1
        assert not matches(sim, snap)
        cpu.registers[3] -= 1
        assert matches(sim, snap)
        cpu.grown = 0            # plain data the snapshot does not hold
        assert not matches(sim, snap)

    def test_equal_values_of_another_type_do_not_match(self):
        sim, snap = self._pair()
        cpu = next(m for m in sim.modules if m.name == "y86_sum_cpu")
        cpu.instret = float(cpu.instret)
        assert not matches(sim, snap)

    def test_stops_a_kernel_run_on_current_wire_values(self):
        reference = _build("y86_sum", engine="kernel",
                           backend="pycompiled")
        reference.run(60)
        snap = reference.snapshot()
        sim = _build("y86_sum", engine="kernel", backend="pycompiled")
        sim.run(10)
        assert fast_path_ready(sim)
        assert sim.run(100, stop=lambda: matches(sim, snap)) == 50
        assert sim.cycle == 60


# ---------------------------------------------------------------------------
# snapshots travel: pickling and disk files
# ---------------------------------------------------------------------------
class TestSnapshotTransport:
    def test_snapshot_pickle_round_trip(self):
        sim = _build("anvil_mmu", cycles=80, stim=200)
        sim.run(40)
        snap = pickle.loads(pickle.dumps(sim.snapshot()))
        resumed = _build("anvil_mmu", cycles=80, stim=200)
        resumed.restore(snap)
        resumed.run(40)
        reference = _build("anvil_mmu", cycles=80, stim=200)
        reference.run(80)
        assert _state(resumed) == _state(reference)

    def test_save_and_load_checkpoint_files(self, tmp_path):
        sim = _build("streams", cycles=50, stim=200)
        sim.run(25)
        path = tmp_path / "nested" / "streams.ckpt"
        save_checkpoint(path, sim.snapshot())
        loaded = load_checkpoint(path)
        assert loaded.cycle == 25
        resumed = _build("streams", cycles=50, stim=200)
        resumed.restore(loaded)
        resumed.run(25)
        sim.run(25)
        assert _state(resumed) == _state(sim)

    def test_load_checkpoint_rejects_foreign_pickles(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(pickle.dumps({"not": "a snapshot"}))
        with pytest.raises(SimulationError, match="not a repro checkpoint"):
            load_checkpoint(path)


# ---------------------------------------------------------------------------
# the prefix cache: hit/miss accounting and LRU eviction
# ---------------------------------------------------------------------------
class TestCheckpointStore:
    def _snap_at(self, cycle):
        sim = _build("streams", cycles=cycle or 1, stim=200)
        if cycle:
            sim.run(cycle)
        return capture(sim)

    def test_misses_equal_unique_prefixes(self):
        store = CheckpointStore()
        cfg = SimConfig(cycles=50, stim=200)
        keys = [prefix_key(name, cfg, get_registry().build(name, cfg))
                for name in ("streams", "memory", "aes")]
        for key in keys:
            assert store.best(key, 1000) is None       # one miss each
        snap = self._snap_at(20)
        for key in keys:
            store.put(key, 20, snap)
            assert store.best(key, 1000) is not None   # hits from now on
        stats = store.stats()
        assert stats["misses"] == len(set(keys)) == 3
        assert stats["hits"] == 3
        assert stats["stores"] == 3

    def test_best_returns_deepest_at_or_below_the_limit(self):
        store = CheckpointStore()
        for cycle in (20, 40, 60):
            store.put("k", cycle, self._snap_at(cycle))
        cycle, snap = store.best("k", 55)
        assert cycle == snap.cycle == 40
        cycle, _snap = store.best("k", 60)
        assert cycle == 60
        assert store.best("k", 19) is None
        assert store.cycles("k") == [20, 40, 60]

    def test_put_dedups_existing_slots(self):
        store = CheckpointStore()
        snap = self._snap_at(20)
        assert store.put("k", 20, snap) is True
        assert store.put("k", 20, snap) is False
        assert store.stats()["stores"] == 1

    def test_lru_eviction_without_disk_drops_the_oldest(self):
        store = CheckpointStore(capacity=2)
        for cycle in (10, 20, 30):
            store.put(f"key-{cycle}", cycle, self._snap_at(cycle))
        stats = store.stats()
        assert stats["evictions"] == 1 and stats["entries"] == 2
        assert store.best("key-10", 100) is None
        assert store.best("key-30", 100) is not None

    def test_prefix_keys_separate_seed_stim_and_scenario(self):
        def key(name, **kw):
            kw.setdefault("stim", 200)
            cfg = SimConfig(cycles=50, **kw)
            return prefix_key(name, cfg, get_registry().build(name, cfg))

        base = key("streams")
        assert key("streams") == base                  # deterministic
        assert key("streams", seed=1) != base
        assert key("streams", stim=400) != base
        assert key("memory") != base

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_prefix_key_is_engine_and_backend_independent(self, name):
        keys = set()
        for engine in ENGINES:
            for backend in ("interp", "pycompiled"):
                cfg = SimConfig(engine=engine, backend=backend, cycles=50,
                                stim=200)
                keys.add(prefix_key(name, cfg,
                                    get_registry().build(name, cfg)))
        assert len(keys) == 1


# ---------------------------------------------------------------------------
# warm prefixes through the public surface
# ---------------------------------------------------------------------------
class TestWarmPrefix:
    def test_extended_rerun_simulates_only_the_tail(self):
        session = Session(SimConfig(stim=800, checkpoint_every=25))
        first = session.run("streams", cycles=100)
        assert first.diagnostics["simulated_cycles"] == 100
        assert first.diagnostics["checkpoints_stored"] == 4

        extended = session.run("streams", cycles=400)
        assert extended.diagnostics["resumed_from"] == 100
        assert extended.diagnostics["simulated_cycles"] == 300

        cold = Session(SimConfig(stim=800)).run("streams", cycles=400)
        assert extended.activity == cold.activity
        assert extended.waveform.samples == cold.waveform.samples
        assert extended.total_activity == cold.total_activity

    def test_checkpointed_serial_sweep_resumes_on_a_longer_resweep(self):
        names = ["streams", "anvil_mmu"]
        session = Session(SimConfig(stim=400, checkpoint_every=50,
                                    executor="serial"))
        session.sweep(names, cycles=100)
        resumed = session.sweep(names, cycles=250)
        cold = Session(SimConfig(stim=400, executor="serial")).sweep(
            names, cycles=250)
        for name in names:
            diag = resumed[name].diagnostics
            assert diag["resumed_from"] == 100, name
            assert diag["simulated_cycles"] == 150, name
            assert resumed[name].activity == cold[name].activity, name
            assert resumed[name].waveform.samples \
                == cold[name].waveform.samples, name

    def test_advance_checkpoints_every_boundary(self):
        sim = _build("streams", cycles=100, stim=300)
        store = CheckpointStore()
        recorder = Checkpointer(store, "k")
        assert advance(sim, 100, every=30, on_boundary=recorder) == 100
        assert recorder.stored == 4             # cycles 30, 60, 90, 100
        assert store.cycles("k") == [30, 60, 90, 100]
        assert sim.cycle == 100

    def test_checkpoint_callback_sees_every_boundary(self):
        sim = _build("streams", cycles=60, stim=200)
        sim.run(10)
        store = CheckpointStore()
        handed = []
        recorder = Checkpointer(
            store, "k", "streams",
            on_checkpoint=lambda c, snap: handed.append((c, snap)))
        # boundaries are absolute multiples of ``every``, plus the end
        advance(sim, 50, every=25, on_boundary=recorder)
        assert [c for c, _snap in handed] == [25, 50, 60]
        for c, snap in handed:
            assert (snap.cycle, snap.key, snap.scenario) == (c, "k",
                                                             "streams")
            assert store.best("k", c) == (c, snap)
        stop_seen = []
        advance(sim, 50, every=25, stop=lambda: sim.cycle == 70,
                on_boundary=lambda s: stop_seen.append(s.cycle))
        assert stop_seen == [70]                # the run ends at the stop


# ---------------------------------------------------------------------------
# checkpoint files through the CLI: --checkpoint-dir -> --resume-from
# ---------------------------------------------------------------------------
RUN = ["run", "streams", "--stim", "400", "--json", "--activity",
       "--samples"]


def _cli(capsys, argv):
    """``python -m repro`` in this process: (exit code, JSON or None,
    stderr).  The store is reset first, as a fresh process would have
    it."""
    reset_checkpoint_store()
    code = cli_main(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if code == 0 else None
    return code, payload, captured.err


class TestCliCheckpointFiles:
    @pytest.fixture(autouse=True)
    def _in_tmp(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_CHECKPOINT_EVERY", raising=False)

    def _checkpointed(self, capsys):
        code, base, _err = _cli(capsys, RUN + [
            "--cycles", "150", "--checkpoint-every", "50",
            "--checkpoint-dir", "ckpts"])
        assert code == 0
        assert base["diagnostics"]["checkpoints_stored"] == 3
        (blob,) = glob.glob("ckpts/streams-c100-*.ckpt")
        return base, blob

    def test_checkpoint_dir_then_resume_from_round_trip(self, capsys):
        base, blob = self._checkpointed(capsys)
        assert len(glob.glob("ckpts/streams-c*.ckpt")) == 3
        code, resumed, _err = _cli(capsys, RUN + [
            "--cycles", "150", "--resume-from", blob])
        assert code == 0
        assert resumed["diagnostics"]["resumed_from"] == 100
        assert resumed["diagnostics"]["simulated_cycles"] == 50
        for key in ("cycles", "total_activity", "activity", "samples"):
            assert resumed[key] == base[key], key

    def test_resume_from_keeps_checkpointing(self, capsys):
        base, blob = self._checkpointed(capsys)
        code, resumed, _err = _cli(capsys, RUN + [
            "--cycles", "200", "--resume-from", blob,
            "--checkpoint-every", "50", "--checkpoint-dir", "again"])
        assert code == 0
        diag = resumed["diagnostics"]
        assert (diag["resumed_from"], diag["simulated_cycles"]) == (100, 100)
        assert diag["checkpoints_stored"] == 2        # cycles 150, 200
        assert [os.path.basename(p).split("-")[1] for p in
                sorted(glob.glob("again/streams-c*.ckpt"))] \
            == ["c150", "c200"]
        cold = Session(SimConfig(stim=400)).run("streams", cycles=200)
        assert resumed["total_activity"] == cold.total_activity

    def test_resume_from_checkpoint_dir_needs_an_interval(self, capsys):
        _base, blob = self._checkpointed(capsys)
        code, _payload, err = _cli(capsys, RUN + [
            "--cycles", "200", "--resume-from", blob,
            "--checkpoint-dir", "again"])
        assert code == 2
        assert "--checkpoint-dir needs --checkpoint-every" in err, err
        assert not os.path.exists("again")

    def test_resume_from_accepts_another_engine_and_backend(self, capsys):
        argv = ["run", "anvil_streams", "--stim", "400", "--cycles", "150",
                "--json", "--activity", "--samples"]
        code, base, _err = _cli(capsys, argv + [
            "--backend", "interp", "--checkpoint-every", "50",
            "--checkpoint-dir", "ckpts"])
        assert code == 0
        (blob,) = glob.glob("ckpts/anvil_streams-c100-*.ckpt")
        code, resumed, _err = _cli(capsys, argv + [
            "--backend", "pycompiled", "--engine", "kernel",
            "--resume-from", blob])
        assert code == 0
        assert resumed["diagnostics"]["resumed_from"] == 100
        for key in ("cycles", "total_activity", "activity", "samples"):
            assert resumed[key] == base[key], key

    @pytest.mark.parametrize("flags", [["--seed", "5"], ["--stim", "999"]],
                             ids=["seed", "stim"])
    def test_resume_from_refuses_another_prefix(self, flags, capsys):
        _base, blob = self._checkpointed(capsys)
        code, _payload, err = _cli(capsys, RUN + [
            "--cycles", "150", "--resume-from", blob] + flags)
        assert code == 2
        assert "prefix key" in err and "seed" in err, err

    @pytest.mark.parametrize("cycles", ["50", "100"])
    def test_resume_from_refuses_cycles_at_or_below_the_checkpoint(
            self, cycles, capsys):
        _base, blob = self._checkpointed(capsys)
        code, _payload, err = _cli(capsys, RUN + [
            "--cycles", cycles, "--resume-from", blob])
        assert code == 2
        assert "cycle 100" in err and f"cycle {cycles}" in err, err

    def test_resume_from_refuses_another_scenario(self, capsys):
        _base, blob = self._checkpointed(capsys)
        code, _payload, err = _cli(capsys, [
            "run", "memory", "--stim", "400", "--cycles", "150",
            "--resume-from", blob, "--json"])
        assert code == 2
        assert "'streams'" in err and "'memory'" in err, err


# ---------------------------------------------------------------------------
# the error surface
# ---------------------------------------------------------------------------
class TestSnapshotErrors:
    def test_restore_rejects_a_different_topology(self):
        donor = _build("streams", cycles=50, stim=200)
        donor.run(10)
        other = _build("memory", cycles=50, stim=200)
        with pytest.raises(SimulationError, match="structure"):
            other.restore(donor.snapshot())

    # SNAPSHOT_VERSION - 1 is the layout whose endpoint send queues
    # held only unconsumed entries: its prefix keys match today's, so
    # only the version check stops the read cursor skipping entries
    @pytest.mark.parametrize("delta", [1, -1])
    def test_restore_rejects_unknown_versions(self, delta):
        sim = _build("streams", cycles=50, stim=200)
        sim.run(10)
        snap = sim.snapshot()
        object.__setattr__(snap, "version",
                           snap_mod.SNAPSHOT_VERSION + delta)
        fresh = _build("streams", cycles=50, stim=200)
        with pytest.raises(SimulationError, match="version"):
            fresh.restore(snap)
