"""The checkpoint layer: snapshot/restore bit-identity, the prefix
cache, snapshot transport (pickles and files), and the error surface.

The correctness bar for everything here is *bit-identity*: a simulator
restored at cycle k and run to N must be indistinguishable -- waveform
samples, per-wire activity, totals, cycle count -- from one that ran
0..N without stopping.  That property is what makes warm-prefix re-runs
(the :class:`~repro.rtl.snapshot.CheckpointStore` consulted by
``Session.run``/``sweep`` and the job queue) safe to apply silently.
"""

import enum
import glob
import json
import os
import pickle

import pytest

from repro import Module, Session, SimConfig, Simulator, get_registry
from repro.__main__ import main as cli_main
from repro.api import run_scenario
from repro.codegen.simfsm import Activation, _SlotView
from repro.errors import SimulationError
from repro.rtl import kernel
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
    state_sig,
    structure_sig,
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


def _y86_cpu(sim):
    return next(m for m in sim.modules if m.name == "y86_sum_cpu")


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

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_a_fresh_restore_matches_its_snapshot(self, name):
        # equal states give equal images: the sets a restore rebuilds
        # (an activation's dead events) can iterate in another order
        # than the live ones they were imaged from
        sim = _build(name, engine="kernel", backend="pycompiled", stim=400)
        for cycle in (37, 150):
            sim.run(cycle - sim.cycle)
            snap = capture(sim)
            fresh = _build(name, engine="kernel", backend="pycompiled",
                           stim=400)
            restore(fresh, snap)
            assert matches(fresh, snap), (name, cycle)
            assert state_sig(fresh) == state_sig(sim), (name, cycle)

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
# the plain-data rule, pinned against the recursive encoder that images
# replaced: reference_encode raises where an attribute is structural,
# and reference_decode(reference_encode(v)) is what restore gave back
# ---------------------------------------------------------------------------
class _ReferenceStructural(Exception):
    pass


_REFERENCE_SCALARS = (type(None), bool, int, float, str, bytes)


def reference_encode(v):
    if isinstance(v, _REFERENCE_SCALARS):
        return v
    t = type(v)
    if t is list:
        return ("l", tuple(reference_encode(x) for x in v))
    if t is tuple:
        return ("t", tuple(reference_encode(x) for x in v))
    if t is dict:
        return ("d", tuple((reference_encode(k), reference_encode(x))
                           for k, x in v.items()))
    if t is set:
        return ("s", tuple(reference_encode(x) for x in v))
    if t is frozenset:
        return ("f", tuple(reference_encode(x) for x in v))
    if t is bytearray:
        return ("b", bytes(v))
    if t is Activation:
        return ("a", v.start, reference_encode(v.fired),
                reference_encode(v.dead), reference_encode(v.slots),
                v.spawned, reference_encode(v.cache))
    if t is _SlotView:
        return ("v", reference_encode(v.base), reference_encode(v.overlay))
    raise _ReferenceStructural(type(v).__name__)


def reference_decode(v):
    if isinstance(v, _REFERENCE_SCALARS):
        return v
    tag = v[0]
    if tag == "l":
        return [reference_decode(x) for x in v[1]]
    if tag == "t":
        return tuple(reference_decode(x) for x in v[1])
    if tag == "d":
        return {reference_decode(k): reference_decode(x) for k, x in v[1]}
    if tag == "s":
        return {reference_decode(x) for x in v[1]}
    if tag == "f":
        return frozenset(reference_decode(x) for x in v[1])
    if tag == "b":
        return bytearray(v[1])
    if tag == "a":
        act = Activation(v[1])
        act.fired = reference_decode(v[2])
        act.dead = reference_decode(v[3])
        act.slots = reference_decode(v[4])
        act.spawned = v[5]
        act.cache = reference_decode(v[6])
        return act
    assert tag == "v", tag
    return _SlotView(reference_decode(v[1]), reference_decode(v[2]))


def _identical(a, b) -> bool:
    """Equal, with identical types at every level (activations and slot
    views slot by slot, dicts in order)."""
    if type(a) is not type(b):
        return False
    if type(a) in (Activation, _SlotView):
        return all(_identical(getattr(a, slot), getattr(b, slot))
                   for slot in type(a).__slots__)
    if type(a) in (list, tuple):
        return len(a) == len(b) and all(map(_identical, a, b))
    if type(a) is dict:
        return len(a) == len(b) and all(
            _identical(ka, kb) and _identical(va, vb)
            for (ka, va), (kb, vb) in zip(a.items(), b.items()))
    if type(a) in (set, frozenset):
        return len(a) == len(b) and all(
            any(_identical(x, y) for y in b) for x in a)
    return a == b


class TestPlainDataRule:
    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_images_hold_what_the_reference_encoder_held(self, name):
        sim = _build(name, engine="kernel", backend="pycompiled", stim=400)
        for cycle in (0, 37, 150):
            sim.run(cycle - sim.cycle)
            snap = capture(sim)
            for m, state in zip(sim.modules, snap.module_state):
                accepted = {}
                for attr in sorted(m.__dict__):
                    try:
                        accepted[attr] = reference_encode(m.__dict__[attr])
                    except _ReferenceStructural:
                        continue
                where = (name, cycle, m.name)
                assert [attr for attr, _image in state] \
                    == list(accepted), where
                for attr, image in state:
                    assert _identical(pickle.loads(image),
                                      reference_decode(accepted[attr])), \
                        (where, attr)

    def test_every_plain_type_round_trips(self):
        act = Activation(3)
        act.fired, act.dead, act.slots = {1: 2}, {4}, {5: 6}
        act.spawned = True
        act.cache = (7, _SlotView({1: 1}, {2: 2}), frozenset({8}))
        value = [None, True, 1, 1.5, "s", b"b", bytearray(b"a"), (1,),
                 {"k": [2]}, {3}, frozenset({4}), act, _SlotView({}, {9: 9})]
        sim = _build("y86_sum")
        _y86_cpu(sim).extra = value
        fresh = _build("y86_sum")
        fresh.restore(sim.snapshot())
        assert _identical(_y86_cpu(fresh).extra, value)
        assert _identical(_y86_cpu(fresh).extra,
                          reference_decode(reference_encode(value)))

    def test_a_builtin_scalar_subclass_is_structural(self):
        sim = _build("y86_sum")
        cpu = _y86_cpu(sim)
        cpu.flag = enum.IntEnum("Flag", "ON")(1)
        state = dict(capture(sim).module_state[sim.modules.index(cpu)])
        assert "flag" not in state and "instret" in state


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

    @pytest.mark.parametrize("engine", ["levelized", "brute"])
    def test_checkpointed_runs_off_the_kernel_compile_no_kernel(
            self, engine):
        # naming the prefix reads the scheduler's signature, so only
        # the kernel engine ever compiles a cycle kernel
        kernel.clear_cache()
        before = kernel.cache_stats()
        result = run_scenario("streams", SimConfig(
            engine=engine, cycles=60, stim=200, checkpoint_every=20))
        assert result.diagnostics["checkpoints_stored"] == 3
        assert kernel.cache_stats() == before


class _Follower(Module):
    """``out`` follows wire ``a``, or ``b`` when ``follow_b``: which one
    is structure (a wire attribute), so the module state is equal."""

    def __init__(self, name, follow_b=False):
        super().__init__(name)
        a = self.wire("a", 4)
        b = self.wire("b", 4)
        self.out = self.wire("out", 4)
        self.src = b if follow_b else a

    def comb_inputs(self):
        return (self.src,)

    def comb_outputs(self):
        return (self.out,)

    def eval_comb(self):
        self.out.set(self.src.value)


class TestTopologySignature:
    def _sim(self, follow_b=False):
        sim = Simulator("follow")
        sim.add(_Follower("f", follow_b))
        return sim

    def test_declared_connectivity_separates_equal_names(self):
        # equal module types, module names and wire names; only the
        # declared comb input differs
        a, b = self._sim(), self._sim(follow_b=True)
        a.run(3)
        b.run(3)
        assert state_sig(a) == state_sig(b)
        assert structure_sig(a) != structure_sig(b)
        cfg = SimConfig()
        assert prefix_key("follow", cfg, a) != prefix_key("follow", cfg, b)
        with pytest.raises(SimulationError, match="connectivity"):
            b.restore(a.snapshot())
        assert structure_sig(self._sim()) == structure_sig(a)

    def test_add_changes_the_signature(self):
        sim = self._sim()
        before = structure_sig(sim)
        sim.run(2)
        assert structure_sig(sim) == before
        sim.add(_Follower("g"))
        assert structure_sig(sim) != before


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

    @pytest.mark.parametrize("corrupt", ["truncated", "garbage"])
    def test_resume_from_refuses_a_corrupt_file(self, corrupt, capsys):
        _base, blob = self._checkpointed(capsys)
        with open(blob, "rb") as fh:
            data = fh.read()
        with open(blob, "wb") as fh:
            fh.write(data[:len(data) // 2] if corrupt == "truncated"
                     else b"not a checkpoint\n")
        code, _payload, err = _cli(capsys, RUN + [
            "--cycles", "150", "--resume-from", blob])
        assert code == 2
        assert err.startswith(f"error: {blob}: not a repro checkpoint "
                              f"file ("), err
        assert err.count("\n") == 1, err

    def test_resume_from_refuses_another_layout_version(self, capsys):
        _base, blob = self._checkpointed(capsys)
        old = load_checkpoint(blob)
        old.version = snap_mod.SNAPSHOT_VERSION - 1
        save_checkpoint(blob, old)
        code, _payload, err = _cli(capsys, RUN + [
            "--cycles", "150", "--resume-from", blob])
        assert code == 2
        assert f"checkpoint version {snap_mod.SNAPSHOT_VERSION - 1}" \
            in err, err


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

    # SNAPSHOT_VERSION - 1 is the layout whose sig left out the
    # declared comb inputs and outputs: its images still unpickle, and
    # the version check refuses it before the signature check could
    # blame the structure
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

    def test_a_refused_restore_changes_nothing(self):
        donor = _build("y86_sum")
        donor.run(40)
        snap = donor.snapshot()
        sim = _build("y86_sum")
        sim.run(5)
        sch = sim.scheduler
        cpu = _y86_cpu(sim)
        assert cpu.instret != _y86_cpu(donor).instret

        def state():
            return (sim.cycle, [w.value for w in sch._wires],
                    list(sch._values), list(sch._prev_settled),
                    list(sch._toggles), sorted(sch._changed),
                    cpu.instret, list(cpu.registers),
                    capture(sim).module_state)

        before = state()
        sim.watch(sch._wires[0], "extra")       # not in the snapshot
        with pytest.raises(SimulationError, match="watch list"):
            sim.restore(snap)
        assert state() == before

