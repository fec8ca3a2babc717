"""The executor subsystem (`repro.rtl.executors`): JobSpec
declarativeness and picklability, serial/process equivalence pinned
bit-identical across engines x backends, clean failure propagation with
worker tracebacks, deterministic submission-order results, and
``run_batch``'s input validation and pool sizing."""

import dataclasses
import pickle

import pytest

from repro.api import RunResult, Session, SimConfig, UnknownScenarioError
from repro.rtl import executors
from repro.rtl.executors import (
    EXECUTORS,
    ExecutorError,
    JobSpec,
    ProcessExecutor,
    execute_job,
    get_executor,
    run_batch,
)

#: small workloads throughout -- these tests pin behaviour, not perf
FAST = dict(stim=120, cycles=50)

#: a real pool even on single-core boxes (auto sizing would collapse
#: the process executor to one worker there)
POOL = dict(jobs=2)


def _spec(name, scenario=None, **cfg):
    return JobSpec(kind="run_scenario", name=name,
                   scenario=scenario or name, config=SimConfig(**FAST, **cfg))


# ---------------------------------------------------------------------------
# JobSpec
# ---------------------------------------------------------------------------
class TestJobSpec:
    def test_pickles_with_config(self):
        spec = _spec("memory", backend="pycompiled",
                     engine="brute")
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.config.backend == "pycompiled"

    def test_param_lookup_and_defaults(self):
        spec = JobSpec(kind="inject_campaign", name="x", scenario="memory",
                       params=(("inject_seed", 5), ("tail_budget", 2)))
        assert spec.param("inject_seed") == 5
        assert spec.param("nonesuch", 42) == 42

    def test_only_sweeps_and_campaign_shards_are_job_kinds(self):
        # the harnesses and bench run in the caller's process; a sweep's
        # cycle count rides in its config
        assert set(executors._KIND_HOMES) == {"run_scenario",
                                              "inject_campaign"}
        assert "cycles" not in {f.name for f in dataclasses.fields(JobSpec)}

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            JobSpec(kind="", name="x")
        with pytest.raises(ValueError, match="name"):
            JobSpec(kind="run_scenario", name="")

    def test_unknown_kind_is_actionable(self):
        with pytest.raises(ValueError, match="run_scenario"):
            execute_job(JobSpec(kind="warp_drive", name="x"))

    def test_unknown_executor_is_actionable(self):
        with pytest.raises(ValueError, match="'process'"):
            get_executor("warp", 2)

    def test_scenario_run_drops_sim_at_the_pickle_boundary(self):
        run = execute_job(_spec("memory"))
        assert isinstance(run, RunResult) and run.sim is not None
        clone = pickle.loads(pickle.dumps(run))
        assert clone.sim is None
        assert clone.activity == run.activity
        assert clone.waveform.samples == run.waveform.samples


# ---------------------------------------------------------------------------
# cross-executor equivalence: the central guarantee
# ---------------------------------------------------------------------------
class TestExecutorEquivalence:
    @pytest.mark.parametrize("engine,backend", [
        ("levelized", "interp"),
        ("levelized", "pycompiled"),
        ("brute", "interp"),
        ("brute", "pycompiled"),
    ])
    def test_sweep_bit_identical_across_executors(self, engine, backend):
        """serial and process sweeps must agree on waveforms and
        per-wire activity for every engine x backend pair."""
        session = Session(SimConfig(**FAST, engine=engine,
                                    backend=backend))
        names = ["memory", "anvil_streams"]
        reference = session.sweep(names, executor="serial")
        for executor in [e for e in EXECUTORS if e != "serial"]:
            swept = session.sweep(names, executor=executor, **POOL)
            for name in names:
                assert swept[name].activity \
                    == reference[name].activity, (executor, name)
                assert swept[name].waveform.samples \
                    == reference[name].waveform.samples, (executor, name)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_seed_sweep_matches_solo_runs(self, executor):
        """``seeds=`` runs every scenario once per seed, keyed
        ``name@s<seed>``; each keyed result must equal a solo run of
        that scenario under that seed, on every executor."""
        session = Session(SimConfig(seed=0, stim=120, engine="kernel",
                                    backend="pycompiled"))
        names = ["streams", "anvil_mmu"]
        seeds = [2, 3, 4]
        swept = session.sweep(names, cycles=50, seeds=seeds,
                              executor=executor, **POOL)
        assert set(swept) == {f"{n}@s{s}" for n in names for s in seeds}
        for name in names:
            for s in seeds:
                solo = session.run(name, cycles=50, seed=s)
                got = swept[f"{name}@s{s}"]
                assert got.activity == solo.activity, (name, s)
                assert got.waveform.samples == solo.waveform.samples, \
                    (name, s)
        # each seed really reaches the stimulus
        for name in names:
            totals = {sum(swept[f"{name}@s{s}"].activity.values())
                      for s in seeds}
            assert len(totals) == len(seeds), name

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_seed_sweep_results_echo_their_own_seed(self, executor):
        swept = Session(SimConfig(**FAST)).sweep(
            ["streams"], seeds=[2, 3], executor=executor, **POOL)
        assert {name: r.config.seed for name, r in swept.items()} \
            == {"streams@s2": 2, "streams@s3": 3}

    def test_y86_cpu_sweep_survives_the_pickle_boundary(self):
        """the y86 scenarios rebuild a whole CPU-plus-memory system in
        the worker from the JobSpec alone; the observables must land
        byte-identical with the in-process build."""
        session = Session(SimConfig(**FAST, seed=3))
        names = ["y86_sum", "y86_memcpy"]
        reference = session.sweep(names, executor="serial")
        swept = session.sweep(names, executor="process", **POOL)
        for name in names:
            assert swept[name].activity == reference[name].activity
            assert swept[name].waveform.samples \
                == reference[name].waveform.samples
            assert swept[name].sim is None

    def test_process_sweep_matches_solo_run(self):
        session = Session(SimConfig(**FAST))
        solo = session.run("streams")
        swept = session.sweep(["streams"], executor="process", **POOL)
        assert swept["streams"].activity == solo.activity
        assert swept["streams"].waveform.samples \
            == solo.waveform.samples
        # remote runs carry data, not simulators
        assert swept["streams"].sim is None

    def test_one_worker_process_run_crosses_the_pickle_boundary(self):
        # the executor name alone picks the path: a one-worker pool is
        # still a process pool, not a serial run in disguise
        results = run_batch([_spec("memory")], "process", workers=1)
        assert results["memory"].sim is None


# ---------------------------------------------------------------------------
# failure propagation
# ---------------------------------------------------------------------------
class TestFailurePropagation:
    def test_process_reraises_original_with_worker_traceback(self):
        with pytest.raises(UnknownScenarioError,
                           match="known scenarios") as exc:
            run_batch([_spec("streams"), _spec("nonesuch")], "process",
                      workers=2)
        cause = exc.value.__cause__
        assert isinstance(cause, ExecutorError)
        assert cause.job_name == "nonesuch"
        assert "worker traceback" in str(cause)
        assert "UnknownScenarioError" in cause.worker_traceback

    def test_sweep_refuses_an_unknown_name_before_dispatch(self):
        session = Session(SimConfig(**FAST))
        with pytest.raises(UnknownScenarioError,
                           match="unknown scenario 'nonesuch'") as exc:
            session.sweep(["streams", "nonesuch"], executor="process",
                          **POOL)
        assert exc.value.__cause__ is None      # not a worker's failure

    def test_first_failure_in_submission_order_wins(self):
        specs = [_spec("bad_a", scenario="nonesuch_a"),
                 _spec("memory"),
                 _spec("bad_b", scenario="nonesuch_b")]
        for executor in EXECUTORS:
            with pytest.raises(KeyError, match="nonesuch_a"):
                run_batch(specs, executor, workers=2)


# ---------------------------------------------------------------------------
# determinism and sharding
# ---------------------------------------------------------------------------
class TestDeterminism:
    def test_results_keyed_in_submission_order(self):
        names = ["pipeline", "aes", "memory", "streams"]
        specs = [_spec(n) for n in names]
        for executor in EXECUTORS:
            results = run_batch(specs, executor, workers=2)
            assert list(results) == names, executor

    def test_chunked_sharding_covers_every_job(self, monkeypatch):
        import repro.rtl.executors as executors

        # 9 jobs on 2 workers: the default 4 chunks per worker hold two
        # jobs each (the last chunk, one)
        chunked, sizes = executors._chunked, []

        def spy(items, size):
            sizes.append(size)
            return chunked(items, size)

        monkeypatch.setattr(executors, "_chunked", spy)
        specs = [_spec(f"memory#{i}", scenario="memory", seed=i)
                 for i in range(9)]
        results = ProcessExecutor(workers=2).run(specs)
        assert sizes == [2]
        assert list(results) == [s.name for s in specs]
        # distinct seeds really produced distinct stimulus
        activities = [r.total_activity for r in results.values()]
        assert len(set(activities)) > 1

    def test_repeated_process_runs_are_identical(self):
        session = Session(SimConfig(**FAST))
        a = session.sweep(["memory"], executor="process", **POOL)
        b = session.sweep(["memory"], executor="process", **POOL)
        assert a["memory"].activity == b["memory"].activity
        assert a["memory"].waveform.samples \
            == b["memory"].waveform.samples


# ---------------------------------------------------------------------------
# batch-level input validation
# ---------------------------------------------------------------------------
def _never_run(*_args, **_kwargs):
    raise AssertionError("a rejected batch must not run any job")


class TestRunBatchValidation:
    def test_duplicate_job_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate job name"):
            run_batch([_spec("memory"), _spec("memory")])

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_duplicates_rejected_before_any_job_runs(self, executor):
        # both specs would fail if run; the batch-level check wins
        specs = [_spec("x", scenario="nonesuch"),
                 _spec("x", scenario="nonesuch")]
        with pytest.raises(ValueError, match=r"duplicate job name.*'x'"):
            run_batch(specs, executor, workers=2)

    @pytest.mark.parametrize("bad", [
        ("thunk", lambda: 1),
        lambda: 1,
        "memory",
        {"kind": "run_scenario", "name": "memory"},
        None,
    ], ids=["thunk-tuple", "callable", "scenario-name", "dict", "none"])
    def test_run_batch_rejects_non_jobspecs(self, bad, monkeypatch):
        # closures do not pickle, so no executor takes them; the error
        # names the first offending argument and nothing runs
        import repro.rtl.executors as executors

        monkeypatch.setattr(executors, "execute_job", _never_run)
        for executor in EXECUTORS:
            with pytest.raises(TypeError, match="JobSpecs only") as exc:
                run_batch([_spec("memory"), bad, ("second", None)],
                          executor)
            assert repr(bad) in str(exc.value)
            assert type(bad).__name__ in str(exc.value)
            assert "'second'" not in str(exc.value)

    @pytest.mark.parametrize("name", ["thread", "threads", "Serial", ""])
    def test_run_batch_rejects_unknown_executor_names(self, name,
                                                      monkeypatch):
        import repro.rtl.executors as executors

        monkeypatch.setattr(executors, "execute_job", _never_run)
        with pytest.raises(ValueError, match="'serial', 'process'"):
            run_batch([_spec("memory")], name)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_empty_batch_is_an_empty_result(self, executor):
        assert run_batch([], executor) == {}

    def test_sweep_rejects_duplicate_scenarios(self):
        with pytest.raises(ValueError, match="duplicate job name"):
            Session(SimConfig(**FAST)).sweep(["streams", "streams"])


# ---------------------------------------------------------------------------
# pool sizing: one knob (``workers``/``jobs``), no environment override
# ---------------------------------------------------------------------------
class TestPoolSizing:
    @pytest.mark.parametrize("n_specs,cpus,workers,expected", [
        (1, 8, None, 1),        # never more workers than jobs
        (3, 2, None, 2),        # never more workers than cores
        (4, 8, None, 4),
        (2, None, None, 1),     # an unknown core count means one
        (2, 1, 3, 3),           # an explicit size is taken as given
    ])
    def test_default_workers_are_min_of_jobs_and_cpus(
            self, n_specs, cpus, workers, expected, monkeypatch):
        import repro.rtl.executors as executors

        seen = []

        class _Recorder:
            def run(self, specs):
                return {s.name: None for s in specs}

        def spy(name, n):
            seen.append((name, n))
            return _Recorder()

        monkeypatch.setattr(executors.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(executors, "get_executor", spy)
        specs = [_spec(f"memory#{i}", scenario="memory")
                 for i in range(n_specs)]
        assert list(run_batch(specs, "process", workers)) \
            == [s.name for s in specs]
        assert seen == [("process", expected)]

    @pytest.mark.parametrize("value", ["0", "garbage?!"])
    def test_retired_pool_env_is_not_read(self, value, monkeypatch):
        # a stale REPRO_PARALLEL neither turns the process pool into a
        # serial run nor fails the sweep
        monkeypatch.setenv("REPRO_PARALLEL", value)
        swept = Session(SimConfig(**FAST)).sweep(
            ["memory"], executor="process", **POOL)
        assert swept["memory"].sim is None
