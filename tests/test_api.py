"""The unified run-time surface (`repro.api`) and the `python -m repro`
CLI: SimConfig validation, the scenario registry, Session runs/sweeps
and the executor each entry point routes to, the retired keywords and
options staying retired, one diagnostics contract on every surface
that runs a scenario, and a smoke pass over every CLI subcommand."""

import inspect
import json
import os
import subprocess
import sys
import time

import pytest

from repro import (
    RunResult,
    ScenarioRegistry,
    Session,
    SimConfig,
    Simulator,
    get_registry,
    list_scenarios,
    resolve_config,
)
from repro.__main__ import main as cli_main
from repro.codegen import pysim
from repro.rtl import snapshot as snap_mod
from repro.server import JobQueue

#: small workloads throughout -- these tests pin behaviour, not perf
FAST = dict(stim=150, cycles=60)


def _src_env(**extra):
    """The environment of a fresh interpreter that imports this
    checkout's ``repro``."""
    env = dict(os.environ, **extra)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH")
        else "")
    return env


# ---------------------------------------------------------------------------
# SimConfig
# ---------------------------------------------------------------------------
class TestSimConfig:
    def test_defaults(self, monkeypatch):
        # the executor/engine defaults are env-sensitive by design;
        # this test pins the unset behaviour (the CI smoke jobs run the
        # whole suite under REPRO_EXECUTOR=process and REPRO_ENGINE=
        # kernel)
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        cfg = SimConfig()
        assert cfg.engine == "levelized"
        assert cfg.backend == "interp"
        assert cfg.executor == "serial"
        assert cfg.jobs is None
        assert cfg.seed == 0
        assert cfg.stim is None
        assert not cfg.trace

    def test_executor_resolves_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        assert SimConfig().executor == "process"
        # an explicit value beats the environment
        assert SimConfig(executor="serial").executor == "serial"
        monkeypatch.setenv("REPRO_EXECUTOR", "warp-drive")
        with pytest.raises(ValueError, match="REPRO_EXECUTOR"):
            SimConfig()

    @pytest.mark.parametrize("env,explicit,expected", [
        (None, None, "serial"),
        ("", None, "serial"),
        ("serial", None, "serial"),
        ("process", "serial", "serial"),
        ("serial", "process", "process"),
        (None, "process", "process"),
    ])
    def test_executor_resolution_order(self, env, explicit, expected,
                                       monkeypatch):
        # explicit value, then $REPRO_EXECUTOR, then serial
        if env is None:
            monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        else:
            monkeypatch.setenv("REPRO_EXECUTOR", env)
        assert SimConfig(executor=explicit).executor == expected

    def test_unknown_engine_names_the_choices(self):
        with pytest.raises(ValueError, match="'levelized'"):
            SimConfig(engine="warp")

    def test_unknown_backend_names_the_choices(self):
        with pytest.raises(ValueError, match="'pycompiled'"):
            SimConfig(backend="llvm")

    @pytest.mark.parametrize("bad", [
        dict(cycles=0), dict(cycles=-5), dict(cycles="many"),
        dict(stim=0), dict(stim="lots"),
        dict(seed="abc"), dict(executor="thread"),
        dict(executor="warp"), dict(jobs=0), dict(jobs="four"),
        dict(jobs=True),
    ])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ValueError):
            SimConfig(**bad)

    def test_frozen(self):
        cfg = SimConfig()
        with pytest.raises(AttributeError):
            cfg.engine = "brute"

    def test_replace_revalidates(self):
        cfg = SimConfig().replace(engine="brute", seed=7)
        assert (cfg.engine, cfg.seed) == ("brute", 7)
        with pytest.raises(ValueError):
            cfg.replace(backend="bogus")

    def test_dict_roundtrip(self):
        cfg = SimConfig(engine="brute", backend="pycompiled", seed=3,
                        cycles=42, stim=99, trace=True)
        assert SimConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="turbo"):
            SimConfig.from_dict({"turbo": True})
        # the retired pool knob is just another unknown field
        with pytest.raises(ValueError, match="known fields are"):
            SimConfig.from_dict({"parallel": 2})

    def test_replace_rejects_unknown_fields_naming_the_known_ones(self):
        # the server applies job-config overrides through replace()
        with pytest.raises(TypeError, match="'parallel'") as exc:
            SimConfig().replace(parallel=2, seed=1)
        assert "known fields are" in str(exc.value)
        assert "'executor'" in str(exc.value)

    def test_resolve_config_layers(self):
        base = SimConfig(seed=5)
        assert resolve_config(None) == SimConfig()
        assert resolve_config(base) is base
        assert resolve_config(base, backend="pycompiled").seed == 5
        assert resolve_config(Session(base)).seed == 5
        # None overrides are "not given", they never clobber the config
        assert resolve_config(base, seed=None).seed == 5
        with pytest.raises(TypeError):
            resolve_config("levelized")


# ---------------------------------------------------------------------------
# environment knobs: junk values fail loudly, never fall back silently
# ---------------------------------------------------------------------------
class TestEnvKnobGarbage:
    """Every ``REPRO_*`` tuning knob rejects garbage with one clear
    ValueError naming the variable and echoing the offending value --
    a typo'd override must never silently run the default path."""

    KNOBS = ("REPRO_ENGINE", "REPRO_EXECUTOR")

    @pytest.fixture(autouse=True)
    def _clean_env(self, monkeypatch):
        for var in self.KNOBS:
            monkeypatch.delenv(var, raising=False)

    @pytest.mark.parametrize("var", ["REPRO_ENGINE", "REPRO_EXECUTOR"])
    def test_config_construction_rejects_garbage(self, var, monkeypatch):
        monkeypatch.setenv(var, "garbage?!")
        with pytest.raises(ValueError, match=var) as exc:
            SimConfig()
        assert "garbage?!" in str(exc.value)

    def test_retired_thread_executor_names_the_choices(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "thread")
        with pytest.raises(ValueError, match="'serial', 'process'"):
            SimConfig()

    @pytest.mark.parametrize("var", ["REPRO_ENGINE", "REPRO_EXECUTOR"])
    def test_cli_reports_garbage_and_exits_two(self, var, monkeypatch,
                                               capsys):
        monkeypatch.setenv(var, "garbage?!")
        assert cli_main(["run", "streams", "--cycles", "5"]) == 2
        err = capsys.readouterr().err
        assert var in err and "garbage?!" in err


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------
class TestScenarioRegistry:
    def test_bundled_scenarios_registered_with_tags(self):
        reg = get_registry()
        names = reg.names()
        for family in ("streams", "memory", "aes", "axi", "mmu",
                       "pipeline"):
            assert family in names
            assert f"anvil_{family}" in names
        for workload in ("sum", "sort", "memcpy"):
            assert f"y86_{workload}" in names
        assert reg.names("sweep") == ["sweep", "anvil_sweep"]
        assert set(reg.tags()) == {"rtl", "anvil", "sweep", "cpu"}
        assert len(reg.names("anvil", exclude="sweep")) == 6
        assert reg.names("cpu") == ["y86_sum", "y86_sort", "y86_memcpy"]
        assert list_scenarios() == names

    def test_unknown_name_suggests_and_enumerates(self):
        with pytest.raises(KeyError) as exc:
            get_registry().get("anvil_aess")
        msg = str(exc.value)
        assert "did you mean" in msg and "anvil_aes" in msg

    def test_decorator_registration_and_duplicates(self):
        reg = ScenarioRegistry()

        @reg.scenario("toy", tags=("rtl", "tiny"))
        def build_toy(engine="levelized", seed=0, stim=10, sim=None,
                      backend="interp"):
            """A toy scenario."""
            return sim or Simulator("toy", engine=engine)

        assert "toy" in reg and len(reg) == 1
        assert reg.get("toy").description == "A toy scenario."
        assert reg.get("toy").tags == frozenset({"rtl", "tiny"})
        sim = reg.build("toy", SimConfig(engine="brute"))
        assert sim.engine == "brute"
        with pytest.raises(ValueError, match="already registered"):
            reg.add("toy", build_toy)

    def test_build_threads_the_whole_config(self):
        sim = get_registry().build(
            "anvil_memory",
            SimConfig(engine="brute", backend="pycompiled", seed=4,
                      stim=100))
        assert sim.engine == "brute"
        anvil = [m for m in sim.modules if hasattr(m, "plan")]
        assert anvil
        for m in anvil:      # the generated cycle step is installed
            be = pysim.backend_for(m.plan)
            assert m.eval_comb.__func__ is be.eval
            assert m.tick.__func__ is be.tick


# ---------------------------------------------------------------------------
# Session
# ---------------------------------------------------------------------------
class TestSession:
    def test_run_returns_structured_result(self):
        result = Session(SimConfig(**FAST)).run("streams")
        assert isinstance(result, RunResult)
        assert result.scenario == "streams"
        assert result.cycles == FAST["cycles"] == result.sim.cycle
        assert result.total_activity == sum(result.activity.values()) > 0
        assert result.seconds > 0 and result.cycles_per_second > 0
        assert result.trace is None
        assert result.diagnostics["modules"] == len(result.sim.modules)
        blob = result.to_dict(include_activity=True)
        assert blob["config"]["cycles"] == FAST["cycles"]
        assert sum(blob["activity"].values()) == result.total_activity

    def test_trace_renders_waveform(self):
        result = Session(SimConfig(trace=True, stim=50, cycles=20)).run(
            "streams")
        assert "st.out.data" in result.trace
        assert result.to_dict()["trace"] == result.trace

    def test_per_call_overrides_do_not_mutate_the_session(self):
        session = Session(SimConfig(**FAST))
        result = session.run("anvil_memory", backend="pycompiled",
                             cycles=30)
        assert result.config.backend == "pycompiled"
        assert result.cycles == 30
        assert session.config.backend == "interp"

    def test_with_config_derives_a_new_session(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        a = Session()
        b = a.with_config(engine="brute")
        assert a.config.engine == "levelized"
        assert b.config.engine == "brute"

    def test_sweep_by_tag(self):
        results = Session(SimConfig(**FAST)).sweep(tag="anvil",
                                                   cycles=40)
        assert list(results) == get_registry().names("anvil",
                                                     exclude="sweep")
        assert all(r.cycles == 40 for r in results.values())
        assert all(r.total_activity > 0 for r in results.values())

    def test_sweep_matches_individual_runs(self):
        session = Session(SimConfig(**FAST))
        swept = session.sweep(["streams", "memory"])
        for name in ("streams", "memory"):
            solo = session.run(name)
            assert swept[name].activity == solo.activity
            assert (swept[name].waveform.samples
                    == solo.waveform.samples)

    def test_bench_reports_equivalent_speedup_rows(self):
        cfg = SimConfig(stim=100, cycles=50)
        rows = Session(cfg).bench(["streams"], warmup=5)
        (row,) = rows
        assert row["scenario"] == "streams"
        assert row["equivalent"] is True
        assert row["speedup"] > 0
        assert row["baseline"]["config"]["engine"] == "brute"
        # the configured side carries the resolved session engine
        # (levelized unless REPRO_ENGINE says otherwise)
        assert row["configured"]["config"]["engine"] == cfg.engine

    def test_unknown_scenario_raises_actionably(self):
        with pytest.raises(KeyError, match="known scenarios"):
            Session().run("nonesuch")


# ---------------------------------------------------------------------------
# retired keywords and options stay retired
# ---------------------------------------------------------------------------
_DRIVERS = ["generate_table1", "generate_table2", "generate_figures",
            "appendix_a"]


class TestDeprecationShims:
    @pytest.mark.parametrize("driver,keyword", [
        *(pytest.param(d, "parallel", id=d) for d in _DRIVERS),
        *(pytest.param(d, "backend", id=f"{d}-backend") for d in _DRIVERS),
        pytest.param("appendix_a", "executor", id="appendix_a-executor"),
    ])
    def test_harness_drivers_take_no_parallel_keyword(self, driver,
                                                      keyword):
        # the pool and the backend are configured once, through
        # SimConfig (appendix_a always runs serially)
        import repro.harness

        with pytest.raises(TypeError, match=keyword):
            getattr(repro.harness, driver)(**{keyword: "pycompiled"})

    def test_run_time_objects_take_no_test_only_options(self):
        import inspect

        from repro.api import Scenario
        from repro.rtl.executors import ProcessExecutor
        from repro.rtl.snapshot import CheckpointStore

        def params(fn):
            return [p for p in inspect.signature(fn).parameters
                    if p != "self"]

        assert params(ProcessExecutor.__init__) == ["workers"]
        assert params(CheckpointStore.__init__) == ["capacity"]
        for build in (Scenario.build, ScenarioRegistry.build,
                      Session.build):
            assert "sim" not in params(build), build
        assert "baseline" not in params(Session.bench)
        assert params(Session.appendix_a) == ["fast"]

    def test_harness_exports_no_scenario_shims(self):
        import repro.harness

        for name in ("SCENARIOS", "ANVIL_SCENARIOS", "build_scenario",
                     "build_sweep", "build_anvil_scenario",
                     "build_anvil_sweep"):
            assert not hasattr(repro.harness, name), name
            assert name not in repro.harness.__all__, name

    def test_get_registry_registers_bundled_scenarios_itself(self):
        # a fresh interpreter that never names the harness still sees
        # the bundled scenarios: get_registry() imports their module
        code = ("from repro import get_registry; "
                "print(' '.join(get_registry().names()))")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=_src_env(), capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        names = proc.stdout.split()
        for family in ("streams", "memory", "aes", "axi", "mmu",
                       "pipeline", "sweep"):
            assert family in names and f"anvil_{family}" in names

    def test_import_and_list_scenarios_leave_multiprocessing_unloaded(
            self):
        # the process pool's import (multiprocessing, socket) is paid
        # only by a run that starts a pool
        code = ("import sys, repro; repro.get_registry(); "
                "print('multiprocessing' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=_src_env(), capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]

        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "repro",
             "list-scenarios"],
            env=_src_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "anvil_aes" in proc.stdout
        imported = {line.rsplit("|", 1)[-1].strip()
                    for line in proc.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "repro.api" in imported
        assert "multiprocessing" not in imported


# ---------------------------------------------------------------------------
# routing: every sweep entry point hands its JobSpecs to run_batch
# ---------------------------------------------------------------------------
class TestSweepRouting:
    @pytest.fixture
    def routed(self, monkeypatch):
        """Record each run_batch call's (executor, workers), then run
        the batch serially so results stay real and cheap."""
        import repro.api
        from repro.rtl import executors

        calls = []

        def spy(specs, executor="serial", workers=None):
            calls.append((executor, workers))
            return executors.run_batch(specs, "serial")

        monkeypatch.setattr(repro.api, "run_batch", spy)
        return calls

    @pytest.mark.parametrize("entry", ["sweep", "inject_campaign"])
    def test_entry_points_forward_executor_and_jobs(self, entry, routed):
        session = Session(SimConfig(stim=100, cycles=40,
                                    executor="process", jobs=3))
        if entry == "sweep":
            session.sweep(["streams"])
        else:
            session.inject_campaign("streams", faults=4)
        assert routed == [("process", 3)]

    def test_harnesses_and_bench_run_in_this_process(self, monkeypatch):
        from repro.harness import (
            generate_figures,
            generate_table1,
            generate_table2,
        )
        from repro.rtl import executors

        def no_batch(*args, **kwargs):
            raise AssertionError("submitted a JobSpec batch")

        # every run_batch call, wherever it was imported, builds its
        # executor here
        monkeypatch.setattr(executors, "get_executor", no_batch)
        cfg = SimConfig(stim=100, executor="process", jobs=2)
        assert len(generate_table1(fast=True, config=cfg)) == 10
        assert generate_table2(config=cfg)["opentitan"]["unsafe_rejected"]
        assert "figure8" in generate_figures(config=cfg)
        rows = Session(cfg).bench(["streams"], cycles=20, warmup=1)
        assert rows[0]["equivalent"] is True

    def test_bench_takes_no_pool_or_check_knobs(self):
        params = inspect.signature(Session.bench).parameters
        assert not {"executor", "jobs", "check"} & set(params)

    def test_appendix_a_runs_serially_by_default(self, routed,
                                                 monkeypatch):
        from repro.harness import appendix_a
        from repro.rtl import executors

        def no_pool(self, jobs):
            raise AssertionError("appendix_a started a process pool")

        monkeypatch.setattr(executors.ProcessExecutor, "run", no_pool)
        report = appendix_a(config=SimConfig(executor="process"),
                            fast=True)
        assert list(report) == ["anvil", "bmc_full_width",
                                "bmc_reduced_width"]
        assert report["anvil"]["verdict"] == "rejected"
        assert routed == []

    def test_run_batch_is_the_executors_entry_point(self):
        import repro
        from repro.rtl import executors

        assert repro.run_batch is executors.run_batch
        assert "BatchSimulator" not in repro.__all__
        with pytest.raises(ModuleNotFoundError):
            __import__("repro.rtl.batch")


# ---------------------------------------------------------------------------
# the CLI
# ---------------------------------------------------------------------------
def _cli_json(capsys, argv):
    assert cli_main(argv + ["--json"]) == 0
    return json.loads(capsys.readouterr().out)


# ---------------------------------------------------------------------------
# one diagnostics contract on every surface that runs a scenario
# ---------------------------------------------------------------------------
SURFACES = ("session_run", "sweep_serial", "sweep_process", "server_run",
            "cli_run")

#: what the patched restore sleeps: a run that restores a prefix must
#: count the restore in its timing
RESTORE_DELAY = 0.2


def _run_through(surface, cfg, capsys):
    """One run of ``streams`` under ``cfg``, launched from ``surface``."""
    if surface == "session_run":
        return Session(cfg).run("streams")
    if surface.startswith("sweep_"):
        executor = surface[len("sweep_"):]
        return Session(cfg).sweep(["streams"], executor=executor,
                                  jobs=1)["streams"]
    if surface == "server_run":
        queue = JobQueue(config=cfg, depth=1, workers=1).start()
        try:
            job = queue.submit({"scenario": "streams"})
            deadline = time.monotonic() + 60
            while job.state in ("queued", "running"):
                assert time.monotonic() < deadline
                time.sleep(0.005)
        finally:
            queue.shutdown()
        assert job.state == "done", job.error
        return job.result
    argv = ["run", "streams", "--cycles", str(cfg.cycles),
            "--stim", str(cfg.stim)]
    if cfg.checkpoint_every:
        argv += ["--checkpoint-every", str(cfg.checkpoint_every)]
    return RunResult.from_dict(_cli_json(capsys, argv))


class TestDiagnosticsContract:
    @pytest.mark.parametrize("checkpointed", [False, True],
                             ids=["plain", "checkpointed"])
    @pytest.mark.parametrize("surface", SURFACES)
    def test_one_contract_on_every_surface(self, surface, checkpointed,
                                           capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CHECKPOINT_EVERY", raising=False)
        cfg = SimConfig(stim=300, cycles=120,
                        checkpoint_every=50 if checkpointed else None)
        expected = {"engine", "modules", "watched_signals", "final_cycle"}
        if checkpointed:
            # a stored prefix to restore (forked pool workers inherit
            # this process's store and the patched restore)
            Session(cfg).run("streams", cycles=100)
            restore = snap_mod.restore

            def slow_restore(sim, snap):
                time.sleep(RESTORE_DELAY)
                restore(sim, snap)

            monkeypatch.setattr(snap_mod, "restore", slow_restore)
            expected |= {"resumed_from", "simulated_cycles",
                         "checkpoints_stored"}
        sweep = surface.startswith("sweep_")
        if sweep:
            expected |= {"job_seconds", "sweep_size"}

        result = _run_through(surface, cfg, capsys)
        diag = result.diagnostics
        assert set(diag) == expected
        assert diag["engine"] == cfg.engine
        assert diag["final_cycle"] == result.cycles == 120
        assert diag["modules"] > 0 and diag["watched_signals"] > 0
        if sweep:
            assert diag["sweep_size"] == 1
            assert result.seconds >= diag["job_seconds"] > 0
        if checkpointed:
            assert diag["resumed_from"] == 100
            assert diag["simulated_cycles"] == 20
            assert diag["checkpoints_stored"] == 1       # cycle 120
            timed = diag["job_seconds"] if sweep else result.seconds
            assert timed >= RESTORE_DELAY


class TestCli:
    def test_list_scenarios_matches_registry(self, capsys):
        payload = _cli_json(capsys, ["list-scenarios"])
        assert [s["name"] for s in payload] == get_registry().names()
        assert cli_main(["list-scenarios", "--tag", "anvil"]) == 0
        out = capsys.readouterr().out
        assert "anvil_aes" in out and "streams [" not in out

    def test_run_json_roundtrips(self, capsys):
        payload = _cli_json(capsys, [
            "run", "streams", "--cycles", "50", "--stim", "100",
            "--activity",
        ])
        assert payload["scenario"] == "streams"
        assert payload["cycles"] == 50
        assert payload["config"]["stim"] == 100
        assert sum(payload["activity"].values()) \
            == payload["total_activity"] > 0

    def test_run_trace_prints_waveform(self, capsys):
        assert cli_main(["run", "streams", "--cycles", "20",
                         "--stim", "40", "--trace"]) == 0
        assert "st.out.data" in capsys.readouterr().out

    def test_run_unknown_scenario_is_a_clean_error(self, capsys):
        assert cli_main(["run", "nonesuch", "--cycles", "10"]) == 2
        assert "known scenarios" in capsys.readouterr().err

    def test_run_rejects_sweep_only_executor_flags(self, capsys):
        # a single run has no sweep: it must not accept (and then
        # silently ignore) the executor knobs
        with pytest.raises(SystemExit):
            cli_main(["run", "streams", "--executor", "process"])
        assert "--executor" in capsys.readouterr().err

    def test_invalid_config_value_is_a_clean_error(self, capsys):
        assert cli_main(["run", "streams", "--cycles", "0"]) == 2
        assert "cycles must be" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--tag", "nosuch"],
        ["sweep", "--tag", "Anvil", "--json"],
        ["bench", "--tag", "nosuch"],
    ], ids=" ".join)
    def test_sweep_and_bench_refuse_an_unknown_tag(self, argv, capsys):
        assert cli_main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: unknown tag {argv[2]!r}")
        assert err.count("\n") == 1
        assert "known tags are 'anvil', 'cpu', 'rtl'" in err
        if argv[2] == "Anvil":
            assert "(did you mean 'anvil'?)" in err

    @pytest.mark.parametrize("command", ["sweep", "bench"])
    def test_sweep_and_bench_refuse_an_unknown_name_before_running(
            self, command, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a scenario was built")

        monkeypatch.setattr(ScenarioRegistry, "build", refuse)
        assert cli_main([command, "streams", "y86_summ",
                         "--cycles", "10"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown scenario 'y86_summ' "
                              "(did you mean 'y86_sum'")
        assert err.count("\n") == 1

    def test_unknown_tag_fails_in_both_output_modes(self, capsys):
        # refused like sweep/bench: exit 2, one registry error line
        assert cli_main(["sweep", "--tag", "anvill"]) == 2
        refusal = capsys.readouterr().err
        assert refusal.startswith(
            "error: unknown tag 'anvill' (did you mean 'anvil'?): "
            "known tags are 'anvil', 'cpu', 'rtl'")
        for argv in (["list-scenarios", "--tag", "anvill"],
                     ["list-scenarios", "--tag", "anvill", "--json"]):
            assert cli_main(argv) == 2
            assert capsys.readouterr() == ("", refusal)

    def test_table1_does_not_depend_on_the_hash_seed(self):
        # a float area summed over gates in string-hash order prints
        # different last digits for the AES row under seeds 0 and 1
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "table1", "--fast",
                 "--json"],
                env=_src_env(PYTHONHASHSEED=seed), stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True)
            for seed in ("0", "1")
        ]
        results = []
        for proc in procs:
            out, err = proc.communicate(timeout=600)
            assert proc.returncode == 0, err
            results.append(json.loads(out)["result"])
        assert results[0] == results[1]

    @pytest.mark.parametrize("command", [
        ["table1", "--fast"], ["table2"], ["figures"],
        ["appendix-a", "--fast"],
    ], ids=lambda argv: argv[0])
    def test_harness_json_echoes_only_consumed_config(self, command,
                                                      capsys):
        payload = _cli_json(capsys, command)
        assert set(payload["config"]) == {"engine", "backend"}

    @pytest.mark.parametrize("command", [
        ["sweep", "streams"], ["bench", "streams"], ["inject", "streams"],
        ["table1"], ["table2"], ["figures"], ["serve"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("flags", [["--executor", "thread"],
                                       ["--parallel", "2"]],
                             ids=["executor-thread", "parallel"])
    def test_pool_commands_reject_retired_flags(self, command, flags,
                                                capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main([*command, *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flags[0] in err
        if flags[1] == "thread" and command[0] in ("sweep", "inject",
                                                   "serve"):
            assert "'serial', 'process'" in err

    @pytest.mark.parametrize("argv", [
        *([*command, *flags]
          for command in (["bench", "streams"], ["table1"], ["table2"],
                          ["figures"])
          for flags in (["--executor", "serial"], ["--jobs", "2"])),
        ["bench", "streams", "--no-check"],
    ], ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
    def test_in_process_commands_reject_pool_flags(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
        assert next(a for a in argv if a.startswith("--")) in err

    def test_sweep_json(self, capsys):
        payload = _cli_json(capsys, [
            "sweep", "streams", "memory", "--cycles", "40",
            "--stim", "80",
        ])
        assert set(payload["result"]) == {"streams", "memory"}
        assert payload["config"]["cycles"] == 40

    def test_seeded_sweep_json_echoes_each_runs_seed(self, capsys):
        payload = _cli_json(capsys, [
            "sweep", "streams", "--seeds", "2", "--seed", "5",
            "--cycles", "40", "--stim", "80",
        ])
        assert {name: r["config"]["seed"]
                for name, r in payload["result"].items()} \
            == {"streams@s5": 5, "streams@s6": 6}

    def test_bench_json(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        payload = _cli_json(capsys, [
            "bench", "streams", "--cycles", "40", "--stim", "80",
            "--warmup", "5",
        ])
        (row,) = payload["result"]
        assert row["equivalent"] is True
        assert payload["config"]["engine"] == "levelized"

    def test_table1_fast_json(self, capsys):
        payload = _cli_json(capsys, ["table1", "--fast"])
        rows = payload["result"]
        assert len(rows) == 10
        assert {"design", "area_overhead"} <= set(rows[0])

    def test_table2_json(self, capsys):
        payload = _cli_json(capsys, ["table2"])
        assert payload["result"]["opentitan"]["unsafe_rejected"]
        assert not payload["result"]["stream_fifo"]["anvil_data_lost"]

    def test_appendix_a_fast_json(self, capsys):
        payload = _cli_json(capsys, ["appendix-a", "--fast"])
        result = payload["result"]
        assert result["anvil"]["verdict"] == "rejected"
        assert result["bmc_reduced_width"]["found_violation"]
        assert not result["bmc_full_width"]["found_violation"]

    def test_figures_smoke(self, capsys):
        assert cli_main(["figures"]) == 0
        out = capsys.readouterr().out
        for fig in ("figure1", "figure2_bsv", "figure4", "figure8"):
            assert fig in out

    def test_json_to_path(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        assert cli_main(["run", "memory", "--cycles", "30",
                         "--stim", "60", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["scenario"] == "memory"

    def test_python_dash_m_entry_point(self):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH")
            else "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list-scenarios"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        for name in get_registry().names():
            assert name in proc.stdout

    @pytest.mark.parametrize("argv", [
        ["list-scenarios"],
        ["inject", "y86_sum", "--faults", "2"],
    ], ids=["list-scenarios", "inject"])
    def test_closed_stdout_exits_without_a_traceback(self, argv):
        # the read end is closed before the child writes anything, so
        # its first write to stdout hits a broken pipe
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *argv], stdout=write_end,
                stderr=subprocess.PIPE, text=True, env=_src_env())
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == ""
