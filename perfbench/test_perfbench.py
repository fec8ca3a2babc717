"""The benchmark's own tests.

    python3 -m pytest perfbench/test_perfbench.py -q

They run shortened workloads in fresh workers, so they take about
half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["typecheck", "simulate", "campaign"])
def test_traced_and_untraced_runs_produce_identical_outputs(workload):
    """One round each, so both runs do the same ops in the same order;
    tracing must not change any output."""
    spec = {"workload": workload, "seed": 5, "mode": "main", "rounds": 1}
    _setup, plain = run.spawn_worker(dict(spec, trace=False))
    _setup, traced = run.spawn_worker(dict(spec, trace=True))
    outputs = [[(op["kind"], op["out"], op["ok"]) for op in r["ops"]]
               for r in (plain, traced)]
    assert outputs[0] == outputs[1]
    assert all(ok for _kind, _out, ok in outputs[0])
    assert traced["spans"] and "spans" not in plain


def test_op_forced_to_fail_is_counted_not_raised():
    worker = workloads.Worker({"seed": 0})
    out, op = worker.run_op("boom", lambda: 1 // 0)
    _out, good = worker.run_op("fine", lambda: 7)
    assert out is None and not op["ok"]
    assert op["error"].startswith("ZeroDivisionError")
    result = run.report(run.end_to_end([(1.0, 4.0)], worker.ops),
                        run.metric_units("end_to_end"), worker.ops, [])
    assert (result["correct"], result["attempted"], result["failed"]) == \
        (False, 2, 1)
    # the failed op is excluded from op_ms
    assert result["metrics"]["op_ms"]["value"] == pytest.approx(
        run.host_scaled(good["ms"], good["probe_ms"]))


def test_campaign_that_raises_is_a_failed_op(monkeypatch):
    """Inject seed 2 on y86_sum corrupts a register id and the campaign
    raises IndexError: the op records scenario, seed, exception and the
    line that raised."""
    monkeypatch.setattr(workloads, "CAMPAIGN_POOL", (("y86_sum", 2),))
    worker = workloads.Worker({"seed": 0})
    worker.campaign_setup()
    worker.campaign_loop()
    worker.campaign_check()
    (op,) = worker.ops
    assert not op["ok"] and op["work"] == 0
    assert op["error"].startswith("y86_sum inject seed 2: IndexError")
    assert "(at designs/y86.py:" in op["error"]


def test_cli_nonzero_exit_is_a_failed_op(monkeypatch):
    monkeypatch.setitem(checks.CLI_COMMANDS, "table2",
                        ["run", "no_such_scenario"])
    op = run.cli_op("table2", 0, {})
    assert not op["ok"] and "exit 2" in op["error"]


def test_wrong_output_is_a_failed_op():
    stdout = json.dumps({"result": {name: dict(want)
                                    for name, want in
                                    checks.CASE_EXPECT.items()}})
    assert checks.check_cli_output("table2", 0, stdout, {}) == ""
    wrong = json.loads(stdout)
    wrong["result"]["coyote"]["unsafe_rejected"] = False
    assert "coyote" in checks.check_cli_output(
        "table2", 0, json.dumps(wrong), {})


def test_exits_nonzero_without_result_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed",
         "0", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
        capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
