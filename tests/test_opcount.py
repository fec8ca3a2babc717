"""``tools/opcount.py``: executed bytecodes per cycle, split by layer."""

import sys

import pytest

from helpers import tool_module

from repro.api import SimConfig, get_registry

opcount = tool_module("opcount")


def _sim():
    sim = get_registry().build("anvil_streams", SimConfig(
        engine="kernel", backend="pycompiled", seed=0))
    sim.run(5)
    return sim


def test_the_rows_sum_to_the_total():
    before = sys.gettrace()
    rows = opcount.per_cycle(opcount.count_opcodes(_sim(), 20), 20, top=3)
    names = [name for name, _n in rows]
    assert names[:3] == [opcount.SETTLE, opcount.EDGE, opcount.KERNEL]
    assert names[-2:] == [opcount.OTHER, opcount.TOTAL]
    assert len(rows) == 3 + 3 + 2
    assert all(n > 0 for _name, n in rows[:3])
    assert sum(n for _name, n in rows[:-1]) == pytest.approx(rows[-1][1])
    assert sys.gettrace() is before


def test_the_trace_is_removed_when_the_run_raises():
    sim = _sim()
    before = sys.gettrace()

    def boom(_cycle):
        raise RuntimeError("stop")

    sim.on_cycle(boom)
    with pytest.raises(RuntimeError):
        opcount.count_opcodes(sim, 5)
    assert sys.gettrace() is before


def test_main_prints_one_row_per_layer(capsys):
    assert opcount.main(["anvil_streams", "--cycles", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("anvil_streams: bytecodes per cycle over 5")
    names = [line.split("%  ")[1] for line in out[1:]]
    assert names[:3] == [opcount.SETTLE, opcount.EDGE, opcount.KERNEL]
    assert names[-2:] == [opcount.OTHER, opcount.TOTAL]
    assert len(names) <= 3 + opcount.TOP + 2
