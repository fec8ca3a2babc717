"""``tools/opcount.py``: executed bytecodes per cycle, split by layer."""

import sys
from collections import Counter

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


def test_the_busiest_lines_fit_in_the_generated_rows(capsys):
    assert opcount.main(["anvil_streams", "--cycles", "5",
                         "--lines", "6"]) == 0
    out = capsys.readouterr().out.splitlines()
    rows = {line.split("%  ")[1]: float(line.split()[0])
            for line in out[1:] if "%  " in line}
    heading = out.index("  the 6 busiest generated lines (digits as N):")
    listed = [(line.split("%  ")[1], float(line.split()[0]))
              for line in out[heading + 1:]]
    assert len(listed) == 6
    assert [n for _shape, n in listed] \
        == sorted((n for _shape, n in listed), reverse=True)
    assert not any(ch.isdigit() for shape, _n in listed for ch in shape)
    assert sum(n for _shape, n in listed) \
        <= rows[opcount.SETTLE] + rows[opcount.EDGE]


def test_hot_lines_fold_digits_and_sum_shapes():
    code = object()
    sources = {code: ["if not cur[3]:", "    if not cur[12]:", "x = 1"]}
    lines = Counter({(code, 1): 6, (code, 2): 4, (code, 3): 2,
                     (code, None): 2})
    assert opcount.hot_lines(lines, sources, 2, 2) == [
        ("if not cur[N]:", 5.0), (opcount.NO_LINE, 1.0)]
