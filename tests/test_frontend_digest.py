"""Everything the front end decides, pinned: ``tools/frontend_digest.py``
(type-check verdicts, errors and notes of every design, optimizer
statistics, digests of the generated pysim and SystemVerilog, the Table 1
cost of each compiled design, the Table 2 studies and Figures 2/5/6/8)
must equal the committed golden.

Regenerate the golden only for an intended output change, and say why in
CHANGES.md:

    PYTHONPATH=src python tools/frontend_digest.py \\
        > tests/golden/frontend_digest.json
"""

import json
import pathlib

from helpers import tool_module
from repro.core import fsmplan

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" \
    / "frontend_digest.json"


def first_difference(want, got, path=""):
    """Key path of the first place two JSON documents differ (keys in
    sorted order), or None when they are equal."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(want.keys() | got.keys()):
            sub = f"{path}.{key}" if path else key
            if key not in want or key not in got:
                return sub
            found = first_difference(want[key], got[key], sub)
            if found is not None:
                return found
        return None
    if isinstance(want, list) and isinstance(got, list):
        for i, (w, g) in enumerate(zip(want, got)):
            found = first_difference(w, g, f"{path}[{i}]")
            if found is not None:
                return found
        if len(want) != len(got):
            return f"{path}[{min(len(want), len(got))}]"
        return None
    return None if want == got else path


def test_first_difference_names_the_key_path():
    want = {"processes": {"a": {"ok": True},
                          "y86_core": {"ok": True,
                                       "optimize_stats": [[{"x": 1}, 4]]}}}
    got = json.loads(json.dumps(want))
    assert first_difference(want, got) is None
    got["processes"]["y86_core"]["optimize_stats"][0][1] = 5
    assert first_difference(want, got) == \
        "processes.y86_core.optimize_stats[0][1]"
    del got["processes"]["a"]
    assert first_difference(want, got) == "processes.a"


def test_frontend_digest_matches_the_golden():
    """Cold, then again in the same process, where every plan is a hit
    in the plan cache: both passes must equal the golden."""
    tool = tool_module("frontend_digest")
    want = json.loads(GOLDEN.read_text())
    for run in ("cold", "warm"):
        misses = fsmplan.cache_stats()["misses"]
        got = json.loads(json.dumps(tool.digest(), sort_keys=True,
                                    default=repr))
        where = first_difference(want, got)
        assert where is None, (
            f"the {run} front-end digest differs from {GOLDEN.name}, "
            f"first at {where}")
    assert fsmplan.cache_stats()["misses"] == misses, \
        "the warm pass planned a process again"


def test_frontend_digest_warm_from_disk_matches_the_golden():
    """A cold pass writes every plan to the disk tier; with the memory
    tier emptied, the next pass loads them all and must equal the
    golden too."""
    tool = tool_module("frontend_digest")
    want = json.loads(GOLDEN.read_text())
    tool.digest()
    planned = fsmplan.cache_stats()["disk_misses"]
    fsmplan.clear_cache()
    got = json.loads(json.dumps(tool.digest(), sort_keys=True,
                                default=repr))
    where = first_difference(want, got)
    assert where is None, (
        f"the front-end digest warm from disk differs from {GOLDEN.name}, "
        f"first at {where}")
    stats = fsmplan.cache_stats()
    assert stats["disk_hits"] == planned > 0
    assert stats["disk_misses"] == stats["disk_rejected"] == 0
