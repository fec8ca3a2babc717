"""Everything the front end decides, pinned: ``tools/frontend_digest.py``
(type-check verdicts, errors and notes of every design, optimizer
statistics, digests of the generated pysim and SystemVerilog, the Table 2
studies and Figures 2/5/6/8) must equal the committed golden.

Regenerate the golden only for an intended output change, and say why in
CHANGES.md:

    PYTHONPATH=src python tools/frontend_digest.py \\
        > tests/golden/frontend_digest.json
"""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "frontend_digest.json"


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "frontend_digest", ROOT / "tools" / "frontend_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    digest = _load_tool().digest()
    got = json.loads(json.dumps(digest, sort_keys=True, default=repr))
    want = json.loads(GOLDEN.read_text())
    where = first_difference(want, got)
    assert where is None, (
        f"the front-end digest differs from {GOLDEN.name}, first at {where}")
