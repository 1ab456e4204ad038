"""Result persistence of the benchmark harness (``benchmarks/_util.py``).

Smoke runs (``MP_BENCH_SMOKE=1``) use toy shapes, so everything they
write must land in ``results/smoke/`` and leave the committed
full-size tables and JSON next to it untouched.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_UTIL = Path(__file__).resolve().parent.parent / "benchmarks" / "_util.py"


@pytest.fixture
def util(tmp_path, monkeypatch):
    """``benchmarks/_util.py`` loaded with its result directories
    pointed into ``tmp_path``."""
    spec = importlib.util.spec_from_file_location("bench_util", _UTIL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    monkeypatch.setattr(mod, "RESULTS_DIR", tmp_path / "results")
    monkeypatch.setattr(mod, "SMOKE_DIR", tmp_path / "results" / "smoke")
    return mod


@pytest.mark.parametrize("smoke", [False, True])
def test_smoke_output_stays_out_of_results(util, tmp_path, monkeypatch, smoke):
    monkeypatch.setenv("MP_BENCH_SMOKE", "1" if smoke else "0")
    util.save_result("demo", "a table")
    path = util.save_json("demo", {"seconds": 1.5}, params={"reps": 3})
    results = tmp_path / "results"
    out_dir = results / "smoke" if smoke else results
    assert path == out_dir / "BENCH_demo.json"
    assert (out_dir / "demo.txt").read_text() == "a table\n"
    doc = json.loads(path.read_text())
    assert doc["smoke"] is smoke
    assert doc["metrics"] == {"seconds": 1.5}
    assert doc["params"] == {"reps": 3}
    if smoke:
        assert not (results / "BENCH_demo.json").exists()
        assert not (results / "demo.txt").exists()
