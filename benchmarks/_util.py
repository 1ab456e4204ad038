"""Result persistence helpers for the benchmark harness."""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: Where smoke runs (``MP_BENCH_SMOKE=1``) put their tables and JSON: a
#: gitignored directory, so toy shapes never overwrite the committed
#: full-size results next to it.
SMOKE_DIR = RESULTS_DIR / "smoke"

#: Schema tag of the normalized machine-readable bench output.  Bump
#: on breaking changes; CI uploads ``results/smoke/BENCH_*.json`` so the
#: perf trajectory is comparable run-over-run.
BENCH_SCHEMA = "repro-bench/v1"


def _smoke() -> bool:
    return os.environ.get("MP_BENCH_SMOKE", "") == "1"


def _out_dir() -> Path:
    """``results/`` (``results/smoke/`` in smoke mode), created."""
    out_dir = SMOKE_DIR if _smoke() else RESULTS_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def save_result(name: str, text: str) -> None:
    """Print a regenerated table/figure and persist it to
    ``results/<name>.txt`` (``results/smoke/<name>.txt`` in smoke
    mode)."""
    (_out_dir() / f"{name}.txt").write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}\n")


def save_json(
    name: str,
    metrics: dict[str, object],
    *,
    params: dict[str, object] | None = None,
) -> Path:
    """Persist normalized machine-readable bench output.

    Writes ``results/BENCH_<name>.json`` (``results/smoke/`` in smoke
    mode, like :func:`save_result`) with a fixed envelope::

        {"schema": "repro-bench/v1", "bench": <name>,
         "smoke": <bool>, "params": {...}, "metrics": {...}}

    ``metrics`` holds the numbers a trend dashboard charts (seconds,
    ratios, counts); ``params`` the shape/grid/rep knobs that make two
    runs comparable.  ``smoke`` is read from ``MP_BENCH_SMOKE`` so
    downstream tooling can keep CI toy shapes out of the trend lines.
    """
    doc = {
        "schema": BENCH_SCHEMA,
        "bench": name,
        "smoke": _smoke(),
        "platform": platform.platform(),
        "params": dict(params or {}),
        "metrics": dict(metrics),
    }
    path = _out_dir() / f"BENCH_{name}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"Wrote {path}")
    return path
