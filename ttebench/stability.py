"""Stability evidence: repeated runs per workload, one seed each.

    python3 ttebench/stability.py --workloads miranda-shm,hcci-shm --seeds 1-10 \\
        --out ttebench/evidence/set-a.json

For every end-to-end metric it reports the interquartile range of the
per-run values as a share of their median, next to the metric's bound in
``BENCHMARK.json``.  Each run's medians, quartiles, steal fraction and
schedule are kept in the output file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "ttebench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(next(ln for ln in lines if ln.startswith("detail: "))[8:])
    return {"result": json.loads(lines[-1]), "detail": detail}


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"seconds": bench["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            runs.append({"seed": seed, **run_once(workload, seed, bench["run_seconds"])})
            r = runs[-1]
            print(workload, seed, f"steal={r['detail']['steal_frac']:.3f}",
                  " ".join(f"{k}={v['value']:.4g}" for k, v in r["result"]["metrics"].items()),
                  flush=True)
        summary = {}
        for name, bound in bounds.items():
            s = spread([r["result"]["metrics"][name]["value"] for r in runs])
            summary[name] = {**s, "bound": bound, "within_third": s["spread"] < bound / 3}
            print(f"  {name:16s} median {s['median']:.5g}  spread {s['spread']:.3f}  bound {bound}")
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
