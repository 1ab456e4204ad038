"""Host probe: steal time, single-thread GEMM rates, streaming bandwidth.

    python -m ttebench.host      # prints one JSON object

``read_stat`` is pure Python so the orchestrator can sample ``/proc/stat``
around a run without importing NumPy.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

GEMM_N = 1024
#: Fallback last-level cache size when sysfs does not report one.
L3_FALLBACK = 300 * 2**20


def read_stat() -> tuple[int, int]:
    """(steal ticks, total ticks) of the aggregate ``cpu`` line."""
    with open("/proc/stat") as f:
        fields = [int(v) for v in f.readline().split()[1:9]]
    return fields[7], sum(fields)


def steal_frac(before: tuple[int, int], after: tuple[int, int]) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def l3_bytes() -> int:
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return L3_FALLBACK
    scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def probe() -> dict:
    import numpy as np

    rng = np.random.default_rng(0)
    out: dict[str, float] = {}
    for dtype, key in ((np.float32, "gemm_f32_gflops"), (np.float64, "gemm_f64_gflops")):
        a = rng.standard_normal((GEMM_N, GEMM_N)).astype(dtype)
        b = rng.standard_normal((GEMM_N, GEMM_N)).astype(dtype)
        best = float("inf")
        for _ in range(5):
            t = time.perf_counter()
            a @ b
            best = min(best, time.perf_counter() - t)
        out[key] = 2 * GEMM_N**3 / best / 1e9
    llc = l3_bytes()
    n = 4 * llc // 8
    x = np.ones(n)
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        float(np.dot(x, x))
        best = min(best, time.perf_counter() - t)
    out["stream_gbps"] = x.nbytes / best / 1e9
    out["stream_bytes"] = x.nbytes
    out["l3_bytes"] = llc
    out["gemm_n"] = GEMM_N
    return out


if __name__ == "__main__":
    print(json.dumps(probe()))
