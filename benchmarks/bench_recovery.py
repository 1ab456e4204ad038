"""Elastic in-run recovery vs full restart after a mid-run crash.

Seeds a hard rank kill late in an ``mp_hooi_dt`` run and compares the
two ways back to a finished result:

* **full restart** (``recovery="restart"``, the default): the run
  aborts, the time already spent is wasted, and the job reruns from
  scratch — cost = wasted-run seconds + a clean rerun.
* **in-run recovery** (``recovery="respawn"``): the
  survivors post their snapshots on the dead rank's EOF, the world
  relaunches, and the sweep loop resumes from the newest boundary
  snapshot — cost = the continuation attempt (relaunch + the
  remaining sweeps only).

The three arms (clean run, restart, respawn) run as interleaved
trials, and each trial rotates which arm goes first, so a slow stretch
of the host lands on every arm alike.  The table reports each arm's
median and quartiles.  Identity is asserted on every respawn trial,
smoke included: the recovered factors must be bit-identical to the
fault-free run's.  The wall-clock gate — median recovery under 25% of
the median full-restart cost (median wasted run + median clean run) —
only holds when the redone tail is small relative to the job, so it
is enforced in full mode only; smoke runs one trial, keeps the
correctness claims and skips the timing.
A full-size run needs ``OPENBLAS_NUM_THREADS=1``: the forked ranks
inherit numpy's BLAS thread pool, and four unpinned pools on a 2-vCPU
host time the host, not recovery.  Numpy is loaded before this module
runs, so the bench stops at once instead of pinning BLAS itself.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from _util import save_result
from repro.analysis.reporting import format_table
from repro.core.hooi import HOOIOptions
from repro.distributed.mp_hooi import mp_hooi_dt
from repro.vmpi.faults import FaultPlan
from repro.vmpi.mp_comm import CommConfig, RankFailureError

#: CI smoke mode: tiny tensor, identity checks only.
SMOKE = os.environ.get("MP_BENCH_SMOKE", "") == "1"

#: BLAS threads per rank, as the environment set them before numpy
#: loaded (a full-size run requires "1").
BLAS_THREADS = os.environ.get("OPENBLAS_NUM_THREADS", "unset")

GRID = (2, 2, 1)  # 4 real processes
SHAPE = (96, 90, 84)
RANKS = (12, 12, 10)
MAX_ITERS = 6
#: collective index inside the final sweep (~13 collectives per sweep
#: after ~11 setup ops on this grid/tree): the continuation redoes one
#: sweep out of six.
KILL_OP = 76
MAX_RECOVERY_SHARE = 0.25
#: interleaved trials per arm (the medians the gate compares)
TRIALS = 7
if SMOKE:
    SHAPE = (8, 9, 7)
    RANKS = (3, 3, 2)
    MAX_ITERS = 3
    KILL_OP = 11
    TRIALS = 1


def _opts() -> HOOIOptions:
    return HOOIOptions(max_iters=MAX_ITERS, seed=1)


def _cfg(policy: str | None) -> CommConfig:
    return CommConfig(
        collective_timeout=60.0,
        fault_plan=(
            None
            if policy is None
            else FaultPlan.kill(1, op_index=KILL_OP)
        ),
        recovery=policy or "restart",
    )


def _assert_tucker_equal(a, b) -> None:
    np.testing.assert_array_equal(a.core, b.core)
    for u, v in zip(a.factors, b.factors):
        np.testing.assert_array_equal(u, v)


def _quartiles(samples: list[float]) -> list[float]:
    """``[median, q1, q3]`` of the samples."""
    q1, med, q3 = np.percentile(samples, [25, 50, 75])
    return [float(med), float(q1), float(q3)]


def test_recovery(benchmark):
    if not SMOKE and BLAS_THREADS != "1":
        pytest.fail(
            "a full-size bench_recovery run needs OPENBLAS_NUM_THREADS=1 "
            f"(got {BLAS_THREADS}): set it in the environment, since numpy "
            "has already started its BLAS threads",
            pytrace=False,
        )
    x = np.random.default_rng(0).standard_normal(SHAPE)
    # The fault-free answer every respawn trial must reproduce.
    base, _ = mp_hooi_dt(x, RANKS, GRID, _opts(), comm_config=_cfg(None))

    def clean() -> dict[str, float]:
        # Fault-free run = the cost of one clean rerun.
        t0 = time.perf_counter()
        mp_hooi_dt(x, RANKS, GRID, _opts(), comm_config=_cfg(None))
        return {"clean": time.perf_counter() - t0}

    def restart() -> dict[str, float]:
        # Restart policy: the crash aborts the run; everything spent
        # up to the abort is wasted, then the job pays a clean run again.
        t0 = time.perf_counter()
        try:
            mp_hooi_dt(x, RANKS, GRID, _opts(), comm_config=_cfg("restart"))
            raise AssertionError("seeded fault did not fire")
        except RankFailureError:
            return {"wasted": time.perf_counter() - t0}

    def respawn() -> dict[str, float]:
        t0 = time.perf_counter()
        tucker, stats = mp_hooi_dt(
            x, RANKS, GRID, _opts(), comm_config=_cfg("respawn")
        )
        t_total = time.perf_counter() - t0
        _assert_tucker_equal(tucker, base)
        (event,) = stats.recovery_events
        return {
            "total": t_total,
            "recover": event.relaunch_seconds,
            "resumed": event.resumed_iteration,
        }

    def run() -> dict[str, list]:
        arms = (clean, restart, respawn)
        samples: dict[str, list] = {}
        for trial in range(TRIALS):
            for k in range(len(arms)):
                arm = arms[(trial + k) % len(arms)]
                for key, value in arm().items():
                    samples.setdefault(key, []).append(value)
        return samples

    samples = benchmark.pedantic(run, rounds=1, iterations=1)
    clean_s = _quartiles(samples["clean"])
    wasted_s = _quartiles(samples["wasted"])
    total_s = _quartiles(samples["total"])
    recover_s = _quartiles(samples["recover"])
    restart_cost = wasted_s[0] + clean_s[0]
    share = recover_s[0] / restart_cost
    table_rows = [
        ["clean run", "run", *clean_s],
        ["restart", "run until the abort (wasted)", *wasted_s],
        ["full restart", "median wasted + median clean", restart_cost,
         "-", "-"],
        ["respawn", "run total", *total_s],
        ["respawn", "time after crash", *recover_s],
    ]
    resumed = ", ".join(str(r) for r in sorted(set(samples["resumed"])))
    table = format_table(
        ["arm", "measured", "median s", "q1 s", "q3 s"],
        table_rows,
        title=(
            f"crash at collective {KILL_OP} of mp_hooi_dt {SHAPE} -> "
            f"{RANKS}, grid {GRID}, {MAX_ITERS} sweeps; {TRIALS} "
            f"interleaved trials, first arm rotating; respawn resumed "
            f"at iteration {resumed} (OPENBLAS_NUM_THREADS={BLAS_THREADS})"
        ),
    )
    save_result(
        "recovery",
        f"{table}\nmedian recovery = {share * 100:.1f}% of the median "
        f"full restart (gate: < {MAX_RECOVERY_SHARE:.0%})",
    )
    if SMOKE:
        return
    # The crash lands in the final sweep; resuming from its opening
    # boundary means redoing one sweep, not the whole job.
    assert min(samples["resumed"]) >= MAX_ITERS - 2
    assert share < MAX_RECOVERY_SHARE, (
        f"respawn: median recovery took {recover_s[0]:.3f}s, over "
        f"{MAX_RECOVERY_SHARE:.0%} of the {restart_cost:.3f}s median "
        "full-restart cost"
    )
