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

Identity is asserted everywhere, smoke included: the recovered factors
must be bit-identical to the fault-free run's.  The wall-clock gate —
recovery under 25% of the full-restart cost — only holds when the
redone tail is small relative to the job, so it is enforced in full
mode only; smoke keeps the correctness claims and skips the timing.
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
if SMOKE:
    SHAPE = (8, 9, 7)
    RANKS = (3, 3, 2)
    MAX_ITERS = 3
    KILL_OP = 11


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


def test_recovery(benchmark):
    if not SMOKE and BLAS_THREADS != "1":
        pytest.fail(
            "a full-size bench_recovery run needs OPENBLAS_NUM_THREADS=1 "
            f"(got {BLAS_THREADS}): set it in the environment, since numpy "
            "has already started its BLAS threads",
            pytrace=False,
        )
    x = np.random.default_rng(0).standard_normal(SHAPE)

    def run():
        # Fault-free baseline = the cost of one clean rerun.
        t0 = time.perf_counter()
        base, _ = mp_hooi_dt(x, RANKS, GRID, _opts(), comm_config=_cfg(None))
        t_clean = time.perf_counter() - t0

        # Restart policy: the crash aborts the run; everything spent
        # up to the abort is wasted, then the job pays t_clean again.
        t0 = time.perf_counter()
        try:
            mp_hooi_dt(
                x, RANKS, GRID, _opts(), comm_config=_cfg("restart")
            )
            raise AssertionError("seeded fault did not fire")
        except RankFailureError:
            t_wasted = time.perf_counter() - t0
        t_restart = t_wasted + t_clean

        t0 = time.perf_counter()
        tucker, stats = mp_hooi_dt(
            x, RANKS, GRID, _opts(), comm_config=_cfg("respawn")
        )
        t_total = time.perf_counter() - t0
        _assert_tucker_equal(tucker, base)
        (event,) = stats.recovery_events
        t_recover = event.relaunch_seconds
        return (
            t_clean, t_wasted, t_restart, t_total, t_recover,
            event.resumed_iteration,
        )

    t_clean, t_wasted, t_restart, t_total, t_recover, resumed = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )
    table_rows = [
        ["full restart", "-", t_wasted + t_clean, t_restart, "100.0%"],
        [
            "respawn",
            resumed,
            t_total,
            t_recover,
            f"{t_recover / t_restart * 100:.1f}%",
        ],
    ]
    save_result(
        "recovery",
        format_table(
            [
                "strategy", "resumed iter", "run total s",
                "time after crash s", "vs full restart",
            ],
            table_rows,
            title=(
                f"crash at collective {KILL_OP} of mp_hooi_dt "
                f"{SHAPE} -> {RANKS}, grid {GRID}, "
                f"{MAX_ITERS} sweeps (clean run {t_clean:.3f}s, "
                f"OPENBLAS_NUM_THREADS={BLAS_THREADS})"
            ),
        ),
    )
    if SMOKE:
        return
    # The crash lands in the final sweep; resuming from its opening
    # boundary means redoing one sweep, not the whole job.
    assert resumed >= MAX_ITERS - 2
    assert t_recover < MAX_RECOVERY_SHARE * t_restart, (
        f"respawn: recovery took {t_recover:.3f}s, over "
        f"{MAX_RECOVERY_SHARE:.0%} of the {t_restart:.3f}s "
        "full-restart cost"
    )
