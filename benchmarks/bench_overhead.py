"""Overhead of the observability and verification features on
``mp_hooi_dt``, in one interleaved bench.

Times the dimension-tree HOOI sweep loop on real processes in five
launches per trial, on the same worker set and blocks:

* ``flight=False`` — the flight recorder off;
* the default config (the recorder on: its event ring with the sweep,
  phase, kernel and collective spans, and its metrics registry;
  nothing else armed);
* ``verify=True`` — the tier-2 collective-matching verifier, wait-for
  deadlock monitor and shm sanitizer;
* ``race_detect=True`` — the transport occupancy guard (SPMD223): a
  lock and a short call-site capture at each send and blocking wait;
* the default config again, the A/A row: what the bench reads when
  nothing changes.

Each feature is reported against one shared baseline, the default
config; the flight recorder, which the default arms, is reported
against ``flight=False``.  Per launch: a warm-up iteration (builds
segment pools, faults in buffers), a barrier, then ``REPS`` timed
iterations; the figure is the slowest rank's per-iteration time.  Each
trial launches every mode once, in the order above, and each mode
keeps its best of ``TRIALS`` trials, so a slow scheduler phase on a
shared host hits every mode alike.

A full-size run needs ``OPENBLAS_NUM_THREADS=1``.  The forked ranks
inherit the BLAS thread pool numpy started at import, so unpinned, each
of the 4 ranks runs its own pool on the host's cores: on 2 vCPUs an
iteration then takes 1.2-1.9 s instead of 0.12-0.16 s, and the A/A row
read +28%.  Numpy is loaded before this module runs, so the bench
cannot pin BLAS itself; it stops at once instead.

Acceptance (non-smoke): every feature costs **below 10%** over its
baseline on the guard shape, and every mode's factors are
bit-identical to the default's.  The A/A row is not gated: it shows
how far apart two launches of the same work read, so a feature row
inside its magnitude is inside the host's noise.  Each feature adds a
fixed cost per collective or per boundary (a few clock reads and
appends, a sub-KB control round, a guard entry), which vanishes on
the shapes where GEMMs and payload transfer dominate; the guard shape
is sized so compute dominates the same way.  Smoke mode
(``MP_BENCH_SMOKE=1``, the CI path) runs a tiny shape where that fixed
cost IS the runtime, so it only checks completion and bit-identity,
not the ratios.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from _util import save_json, save_result
from repro.analysis.reporting import format_table
from repro.core.dimension_tree import hooi_iteration_dt
from repro.distributed.layout import BlockLayout
from repro.distributed.mp_hooi import MPTreeEngine
from repro.tensor.random import random_orthonormal, tucker_plus_noise
from repro.vmpi.grid import ProcessorGrid
from repro.vmpi.mp_comm import CommConfig, ProcessComm, run_spmd

#: CI smoke mode: tiny tensor, one trial, no overhead-ratio assertion.
SMOKE = os.environ.get("MP_BENCH_SMOKE", "") == "1"

#: BLAS threads per rank, as the environment set them before numpy
#: loaded (a full-size run requires "1").
BLAS_THREADS = os.environ.get("OPENBLAS_NUM_THREADS", "unset")

SHAPE, RANKS, GRID = (224, 224, 224), (56, 56, 56), (2, 2, 1)
REPS = 3
TRIALS = 5
MAX_OVERHEAD = 0.10
if SMOKE:
    SHAPE, RANKS = (10, 10, 10), (3, 3, 3)
    REPS = 1
    TRIALS = 1

#: Launch order within a trial.
MODES = {
    "no-flight": CommConfig(flight=False),
    "default": CommConfig(),
    "verify": CommConfig(verify=True),
    "race_detect": CommConfig(race_detect=True),
    "default-again": CommConfig(),
}

#: (feature, mode with it on, baseline mode).
FEATURES = (
    ("flight", "default", "no-flight"),
    ("verify", "verify", "default"),
    ("race_detect", "race_detect", "default"),
)

#: The control row: the default launched again, against the default.
CONTROL = ("A/A", "default-again", "default")


def _sweep_program(
    comm: ProcessComm,
    blocks: list[np.ndarray],
    grid_dims: tuple[int, ...],
    shape: tuple[int, ...],
    ranks: tuple[int, ...],
    reps: int,
) -> tuple[float, np.ndarray]:
    """Per-iteration seconds for the dimension-tree HOOI sweep, plus the
    first factor after the timed reps (for the bit-identity check)."""
    grid = ProcessorGrid(grid_dims)
    coords = grid.coords(comm.rank)
    layout = BlockLayout(shape, grid)
    rng = np.random.default_rng(0)
    factors = [
        random_orthonormal(n, r, seed=rng) for n, r in zip(shape, ranks)
    ]
    engine = MPTreeEngine(comm, coords, factors, ranks)
    state = (blocks[comm.rank], layout)

    hooi_iteration_dt(state, engine)  # warm-up
    comm.barrier()
    t0 = time.perf_counter()
    for _ in range(reps):
        hooi_iteration_dt(state, engine)
    dt = time.perf_counter() - t0
    return dt / reps, factors[0]


def _launch(
    blocks: list[np.ndarray], config: CommConfig
) -> tuple[float, np.ndarray]:
    """One ``run_spmd`` launch; slowest rank's per-iteration time."""
    outs = run_spmd(
        _sweep_program,
        len(blocks),
        blocks,
        tuple(GRID),
        tuple(SHAPE),
        tuple(RANKS),
        REPS,
        timeout=600.0,
        config=config,
    )
    return max(o[0] for o in outs), outs[0][1]


def test_overhead(benchmark):
    if not SMOKE and BLAS_THREADS != "1":
        pytest.fail(
            "a full-size bench_overhead run needs OPENBLAS_NUM_THREADS=1 "
            f"(got {BLAS_THREADS}): set it in the environment, since numpy "
            "has already started its BLAS threads",
            pytrace=False,
        )

    def run():
        grid = ProcessorGrid(GRID)
        layout = BlockLayout(SHAPE, grid)
        x = tucker_plus_noise(SHAPE, RANKS, noise=1e-3, seed=7)
        blocks = [
            np.ascontiguousarray(x[layout.local_slices(coords)])
            for _, coords in grid.iter_ranks()
        ]
        best = dict.fromkeys(MODES, float("inf"))
        factors: dict[str, np.ndarray] = {}
        for _ in range(TRIALS):
            for mode, config in MODES.items():
                t, factors[mode] = _launch(blocks, config)
                best[mode] = min(best[mode], t)
        # No feature may perturb the numbers, at any size.
        for mode, f in factors.items():
            assert np.array_equal(f, factors["default"]), mode
        return best

    best = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = (*FEATURES, CONTROL)
    overheads = {
        feature: best[on] / best[off] - 1.0 for feature, on, off in rows
    }
    save_result(
        "overhead",
        format_table(
            ["feature", "baseline", "baseline ms", "on ms", "overhead"],
            [
                [
                    feature,
                    off,
                    best[off] * 1e3,
                    best[on] * 1e3,
                    f"{overheads[feature] * 100:.1f}%",
                ]
                for feature, on, off in rows
            ],
            title=f"mp_hooi_dt sweep {'x'.join(map(str, SHAPE))} on grid "
            f"{'x'.join(map(str, GRID))}: feature overhead "
            "(per iteration, slowest rank, best of "
            f"{TRIALS} interleaved trials, "
            f"OPENBLAS_NUM_THREADS={BLAS_THREADS})",
        ),
    )
    save_json(
        "overhead",
        {
            **{f"{mode}_seconds": t for mode, t in best.items()},
            **{f"{f}_overhead_ratio": r for f, r in overheads.items()},
        },
        params={
            "shape": list(SHAPE),
            "ranks": list(RANKS),
            "grid": list(GRID),
            "reps": REPS,
            "trials": TRIALS,
            "openblas_num_threads": BLAS_THREADS,
        },
    )
    if SMOKE:
        # Latency-bound toy shape: completing with bit-identical
        # factors is the acceptance; the ratios are meaningless here.
        return
    for feature, _, _ in FEATURES:
        ratio = overheads[feature]
        assert ratio < MAX_OVERHEAD, (
            f"{feature} overhead {ratio * 100:.1f}% exceeds "
            f"{MAX_OVERHEAD * 100:.0f}%"
        )
