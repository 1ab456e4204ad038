"""Memoized vs direct HOOI iterations on the real-process layer.

Times one full HOOI iteration (all ``d`` factor updates plus the
core-forming TTM) per variant — the dimension-tree traversal of
:class:`~repro.distributed.mp_hooi.MPTreeEngine` against the direct
all-but-one sweep — inside the *same* ``run_spmd`` worker set, so both
variants see identical processes, transport state, and segment pools.
Per variant: a warm-up iteration, a barrier, then ``reps`` timed
iterations; the reported figure is the slowest rank's per-iteration
time, best of ``TRIALS`` launches.

Two assertions:

* the executed per-iteration TTM counts match the closed forms of
  :func:`repro.analysis.costs.hooi_ttm_count` exactly (always, even in
  smoke mode) — the Table 1 certification;
* for d = 4 the tree beats the direct sweep on wall time (9 vs 13
  TTMs, and every TTM saved is also a reduce-scatter saved).  d = 3
  (6 vs 7 TTMs) is reported but not asserted.
"""

from __future__ import annotations

import os
import time

import numpy as np

from _util import save_result
from repro.analysis.costs import hooi_ttm_count
from repro.analysis.reporting import format_table
from repro.core.dimension_tree import direct_iteration, hooi_iteration_dt
from repro.distributed.layout import BlockLayout
from repro.distributed.mp_hooi import MPTreeEngine
from repro.tensor.random import random_orthonormal, tucker_plus_noise
from repro.vmpi.grid import ProcessorGrid
from repro.vmpi.mp_comm import ProcessComm, run_spmd

#: CI smoke mode: tiny tensors, one trial, no timing assertion (the
#: TTM-count certification still runs).
SMOKE = os.environ.get("MP_BENCH_SMOKE", "") == "1"

# (d, shape, ranks, grid) — 4 workers each.
CASES = [
    (3, (48, 48, 48), (8, 8, 8), (2, 2, 1)),
    (4, (20, 20, 20, 20), (5, 5, 5, 5), (2, 2, 1, 1)),
]
REPS = 3
TRIALS = 2
if SMOKE:
    CASES = [
        (3, (8, 8, 8), (2, 2, 2), (2, 2, 1)),
        (4, (6, 6, 6, 6), (2, 2, 2, 2), (2, 2, 1, 1)),
    ]
    REPS = 1
    TRIALS = 1


def _bench_program(
    comm: ProcessComm,
    blocks: list[np.ndarray],
    grid_dims: tuple[int, ...],
    shape: tuple[int, ...],
    ranks: tuple[int, ...],
    reps: int,
) -> dict[str, tuple[float, int]]:
    """Time both variants in this worker; returns per-variant
    ``(seconds per iteration, TTMs per iteration)``."""
    grid = ProcessorGrid(grid_dims)
    coords = grid.coords(comm.rank)
    layout = BlockLayout(shape, grid)
    rng = np.random.default_rng(0)
    init = [
        random_orthonormal(n, r, seed=rng) for n, r in zip(shape, ranks)
    ]
    state = (blocks[comm.rank], layout, ())

    out: dict[str, tuple[float, int]] = {}
    for variant in ("tree", "direct"):
        factors = [u.copy() for u in init]
        engine = MPTreeEngine(
            comm, coords, factors, ranks, memoize=variant == "tree"
        )

        def iteration() -> None:
            if variant == "tree":
                hooi_iteration_dt(state, engine)
            else:
                direct_iteration(state, engine)

        iteration()  # warm-up: fault in buffers, build segment pools
        comm.barrier()
        before = engine.ttm_count
        t0 = time.perf_counter()
        for _ in range(reps):
            iteration()
        dt = time.perf_counter() - t0
        out[variant] = (
            dt / reps,
            (engine.ttm_count - before) // reps,
        )
    return out


def _run_case(
    shape: tuple[int, ...],
    ranks: tuple[int, ...],
    grid_dims: tuple[int, ...],
) -> dict[str, tuple[float, int]]:
    """Slowest-rank per-iteration seconds, best of TRIALS launches."""
    grid = ProcessorGrid(grid_dims)
    layout = BlockLayout(shape, grid)
    x = tucker_plus_noise(shape, ranks, noise=1e-3, seed=7)
    blocks = [
        np.ascontiguousarray(x[layout.local_slices(coords)])
        for _, coords in grid.iter_ranks()
    ]
    best: dict[str, tuple[float, int]] = {}
    for _ in range(TRIALS):
        outs = run_spmd(
            _bench_program,
            grid.size,
            blocks,
            tuple(grid_dims),
            tuple(shape),
            tuple(ranks),
            REPS,
            timeout=300.0,
        )
        for variant in ("tree", "direct"):
            slowest = max(o[variant][0] for o in outs)
            ttms = outs[0][variant][1]
            if variant not in best or slowest < best[variant][0]:
                best[variant] = (slowest, ttms)
    return best


def test_mp_tree_vs_direct(benchmark):
    def run():
        rows = []
        wins: dict[int, float] = {}
        for d, shape, ranks, grid_dims in CASES:
            res = _run_case(shape, ranks, grid_dims)
            t_tree, ttm_tree = res["tree"]
            t_direct, ttm_direct = res["direct"]
            # Table 1 certification: executed TTMs match closed forms.
            assert ttm_tree == hooi_ttm_count(d, dimension_tree=True)
            assert ttm_direct == hooi_ttm_count(d, dimension_tree=False)
            speedup = t_direct / t_tree
            wins[d] = speedup
            rows.append(
                [
                    d,
                    "x".join(map(str, shape)),
                    ttm_tree,
                    ttm_direct,
                    t_tree * 1e3,
                    t_direct * 1e3,
                    speedup,
                ]
            )
        return rows, wins

    rows, wins = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(
        "mp_dimension_tree",
        format_table(
            [
                "d",
                "shape",
                "tree TTMs",
                "direct TTMs",
                "tree ms",
                "direct ms",
                "speedup",
            ],
            rows,
            title="memoized vs direct mp HOOI iteration (per iteration, "
            "slowest rank)",
        ),
    )
    if SMOKE:
        # Tiny sizes are latency noise; finishing with certified TTM
        # counts is the acceptance.
        assert rows
        return
    # Acceptance: the tree wins for d >= 4 (9 vs 13 TTMs).
    assert wins[4] > 1.0, f"d=4 tree slower ({wins[4]:.2f}x)"
