"""Process-parallel HOSI, memoized HOOI, and rank-adaptive HOSI."""

import numpy as np
import pytest

from repro.analysis.costs import hooi_ttm_count
from repro.core.hooi import HOOIOptions, hooi, variant_options
from repro.core.rank_adaptive import (
    RankAdaptiveOptions,
    rank_adaptive_hooi,
)
from repro.distributed.layout import BlockLayout
from repro.distributed.mp_hooi import (
    MPTreeEngine,
    mp_hooi_dt,
    mp_rahosi_dt,
)
from repro.distributed.spmd_hooi import spmd_hooi
from repro.linalg.llsv import LLSVMethod
from repro.tensor.random import random_orthonormal, tucker_plus_noise
from repro.vmpi.collectives import hooi_collective_counts
from repro.vmpi.grid import ProcessorGrid
from repro.vmpi.mp_comm import ProcessComm, run_spmd


def _run_hosi(x, ranks, dims, **overrides):
    """Direct-TTM HOSI on processes: ``mp_hooi_dt`` with the ``hosi``
    variant (no dimension tree, subspace-iteration LLSV)."""
    opts = variant_options("hosi", **overrides)
    return mp_hooi_dt(x, ranks, dims, opts)[0]


class TestMPHOSI:
    @pytest.mark.parametrize("dims", [(1, 1, 1), (2, 2, 1), (1, 2, 2)])
    def test_matches_sequential(self, dims):
        x = tucker_plus_noise((14, 12, 10), (3, 3, 2), noise=1e-4, seed=1)
        opts = variant_options("hosi", max_iters=2, seed=7)
        seq, _ = hooi(x, (3, 3, 2), opts)
        par = _run_hosi(x, (3, 3, 2), dims, max_iters=2, seed=7)
        assert par.relative_error(x) == pytest.approx(
            seq.relative_error(x), rel=1e-6
        )
        for a, b in zip(seq.factors, par.factors):
            np.testing.assert_allclose(a @ a.T, b @ b.T, atol=1e-7)

    def test_4way(self):
        x = tucker_plus_noise((8, 8, 8, 8), (2, 2, 2, 2), noise=1e-4, seed=2)
        par = _run_hosi(x, (2, 2, 2, 2), (1, 2, 2, 1), max_iters=2, seed=3)
        assert par.relative_error(x) < 1e-3

    def test_validation(self):
        x = np.zeros((4, 4, 4))
        with pytest.raises(ValueError):
            _run_hosi(x, (2, 2, 2), (1, 1))
        with pytest.raises(ValueError):
            _run_hosi(x, (9, 2, 2), (1, 1, 1))


class TestMPHooiDT:
    @pytest.mark.parametrize("dims", [(1, 1, 1), (2, 2, 1), (1, 2, 2)])
    def test_bitwise_vs_spmd_tree(self, dims):
        """The mp tree engine is bit-identical to the in-process SPMD
        tree engine (both reduce in rank order)."""
        x = tucker_plus_noise((12, 11, 10), (3, 3, 2), noise=1e-4, seed=4)
        opts = HOOIOptions(max_iters=2, seed=5)
        ref = spmd_hooi(x, (3, 3, 2), dims, opts)
        par, stats = mp_hooi_dt(x, (3, 3, 2), dims, opts)
        assert stats.used_tree
        assert np.array_equal(par.core, ref.core)
        for a, b in zip(par.factors, ref.factors):
            assert np.array_equal(a, b)

    def test_bitwise_vs_spmd_direct(self):
        x = tucker_plus_noise((10, 9, 8), (2, 3, 2), noise=1e-4, seed=6)
        opts = HOOIOptions(max_iters=2, seed=7, use_dimension_tree=False)
        ref = spmd_hooi(x, (2, 3, 2), (1, 2, 2), opts)
        par, stats = mp_hooi_dt(x, (2, 3, 2), (1, 2, 2), opts)
        assert not stats.used_tree
        assert np.array_equal(par.core, ref.core)
        for a, b in zip(par.factors, ref.factors):
            assert np.array_equal(a, b)

    def test_gram_evd_llsv_bitwise(self):
        x = tucker_plus_noise((10, 9, 8), (2, 2, 2), noise=1e-4, seed=8)
        opts = HOOIOptions(
            max_iters=2, seed=9, llsv_method=LLSVMethod.GRAM_EVD
        )
        ref = spmd_hooi(x, (2, 2, 2), (2, 1, 2), opts)
        par, _ = mp_hooi_dt(x, (2, 2, 2), (2, 1, 2), opts)
        assert np.array_equal(par.core, ref.core)
        for a, b in zip(par.factors, ref.factors):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("rule", ["half", "single"])
    @pytest.mark.parametrize("d", [3, 4])
    def test_per_iteration_ttm_count_certified(self, d, rule):
        """Traced TTM counts match the memoized Table 1 formula: the
        core TTM appears only in the final iteration's count."""
        shape = (8, 7, 6, 5)[:d]
        ranks = (2, 2, 2, 2)[:d]
        grid = (2, 2, 1, 1)[:d]
        x = tucker_plus_noise(shape, ranks, noise=1e-3, seed=10)
        opts = HOOIOptions(max_iters=3, seed=11)
        _, stats = mp_hooi_dt(x, ranks, grid, opts, rule=rule)
        expected = [
            hooi_ttm_count(d, rule=rule, include_core=False),
            hooi_ttm_count(d, rule=rule, include_core=False),
            hooi_ttm_count(d, rule=rule, include_core=True),
        ]
        assert stats.per_iteration_ttms == expected
        # The trace tells the same story: the engine counters and the
        # phase-tagged reduce-scatters agree exactly.
        assert stats.trace.count("reduce_scatter", "ttm", "core") == sum(
            expected
        )
        assert stats.trace.count("reduce_scatter", "core") == 1

    def test_core_ttm_once_not_per_iteration(self):
        """Regression for the trailing core-forming TTM: two outer
        iterations cost T, T+1 TTMs — not (T+1), (T+1)."""
        x = tucker_plus_noise((8, 8, 8), (2, 2, 2), noise=1e-3, seed=12)
        _, stats = mp_hooi_dt(
            x, (2, 2, 2), (1, 2, 2), HOOIOptions(max_iters=2, seed=13)
        )
        t = hooi_ttm_count(3, include_core=False)
        assert stats.per_iteration_ttms == [t, t + 1]
        # Direct path gets the same fix.
        _, stats = mp_hooi_dt(
            x,
            (2, 2, 2),
            (1, 2, 2),
            HOOIOptions(max_iters=2, seed=13, use_dimension_tree=False),
        )
        td = hooi_ttm_count(3, dimension_tree=False, include_core=False)
        assert stats.per_iteration_ttms == [td, td + 1]

    def test_collective_schedule_certified(self):
        """Rank 0's phase-tagged trace matches the closed-form
        per-iteration collective counts of the subspace variant."""
        d = 4
        x = tucker_plus_noise(
            (7, 6, 6, 5), (2, 2, 2, 2), noise=1e-3, seed=14
        )
        _, stats = mp_hooi_dt(
            x,
            (2, 2, 2, 2),
            (1, 2, 2, 1),
            HOOIOptions(max_iters=1, seed=15, n_subspace_iters=2),
        )
        n_ttms = hooi_ttm_count(d)
        expected = hooi_collective_counts(
            d, n_ttms, subspace=True, n_subspace_iters=2
        )
        trace = stats.trace
        assert trace.count("reduce_scatter") == expected["reduce_scatter"]
        assert trace.count("alltoall") == expected["alltoall"]
        assert trace.count("allgather") == 0
        assert trace.count("allreduce") == expected["allreduce"]
        # Phase split: tree TTMs + core vs LLSV-internal reduce-scatters.
        assert trace.count("reduce_scatter", "ttm", "core") == n_ttms
        assert (
            trace.count("reduce_scatter", "llsv")
            == expected["reduce_scatter"] - n_ttms
        )

    def test_gram_evd_schedule_certified(self):
        d = 3
        x = tucker_plus_noise((8, 7, 6), (2, 2, 2), noise=1e-3, seed=16)
        _, stats = mp_hooi_dt(
            x,
            (2, 2, 2),
            (2, 1, 2),
            HOOIOptions(
                max_iters=1, seed=17, llsv_method=LLSVMethod.GRAM_EVD
            ),
        )
        n_ttms = hooi_ttm_count(d)
        expected = hooi_collective_counts(d, n_ttms, subspace=False)
        assert (
            stats.trace.count("reduce_scatter")
            == expected["reduce_scatter"]
        )
        assert stats.trace.count("alltoall") == expected["alltoall"]
        assert stats.trace.count("allgather") == 0
        assert stats.trace.count("allreduce") == expected["allreduce"]

    def test_unknown_llsv_rejected(self):
        from repro.core.errors import ConfigError

        x = np.zeros((4, 4, 4))
        with pytest.raises(ConfigError):
            mp_hooi_dt(
                x,
                (2, 2, 2),
                (1, 1, 1),
                HOOIOptions(llsv_method=LLSVMethod.LQ_SVD),
            )


def _prog_cache(
    comm: ProcessComm,
    blocks: list[np.ndarray],
    grid_dims: tuple[int, ...],
    shape: tuple[int, ...],
    ranks: tuple[int, ...],
) -> dict:
    """Exercise MPTreeEngine memoization + eviction inside a worker."""
    grid = ProcessorGrid(grid_dims)
    coords = grid.coords(comm.rank)
    layout = BlockLayout(shape, grid)
    rng = np.random.default_rng(0)
    factors = [
        random_orthonormal(n, r, seed=rng) for n, r in zip(shape, ranks)
    ]
    engine = MPTreeEngine(comm, coords, factors, ranks)
    state = (blocks[comm.rank], layout, ())
    out: dict = {}

    c1 = engine.contract(state, (2, 1))
    out["misses_after_first"] = engine.cache_misses
    out["ttms_after_first"] = engine.ttm_count
    c2 = engine.contract(state, (2, 1))
    out["hits_after_repeat"] = engine.cache_hits
    out["ttms_after_repeat"] = engine.ttm_count
    out["repeat_identical"] = bool(np.array_equal(c1[0], c2[0]))

    # Updating factor 0 must NOT evict nodes built from modes {2, 1}.
    engine.update_factor(c1, 0)
    engine.contract(state, (2, 1))
    out["hits_after_unrelated_update"] = engine.cache_hits

    # Updating factor 1 evicts every node that used it: the (2,) node
    # survives, the (2, 1) node is recomputed.
    engine.update_factor(engine.contract(state, (2, 0)), 1)
    before = engine.ttm_count
    engine.contract(state, (2, 1))
    out["ttms_for_partial_recompute"] = engine.ttm_count - before

    # reset_factors invalidates everything (the RA truncation path).
    engine.reset_factors(engine.factors, engine.ranks)
    before = engine.ttm_count
    engine.contract(state, (2, 1))
    out["ttms_after_reset"] = engine.ttm_count - before
    return out


class TestMPTreeEngineCache:
    def test_memoization_and_eviction(self):
        shape, ranks = (6, 6, 6), (2, 2, 2)
        x = tucker_plus_noise(shape, ranks, noise=1e-3, seed=18)
        grid = ProcessorGrid((1, 1, 1))
        layout = BlockLayout(shape, grid)
        blocks = [
            np.ascontiguousarray(x[layout.local_slices(coords)])
            for _, coords in grid.iter_ranks()
        ]
        (out,) = run_spmd(
            _prog_cache, 1, blocks, (1, 1, 1), shape, ranks
        )
        assert out["misses_after_first"] == 2
        assert out["ttms_after_first"] == 2
        # Exact repeat: both nodes served from cache, no new TTM.
        assert out["hits_after_repeat"] == 2
        assert out["ttms_after_repeat"] == 2
        assert out["repeat_identical"]
        # Mode-0 update leaves {2,1}-nodes valid.
        assert out["hits_after_unrelated_update"] == 4
        # Mode-1 update: (2,) reused, (2,1) recomputed -> exactly 1 TTM.
        assert out["ttms_for_partial_recompute"] == 1
        # Version bump-all: everything recomputed.
        assert out["ttms_after_reset"] == 2


class TestMPRAHOSI:
    def test_matches_sequential_ra(self):
        x = tucker_plus_noise(
            (8, 9, 8, 7), (3, 3, 3, 2), noise=1e-4, seed=1
        )
        eps = 1e-2
        opts = RankAdaptiveOptions(seed=0)
        seq, seq_stats = rank_adaptive_hooi(x, eps, (2, 2, 2, 2), opts)
        par, stats = mp_rahosi_dt(x, eps, (2, 2, 2, 2), (1, 2, 2, 1), opts)
        assert stats.converged
        assert stats.first_satisfied == seq_stats.first_satisfied
        assert par.ranks == seq.ranks
        assert len(stats.history) == len(seq_stats.history)
        for mine, ref in zip(stats.history, seq_stats.history):
            assert mine.ranks_used == ref.ranks_used
            assert mine.satisfied == ref.satisfied
            assert mine.error == pytest.approx(ref.error, abs=1e-8)
        assert stats.history[-1].truncated_ranks == par.ranks
        rec = np.linalg.norm(par.reconstruct() - x) / np.linalg.norm(x)
        assert rec <= eps

    def test_growth_path(self):
        """Under-estimated start grows ranks before satisfying."""
        x = tucker_plus_noise((9, 8, 8), (4, 4, 3), noise=1e-5, seed=2)
        par, stats = mp_rahosi_dt(
            x,
            1e-3,
            (2, 2, 2),
            (1, 2, 2),
            RankAdaptiveOptions(seed=3, alpha=1.5, max_iters=4),
        )
        assert stats.converged
        assert len(stats.history) >= 2
        grown = stats.history[1].ranks_used
        assert all(g > s for g, s in zip(grown, (2, 2, 2)))
        rec = np.linalg.norm(par.reconstruct() - x) / np.linalg.norm(x)
        assert rec <= 1e-3

    def test_core_formed_every_iteration(self):
        """RA consumes the core each iteration, so every per-iteration
        TTM count includes the core-forming TTM."""
        x = tucker_plus_noise((8, 8, 8), (3, 3, 3), noise=1e-4, seed=4)
        _, stats = mp_rahosi_dt(
            x,
            1e-2,
            (2, 2, 2),
            (2, 2, 1),
            RankAdaptiveOptions(seed=5, max_iters=3),
        )
        t_full = hooi_ttm_count(3, include_core=True)
        assert stats.per_iteration_ttms == [t_full] * len(
            stats.per_iteration_ttms
        )
        assert stats.trace.count(
            "reduce_scatter", "core"
        ) == len(stats.per_iteration_ttms)

    def test_eps_validation(self):
        from repro.core.errors import ConfigError

        x = np.zeros((4, 4, 4))
        with pytest.raises(ConfigError):
            mp_rahosi_dt(x, 0.0, (2, 2, 2), (1, 1, 1))
        with pytest.raises(ConfigError):
            mp_rahosi_dt(x, 1.0, (2, 2, 2), (1, 1, 1))
