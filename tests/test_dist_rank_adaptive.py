"""Distributed rank-adaptive HOOI."""

import dataclasses

import numpy as np
import pytest

from repro.core.errors import ConfigError
from repro.core.rank_adaptive import RankAdaptiveOptions, rank_adaptive_hooi
from repro.distributed.arrays import SymbolicArray
from repro.distributed.rank_adaptive import dist_rank_adaptive_hooi
from repro.linalg.llsv import LLSVMethod


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes()
    )


class TestDistRankAdaptive:
    def test_meets_tolerance(self, lowrank4):
        tucker, stats = dist_rank_adaptive_hooi(
            lowrank4, 0.01, (4, 5, 3, 4), (1, 2, 2, 1)
        )
        assert stats.converged
        assert tucker.relative_error(lowrank4) <= 0.01 * (1 + 1e-6)

    def test_matches_sequential(self, lowrank4):
        opts = RankAdaptiveOptions(max_iters=3, seed=0)
        seq_t, seq_s = rank_adaptive_hooi(lowrank4, 0.01, (4, 5, 3, 4), opts)
        dist_t, dist_s = dist_rank_adaptive_hooi(
            lowrank4, 0.01, (4, 5, 3, 4), (1, 2, 1, 2), options=opts
        )
        assert dist_t.ranks == seq_t.ranks
        assert dist_s.first_satisfied == seq_s.first_satisfied
        assert [r.ranks_used for r in dist_s.history] == [
            r.ranks_used for r in seq_s.history
        ]

    @pytest.mark.parametrize("start", [(4, 5, 3, 4), (2, 2, 2, 2)])
    @pytest.mark.parametrize(
        "llsv", [LLSVMethod.SUBSPACE, LLSVMethod.GRAM_EVD]
    )
    @pytest.mark.parametrize("truncation", ["exhaustive", "greedy"])
    @pytest.mark.parametrize("stop", [True, False])
    def test_tree_path_bit_identical_to_sequential(
        self, lowrank4, start, llsv, truncation, stop
    ):
        """Both layers run the same Alg. 3 decision on the same
        tree-path bits, so everything but wall-clock seconds agrees
        exactly."""
        opts = RankAdaptiveOptions(
            max_iters=3,
            seed=0,
            stop_at_threshold=stop,
            llsv_method=llsv,
            truncation=truncation,
        )
        seq_t, seq_s = rank_adaptive_hooi(lowrank4, 0.01, start, opts)
        dist_t, dist_s = dist_rank_adaptive_hooi(
            lowrank4, 0.01, start, (1, 2, 1, 2), options=opts
        )
        assert _same_bits(dist_t.core, seq_t.core)
        assert len(dist_t.factors) == len(seq_t.factors)
        for u, v in zip(dist_t.factors, seq_t.factors):
            assert _same_bits(u, v)
        assert dist_s.converged == seq_s.converged
        assert dist_s.first_satisfied == seq_s.first_satisfied

        def no_seconds(history):
            return [dataclasses.replace(r, seconds=0.0) for r in history]

        assert no_seconds(dist_s.history) == no_seconds(seq_s.history)

    def test_iteration_seconds_recorded(self, lowrank4):
        opts = RankAdaptiveOptions(max_iters=3, stop_at_threshold=False)
        _, stats = dist_rank_adaptive_hooi(
            lowrank4, 0.05, (4, 5, 3, 4), (1, 2, 2, 1), options=opts
        )
        assert len(stats.iteration_seconds) == len(stats.history) == 3
        assert all(s > 0 for s in stats.iteration_seconds)
        assert stats.simulated_seconds == pytest.approx(
            sum(stats.iteration_seconds), rel=1e-9
        )

    def test_core_analysis_charged(self, lowrank4):
        _, stats = dist_rank_adaptive_hooi(
            lowrank4, 0.05, (4, 5, 3, 4), (1, 2, 2, 1)
        )
        assert stats.breakdown.get("core_analysis", 0) > 0
        assert stats.breakdown.get("core_comm", 0) > 0

    def test_undershoot_grows(self, lowrank4):
        opts = RankAdaptiveOptions(max_iters=6, alpha=2.0)
        tucker, stats = dist_rank_adaptive_hooi(
            lowrank4, 0.01, (1, 1, 1, 1), (1, 1, 2, 2), options=opts
        )
        assert stats.converged
        assert stats.first_satisfied > 1

    def test_symbolic_rejected(self):
        x = SymbolicArray((8, 8, 8))
        with pytest.raises(ConfigError):
            dist_rank_adaptive_hooi(x, 0.1, (2, 2, 2), (1, 1, 1))

    def test_bad_eps(self, lowrank4):
        with pytest.raises(ConfigError):
            dist_rank_adaptive_hooi(lowrank4, 1.5, (2, 2, 2, 2), (1,) * 4)

    def test_grid_order(self, lowrank4):
        with pytest.raises(ConfigError):
            dist_rank_adaptive_hooi(lowrank4, 0.1, (2, 2, 2, 2), (1, 1))

    def test_gram_variant(self, lowrank4):
        opts = RankAdaptiveOptions(
            use_dimension_tree=False,
            llsv_method=__import__(
                "repro.linalg.llsv", fromlist=["LLSVMethod"]
            ).LLSVMethod.GRAM_EVD,
        )
        tucker, stats = dist_rank_adaptive_hooi(
            lowrank4, 0.01, (4, 5, 3, 4), (1, 2, 2, 1), options=opts
        )
        assert stats.converged
        assert "evd" in stats.breakdown
