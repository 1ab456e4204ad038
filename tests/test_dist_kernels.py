"""Distributed kernels: numerics match sequential; costs follow the
Table 1/2 scalings."""

import numpy as np
import pytest

from repro.distributed.arrays import SymbolicArray
from repro.distributed.dist_tensor import DistTensor
from repro.distributed.kernels import (
    dist_core_analysis_cost,
    dist_gram,
    dist_gram_evd_llsv,
    dist_subspace_llsv,
    dist_ttm,
)
from repro.tensor.ops import gram, ttm
from repro.tensor.random import random_orthonormal
from repro.vmpi.cost import CostLedger
from repro.vmpi.grid import ProcessorGrid
from repro.vmpi.machine import MachineModel


def _dt(data, dims, machine=None):
    grid = ProcessorGrid(dims)
    return DistTensor(
        data, grid, CostLedger(machine or MachineModel(), grid.size)
    )


class TestDistTTM:
    def test_numerics(self, small3, rng):
        u = rng.standard_normal((small3.shape[0], 2))
        dt = _dt(small3, (2, 1, 2))
        out = dist_ttm(dt, u, 0, transpose=True)
        np.testing.assert_allclose(
            out.data, ttm(small3, u, 0, transpose=True), atol=1e-12
        )

    def test_flops_scale_inverse_p(self, small3, rng):
        u = rng.standard_normal((small3.shape[0], 2))
        f = {}
        for dims in [(1, 1, 1), (2, 1, 2)]:
            dt = _dt(small3, dims)
            dist_ttm(dt, u, 0, transpose=True)
            f[dims] = dt.ledger.phases["ttm"].flops
        # 4 ranks -> roughly a quarter of the per-rank flops (up to
        # uneven-split rounding).
        assert f[(2, 1, 2)] < f[(1, 1, 1)] / 2

    def test_no_comm_when_mode_grid_is_one(self, small3, rng):
        u = rng.standard_normal((small3.shape[0], 2))
        dt = _dt(small3, (1, 2, 2))
        dist_ttm(dt, u, 0, transpose=True)
        assert "ttm_comm" not in dt.ledger.phases

    def test_comm_when_mode_split(self, small3, rng):
        u = rng.standard_normal((small3.shape[0], 2))
        dt = _dt(small3, (2, 1, 1))
        dist_ttm(dt, u, 0, transpose=True)
        assert dt.ledger.phases["ttm_comm"].words > 0

    def test_symbolic_shape(self):
        dt = _dt(SymbolicArray((16, 16, 16)), (2, 2, 1))
        u = SymbolicArray((16, 3))
        out = dist_ttm(dt, u, 1, transpose=True)
        assert out.shape == (16, 3, 16)
        assert not out.concrete
        assert dt.ledger.seconds() > 0


class TestDistGram:
    def test_numerics(self, small3):
        dt = _dt(small3, (2, 2, 1))
        g = dist_gram(dt, 0)
        np.testing.assert_allclose(g, gram(small3, 0), atol=1e-10)

    def test_redistribute_free_when_mode_grid_one(self, small3):
        dt = _dt(small3, (1, 2, 2))
        dist_gram(dt, 0)
        assert "redistribute_comm" not in dt.ledger.phases

    def test_redistribute_charged_when_split(self, small3):
        dt = _dt(small3, (2, 1, 2))
        dist_gram(dt, 0)
        assert dt.ledger.phases["redistribute_comm"].words > 0

    def test_allreduce_words_scale_with_n_squared(self):
        words = {}
        for n in (8, 16):
            dt = _dt(SymbolicArray((n, n, n)), (2, 2, 1))
            dist_gram(dt, 0)
            words[n] = dt.ledger.phases["gram_comm"].words
        assert words[16] == pytest.approx(4 * words[8])


class TestDistGramEVDLLSV:
    def test_matches_sequential(self, lowrank3):
        from repro.linalg.llsv import LLSVMethod, llsv

        dt = _dt(lowrank3, (2, 1, 2))
        factor, spec = dist_gram_evd_llsv(dt, 0, rank=4)
        ref = llsv(lowrank3, 0, rank=4, method=LLSVMethod.GRAM_EVD)
        np.testing.assert_allclose(
            factor @ factor.T, ref.factor @ ref.factor.T, atol=1e-8
        )
        np.testing.assert_allclose(
            spec, ref.sq_singular_values, rtol=1e-8
        )

    def test_evd_charged_sequentially(self, lowrank3):
        """The EVD charge must be identical at P=1 and P=4 — it does
        not parallelize (the STHOSVD bottleneck)."""
        secs = {}
        for dims in [(1, 1, 1), (2, 2, 1)]:
            dt = _dt(lowrank3, dims)
            dist_gram_evd_llsv(dt, 0, rank=4)
            secs[dims] = dt.ledger.seconds("evd")
        assert secs[(1, 1, 1)] == pytest.approx(secs[(2, 2, 1)])

    def test_threshold_selection(self, lowrank3):
        dt = _dt(lowrank3, (1, 1, 1))
        norm_sq = np.linalg.norm(lowrank3) ** 2
        factor, _ = dist_gram_evd_llsv(dt, 0, threshold_sq=1e-4 * norm_sq)
        assert factor.shape[1] == 4

    def test_symbolic_requires_rank(self):
        dt = _dt(SymbolicArray((8, 8, 8)), (1, 1, 1))
        with pytest.raises(ValueError):
            dist_gram_evd_llsv(dt, 0, threshold_sq=1.0)

    def test_symbolic_factor_shape(self):
        dt = _dt(SymbolicArray((8, 8, 8)), (2, 1, 1))
        factor, spec = dist_gram_evd_llsv(dt, 0, rank=3)
        assert factor.shape == (8, 3)
        assert spec is None

    def test_needs_spec(self, lowrank3):
        dt = _dt(lowrank3, (1, 1, 1))
        with pytest.raises(ValueError):
            dist_gram_evd_llsv(dt, 0)


class TestDistSubspaceLLSV:
    def test_matches_sequential(self, lowrank3):
        from repro.linalg.subspace import subspace_iteration_llsv

        u0 = random_orthonormal(lowrank3.shape[0], 4, seed=0)
        dt = _dt(lowrank3, (2, 1, 2))
        got = dist_subspace_llsv(dt, 0, u0, 4)
        ref = subspace_iteration_llsv(lowrank3, 0, u0, 4)
        np.testing.assert_allclose(got, ref, atol=1e-10)

    def test_qrcp_cheaper_than_evd(self, lowrank3):
        """The §3.4 claim: sequential QRCP is O((n/r)^2) cheaper than
        the sequential EVD."""
        u0 = random_orthonormal(lowrank3.shape[0], 4, seed=1)
        dt_s = _dt(lowrank3, (2, 1, 2))
        dist_subspace_llsv(dt_s, 0, u0, 4)
        dt_g = _dt(lowrank3, (2, 1, 2))
        dist_gram_evd_llsv(dt_g, 0, rank=4)
        assert dt_s.ledger.seconds("qrcp") < dt_g.ledger.seconds("evd")

    def test_rank_exceeds_width(self, lowrank3):
        u0 = random_orthonormal(lowrank3.shape[0], 3, seed=2)
        dt = _dt(lowrank3, (1, 1, 1))
        with pytest.raises(ValueError):
            dist_subspace_llsv(dt, 0, u0, 4)

    def test_symbolic(self):
        dt = _dt(SymbolicArray((16, 12, 10)), (2, 2, 1))
        u0 = SymbolicArray((16, 4))
        out = dist_subspace_llsv(dt, 0, u0, 4)
        assert out.shape == (16, 4)
        assert dt.ledger.seconds("qrcp") > 0
        assert dt.ledger.phases["subspace_comm"].words > 0


class TestCoreAnalysisCost:
    def test_charges_gather_and_analysis(self, rng):
        core = rng.standard_normal((3, 3, 3))
        dt = _dt(core, (2, 1, 2))
        dist_core_analysis_cost(dt)
        assert dt.ledger.phases["core_comm"].words > 0
        assert dt.ledger.phases["core_analysis"].seq_flops > 0
