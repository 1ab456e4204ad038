"""Ground-truth SPMD execution on per-rank blocks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sthosvd import sthosvd
from repro.distributed.spmd import (
    gather_tensor,
    scatter_tensor,
    spmd_gram,
    spmd_sthosvd,
    spmd_ttm,
    subcomm_apply,
)
from repro.tensor.ops import gram, ttm
from repro.vmpi.collectives import allreduce_blocks
from repro.vmpi.grid import ProcessorGrid


class TestScatterGather:
    def test_roundtrip(self, small4):
        grid = ProcessorGrid((2, 1, 3, 1))
        blocks, layout = scatter_tensor(small4, grid)
        np.testing.assert_array_equal(
            gather_tensor(blocks, layout), small4
        )

    def test_blocks_are_copies(self, small3):
        grid = ProcessorGrid((2, 1, 1))
        blocks, _ = scatter_tensor(small3, grid)
        blocks[0][...] = 0
        assert not np.allclose(small3[:3], 0)


class TestSubcommApply:
    def test_identity(self, small3):
        grid = ProcessorGrid((2, 2, 1))
        blocks, _ = scatter_tensor(small3, grid)
        out = subcomm_apply(blocks, grid, 0, lambda bs: [b + 0 for b in bs])
        for a, b in zip(out, blocks):
            np.testing.assert_array_equal(a, b)

    def test_allreduce_within_subcomm_only(self, rng):
        grid = ProcessorGrid((2, 2))
        # All blocks same shape so allreduce works per column comm.
        blocks = [rng.standard_normal((3, 3)) for _ in range(4)]
        out = subcomm_apply(blocks, grid, 0, allreduce_blocks)
        # Sub-communicators along mode 0 hold ranks {(0,c),(1,c)}.
        for c in range(2):
            r0, r1 = grid.rank((0, c)), grid.rank((1, c))
            expected = blocks[r0] + blocks[r1]
            np.testing.assert_allclose(out[r0], expected)
            np.testing.assert_allclose(out[r1], expected)

    def test_size_change_rejected(self, small3):
        grid = ProcessorGrid((2, 1, 1))
        blocks, _ = scatter_tensor(small3, grid)
        with pytest.raises(ValueError):
            subcomm_apply(blocks, grid, 0, lambda bs: bs[:1])


class TestSPMDTTM:
    @pytest.mark.parametrize("dims", [(1, 1, 1), (2, 1, 1), (2, 1, 3)])
    def test_matches_sequential(self, small3, rng, dims):
        u = rng.standard_normal((small3.shape[0], 4))
        grid = ProcessorGrid(dims)
        blocks, layout = scatter_tensor(small3, grid)
        out_blocks, out_layout = spmd_ttm(blocks, layout, u, 0)
        got = gather_tensor(out_blocks, out_layout)
        np.testing.assert_allclose(
            got, ttm(small3, u, 0, transpose=True), atol=1e-11
        )

    def test_every_mode(self, small4, rng):
        grid = ProcessorGrid((2, 2, 1, 2))
        for mode in range(4):
            u = rng.standard_normal((small4.shape[mode], 2))
            blocks, layout = scatter_tensor(small4, grid)
            out_blocks, out_layout = spmd_ttm(blocks, layout, u, mode)
            np.testing.assert_allclose(
                gather_tensor(out_blocks, out_layout),
                ttm(small4, u, mode, transpose=True),
                atol=1e-11,
            )

    def test_untransposed_decompression(self, small3, rng):
        u = rng.standard_normal((9, small3.shape[1]))
        grid = ProcessorGrid((1, 2, 2))
        blocks, layout = scatter_tensor(small3, grid)
        out_blocks, out_layout = spmd_ttm(
            blocks, layout, u, 1, transpose=False
        )
        np.testing.assert_allclose(
            gather_tensor(out_blocks, out_layout),
            ttm(small3, u, 1),
            atol=1e-11,
        )


class TestSPMDGram:
    @pytest.mark.parametrize("dims", [(1, 1, 1), (2, 2, 1), (3, 2, 2)])
    def test_matches_sequential(self, small3, dims):
        grid = ProcessorGrid(dims)
        blocks, layout = scatter_tensor(small3, grid)
        for mode in range(3):
            got = spmd_gram(blocks, layout, mode)
            np.testing.assert_allclose(
                got, gram(small3, mode), atol=1e-10
            )

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_gram_property(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((5, 6, 4))
        dims = tuple(int(rng.integers(1, 3)) for _ in range(3))
        grid = ProcessorGrid(dims)
        blocks, layout = scatter_tensor(x, grid)
        mode = int(rng.integers(0, 3))
        np.testing.assert_allclose(
            spmd_gram(blocks, layout, mode), gram(x, mode), atol=1e-10
        )


class TestSPMDSTHOSVD:
    @pytest.mark.parametrize(
        "dims", [(1, 1, 1, 1), (2, 2, 1, 1), (1, 2, 2, 2), (4, 1, 1, 1)]
    )
    def test_matches_sequential(self, lowrank4, dims):
        seq, _ = sthosvd(lowrank4, ranks=(3, 4, 2, 3))
        spmd = spmd_sthosvd(lowrank4, dims, ranks=(3, 4, 2, 3))
        assert spmd.ranks == seq.ranks
        assert spmd.relative_error(lowrank4) == pytest.approx(
            seq.relative_error(lowrank4), rel=1e-6
        )
        # Same subspaces mode by mode.
        for a, b in zip(seq.factors, spmd.factors):
            np.testing.assert_allclose(a @ a.T, b @ b.T, atol=1e-7)

    def test_error_specified(self, lowrank4):
        spmd = spmd_sthosvd(lowrank4, (1, 2, 1, 2), eps=0.01)
        assert spmd.ranks == (3, 4, 2, 3)
        assert spmd.relative_error(lowrank4) <= 0.01

    def test_matches_cost_simulated_numerics(self, lowrank4):
        """SPMD ground truth vs the semantically-global simulator."""
        from repro.distributed.sthosvd import dist_sthosvd

        sim, _ = dist_sthosvd(lowrank4, (2, 2, 1, 1), ranks=(3, 4, 2, 3))
        spmd = spmd_sthosvd(lowrank4, (2, 2, 1, 1), ranks=(3, 4, 2, 3))
        np.testing.assert_allclose(
            np.abs(sim.core), np.abs(spmd.core), atol=1e-7
        )

    def test_needs_spec(self, lowrank4):
        with pytest.raises(ValueError):
            spmd_sthosvd(lowrank4, (1, 1, 1, 1))

    def test_grid_order(self, lowrank4):
        with pytest.raises(ValueError):
            spmd_sthosvd(lowrank4, (1, 1), ranks=(3, 4, 2, 3))
