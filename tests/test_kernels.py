"""The native kernels package: parity and edge shapes.

``repro.kernels`` is the single TTM/Gram implementation every
execution layer routes through, so its correctness budget is strict:
fuzzed tight-tolerance parity against the retained tensordot/unfold
references, exact bit-identity between the public kernels and
``repro.tensor.ops``, exact Gram symmetry by construction, and
graceful zero-extent handling (which the historical unfold path could
not do).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.kernels import gemm
from repro.tensor import ops


def _random_tensor(data, *, allow_zero=False, max_d=4):
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    d = data.draw(st.integers(1, max_d))
    low = 0 if allow_zero else 1
    shape = tuple(int(rng.integers(low, 7)) for _ in range(d))
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    x = rng.standard_normal(shape).astype(dtype)
    if data.draw(st.booleans()):
        x = np.asfortranarray(x)
    mode = data.draw(st.integers(0, d - 1))
    return x, mode, rng


def _tol(dtype):
    return {"rtol": 2e-5, "atol": 2e-6} if dtype == np.float32 else {
        "rtol": 1e-12, "atol": 1e-13,
    }


def _assert_gram_close(got, ref, x, mode):
    """Gram parity within the rounding of the dot products behind it.

    A float32 entry ``G_ij`` is a dot product of two length-``n`` rows
    of the unfolding, so its rounding error scales with the row norms,
    ``sqrt(G_ii * G_jj)``, not with ``|G_ij|``: a small off-diagonal
    entry next to large diagonals carries the rounding of its whole
    row.  Bound it by ``4 u sqrt(n) sqrt(G_ii G_jj)`` (``u = 2**-24``).
    float64 keeps the per-entry tolerance of ``_tol``.
    """
    if x.dtype != np.float32:
        np.testing.assert_allclose(got, ref, **_tol(x.dtype))
        return
    n = x.size // x.shape[mode] if x.shape[mode] else 0
    scale = np.sqrt(np.abs(np.diag(ref)).astype(np.float64))
    bound = 4 * 2.0**-24 * np.sqrt(n) * np.outer(scale, scale)
    err = np.abs(got.astype(np.float64) - ref.astype(np.float64))
    assert np.all(err <= bound), (
        f"max error/bound {np.max(err / np.where(bound > 0, bound, 1)):.3g}"
    )


class TestTTMParity:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_tensordot_reference(self, data):
        x, mode, rng = _random_tensor(data)
        r = int(rng.integers(1, 7))
        u = rng.standard_normal((r, x.shape[mode])).astype(x.dtype)
        got = kernels.ttm(x, u, mode)
        ref = gemm.ttm_reference(np.ascontiguousarray(x), u, mode)
        assert got.shape == ref.shape
        assert got.dtype == x.dtype
        assert got.flags.c_contiguous
        np.testing.assert_allclose(got, ref, **_tol(x.dtype))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_transpose_spelling_is_bit_identical(self, data):
        """``ttm(x, u, m, transpose=True)`` and ``ttm(x, u.T, m)`` hand
        BLAS the identical operand view, so they agree to the bit —
        the equivalence the distributed slab fix relies on."""
        x, mode, rng = _random_tensor(data)
        r = int(rng.integers(1, 7))
        u = rng.standard_normal((x.shape[mode], r)).astype(x.dtype)
        a = kernels.ttm(x, u, mode, transpose=True)
        b = kernels.ttm(x, np.ascontiguousarray(u).T, mode)
        np.testing.assert_array_equal(a, b)

    def test_ops_layer_is_bit_identical(self, rng):
        """The public ``ops.ttm`` delegates here; no drift allowed."""
        x = rng.standard_normal((5, 4, 3))
        u = rng.standard_normal((6, 4))
        for mode, m in ((0, rng.standard_normal((2, 5))), (1, u[:, :4]),
                        (2, rng.standard_normal((2, 3)))):
            np.testing.assert_array_equal(
                ops.ttm(x, m, mode), kernels.ttm(x, m, mode)
            )

    def test_zero_extent_modes(self):
        x = np.zeros((3, 0, 4))
        u = np.zeros((2, 0))
        out = kernels.ttm(x, u, 1)
        assert out.shape == (3, 2, 4)
        np.testing.assert_array_equal(out, np.zeros((3, 2, 4)))
        out = kernels.ttm(x, np.zeros((5, 3)), 0)
        assert out.shape == (5, 0, 4)

    def test_d1_and_d2(self, rng):
        v = rng.standard_normal(6)
        u = rng.standard_normal((3, 6))
        np.testing.assert_allclose(
            kernels.ttm(v, u, 0), u @ v, rtol=1e-13
        )
        m = rng.standard_normal((4, 5))
        np.testing.assert_allclose(
            kernels.ttm(m, u[:, :5], 1), m @ u[:, :5].T, rtol=1e-13
        )

    def test_validation(self):
        x = np.zeros((3, 4))
        with pytest.raises(ValueError):
            kernels.ttm(x, np.zeros((2, 4)), 2)
        with pytest.raises(ValueError):
            kernels.ttm(x, np.zeros(4), 0)
        with pytest.raises(ValueError):
            kernels.ttm(x, np.zeros((2, 5)), 1)


class TestGramParity:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_unfold_reference(self, data):
        x, mode, _ = _random_tensor(data)
        got = kernels.gram(x, mode)
        n = x.shape[mode]
        assert got.shape == (n, n)
        assert got.dtype == x.dtype
        ref = gemm.gram_reference(np.ascontiguousarray(x), mode)
        _assert_gram_close(got, ref, x, mode)

    def test_float32_row_rounding_case(self):
        """A float32 draw whose entry (0, 4) = 0.4959 sits next to
        diagonals of 182 and is off by 1.24e-5: beyond a per-entry
        ``rtol=2e-5, atol=2e-6``, well inside the row-scaled bound."""
        rng = np.random.default_rng(208)
        shape = tuple(int(rng.integers(1, 7)) for _ in range(4))
        assert shape == (6, 6, 6, 5)
        x = rng.standard_normal(shape).astype(np.float32)
        _assert_gram_close(
            kernels.gram(x, 0), gemm.gram_reference(x, 0), x, 0
        )

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_exactly_symmetric(self, data):
        """Bitwise symmetry by construction — no symmetrize pass."""
        x, mode, _ = _random_tensor(data)
        g = kernels.gram(x, mode)
        np.testing.assert_array_equal(g, g.T)

    def test_ops_layer_is_bit_identical(self, small3):
        for mode in range(3):
            np.testing.assert_array_equal(
                ops.gram(small3, mode), kernels.gram(small3, mode)
            )

    def test_zero_size_tensor(self):
        """The historical unfold path raised on zero extents (ambiguous
        ``-1`` reshape); the kernels handle them."""
        x = np.zeros((3, 0, 4))
        for mode, n in ((0, 3), (1, 0), (2, 4)):
            g = kernels.gram(x, mode)
            assert g.shape == (n, n)
            np.testing.assert_array_equal(g, np.zeros((n, n)))

    def test_validation(self):
        with pytest.raises(ValueError):
            kernels.gram(np.zeros((2, 2)), -3)
