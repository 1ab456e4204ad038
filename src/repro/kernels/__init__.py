"""Native-speed TTM/Gram kernels.

The paper's cost model (Tables 1-2) charges the local compute of every
distributed algorithm as GEMM flops, so the local kernels must actually
run at GEMM speed.  The historical implementations in
:mod:`repro.tensor.ops` went through ``np.tensordot`` + ``np.moveaxis``:
correct, but the tensordot packs the tensor operand into a fresh
transposed copy on every call and the ``moveaxis`` hands back a
non-contiguous view that forces yet another copy in the *next* kernel of
the chain.  This package provides reshape-GEMM-reshape paths that
operate on contiguous unfoldings directly:

* mode ``0`` / mode ``d-1`` TTMs are a single GEMM on a zero-copy
  reshape of the (C-contiguous) tensor;
* interior modes batch the ``prod(shape[:mode])`` small per-slab GEMMs
  into one ``np.matmul`` call over a zero-copy 3-D view — no transpose
  copy in, and a C-contiguous result out, so chained TTMs (the
  dimension-tree engine's inner loop) never re-pack;
* the Gram of an unfolding reuses the same boundary-mode zero-copy
  reshapes and needs at most one contiguous pack for interior modes.

Bit-compatibility
-----------------
``repro.tensor.ops.ttm``/``gram`` route through this package, so the
sequential, cost-simulated, and real-process execution layers all share
one kernel implementation and remain mutually bit-identical (the
``tests/test_parity_fuzz.py`` invariants).  They are fuzz-checked at
tight tolerance against the retained tensordot/unfold reference
implementations (:func:`repro.kernels.gemm.ttm_reference`,
:func:`repro.kernels.gemm.gram_reference`).  On large shapes the GEMM
path is empirically bit-identical to the tensordot path as well, but
only the tight-tolerance equivalence is contractual: BLAS may choose a
different (equally valid) accumulation blocking for the two
formulations on small shapes.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import gemm

__all__ = ["gram", "ttm"]


def ttm(
    tensor: np.ndarray,
    matrix: np.ndarray,
    mode: int,
    *,
    transpose: bool = False,
) -> np.ndarray:
    """Reshape-GEMM-reshape tensor-times-matrix along ``mode``.

    Semantics match :func:`repro.tensor.ops.ttm` (which delegates
    here): ``unfold(Y, mode) = op(matrix) @ unfold(tensor, mode)``.
    ``matrix`` may be any strided view — transposed operands are passed
    to BLAS natively instead of being pack-copied, which is what makes
    the contiguous row slice ``u[a:b]`` with ``transpose=True`` the
    preferred spelling for distributed factor slabs.

    The result is always C-contiguous.
    """
    d = tensor.ndim
    if not -d <= mode < d:
        raise ValueError(f"mode {mode} out of range for order {d}")
    mode %= d
    if matrix.ndim != 2:
        raise ValueError("ttm factor must be a matrix")
    op = matrix.T if transpose else matrix
    if op.shape[1] != tensor.shape[mode]:
        raise ValueError(
            f"factor contracts {op.shape[1]} entries but mode {mode} has "
            f"extent {tensor.shape[mode]}"
        )
    return gemm.ttm_apply(np.ascontiguousarray(tensor), op, mode)


def gram(tensor: np.ndarray, mode: int) -> np.ndarray:
    """Gram matrix of the mode-``mode`` unfolding, ``Y_(j) @ Y_(j).T``.

    The Gram is invariant to the column *order* of the unfolding up to
    floating-point summation order, so this kernel is free to enumerate
    columns in C order (zero-copy on the boundary modes) rather than
    the Fortran order of :func:`repro.tensor.dense.unfold`.  All
    execution layers share this kernel, so their Grams stay mutually
    bit-identical; the result is exactly symmetric (``G[i, j]`` and
    ``G[j, i]`` are the same dot product evaluated in the same order).
    """
    d = tensor.ndim
    if not -d <= mode < d:
        raise ValueError(f"mode {mode} out of range for order {d}")
    mode %= d
    return gemm.gram_apply(np.ascontiguousarray(tensor), mode)
