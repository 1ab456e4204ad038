"""Tensor-times-matrix kernels and related contractions.

These are the computational kernels whose distributed counterparts
dominate the cost analysis in the paper (Tables 1 and 2): the TTM, the
multi-TTM, the Gram matrix of an unfolding, and the all-but-one-mode
contraction used by subspace iteration (Alg. 5, line 3).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro import kernels
from repro.tensor.dense import tensor_norm
from repro.tensor.validation import check_mode

__all__ = [
    "ttm",
    "multi_ttm",
    "gram",
    "contract_all_but_mode",
    "relative_error",
    "ttm_flops",
]


def ttm(
    tensor: np.ndarray,
    matrix: np.ndarray,
    mode: int,
    *,
    transpose: bool = False,
) -> np.ndarray:
    """Tensor-times-matrix product ``tensor x_mode matrix``.

    Computes ``Y`` with ``unfold(Y, mode) = op(matrix) @ unfold(tensor,
    mode)`` where ``op`` is transpose when ``transpose`` is set.  With
    ``transpose=True`` and an ``n_j x r_j`` factor this is the truncation
    step ``Y = X x_j U^T`` used throughout STHOSVD and HOOI.

    Parameters
    ----------
    tensor:
        Input ``d``-way array.
    matrix:
        2-D factor. Its second (first, if ``transpose``) dimension must
        match ``tensor.shape[mode]``.
    mode:
        Mode to contract.
    transpose:
        Multiply by ``matrix.T`` instead of ``matrix``.
    """
    mode = check_mode(tensor.ndim, mode)
    # The reshape-GEMM-reshape body lives in repro.kernels; it
    # validates the operand shapes.
    return kernels.ttm(tensor, matrix, mode, transpose=transpose)


def multi_ttm(
    tensor: np.ndarray,
    matrices: Sequence[np.ndarray | None],
    *,
    transpose: bool = False,
    skip: int | None = None,
    modes: Sequence[int] | None = None,
) -> np.ndarray:
    """Multi-TTM: contract ``tensor`` with one matrix per listed mode.

    Parameters
    ----------
    tensor:
        Input ``d``-way array.
    matrices:
        When ``modes`` is omitted, a length-``d`` sequence aligned with
        the tensor modes; entries that are ``None`` (or the ``skip``
        mode) are left uncontracted.  When ``modes`` is given, a sequence
        of the same length as ``modes``.
    transpose:
        Apply each factor transposed (the compression direction).
    skip:
        Convenience for the all-but-one multi-TTM of HOOI: skip this
        mode even if a matrix is supplied for it.
    modes:
        Explicit mode list matching ``matrices``.

    Notes
    -----
    The contraction order processes modes so the largest dimension
    reductions happen first, which minimizes intermediate sizes —
    the same greedy ordering TuckerMPI applies.
    """
    if modes is None:
        if len(matrices) != tensor.ndim:
            raise ValueError(
                "without explicit modes, one matrix (or None) per tensor "
                "mode is required"
            )
        pairs = [
            (m, mat)
            for m, mat in enumerate(matrices)
            if mat is not None and m != skip
        ]
    else:
        if len(modes) != len(matrices):
            raise ValueError("modes and matrices must have equal length")
        pairs = [
            (check_mode(tensor.ndim, m), mat)
            for m, mat in zip(modes, matrices)
            if mat is not None and m != skip
        ]
        if len({m for m, _ in pairs}) != len(pairs):
            raise ValueError("duplicate modes in multi_ttm")

    def reduction(item: tuple[int, np.ndarray]) -> float:
        mode, mat = item
        rows = mat.shape[1] if transpose else mat.shape[0]
        return rows / tensor.shape[mode]

    out = tensor
    for mode, mat in sorted(pairs, key=reduction):
        out = ttm(out, mat, mode, transpose=transpose)
    return out


def gram(tensor: np.ndarray, mode: int) -> np.ndarray:
    """Gram matrix of the mode-``mode`` unfolding, ``Y_(j) @ Y_(j).T``.

    This is the symmetric kernel TuckerMPI's default LLSV builds before
    its (sequential) eigendecomposition.  The body lives in
    :mod:`repro.kernels`, whose GEMM formulation is exactly symmetric by
    construction (no symmetrize pass needed) and is shared by every
    execution layer so their Grams stay mutually bit-identical.
    """
    return kernels.gram(tensor, mode)


def contract_all_but_mode(
    a: np.ndarray, b: np.ndarray, mode: int
) -> np.ndarray:
    """Contract two tensors over every mode except ``mode``.

    Returns ``unfold(a, mode) @ unfold(b, mode).T`` — the nonsymmetric
    "Gram-like" kernel of subspace iteration (Alg. 5, line 3, computing
    ``Z = A @ G.T``) — without explicitly forming either unfolding when
    shapes differ only in ``mode``.
    """
    mode = check_mode(a.ndim, mode)
    if a.ndim != b.ndim:
        raise ValueError("operands must have equal order")
    for m in range(a.ndim):
        if m != mode and a.shape[m] != b.shape[m]:
            raise ValueError(
                f"operands disagree in mode {m}: {a.shape[m]} vs {b.shape[m]}"
            )
    axes = [m for m in range(a.ndim) if m != mode]
    return np.tensordot(a, b, axes=(axes, axes))


def relative_error(reference: np.ndarray, approx: np.ndarray) -> float:
    """``||reference - approx|| / ||reference||``."""
    denom = tensor_norm(reference)
    if denom == 0.0:
        return 0.0 if tensor_norm(approx) == 0.0 else float("inf")
    return tensor_norm(reference - approx) / denom


def ttm_flops(
    shape: Sequence[int], matrix_rows: int, mode: int
) -> int:
    """Flop count of a single dense TTM (2 * rows * size ratio).

    A TTM in mode ``j`` of an ``n_1 x ... x n_d`` tensor with an
    ``m x n_j`` operand is a GEMM costing ``2 * m * prod(n)`` flops.
    Used by the cost ledger so simulated and analytic counts agree.
    """
    size = 1
    for s in shape:
        size *= int(s)
    return 2 * int(matrix_rows) * size
