"""Block-level collectives and their alpha-beta cost formulas.

Two layers live here:

* **Executable collectives** operating on lists of per-rank NumPy
  blocks.  These implement the actual data movement (validated against
  NumPy references in the tests) and are used by the scatter/gather
  paths of :class:`repro.distributed.dist_tensor.DistTensor` and by the
  small-``P`` SPMD validation tests.
* **Cost formulas** returning per-rank ``(words, messages)`` for each
  collective under standard bandwidth-optimal algorithms (ring
  reduce-scatter/allgather, ring allreduce, binomial-tree broadcast).
  The distributed kernels charge these to the
  :class:`~repro.vmpi.cost.CostLedger`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

__all__ = [
    "allreduce_blocks",
    "reduce_scatter_blocks",
    "allgather_blocks",
    "alltoall_blocks",
    "bcast_block",
    "gather_blocks",
    "allreduce_cost",
    "reduce_scatter_cost",
    "allgather_cost",
    "alltoall_cost",
    "bcast_cost",
    "gather_cost",
    "allreduce_short_cost",
    "allreduce_crossover_words",
    "select_allreduce_algorithm",
    "hooi_collective_counts",
    "fit_alpha_beta",
    "transport_crossover_bytes",
]


# ---------------------------------------------------------------------------
# executable collectives
# ---------------------------------------------------------------------------


def _check_blocks(blocks: Sequence[np.ndarray]) -> None:
    if len(blocks) == 0:
        raise ValueError("collective needs at least one rank")
    shape = blocks[0].shape
    for i, b in enumerate(blocks):
        if b.shape != shape:
            raise ValueError(
                f"rank {i} block shape {b.shape} differs from {shape}"
            )


def allreduce_blocks(blocks: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Sum of all ranks' blocks, replicated to every rank."""
    _check_blocks(blocks)
    total = blocks[0].copy()
    for b in blocks[1:]:
        total += b
    return [total.copy() for _ in blocks]


def reduce_scatter_blocks(
    blocks: Sequence[np.ndarray], axis: int = 0
) -> list[np.ndarray]:
    """Sum all ranks' blocks, then scatter equal slabs along ``axis``.

    Rank ``i`` receives the ``i``-th of ``p`` near-equal slabs (NumPy
    ``array_split`` semantics, so extents need not divide evenly).
    """
    _check_blocks(blocks)
    total = blocks[0].copy()
    for b in blocks[1:]:
        total += b
    return [s.copy() for s in np.array_split(total, len(blocks), axis=axis)]


def allgather_blocks(
    blocks: Sequence[np.ndarray], axis: int = 0
) -> list[np.ndarray]:
    """Concatenate all ranks' blocks along ``axis``; replicate result."""
    if len(blocks) == 0:
        raise ValueError("collective needs at least one rank")
    cat = np.concatenate(list(blocks), axis=axis)
    return [cat.copy() for _ in blocks]


def alltoall_blocks(
    send: Sequence[Sequence[np.ndarray]],
) -> list[list[np.ndarray]]:
    """Personalized all-to-all: ``recv[j][i] = send[i][j]``."""
    p = len(send)
    for i, row in enumerate(send):
        if len(row) != p:
            raise ValueError(f"rank {i} sends {len(row)} pieces, expected {p}")
    return [[send[i][j].copy() for i in range(p)] for j in range(p)]


def bcast_block(block: np.ndarray, p: int) -> list[np.ndarray]:
    """Replicate ``block`` to ``p`` ranks."""
    if p < 1:
        raise ValueError("p must be positive")
    return [block.copy() for _ in range(p)]


def gather_blocks(
    blocks: Sequence[np.ndarray], root: int = 0
) -> list[np.ndarray | None]:
    """Collect every rank's block at ``root`` (others receive ``None``)."""
    out: list[np.ndarray | None] = [None] * len(blocks)
    out[root] = list(b.copy() for b in blocks)  # type: ignore[assignment]
    return out


# ---------------------------------------------------------------------------
# cost formulas: per-rank (words, messages)
# ---------------------------------------------------------------------------


def allreduce_cost(n: float, p: int) -> tuple[float, float]:
    """Ring allreduce of ``n`` total words over ``p`` ranks."""
    if p <= 1:
        return 0.0, 0.0
    return 2.0 * n * (p - 1) / p, 2.0 * (p - 1)


def reduce_scatter_cost(n: float, p: int) -> tuple[float, float]:
    """Ring reduce-scatter of ``n`` total words over ``p`` ranks."""
    if p <= 1:
        return 0.0, 0.0
    return n * (p - 1) / p, float(p - 1)


def allgather_cost(n: float, p: int) -> tuple[float, float]:
    """Ring allgather whose *result* is ``n`` words, over ``p`` ranks."""
    if p <= 1:
        return 0.0, 0.0
    return n * (p - 1) / p, float(p - 1)


def alltoall_cost(n_local: float, p: int) -> tuple[float, float]:
    """Personalized all-to-all where each rank holds ``n_local`` words."""
    if p <= 1:
        return 0.0, 0.0
    return n_local * (p - 1) / p, float(p - 1)


def bcast_cost(n: float, p: int) -> tuple[float, float]:
    """Binomial-tree broadcast of ``n`` words over ``p`` ranks."""
    if p <= 1:
        return 0.0, 0.0
    return float(n), float(math.ceil(math.log2(p)))


def gather_cost(n: float, p: int) -> tuple[float, float]:
    """Binomial-tree gather of ``n`` total words to one root over ``p``
    ranks (root bandwidth ``n (p-1)/p``, ``log p`` latency rounds)."""
    if p <= 1:
        return 0.0, 0.0
    return n * (p - 1) / p, float(math.ceil(math.log2(p)))


# ---------------------------------------------------------------------------
# per-algorithm schedule costs (certified against executed schedules)
# ---------------------------------------------------------------------------
#
# The executing mini-MPI (:mod:`repro.vmpi.mp_comm`) runs one schedule
# per collective, except that allreduce picks a latency-optimal short
# algorithm for small payloads.  Its per-rank ``(words, messages)``
# profile is below; the long allreduce and every other collective run
# exactly the generic ``*_cost`` formulas above (what the simulator
# charges).  ``tests/test_schedule_cost.py`` asserts all of them
# against the message counters the transport actually records.


def allreduce_short_cost(n: float, p: int) -> tuple[float, float]:
    """Latency-optimal allreduce for short payloads of ``n`` words.

    Bruck-style recursive-doubling allgather of all ``p`` contributions
    followed by a local rank-order reduction: ``ceil(log2 p)`` rounds,
    ``n (p-1)`` words sent per rank.  Works for any ``p`` and reduces
    in deterministic rank order (bit-identical to a sequential
    left-to-right sum).
    """
    if p <= 1:
        return 0.0, 0.0
    return n * (p - 1), float(math.ceil(math.log2(p)))


def allreduce_crossover_words(
    p: int, *, alpha: float = 2.0e-6, beta: float = 3.2e-10
) -> float:
    """Payload size (words) where the long allreduce overtakes the short.

    Equating the alpha-beta times of :func:`allreduce_short_cost`
    (``alpha ceil(log2 p) + beta n (p-1)``) and :func:`allreduce_cost`
    (``alpha 2(p-1) + beta 2n(p-1)/p``) gives

    ``n* = alpha (2(p-1) - ceil(log2 p)) / (beta (p-1)(p-2)/p)``.

    For ``p <= 2`` the short algorithm is never worse (the bandwidth
    terms coincide), so the crossover is infinite.
    """
    if p <= 2:
        return math.inf
    latency_gain = alpha * (2.0 * (p - 1) - math.ceil(math.log2(p)))
    bandwidth_loss = beta * (p - 1) * (p - 2) / p
    return latency_gain / bandwidth_loss


def select_allreduce_algorithm(
    n: float, p: int, *, alpha: float = 2.0e-6, beta: float = 3.2e-10
) -> str:
    """Pick ``"short"`` or ``"long"`` for an ``n``-word allreduce.

    Uses the same alpha/beta constants the cost formulas charge (the
    :class:`~repro.vmpi.machine.MachineModel` defaults), so the
    executing layer's algorithm choice and the simulator's charges are
    driven by one threshold: payloads at or below
    :func:`allreduce_crossover_words` go latency-optimal, larger ones
    bandwidth-optimal.
    """
    if p <= 1:
        return "short"
    return (
        "short"
        if n <= allreduce_crossover_words(p, alpha=alpha, beta=beta)
        else "long"
    )


def fit_alpha_beta(
    nbytes: Sequence[float], seconds: Sequence[float]
) -> tuple[float, float]:
    """Least-squares ``(alpha, beta)`` of ``t = alpha + beta * bytes``.

    The standard postal-model fit used to characterize a transport
    from measured ping-style timings: ``alpha`` is the per-message
    latency (seconds), ``beta`` the per-byte cost (seconds/byte, the
    inverse bandwidth).  ``beta`` is clamped at zero — with noisy
    small-message timings the unconstrained slope can come out
    (meaninglessly) negative.
    """
    x = np.asarray(nbytes, dtype=float)
    y = np.asarray(seconds, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("need >= 2 (bytes, seconds) samples to fit")
    a = np.stack([np.ones_like(x), x], axis=1)
    (alpha, beta), *_ = np.linalg.lstsq(a, y, rcond=None)
    return float(alpha), float(max(beta, 0.0))


def transport_crossover_bytes(
    fast_fit: tuple[float, float], slow_fit: tuple[float, float]
) -> float:
    """Message size (bytes) where the higher-latency transport wins.

    Given two fitted postal models — ``fast_fit`` for the transport
    with the lower per-message latency (e.g. pooled shm) and
    ``slow_fit`` for the other (e.g. tcp loopback) — the lines cross
    at ``n* = (alpha_slow - alpha_fast) / (beta_fast - beta_slow)``.
    Returns ``inf`` when the fast transport also has the smaller (or
    equal) per-byte cost: it then wins at every size and the slow
    transport's value is reach (multi-host), not speed.  Returns
    ``0.0`` when the "slow" transport is in fact never worse.
    """
    alpha_f, beta_f = fast_fit
    alpha_s, beta_s = slow_fit
    if alpha_s <= alpha_f and beta_s <= beta_f:
        return 0.0
    if beta_f <= beta_s:
        return math.inf
    return max(0.0, (alpha_s - alpha_f) / (beta_f - beta_s))


def hooi_collective_counts(
    d: int,
    n_ttms: int,
    *,
    subspace: bool = True,
    n_subspace_iters: int = 1,
) -> dict[str, int]:
    """Per-iteration collective-call counts of the executed HOOI layer.

    The process-parallel engines issue a fixed collective schedule per
    iteration: every multi-TTM step (including the core-forming TTM) is
    one ``reduce_scatter`` over its mode sub-communicator, and each of
    the ``d`` factor updates runs either the subspace LLSV (per sweep:
    one ``reduce_scatter`` for ``G = U^T Y``, two ``alltoall``
    relayouts of ``Y`` and ``G`` into 1-D columns, one global
    ``allreduce`` for ``Z``) or the Gram-EVD LLSV (one ``alltoall``
    relayout, one ``allreduce``).  ``n_ttms``
    is the multi-TTM count of the variant — see
    :func:`repro.analysis.costs.hooi_ttm_count` — so this function
    stays free of a dependency on the tree layer.  The schedule-cost
    tests assert real mp traces match these counts exactly.
    """
    if d < 1 or n_ttms < 0:
        raise ValueError("d must be positive and n_ttms non-negative")
    if subspace:
        if n_subspace_iters < 1:
            raise ValueError("n_subspace_iters must be at least 1")
        return {
            "reduce_scatter": n_ttms + d * n_subspace_iters,
            "alltoall": 2 * d * n_subspace_iters,
            "allreduce": d * n_subspace_iters,
        }
    return {
        "reduce_scatter": n_ttms,
        "alltoall": d,
        "allreduce": d,
    }
