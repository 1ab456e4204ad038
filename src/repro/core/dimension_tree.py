"""Dimension-tree memoization of HOOI's multi-TTMs (paper §3.3, Alg. 4).

Consecutive HOOI subiterations share ``d - 2`` of their TTMs.  The
dimension tree reuses partially contracted tensors: each node holds the
set of modes *not yet contracted*; an edge performs the TTMs that
separate parent from child; factors are updated at the leaves.

Partitioning heuristic (matches the paper's Fig. 1 discussion):

* ``eta`` = the leading half of the remaining modes, ``mu`` = the
  trailing half;
* the *trailing* block ``mu`` is contracted first — in reverse mode
  order, so the very first TTM off the root is in mode ``d`` (best local
  layout) — and the recursion then updates the leading-half factors;
* then the leading block ``eta`` is contracted (in increasing order,
  starting at mode 1) using the *freshly updated* factors, and the
  recursion updates the trailing-half factors.

Hence leaves are visited in increasing mode order and the core is formed
at the final leaf (mode ``d``), exactly one TTM after the last factor
update.  The two TTMs adjacent to the root dominate, giving the
``4 r n^d / P`` flop count of Table 1.

The traversal is written against a small engine protocol so the exact
same tree logic drives the sequential kernels here and the distributed
kernels in :mod:`repro.distributed`.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from typing import Protocol

import numpy as np

from repro.linalg.llsv import LLSVMethod, llsv
from repro.linalg.subspace import subspace_iteration_llsv
from repro.tensor.ops import ttm

__all__ = [
    "split_modes",
    "tree_nodes",
    "leaf_order",
    "contraction_schedule",
    "tree_applicable",
    "memoized_ttm_count",
    "direct_ttm_count",
    "TreeEngine",
    "SequentialTreeEngine",
    "hooi_iteration_dt",
    "direct_iteration",
    "hooi_iteration_direct",
]


#: Available tree-shape heuristics (Kaya & Robert study optimal trees;
#: the paper uses the balanced "half" heuristic).
SPLIT_RULES = ("half", "single")


def split_modes(
    modes: Sequence[int], rule: str = "half"
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Partition remaining ``modes`` into ``(mu, eta)`` per Alg. 4 line 8.

    ``mu`` is contracted first, in *reverse* order (its TTMs run highest
    mode first); ``eta`` is recursed first, in increasing order.

    Rules:

    * ``"half"`` — the paper's balanced split: ``eta`` is the leading
      half, ``mu`` the trailing half.
    * ``"single"`` — a maximally skewed "caterpillar" tree: ``eta`` is
      just the leading mode.  Asymptotically worse (O(d^2) TTMs instead
      of O(d log d)); kept as the tree-shape ablation.
    """
    ms = tuple(modes)
    if len(ms) < 2:
        raise ValueError("cannot split fewer than two modes")
    if rule == "half":
        half = len(ms) // 2
    elif rule == "single":
        half = 1
    else:
        raise ValueError(f"unknown split rule {rule!r}; pick from {SPLIT_RULES}")
    eta = ms[:half]
    mu = tuple(reversed(ms[half:]))
    return mu, eta


def _walk(
    modes: tuple[int, ...],
    nodes: list[frozenset[int]],
    leaves: list[int],
    ttms: list[int],
    rule: str,
) -> None:
    nodes.append(frozenset(modes))
    if len(modes) == 1:
        leaves.append(modes[0])
        return
    mu, eta = split_modes(modes, rule)
    ttms.extend(mu)
    _walk(eta, nodes, leaves, ttms, rule)
    ttms.extend(eta)
    _walk(mu[::-1], nodes, leaves, ttms, rule)


def tree_nodes(d: int, rule: str = "half") -> list[frozenset[int]]:
    """All tree nodes (sets of uncontracted modes) in visit order."""
    nodes: list[frozenset[int]] = []
    _walk(tuple(range(d)), nodes, [], [], rule)
    return nodes


def leaf_order(d: int, rule: str = "half") -> list[int]:
    """Order in which factor modes are updated (leaves visited)."""
    leaves: list[int] = []
    _walk(tuple(range(d)), [], leaves, [], rule)
    return leaves


def contraction_schedule(d: int, rule: str = "half") -> list[int]:
    """Modes of every TTM performed during one tree traversal, in order.

    Each entry is one TTM; length is the per-iteration TTM count, used
    by the cost-model cross-checks of Table 1.
    """
    ttms: list[int] = []
    _walk(tuple(range(d)), [], [], ttms, rule)
    return ttms


def tree_applicable(d: int) -> bool:
    """Whether the dimension tree can memoize anything for order ``d``.

    With fewer than three modes the tree degenerates: consecutive
    subiterations share no TTMs, so the memoized traversal performs
    exactly as many TTMs as the direct sweep.  Drivers use this guard
    to fall back to the direct subiteration for 1-D/2-D inputs (the
    traversal itself also handles them, but engines that pay a setup
    cost per tree node have nothing to gain).
    """
    return d >= 3


def memoized_ttm_count(
    d: int, rule: str = "half", *, include_core: bool = True
) -> int:
    """Per-iteration TTM count of the memoized traversal (closed form).

    Solves the recurrence ``T(1) = 0``,
    ``T(k) = k + T(|eta|) + T(|mu|)`` implied by Alg. 4 — every
    internal node contracts all of one child's complement (``|mu|``
    then ``|eta|`` TTMs, i.e. ``k`` total) before recursing into both
    children.  With ``include_core`` the final core-forming TTM at the
    last leaf is counted too; the result then equals
    ``len(contraction_schedule(d, rule)) + 1``, the quantity the
    executed-schedule tests certify against mp traces (Table 1).
    """
    if d < 1:
        raise ValueError("d must be positive")

    def t(k: int) -> int:
        if k == 1:
            return 0
        half = k // 2 if rule == "half" else 1
        if rule not in SPLIT_RULES:
            raise ValueError(
                f"unknown split rule {rule!r}; pick from {SPLIT_RULES}"
            )
        return k + t(half) + t(k - half)

    return t(d) + (1 if include_core else 0)


def direct_ttm_count(d: int, *, include_core: bool = True) -> int:
    """Per-iteration TTM count of the direct sweep (Alg. 2).

    ``d`` subiterations of ``d - 1`` TTMs each, plus (optionally) the
    single core-forming TTM after the last factor update.
    """
    if d < 1:
        raise ValueError("d must be positive")
    return d * (d - 1) + (1 if include_core else 0)


class TreeEngine(Protocol):
    """Operations the tree traversal needs; see module docstring.

    The ``tensor`` argument is opaque to the traversal: engines choose
    their own state representation (a dense array, a
    ``(blocks, layout)`` pair, a ``(block, layout, signature)`` triple
    for engines that memoize partial contractions across calls).  The
    traversal only threads states from ``contract`` into the
    recursion, so whatever ``contract`` returns is what the leaf
    operations receive.
    """

    last_mode: int

    def contract(
        self, tensor: object, modes: Sequence[int]
    ) -> object:  # pragma: no cover - protocol
        """Multi-TTM of ``tensor`` with ``U_m^T`` for each ``m`` in order."""
        ...

    def update_factor(
        self, tensor: object, mode: int
    ) -> None:  # pragma: no cover - protocol
        """LLSV update of factor ``mode`` from the all-but-one tensor."""
        ...

    def form_core(
        self, tensor: object, mode: int
    ) -> None:  # pragma: no cover - protocol
        """Final TTM producing the core at the last leaf."""
        ...


def _recurse(
    engine: TreeEngine,
    tensor: object,
    modes: tuple[int, ...],
    rule: str,
) -> None:
    if len(modes) == 1:
        (mode,) = modes
        engine.update_factor(tensor, mode)
        if mode == engine.last_mode:
            engine.form_core(tensor, mode)
        return
    mu, eta = split_modes(modes, rule)
    _recurse(engine, engine.contract(tensor, mu), eta, rule)
    _recurse(engine, engine.contract(tensor, eta), mu[::-1], rule)


def hooi_iteration_dt(
    x: object, engine: TreeEngine, *, rule: str = "half"
) -> None:
    """Run one full HOOI iteration via the dimension tree (Alg. 4)."""
    _recurse(engine, x, tuple(range(engine.last_mode + 1)), rule)


def direct_iteration(x: object, engine: TreeEngine) -> None:
    """One direct (unmemoized) HOOI iteration through ``engine`` (Alg. 2).

    For each mode ``j`` the input is contracted in every other mode, in
    increasing order, and factor ``j`` is updated from the result; the
    core is formed from the last of these all-but-one tensors
    (:func:`direct_ttm_count` TTMs).  The simulated, SPMD and
    process-parallel drivers run it through the engines they build for
    :func:`hooi_iteration_dt`; the dense :func:`hooi_iteration_direct`
    keeps TuckerMPI's greedy contraction order instead.
    """
    d = engine.last_mode + 1
    y = x
    for j in range(d):
        y = engine.contract(x, [m for m in range(d) if m != j])
        engine.update_factor(y, j)
    engine.form_core(y, d - 1)


class SequentialTreeEngine:
    """Dense single-process engine for :func:`hooi_iteration_dt`.

    Holds the factor list (updated in place across the traversal, which
    is what makes the memoization correct: later contractions see
    earlier updates) and accumulates per-phase wall time.
    """

    def __init__(
        self,
        factors: list[np.ndarray],
        ranks: Sequence[int],
        *,
        llsv_method: LLSVMethod = LLSVMethod.SUBSPACE,
        n_subspace_iters: int = 1,
        timings: dict[str, float] | None = None,
    ) -> None:
        self.factors = factors
        self.ranks = tuple(int(r) for r in ranks)
        self.llsv_method = llsv_method
        self.n_subspace_iters = n_subspace_iters
        self.last_mode = len(factors) - 1
        self.core: np.ndarray | None = None
        self.timings = timings if timings is not None else {}

    def _tick(self, phase: str, t0: float) -> None:
        self.timings[phase] = (
            self.timings.get(phase, 0.0) + time.perf_counter() - t0
        )

    def contract(
        self, tensor: np.ndarray, modes: Sequence[int]
    ) -> np.ndarray:
        """Multi-TTM with ``U_m^T`` for each listed mode, in order."""
        t0 = time.perf_counter()
        out = tensor
        for m in modes:
            out = ttm(out, self.factors[m], m, transpose=True)
        self._tick("ttm", t0)
        return out

    def update_factor(self, tensor: np.ndarray, mode: int) -> None:
        """LLSV update of ``factors[mode]`` from the all-but-one tensor."""
        t0 = time.perf_counter()
        if self.llsv_method is LLSVMethod.SUBSPACE:
            self.factors[mode] = subspace_iteration_llsv(
                tensor,
                mode,
                self.factors[mode],
                self.ranks[mode],
                n_iters=self.n_subspace_iters,
            )
        else:
            res = llsv(
                tensor,
                mode,
                rank=self.ranks[mode],
                method=self.llsv_method,
                u_prev=self.factors[mode],
            )
            self.factors[mode] = res.factor
        self._tick("llsv", t0)

    def form_core(self, tensor: np.ndarray, mode: int) -> None:
        """Final TTM producing the core at the last leaf."""
        t0 = time.perf_counter()
        self.core = ttm(tensor, self.factors[mode], mode, transpose=True)
        self._tick("ttm", t0)


def hooi_iteration_direct(
    x: np.ndarray,
    factors: list[np.ndarray],
    ranks: Sequence[int],
    *,
    llsv_method: LLSVMethod = LLSVMethod.GRAM_EVD,
    n_subspace_iters: int = 1,
    timings: dict[str, float] | None = None,
) -> np.ndarray:
    """One HOOI iteration with *direct* (unmemoized) multi-TTMs (Alg. 2).

    Updates ``factors`` in place and returns the core tensor computed
    from the final subiteration's intermediate (Alg. 2, line 9).
    """
    from repro.tensor.ops import multi_ttm  # local import avoids cycle

    d = x.ndim
    ranks = tuple(int(r) for r in ranks)
    timings = timings if timings is not None else {}

    def tick(phase: str, t0: float) -> None:
        timings[phase] = timings.get(phase, 0.0) + time.perf_counter() - t0

    y = x
    for j in range(d):
        t0 = time.perf_counter()
        y = multi_ttm(x, factors, transpose=True, skip=j)
        tick("ttm", t0)
        t0 = time.perf_counter()
        if llsv_method is LLSVMethod.SUBSPACE:
            factors[j] = subspace_iteration_llsv(
                y, j, factors[j], ranks[j], n_iters=n_subspace_iters
            )
        else:
            res = llsv(y, j, rank=ranks[j], method=llsv_method)
            factors[j] = res.factor
        tick("llsv", t0)
    t0 = time.perf_counter()
    core = ttm(y, factors[d - 1], d - 1, transpose=True)
    tick("ttm", t0)
    return core
