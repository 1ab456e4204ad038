"""Rank-adaptive HOOI — the paper's Alg. 3 (RA-HOSI-DT by default).

Solves the *error-specified* Tucker problem with HOOI by (a) growing all
ranks by a factor ``alpha`` while the iterate misses the error budget
and (b) shrinking them via core analysis (eq. (3)) once it is met.  The
core is formed every iteration, so the error check is the free norm
identity ``||X - X^||^2 = ||X||^2 - ||G||^2``.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.core_analysis import (
    greedy_rank_truncation,
    leading_subtensor_energies,
    solve_rank_truncation,
)
from repro.core.dimension_tree import (
    SequentialTreeEngine,
    hooi_iteration_direct,
    hooi_iteration_dt,
)
from repro.core.errors import ConfigError
from repro.core.tucker import TuckerTensor
from repro.linalg.llsv import LLSVMethod
from repro.tensor.dense import tensor_norm
from repro.tensor.random import random_orthonormal
from repro.tensor.validation import check_ranks

__all__ = [
    "RankAdaptiveOptions",
    "RankAdaptiveStats",
    "IterationRecord",
    "assess_iterate",
    "expand_factor",
    "rank_adaptive_hooi",
]


@dataclass(frozen=True)
class RankAdaptiveOptions:
    """Control knobs of Alg. 3.

    Attributes
    ----------
    alpha:
        Rank growth factor applied when the error budget is missed
        (paper: "we typically use 1.5 or 2").
    max_iters:
        HOOI iteration cap (the paper's dataset studies cap at 3).
    stop_at_threshold:
        Stop at the first iteration that satisfies the budget (the
        paper's time-to-solution comparisons); when false, continue to
        ``max_iters`` to chase better compression (their error-vs-size
        progressions).
    use_dimension_tree, llsv_method, n_subspace_iters:
        Same meaning as in :class:`repro.core.hooi.HOOIOptions`;
        defaults give RA-HOSI-DT.
    truncation:
        ``"exhaustive"`` (eq. (3)) or ``"greedy"`` (ablation).
    seed:
        RNG seed for factor initialization/expansion.
    """

    alpha: float = 1.5
    max_iters: int = 3
    stop_at_threshold: bool = True
    use_dimension_tree: bool = True
    llsv_method: LLSVMethod = LLSVMethod.SUBSPACE
    n_subspace_iters: int = 1
    truncation: str = "exhaustive"
    seed: int | None = 0

    def __post_init__(self) -> None:
        if self.alpha <= 1.0:
            raise ConfigError("alpha must exceed 1 for ranks to grow")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")
        if self.truncation not in ("exhaustive", "greedy"):
            raise ConfigError(f"unknown truncation {self.truncation!r}")
        if self.llsv_method not in (LLSVMethod.GRAM_EVD, LLSVMethod.SUBSPACE):
            raise ConfigError("RA-HOOI supports GRAM_EVD or SUBSPACE kernels")


@dataclass
class IterationRecord:
    """Snapshot after one RA-HOOI iteration (feeds Figs. 4/6/8)."""

    iteration: int
    ranks_used: tuple[int, ...]
    error: float
    satisfied: bool
    storage_size: int
    seconds: float
    truncated_ranks: tuple[int, ...] | None = None
    truncated_error: float | None = None
    truncated_storage: int | None = None


@dataclass
class RankAdaptiveStats:
    """Run-level diagnostics for :func:`rank_adaptive_hooi`."""

    x_norm: float = 0.0
    history: list[IterationRecord] = field(default_factory=list)
    converged: bool = False
    #: iteration index (1-based) at which the budget was first met
    first_satisfied: int | None = None
    phase_seconds: dict[str, float] = field(default_factory=dict)


def expand_factor(
    u: np.ndarray,
    new_rank: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Grow a factor to ``new_rank`` orthonormal columns.

    Appends a random orthonormal complement of the existing column
    space, so previous iterations' information is preserved while the
    subspace widens (needed when ranks are increased between subspace
    iterations).
    """
    n, r = u.shape
    if new_rank <= r:
        return u
    if new_rank > n:
        raise ValueError(f"cannot expand to {new_rank} columns in R^{n}")
    g = rng.standard_normal((n, new_rank - r)).astype(u.dtype, copy=False)
    # Two projection passes for numerical orthogonality.
    for _ in range(2):
        g -= u @ (u.T @ g)
    q, _ = np.linalg.qr(g)
    return np.hstack([u, q.astype(u.dtype, copy=False)])


def _grow_ranks(
    ranks: tuple[int, ...], alpha: float, shape: tuple[int, ...]
) -> tuple[int, ...]:
    return tuple(
        min(max(math.ceil(alpha * r), r + 1), n) for r, n in zip(ranks, shape)
    )


def assess_iterate(
    core: np.ndarray,
    factors: list[np.ndarray],
    ranks: tuple[int, ...],
    iteration: int,
    x_norm: float,
    eps: float,
    options: RankAdaptiveOptions,
    seconds: float = 0.0,
) -> tuple[IterationRecord, tuple[int, ...], TuckerTensor | None]:
    """Alg. 3's decision after one sweep, shared by every execution layer.

    The error comes free from the norm identity
    ``||X - X^||^2 = ||X||^2 - ||G||^2``.  A satisfied iterate is cut
    to the ranks of the eq. (3) core analysis (or the greedy ablation)
    and returned truncated, its record filled with the kept energy's
    error.  A missed one returns no truncation and the ranks grown by
    ``alpha`` while another iteration will run (the same ranks on the
    last one, so the returned factors match the returned core).
    Callers may therefore expand unconditionally: :func:`expand_factor`
    draws nothing for a rank that did not change.
    """
    shape = tuple(u.shape[0] for u in factors)
    x_norm_sq = x_norm**2
    target_sq = (1.0 - eps * eps) * x_norm_sq
    core_sq = tensor_norm(core) ** 2
    satisfied = core_sq >= target_sq - 1e-12 * max(x_norm_sq, 1.0)
    record = IterationRecord(
        iteration=iteration,
        ranks_used=ranks,
        error=math.sqrt(max(x_norm_sq - core_sq, 0.0)) / max(x_norm, 1e-300),
        satisfied=satisfied,
        storage_size=TuckerTensor(core=core, factors=factors).storage_size(),
        seconds=seconds,
    )
    if not satisfied:
        if iteration < options.max_iters:
            ranks = _grow_ranks(ranks, options.alpha, shape)
        return record, ranks, None

    solver = (
        solve_rank_truncation
        if options.truncation == "exhaustive"
        else greedy_rank_truncation
    )
    new_ranks = solver(core, target_sq, shape)
    assert new_ranks is not None  # satisfied implies feasible
    energies = leading_subtensor_energies(core)
    kept_sq = float(energies[tuple(r - 1 for r in new_ranks)])
    trunc = TuckerTensor(core=core, factors=factors).truncate(new_ranks)
    record.truncated_ranks = new_ranks
    record.truncated_error = math.sqrt(max(x_norm_sq - kept_sq, 0.0)) / max(
        x_norm, 1e-300
    )
    record.truncated_storage = trunc.storage_size()
    return record, new_ranks, trunc


def rank_adaptive_hooi(
    x: np.ndarray,
    eps: float,
    init_ranks: Sequence[int],
    options: RankAdaptiveOptions | None = None,
) -> tuple[TuckerTensor, RankAdaptiveStats]:
    """Error-specified Tucker approximation via rank-adaptive HOOI.

    Parameters
    ----------
    x:
        Input dense tensor.
    eps:
        Relative error tolerance (``||X - X^|| <= eps ||X||``).
    init_ranks:
        Starting rank estimate (the paper studies perfect / +25% "over"
        / −25% "under" starts).  Clipped to the tensor dimensions.
    options:
        See :class:`RankAdaptiveOptions`; defaults to RA-HOSI-DT.

    Returns
    -------
    (TuckerTensor, RankAdaptiveStats) — the decomposition satisfies the
    tolerance whenever ``stats.converged`` is true.
    """
    options = options or RankAdaptiveOptions()
    if eps <= 0 or eps >= 1:
        raise ConfigError("eps must lie in (0, 1)")
    ranks = check_ranks(x.shape, init_ranks, allow_exceed=True)
    rng = np.random.default_rng(options.seed)

    stats = RankAdaptiveStats(x_norm=tensor_norm(x))
    factors = [
        random_orthonormal(n, r, seed=rng, dtype=x.dtype)
        for n, r in zip(x.shape, ranks)
    ]
    core: np.ndarray | None = None
    result: TuckerTensor | None = None

    for it in range(1, options.max_iters + 1):
        t0 = time.perf_counter()
        if options.use_dimension_tree:
            engine = SequentialTreeEngine(
                factors,
                ranks,
                llsv_method=options.llsv_method,
                n_subspace_iters=options.n_subspace_iters,
                timings=stats.phase_seconds,
            )
            hooi_iteration_dt(x, engine)
            factors, core = engine.factors, engine.core
        else:
            core = hooi_iteration_direct(
                x,
                factors,
                ranks,
                llsv_method=options.llsv_method,
                n_subspace_iters=options.n_subspace_iters,
                timings=stats.phase_seconds,
            )
        assert core is not None

        t1 = time.perf_counter()
        record, new_ranks, trunc = assess_iterate(
            core, factors, ranks, it, stats.x_norm, eps, options, t1 - t0
        )
        stats.phase_seconds["core_analysis"] = (
            stats.phase_seconds.get("core_analysis", 0.0)
            + time.perf_counter()
            - t1
        )
        stats.history.append(record)
        if trunc is not None:
            stats.converged = True
            if stats.first_satisfied is None:
                stats.first_satisfied = it
            result = trunc
            core, factors, ranks = trunc.core, trunc.factors, trunc.ranks
            if options.stop_at_threshold:
                break
        else:
            factors = [
                expand_factor(u, r, rng) for u, r in zip(factors, new_ranks)
            ]
            ranks = new_ranks

    if result is None:
        # Budget never met within max_iters; return the last iterate.
        assert core is not None
        result = TuckerTensor(core=core, factors=list(factors))
    return result, stats
