"""HOOI/HOSI and rank-adaptive HOSI on real processes.

The paper's preferred iterations executed on the mini-MPI: every rank
is an OS process holding one block, all data moves through the
collectives of :mod:`repro.vmpi.mp_comm`.  Three drivers live here:

* :func:`mp_hooi_dt` — rank-specified HOOI.  By default it drives the
  shared dimension-tree traversal
  (:func:`repro.core.dimension_tree.hooi_iteration_dt`) with
  :class:`MPTreeEngine`, whose state is a per-rank
  ``(block, layout, signature)`` triple and which memoizes partial
  contractions keyed by factor versions (rank adaptation bumps the
  versions, so truncation correctly discards stale tree nodes).  For
  1-D/2-D inputs — where the tree memoizes nothing
  (:func:`~repro.core.dimension_tree.tree_applicable`) — and for
  ``use_dimension_tree=False`` it falls back to the direct
  subiteration.  Either way the core-forming TTM runs once, after the
  final sweep, not once per outer iteration.
* :func:`mp_rahosi_dt` — the error-specified Alg. 3 on processes: the
  core is formed (and gathered) every iteration for the norm-identity
  error check, rank 0 runs the eq. (3) core analysis and broadcasts
  the truncation/growth decision, and every rank truncates or expands
  its replicated factors identically.
* :func:`mp_hosi` — the original direct-TTM HOSI entry point, now a
  thin wrapper over :func:`mp_hooi_dt`.

Subspace iteration moves data exactly as §3.4 describes
(mode-subcommunicator redistributions + a global reduction + a
replicated QRCP) via the shared executed kernels of
:mod:`repro.distributed.kernels`; every collective carries a phase tag
so the traced per-iteration TTM count can be certified against the
memoized Table 1 formula
(:func:`repro.analysis.costs.hooi_ttm_count`).  With the deterministic
transport the results are bit-identical to the in-process
:func:`repro.distributed.spmd_hooi.spmd_hooi`.
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
from repro.core.dimension_tree import hooi_iteration_dt, tree_applicable
from repro.core.errors import CheckpointError, ConfigError
from repro.core.hooi import HOOIOptions
from repro.core.rank_adaptive import (
    IterationRecord,
    RankAdaptiveOptions,
    _grow_ranks,
    expand_factor,
)
from repro.core.tucker import TuckerTensor
from repro.distributed.checkpoint import (
    SweepCheckpoint,
    decode_history,
    encode_history,
    tensor_digest,
)
from repro.distributed.kernels import (
    check_factor_orthogonality,
    mp_gather_core,
    mp_gram_evd_llsv,
    mp_subspace_llsv,
    mp_ttm,
)
from repro.distributed.layout import BlockLayout
from repro.distributed.recovery import run_elastic
from repro.linalg.llsv import LLSVMethod
from repro.tensor.dense import tensor_norm
from repro.tensor.random import random_orthonormal
from repro.tensor.validation import check_ranks
from repro.vmpi.grid import ProcessorGrid
from repro.vmpi.mp_comm import CommConfig, ProcessComm
from repro.vmpi.trace import CommTrace

__all__ = [
    "MPTreeEngine",
    "MPHooiStats",
    "MPRankAdaptiveStats",
    "mp_hooi_dt",
    "mp_rahosi_dt",
    "mp_hosi",
]

#: Engine state: this rank's block, its layout, and the contraction
#: signature — the ordered ``(mode, factor_version)`` pairs applied so
#: far, rooted at ``()`` for the unreduced input.
MPState = tuple[np.ndarray, BlockLayout, tuple[tuple[int, int], ...]]


class MPTreeEngine:
    """Dimension-tree engine over the mini-MPI with memoized nodes.

    State threading follows :class:`~repro.distributed.spmd_hooi.\
SPMDTreeEngine`, but each state carries a *signature* identifying the
    partial contraction: the sequence of ``(mode, version)`` pairs
    applied to the input, where ``version`` counts updates of that
    mode's factor.  ``contract`` consults a signature-keyed cache
    before issuing a TTM, so a node computed with the current factors
    is never recomputed; ``update_factor`` bumps the mode's version and
    evicts every cached node that involved the stale factor, and
    :meth:`reset_factors` (called after rank-adaptive truncation or
    growth) bumps all versions — stale tree nodes can then never be
    hit, and the cache is dropped wholesale.

    Within one vanilla traversal every node is visited once and every
    factor changes every iteration, so organic hits are zero — the
    memoization that makes the tree fast is the traversal itself
    threading parent states into both children.  The cache is the
    bookkeeping that keeps *cross*-traversal reuse correct when ranks
    change mid-run, and it is what the eviction tests exercise.
    """

    def __init__(
        self,
        comm: ProcessComm,
        coords: tuple[int, ...],
        factors: list[np.ndarray],
        ranks: Sequence[int],
        *,
        subspace: bool = True,
        n_subspace_iters: int = 1,
        memoize: bool = True,
        orthogonality_tol: float | None = None,
    ) -> None:
        self.comm = comm
        self.coords = coords
        self.factors = factors
        self.ranks = tuple(int(r) for r in ranks)
        self.subspace = subspace
        self.n_subspace_iters = n_subspace_iters
        self.memoize = memoize
        #: optional guard rail: after every factor update, verify the
        #: replicated factor is still orthonormal to this tolerance
        #: (raises NumericalFaultError on drift — e.g. a wire bit-flip
        #: that survived the reduction).
        self.orthogonality_tol = orthogonality_tol
        self.last_mode = len(factors) - 1
        self.versions = [0] * len(factors)
        self._cache: dict[
            tuple[tuple[int, int], ...], tuple[np.ndarray, BlockLayout]
        ] = {}
        self.ttm_count = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        self.core_state: tuple[np.ndarray, BlockLayout] | None = None
        #: Drivers disable this on non-final fixed-rank iterations: the
        #: core is only needed once, after the last sweep (the
        #: rank-adaptive driver keeps it on — it consumes the core
        #: every iteration for the error check).
        self.form_core_enabled = True

    def contract(self, state: MPState, modes: Sequence[int]) -> MPState:
        """Block-parallel multi-TTM over ``modes`` with memoization.

        Cache decisions depend only on replicated data (signatures and
        versions), so every rank hits or misses identically and the
        collective schedules stay aligned.
        """
        block, layout, sig = state
        for m in modes:
            sig = sig + ((m, self.versions[m]),)
            if self.memoize and sig in self._cache:
                block, layout = self._cache[sig]
                self.cache_hits += 1
                continue
            block, layout = mp_ttm(
                self.comm,
                block,
                layout,
                self.coords,
                self.factors[m],
                m,
                phase="ttm",
            )
            self.ttm_count += 1
            if self.memoize:
                self.cache_misses += 1
                self._cache[sig] = (block, layout)
        return block, layout, sig

    def update_factor(self, state: MPState, mode: int) -> None:
        """Block-parallel LLSV update of ``factors[mode]``."""
        block, layout, _ = state
        if self.subspace:
            self.factors[mode] = mp_subspace_llsv(
                self.comm,
                block,
                layout,
                self.coords,
                mode,
                self.factors[mode],
                self.ranks[mode],
                n_iters=self.n_subspace_iters,
                phase="llsv",
            )
        else:
            self.factors[mode] = mp_gram_evd_llsv(
                self.comm,
                block,
                layout,
                self.coords,
                mode,
                self.ranks[mode],
                phase="llsv",
            )
        if self.orthogonality_tol is not None:
            check_factor_orthogonality(
                self.factors[mode],
                mode=mode,
                rank=self.comm.rank,
                tol=self.orthogonality_tol,
                phase="llsv",
            )
        self.versions[mode] += 1
        self._evict(mode)

    def _evict(self, mode: int) -> None:
        """Drop cached nodes contracted with a stale factor of ``mode``."""
        stale = [
            key
            for key in self._cache
            if any(m == mode for m, _ in key)
        ]
        self.cache_evictions += len(stale)
        for key in stale:
            del self._cache[key]

    def form_core(self, state: MPState, mode: int) -> None:
        """Final block-parallel TTM producing the core blocks."""
        if not self.form_core_enabled:
            return
        block, layout, _ = state
        c_block, c_layout = mp_ttm(
            self.comm,
            block,
            layout,
            self.coords,
            self.factors[mode],
            mode,
            phase="core",
        )
        self.ttm_count += 1
        self.core_state = (c_block, c_layout)

    def reset_factors(
        self, factors: list[np.ndarray], ranks: Sequence[int]
    ) -> None:
        """Swap in externally modified factors (truncation / growth).

        Every version is bumped so signatures built from the old
        factors can never match again, and the cache is cleared — the
        rank-adaptive invalidation step.
        """
        self.factors = factors
        self.ranks = tuple(int(r) for r in ranks)
        for m in range(len(self.versions)):
            self.versions[m] += 1
        self.cache_evictions += len(self._cache)
        self._cache.clear()


def _stamp_engine_metrics(prof, engine: MPTreeEngine) -> None:
    """End-of-program gauges: the engine's lifetime TTM/cache counters."""
    prof.metrics.gauge("ttm_count", float(engine.ttm_count))
    prof.metrics.gauge("cache_hits", float(engine.cache_hits))
    prof.metrics.gauge("cache_misses", float(engine.cache_misses))
    prof.metrics.gauge(
        "cache_evictions", float(engine.cache_evictions)
    )


def _direct_sweep(engine: MPTreeEngine, state: MPState, d: int) -> None:
    """One direct (unmemoized) HOOI iteration: ``d`` all-but-one
    sweeps, then the single core-forming TTM (if enabled)."""
    y = state
    for j in range(d):
        y = engine.contract(state, [m for m in range(d) if m != j])
        engine.update_factor(y, j)
    engine.form_core(y, d - 1)


@dataclass
class MPHooiStats:
    """Run-level diagnostics of :func:`mp_hooi_dt` (from rank 0).

    ``per_iteration_ttms`` lists the executed multi-TTM count of each
    outer iteration — certified in the tests against
    :func:`repro.analysis.costs.hooi_ttm_count` (the core-forming TTM
    appears only in the final entry).  ``trace`` is rank 0's
    phase-tagged collective trace.  ``profile`` is the gathered
    :class:`~repro.observability.profile.RunProfile` when the run was
    launched with ``CommConfig(profile=True)``, else ``None``.
    """

    per_iteration_ttms: list[int] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    used_tree: bool = True
    rule: str = "half"
    trace: CommTrace = field(default_factory=CommTrace)
    profile: object | None = None
    #: one entry per in-run recovery episode (elastic policies only).
    recovery_events: list = field(default_factory=list)


@dataclass
class MPRankAdaptiveStats:
    """Run-level diagnostics of :func:`mp_rahosi_dt` (from rank 0)."""

    x_norm: float = 0.0
    history: list[IterationRecord] = field(default_factory=list)
    converged: bool = False
    first_satisfied: int | None = None
    per_iteration_ttms: list[int] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    used_tree: bool = True
    rule: str = "half"
    trace: CommTrace = field(default_factory=CommTrace)
    profile: object | None = None
    #: one entry per in-run recovery episode (elastic policies only).
    recovery_events: list = field(default_factory=list)


def _gather_run_profile(profiles: dict[int, object]):
    """Assemble ``run_spmd``'s profile_out dict into a RunProfile
    (lazy import: observability is only loaded on profiled runs)."""
    if not profiles:
        return None
    from repro.observability.profile import RunProfile

    return RunProfile.from_ranks(profiles)


def _hooi_rank_program(
    comm: ProcessComm,
    blocks: list[np.ndarray],
    grid_dims: tuple[int, ...],
    shape: tuple[int, ...],
    ranks: tuple[int, ...],
    use_tree: bool,
    rule: str,
    subspace: bool,
    n_subspace_iters: int,
    max_iters: int,
    seed: int | None,
    x_digest: str,
    checkpoint_path: str | None,
    resume: SweepCheckpoint | None,
    orthogonality_tol: float | None,
) -> tuple[np.ndarray | None, list[np.ndarray] | None, dict]:
    grid = ProcessorGrid(grid_dims)
    coords = grid.coords(comm.rank)
    x_block = blocks[comm.rank]
    x_layout = BlockLayout(shape, grid)
    d = len(shape)
    use_tree = use_tree and tree_applicable(d)

    if resume is not None:
        # Factors are replicated, so the checkpoint *is* the complete
        # inter-sweep state; the seeded init is skipped entirely.
        factors = [np.ascontiguousarray(u) for u in resume.factors]
    else:
        # Identical seeded init on every rank (replicated factors).
        rng = np.random.default_rng(seed)
        factors = [
            random_orthonormal(n, r, seed=rng, dtype=x_block.dtype)
            for n, r in zip(shape, ranks)
        ]

    engine = MPTreeEngine(
        comm,
        coords,
        factors,
        ranks,
        subspace=subspace,
        n_subspace_iters=n_subspace_iters,
        memoize=use_tree,
        orthogonality_tol=orthogonality_tol,
    )
    per_iter: list[int] = []
    start_it = 0
    if resume is not None:
        # Restore the factor-version counters so contraction
        # signatures continue exactly where the interrupted run's
        # would be (the memo cache itself is provably empty at every
        # iteration boundary — each factor updates each iteration and
        # every update evicts that mode's nodes).
        engine.versions = list(resume.versions)
        start_it = resume.iteration
        per_iter = list(resume.extra.get("per_iteration_ttms", []))
        engine.ttm_count = int(resume.extra.get("ttm_count", 0))
        engine.cache_hits = int(resume.extra.get("cache_hits", 0))
        engine.cache_misses = int(resume.extra.get("cache_misses", 0))

    def _boundary_ck(completed: int) -> SweepCheckpoint:
        return SweepCheckpoint(
            algorithm="mp_hooi_dt",
            iteration=completed,
            shape=shape,
            grid_dims=grid_dims,
            ranks=engine.ranks,
            factors=engine.factors,
            versions=list(engine.versions),
            x_digest=x_digest,
            extra={
                "per_iteration_ttms": per_iter,
                "ttm_count": engine.ttm_count,
                "cache_hits": engine.cache_hits,
                "cache_misses": engine.cache_misses,
                "world_size": comm.size,
                "backend": comm._t.kind,
            },
        )

    mgr = comm.recovery_mgr
    if mgr is not None:
        # Starting-point snapshot (iteration 0 or the resume point): a
        # crash inside the very first sweep must also be recoverable.
        mgr.replicate(_boundary_ck(start_it))
    state: MPState = (x_block, x_layout, ())
    prof = comm.profiler
    for it in range(start_it, max_iters):
        comm.note_progress(iteration=it + 1, total=max_iters)
        if prof is not None:
            prof.begin(f"sweep {it + 1}", "sweep")
        # The core feeds nothing until the run ends, so the trailing
        # TTM runs exactly once, after the final sweep.
        engine.form_core_enabled = it == max_iters - 1
        before = engine.ttm_count
        if use_tree:
            hooi_iteration_dt(state, engine, rule=rule)
        else:
            _direct_sweep(engine, state, d)
        per_iter.append(engine.ttm_count - before)
        if mgr is not None and it + 1 < max_iters:
            mgr.replicate(_boundary_ck(it + 1))
        if (
            checkpoint_path is not None
            and comm.rank == 0
            and it + 1 < max_iters
        ):
            if prof is not None:
                prof.begin("checkpoint", "kernel")
            _boundary_ck(it + 1).save(checkpoint_path)
            comm.note_event("checkpoint", {"iteration": it + 1})
            if prof is not None:
                prof.metrics.observe(
                    "checkpoint_write_seconds", prof.end()
                )
        if prof is not None:
            prof.end()

    assert engine.core_state is not None
    core = mp_gather_core(comm, *engine.core_state)
    if prof is not None:
        _stamp_engine_metrics(prof, engine)
    stats = {
        "per_iteration_ttms": per_iter,
        "cache_hits": engine.cache_hits,
        "cache_misses": engine.cache_misses,
        "used_tree": use_tree,
        "rule": rule,
        "trace": comm.trace,
    }
    if comm.rank != 0:
        return None, None, stats
    return core, engine.factors, stats


def _hooi_dispatch(comm: ProcessComm, *args: object):
    return _hooi_rank_program(comm, *args)  # type: ignore[arg-type]


def _llsv_is_subspace(method: LLSVMethod) -> bool:
    if method not in (LLSVMethod.GRAM_EVD, LLSVMethod.SUBSPACE):
        raise ConfigError(
            "process-parallel HOOI supports GRAM_EVD or SUBSPACE kernels"
        )
    return method is LLSVMethod.SUBSPACE


def _prepare_resume(
    algorithm: str,
    x: np.ndarray,
    grid: ProcessorGrid,
    resume_from: str | SweepCheckpoint | None,
    checkpoint_path: str | None,
    *,
    max_iters: int,
) -> tuple[SweepCheckpoint | None, str]:
    """Load/validate a resume checkpoint; digest ``x`` when needed.

    The digest is only computed when checkpointing or resuming is
    requested — plain runs must not pay a full pass over ``x``.
    """
    if resume_from is None and checkpoint_path is None:
        return None, ""
    x_dig = tensor_digest(x)
    if resume_from is None:
        return None, x_dig
    resume = (
        resume_from
        if isinstance(resume_from, SweepCheckpoint)
        else SweepCheckpoint.load(resume_from)
    )
    resume.validate_resume(
        algorithm=algorithm,
        shape=tuple(x.shape),
        grid_dims=tuple(grid.dims),
        x_digest=x_dig,
    )
    if resume.iteration >= max_iters:
        raise CheckpointError(
            f"checkpoint already covers {resume.iteration} iterations; "
            f"max_iters={max_iters} leaves nothing to resume"
        )
    return resume, x_dig


def _scatter_blocks(
    x: np.ndarray, grid: ProcessorGrid
) -> list[np.ndarray]:
    layout = BlockLayout(x.shape, grid)
    return [
        np.ascontiguousarray(x[layout.local_slices(coords)])
        for _, coords in grid.iter_ranks()
    ]


def mp_hooi_dt(
    x: np.ndarray,
    ranks: Sequence[int],
    grid_dims: Sequence[int],
    options: HOOIOptions | None = None,
    *,
    rule: str = "half",
    timeout: float = 240.0,
    transport: str = "p2p",
    comm_config: CommConfig | None = None,
    collective_timeout: float | None = None,
    checkpoint_path: str | None = None,
    resume_from: str | SweepCheckpoint | None = None,
    orthogonality_tol: float | None = None,
    profile_out: dict[int, object] | None = None,
    monitor: object | None = None,
) -> tuple[TuckerTensor, MPHooiStats]:
    """Rank-specified HOOI on real processes (one per grid cell).

    Uses the dimension-tree memoized traversal by default
    (``options.use_dimension_tree``), falling back to the direct sweep
    for 1-D/2-D inputs where the tree memoizes nothing.  ``rule``
    selects the tree shape (``"half"`` or the ``"single"`` caterpillar
    ablation).  ``transport``/``comm_config``/``collective_timeout``
    select and tune the communication layer exactly as in
    :func:`repro.distributed.mp_sthosvd.mp_sthosvd`.  With the default
    deterministic transport the result is bit-identical to the
    in-process :func:`repro.distributed.spmd_hooi.spmd_hooi` with the
    same options.

    ``checkpoint_path`` makes rank 0 overwrite a
    :class:`~repro.distributed.checkpoint.SweepCheckpoint` after every
    non-final iteration; ``resume_from`` (a path or loaded checkpoint)
    restarts from one, bit-identically to an uninterrupted run.
    ``orthogonality_tol`` enables the per-update factor drift guard.
    With ``comm_config.profile``, ``stats.profile`` carries the
    gathered :class:`~repro.observability.profile.RunProfile` (and
    ``profile_out``, when given, the raw per-rank profiles).
    """
    options = options or HOOIOptions()
    ranks = check_ranks(x.shape, ranks)
    grid = ProcessorGrid(grid_dims)
    if grid.ndim != x.ndim:
        raise ValueError(f"{x.ndim}-way tensor needs a {x.ndim}-way grid")
    subspace = _llsv_is_subspace(options.llsv_method)

    resume, x_dig = _prepare_resume(
        "mp_hooi_dt",
        x,
        grid,
        resume_from,
        checkpoint_path,
        max_iters=options.max_iters,
    )
    if resume is not None and resume.ranks != tuple(ranks):
        raise CheckpointError(
            f"checkpoint ranks {resume.ranks} do not match requested "
            f"ranks {tuple(ranks)}"
        )

    prof_sink: dict[int, object] = {}
    events: list = []
    outs = run_elastic(
        _hooi_dispatch,
        grid.size,
        _scatter_blocks(x, grid),
        tuple(grid.dims),
        tuple(x.shape),
        tuple(ranks),
        options.use_dimension_tree,
        rule,
        subspace,
        options.n_subspace_iters,
        options.max_iters,
        options.seed,
        x_dig,
        checkpoint_path,
        resume,
        orthogonality_tol,
        resume_slot=12,
        timeout=timeout,
        transport=transport,
        config=comm_config,
        collective_timeout=collective_timeout,
        profile_out=prof_sink,
        events_out=events,
        monitor=monitor,
    )
    if profile_out is not None:
        profile_out.update(prof_sink)
    core, factors, st = outs[0]
    assert core is not None and factors is not None
    stats = MPHooiStats(
        per_iteration_ttms=st["per_iteration_ttms"],
        cache_hits=st["cache_hits"],
        cache_misses=st["cache_misses"],
        used_tree=st["used_tree"],
        rule=st["rule"],
        trace=st["trace"],
        profile=_gather_run_profile(prof_sink),
        recovery_events=events,
    )
    return TuckerTensor(core=core, factors=factors), stats


def _rahosi_rank_program(
    comm: ProcessComm,
    blocks: list[np.ndarray],
    grid_dims: tuple[int, ...],
    shape: tuple[int, ...],
    init_ranks: tuple[int, ...],
    eps: float,
    x_norm: float,
    opts: RankAdaptiveOptions,
    rule: str,
    x_digest: str,
    checkpoint_path: str | None,
    resume: SweepCheckpoint | None,
    orthogonality_tol: float | None,
) -> tuple[np.ndarray | None, list[np.ndarray] | None, dict]:
    grid = ProcessorGrid(grid_dims)
    coords = grid.coords(comm.rank)
    x_block = blocks[comm.rank]
    x_layout = BlockLayout(shape, grid)
    d = len(shape)
    use_tree = opts.use_dimension_tree and tree_applicable(d)
    subspace = opts.llsv_method is LLSVMethod.SUBSPACE

    rng = np.random.default_rng(opts.seed)
    if resume is not None:
        # Replicated factors + generator state are the complete
        # inter-sweep state: restoring them (and the factor versions,
        # below) makes the remaining iterations — including the next
        # ``expand_factor`` draws — bit-identical to an uninterrupted
        # run.
        ranks = resume.ranks
        factors = [np.ascontiguousarray(u) for u in resume.factors]
        assert resume.rng_state is not None
        rng.bit_generator.state = resume.rng_state
    else:
        ranks = tuple(init_ranks)
        factors = [
            random_orthonormal(n, r, seed=rng, dtype=x_block.dtype)
            for n, r in zip(shape, ranks)
        ]

    x_norm_sq = x_norm**2
    target_sq = (1.0 - eps * eps) * x_norm_sq

    engine = MPTreeEngine(
        comm,
        coords,
        factors,
        ranks,
        subspace=subspace,
        n_subspace_iters=opts.n_subspace_iters,
        memoize=use_tree,
        orthogonality_tol=orthogonality_tol,
    )
    per_iter: list[int] = []
    history: list[IterationRecord] = []
    converged = False
    first_satisfied: int | None = None
    result_core: np.ndarray | None = None
    result_factors: list[np.ndarray] | None = None
    core: np.ndarray | None = None

    start_it = 0
    if resume is not None:
        engine.versions = list(resume.versions)
        start_it = resume.iteration
        per_iter = list(resume.extra.get("per_iteration_ttms", []))
        history = decode_history(resume.extra.get("history", []))
        converged = bool(resume.extra.get("converged", False))
        first_satisfied = resume.extra.get("first_satisfied")
        engine.ttm_count = int(resume.extra.get("ttm_count", 0))
        engine.cache_hits = int(resume.extra.get("cache_hits", 0))
        engine.cache_misses = int(resume.extra.get("cache_misses", 0))

    def _boundary_ck(completed: int) -> SweepCheckpoint:
        # Late-binding closure: reads the *current* factors, ranks,
        # history, and generator state — the same post-growth boundary
        # semantics as the disk checkpoint.
        return SweepCheckpoint(
            algorithm="mp_rahosi_dt",
            iteration=completed,
            shape=shape,
            grid_dims=grid_dims,
            ranks=ranks,
            factors=factors,
            versions=list(engine.versions),
            rng_state=rng.bit_generator.state,
            x_digest=x_digest,
            extra={
                "per_iteration_ttms": per_iter,
                "history": encode_history(history),
                "converged": converged,
                "first_satisfied": first_satisfied,
                "ttm_count": engine.ttm_count,
                "cache_hits": engine.cache_hits,
                "cache_misses": engine.cache_misses,
                "world_size": comm.size,
                "backend": comm._t.kind,
            },
        )

    mgr = comm.recovery_mgr
    if mgr is not None:
        # Starting-point snapshot (iteration 0 or the resume point): a
        # crash inside the very first sweep must also be recoverable.
        mgr.replicate(_boundary_ck(start_it))
    state: MPState = (x_block, x_layout, ())
    prof = comm.profiler
    for it in range(start_it + 1, opts.max_iters + 1):
        comm.note_progress(iteration=it, total=opts.max_iters, ranks=ranks)
        if prof is not None:
            prof.begin(f"sweep {it}", "sweep")
        t0 = time.perf_counter()
        before = engine.ttm_count
        # Alg. 3 consumes the core every iteration (norm-identity error
        # check + eq. (3) analysis), so form_core stays enabled.
        if use_tree:
            hooi_iteration_dt(state, engine, rule=rule)
        else:
            _direct_sweep(engine, state, d)
        per_iter.append(engine.ttm_count - before)
        factors = engine.factors

        assert engine.core_state is not None
        core = mp_gather_core(comm, *engine.core_state)

        # Rank 0 analyzes the gathered core and broadcasts the decision
        # so every rank truncates/expands its replicated factors
        # identically.
        record: IterationRecord | None = None
        if comm.rank == 0:
            assert core is not None
            core_sq = tensor_norm(core) ** 2
            err = math.sqrt(max(x_norm_sq - core_sq, 0.0)) / max(
                x_norm, 1e-300
            )
            satisfied = core_sq >= target_sq - 1e-12 * max(x_norm_sq, 1.0)
            record = IterationRecord(
                iteration=it,
                ranks_used=ranks,
                error=err,
                satisfied=satisfied,
                storage_size=TuckerTensor(
                    core=core, factors=factors
                ).storage_size(),
                seconds=time.perf_counter() - t0,
            )
            if satisfied:
                solver = (
                    solve_rank_truncation
                    if opts.truncation == "exhaustive"
                    else greedy_rank_truncation
                )
                new_ranks = solver(core, target_sq, shape)
                assert new_ranks is not None  # satisfied implies feasible
            elif it < opts.max_iters:
                new_ranks = _grow_ranks(ranks, opts.alpha, shape)
            else:
                new_ranks = ranks
            payload = np.array(
                [1 if satisfied else 0, *new_ranks], dtype=np.int64
            )
        else:
            payload = None
        payload = comm.bcast(payload, root=0)
        satisfied = bool(payload[0])
        new_ranks = tuple(int(r) for r in payload[1:])
        # Residual/rank trajectory for the live telemetry channel
        # (the residual is only computed on rank 0 — peers publish
        # the replicated rank decision).
        if record is not None:
            comm.note_progress(
                ranks=new_ranks, satisfied=satisfied,
                residual=record.error,
            )
        else:
            comm.note_progress(ranks=new_ranks, satisfied=satisfied)

        if satisfied:
            if comm.rank == 0:
                assert record is not None and core is not None
                energies = leading_subtensor_energies(core)
                kept_sq = float(
                    energies[tuple(r - 1 for r in new_ranks)]
                )
                trunc = TuckerTensor(core=core, factors=factors).truncate(
                    new_ranks
                )
                record.truncated_ranks = new_ranks
                record.truncated_error = math.sqrt(
                    max(x_norm_sq - kept_sq, 0.0)
                ) / max(x_norm, 1e-300)
                record.truncated_storage = trunc.storage_size()
                history.append(record)
                result_core = trunc.core
                result_factors = trunc.factors
            converged = True
            if first_satisfied is None:
                first_satisfied = it
            # Same leading-column truncation as TuckerTensor.truncate,
            # replicated on every rank.
            factors = [
                np.ascontiguousarray(u[:, :r])
                for u, r in zip(factors, new_ranks)
            ]
            ranks = new_ranks
            engine.reset_factors(factors, ranks)
            if opts.stop_at_threshold:
                if prof is not None:
                    prof.end()
                break
        else:
            if comm.rank == 0:
                assert record is not None
                history.append(record)
            if it < opts.max_iters:
                # Grow only when another iteration will actually run,
                # so the returned factors match the returned core.
                # expand_factor consumes the shared rng identically on
                # every rank (replicated determinism).
                factors = [
                    expand_factor(u, r, rng)
                    for u, r in zip(factors, new_ranks)
                ]
                ranks = new_ranks
                engine.reset_factors(factors, ranks)
                if mgr is not None:
                    # Post-growth boundary: expanded factors, grown
                    # ranks, bumped versions, generator state *after*
                    # the expand_factor draws.
                    mgr.replicate(_boundary_ck(it))
                if checkpoint_path is not None and comm.rank == 0:
                    if prof is not None:
                        prof.begin("checkpoint", "kernel")
                    _boundary_ck(it).save(checkpoint_path)
                    comm.note_event("checkpoint", {"iteration": it})
                    if prof is not None:
                        prof.metrics.observe(
                            "checkpoint_write_seconds", prof.end()
                        )
        if prof is not None:
            prof.end()

    if result_core is None and comm.rank == 0:
        # Budget never met within max_iters; return the last iterate.
        assert core is not None
        result_core = core
        result_factors = list(factors)

    if prof is not None:
        _stamp_engine_metrics(prof, engine)
    stats = {
        "x_norm": x_norm,
        "history": history,
        "converged": converged,
        "first_satisfied": first_satisfied,
        "per_iteration_ttms": per_iter,
        "cache_hits": engine.cache_hits,
        "cache_misses": engine.cache_misses,
        "used_tree": use_tree,
        "rule": rule,
        "trace": comm.trace,
    }
    if comm.rank != 0:
        return None, None, stats
    return result_core, result_factors, stats


def _rahosi_dispatch(comm: ProcessComm, *args: object):
    return _rahosi_rank_program(comm, *args)  # type: ignore[arg-type]


def mp_rahosi_dt(
    x: np.ndarray,
    eps: float,
    init_ranks: Sequence[int],
    grid_dims: Sequence[int],
    options: RankAdaptiveOptions | None = None,
    *,
    rule: str = "half",
    timeout: float = 240.0,
    transport: str = "p2p",
    comm_config: CommConfig | None = None,
    collective_timeout: float | None = None,
    checkpoint_path: str | None = None,
    resume_from: str | SweepCheckpoint | None = None,
    orthogonality_tol: float | None = None,
    profile_out: dict[int, object] | None = None,
    monitor: object | None = None,
) -> tuple[TuckerTensor, MPRankAdaptiveStats]:
    """Error-specified rank-adaptive HOSI on real processes (Alg. 3).

    The process-parallel counterpart of
    :func:`repro.core.rank_adaptive.rank_adaptive_hooi`: the same
    grow-until-satisfied / truncate-via-core-analysis control flow,
    with the iteration itself running on the mini-MPI through
    :class:`MPTreeEngine`.  Rank adaptation invalidates the engine's
    memoized tree nodes through factor-version bumps
    (:meth:`MPTreeEngine.reset_factors`).

    ``checkpoint_path`` makes rank 0 overwrite a
    :class:`~repro.distributed.checkpoint.SweepCheckpoint` after every
    growth iteration (factors, ranks, rng state, history);
    ``resume_from`` restarts from one, bit-identically to an
    uninterrupted run.  ``orthogonality_tol`` enables the per-update
    factor drift guard.
    """
    options = options or RankAdaptiveOptions()
    if eps <= 0 or eps >= 1:
        raise ConfigError("eps must lie in (0, 1)")
    init_ranks = check_ranks(x.shape, init_ranks, allow_exceed=True)
    grid = ProcessorGrid(grid_dims)
    if grid.ndim != x.ndim:
        raise ValueError(f"{x.ndim}-way tensor needs a {x.ndim}-way grid")
    _llsv_is_subspace(options.llsv_method)

    resume, x_dig = _prepare_resume(
        "mp_rahosi_dt",
        x,
        grid,
        resume_from,
        checkpoint_path,
        max_iters=options.max_iters,
    )

    prof_sink: dict[int, object] = {}
    events: list = []
    outs = run_elastic(
        _rahosi_dispatch,
        grid.size,
        _scatter_blocks(x, grid),
        tuple(grid.dims),
        tuple(x.shape),
        tuple(init_ranks),
        float(eps),
        tensor_norm(x),
        options,
        rule,
        x_dig,
        checkpoint_path,
        resume,
        orthogonality_tol,
        resume_slot=10,
        timeout=timeout,
        transport=transport,
        config=comm_config,
        collective_timeout=collective_timeout,
        profile_out=prof_sink,
        events_out=events,
        monitor=monitor,
    )
    if profile_out is not None:
        profile_out.update(prof_sink)
    core, factors, st = outs[0]
    assert core is not None and factors is not None
    stats = MPRankAdaptiveStats(
        x_norm=st["x_norm"],
        history=st["history"],
        converged=st["converged"],
        first_satisfied=st["first_satisfied"],
        per_iteration_ttms=st["per_iteration_ttms"],
        cache_hits=st["cache_hits"],
        cache_misses=st["cache_misses"],
        used_tree=st["used_tree"],
        rule=st["rule"],
        trace=st["trace"],
        profile=_gather_run_profile(prof_sink),
        recovery_events=events,
    )
    return TuckerTensor(core=core, factors=factors), stats


def mp_hosi(
    x: np.ndarray,
    ranks: Sequence[int],
    grid_dims: Sequence[int],
    *,
    max_iters: int = 2,
    seed: int = 0,
    timeout: float = 240.0,
    transport: str = "p2p",
    comm_config: CommConfig | None = None,
    collective_timeout: float | None = None,
) -> TuckerTensor:
    """Rank-specified direct-TTM HOSI on real processes.

    Kept as the unmemoized baseline (the ``mp_hooi_dt`` ablation
    partner); the core-forming TTM now runs once after the final
    sweep instead of once per outer iteration.
    """
    options = HOOIOptions(
        use_dimension_tree=False,
        llsv_method=LLSVMethod.SUBSPACE,
        max_iters=max_iters,
        seed=seed,
    )
    tucker, _ = mp_hooi_dt(
        x,
        ranks,
        grid_dims,
        options,
        timeout=timeout,
        transport=transport,
        comm_config=comm_config,
        collective_timeout=collective_timeout,
    )
    return tucker
