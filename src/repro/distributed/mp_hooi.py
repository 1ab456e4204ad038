"""HOOI/HOSI and rank-adaptive HOSI on real processes.

The paper's preferred iterations executed on the mini-MPI: every rank
is an OS process holding one block, all data moves through the
collectives of :mod:`repro.vmpi.mp_comm`.  Two drivers live here:

* :func:`mp_hooi_dt` — rank-specified HOOI.  By default it drives the
  shared dimension-tree traversal
  (:func:`repro.core.dimension_tree.hooi_iteration_dt`) with
  :class:`MPTreeEngine`, whose state is this rank's
  ``(block, layout)`` pair: the traversal passes each partial
  contraction into both children, and nothing is kept between
  traversals.  For 1-D/2-D inputs — where the tree memoizes nothing
  (:func:`~repro.core.dimension_tree.tree_applicable`) — and for
  ``use_dimension_tree=False`` it falls back to the shared direct
  sweep (:func:`~repro.core.dimension_tree.direct_iteration`) on the
  same engine.  Either way the core-forming TTM runs once, after the
  final sweep, not once per outer iteration.
* :func:`mp_rahosi_dt` — the error-specified Alg. 3 on processes: the
  core is formed (and gathered) every iteration for the norm-identity
  error check, rank 0 runs Alg. 3's shared decision
  (:func:`~repro.core.rank_adaptive.assess_iterate`) and broadcasts
  the truncation/growth ranks, and every rank truncates or expands its
  replicated factors identically.

Subspace iteration moves data exactly as §3.4 describes
(mode-subcommunicator redistributions + a global reduction + a
replicated QRCP) via the shared executed kernels of
:mod:`repro.distributed.kernels`; every collective carries a phase tag
so the traced per-iteration TTM count can be certified against the
memoized Table 1 formula
(:func:`repro.analysis.costs.hooi_ttm_count`).  The communicator
reduces in rank order, so the results are bit-identical to the in-process
:func:`repro.distributed.spmd_hooi.spmd_hooi`.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.dimension_tree import (
    direct_iteration,
    hooi_iteration_dt,
    tree_applicable,
)
from repro.core.errors import CheckpointError, ConfigError
from repro.core.hooi import HOOIOptions
from repro.core.rank_adaptive import (
    IterationRecord,
    RankAdaptiveOptions,
    assess_iterate,
    expand_factor,
)
from repro.core.tucker import TuckerTensor
from repro.distributed.checkpoint import (
    SweepCheckpoint,
    decode_history,
    encode_history,
)
from repro.distributed.kernels import (
    check_factor_orthogonality,
    mp_gather_core,
    mp_gram_evd_llsv,
    mp_subspace_llsv,
    mp_ttm,
)
from repro.distributed.layout import BlockLayout
from repro.distributed.recovery import (
    prepare_resume,
    run_elastic,
    save_checkpoint,
    scatter_blocks,
)
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
]

#: Engine state: this rank's block and its layout.
MPState = tuple[np.ndarray, BlockLayout]


class MPTreeEngine:
    """Dimension-tree engine over the mini-MPI.

    State threading follows :class:`~repro.distributed.spmd_hooi.\
SPMDTreeEngine`: the traversal passes each partial contraction into
    both children, which is the whole of the tree's TTM saving, so no
    node outlives the traversal that made it.  The rank-adaptive driver
    swaps in truncated or grown factors by assigning ``factors`` and
    ``ranks`` between traversals.
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
        orthogonality_tol: float | None = None,
    ) -> None:
        self.comm = comm
        self.coords = coords
        self.factors = factors
        self.ranks = tuple(int(r) for r in ranks)
        self.subspace = subspace
        self.n_subspace_iters = n_subspace_iters
        #: optional guard rail: after every factor update, verify the
        #: replicated factor is still orthonormal to this tolerance
        #: (raises NumericalFaultError on drift — e.g. a wire bit-flip
        #: that survived the reduction).
        self.orthogonality_tol = orthogonality_tol
        self.last_mode = len(factors) - 1
        self.ttm_count = 0
        self.core_state: MPState | None = None
        #: Drivers disable this on non-final fixed-rank iterations: the
        #: core is only needed once, after the last sweep (the
        #: rank-adaptive driver keeps it on — it consumes the core
        #: every iteration for the error check).
        self.form_core_enabled = True

    def contract(self, state: MPState, modes: Sequence[int]) -> MPState:
        """Block-parallel multi-TTM over the listed modes, in order."""
        block, layout = state
        for m in modes:
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
        return block, layout

    def update_factor(self, state: MPState, mode: int) -> None:
        """Block-parallel LLSV update of ``factors[mode]``."""
        block, layout = state
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

    def form_core(self, state: MPState, mode: int) -> None:
        """Final block-parallel TTM producing the core blocks."""
        if not self.form_core_enabled:
            return
        block, layout = state
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


def _stamp_engine_metrics(comm: ProcessComm, engine: MPTreeEngine) -> None:
    """End-of-program gauge: the engine's lifetime TTM count."""
    if comm.flight is not None:
        comm.flight.metrics.gauge("ttm_count", float(engine.ttm_count))


@dataclass
class MPHooiStats:
    """Run-level diagnostics of :func:`mp_hooi_dt` (from rank 0).

    ``per_iteration_ttms`` lists the executed multi-TTM count of each
    outer iteration — certified in the tests against
    :func:`repro.analysis.costs.hooi_ttm_count` (the core-forming TTM
    appears only in the final entry).  ``trace`` is rank 0's
    phase-tagged collective trace.
    """

    per_iteration_ttms: list[int] = field(default_factory=list)
    used_tree: bool = True
    trace: CommTrace = field(default_factory=CommTrace)
    #: one entry per in-run recovery episode (elastic policies only).
    recovery_events: list = field(default_factory=list)


@dataclass
class MPRankAdaptiveStats:
    """Run-level diagnostics of :func:`mp_rahosi_dt` (from rank 0).

    ``cache_hits`` and ``cache_misses`` always read 0: the engine keeps
    no cache, and the fields stay only for callers that still read
    them.
    """

    x_norm: float = 0.0
    history: list[IterationRecord] = field(default_factory=list)
    converged: bool = False
    first_satisfied: int | None = None
    per_iteration_ttms: list[int] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    used_tree: bool = True
    trace: CommTrace = field(default_factory=CommTrace)
    #: one entry per in-run recovery episode (elastic policies only).
    recovery_events: list = field(default_factory=list)


def _hooi_rank_program(
    comm: ProcessComm,
    blocks: list[np.ndarray],
    grid_dims: tuple[int, ...],
    shape: tuple[int, ...],
    ranks: tuple[int, ...],
    use_tree: bool,
    subspace: bool,
    n_subspace_iters: int,
    max_iters: int,
    seed: int | None,
    x_digest: str,
    checkpoint_path: str | None,
    orthogonality_tol: float | None,
    resume: SweepCheckpoint | None,
) -> tuple[np.ndarray | None, list[np.ndarray] | None, MPHooiStats]:
    grid = ProcessorGrid(grid_dims)
    coords = grid.coords(comm.rank)
    x_block = blocks[comm.rank]
    x_layout = BlockLayout(shape, grid)
    use_tree = use_tree and tree_applicable(len(shape))

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
        orthogonality_tol=orthogonality_tol,
    )
    per_iter: list[int] = []
    start_it = 0
    if resume is not None:
        start_it = resume.iteration
        per_iter = list(resume.extra.get("per_iteration_ttms", []))
        engine.ttm_count = int(resume.extra.get("ttm_count", 0))

    def _boundary_ck(completed: int) -> SweepCheckpoint:
        return SweepCheckpoint(
            algorithm="mp_hooi_dt",
            iteration=completed,
            shape=shape,
            grid_dims=grid_dims,
            ranks=engine.ranks,
            factors=engine.factors,
            x_digest=x_digest,
            extra={
                "per_iteration_ttms": per_iter,
                "ttm_count": engine.ttm_count,
            },
        )

    # Starting-point snapshot (iteration 0 or the resume point): a
    # crash inside the very first sweep must also be recoverable.
    save_checkpoint(comm, _boundary_ck, start_it, None)
    state: MPState = (x_block, x_layout)
    fr = comm.flight
    for it in range(start_it, max_iters):
        comm.note_progress(iteration=it + 1, total=max_iters)
        if fr is not None:
            fr.begin(f"sweep {it + 1}", "sweep")
        # The core feeds nothing until the run ends, so the trailing
        # TTM runs exactly once, after the final sweep.
        engine.form_core_enabled = it == max_iters - 1
        before = engine.ttm_count
        if use_tree:
            hooi_iteration_dt(state, engine)
        else:
            direct_iteration(state, engine)
        per_iter.append(engine.ttm_count - before)
        if it + 1 < max_iters:
            save_checkpoint(comm, _boundary_ck, it + 1, checkpoint_path)
        if fr is not None:
            fr.end()

    assert engine.core_state is not None
    core = mp_gather_core(comm, *engine.core_state)
    _stamp_engine_metrics(comm, engine)
    stats = MPHooiStats(
        per_iteration_ttms=per_iter, used_tree=use_tree, trace=comm.trace
    )
    if comm.rank != 0:
        return None, None, stats
    return core, engine.factors, stats


def _llsv_is_subspace(method: LLSVMethod) -> bool:
    if method not in (LLSVMethod.GRAM_EVD, LLSVMethod.SUBSPACE):
        raise ConfigError(
            "process-parallel HOOI supports GRAM_EVD or SUBSPACE kernels"
        )
    return method is LLSVMethod.SUBSPACE


def mp_hooi_dt(
    x: np.ndarray,
    ranks: Sequence[int],
    grid_dims: Sequence[int],
    options: HOOIOptions | None = None,
    *,
    timeout: float = 240.0,
    transport: str = "shm",
    comm_config: CommConfig | None = None,
    collective_timeout: float | None = None,
    checkpoint_path: str | None = None,
    resume_from: str | SweepCheckpoint | None = None,
    orthogonality_tol: float | None = None,
    profile_out: dict[int, object] | None = None,
    monitor: object | None = None,
) -> tuple[TuckerTensor, MPHooiStats]:
    """Rank-specified HOOI on real processes (one per grid cell).

    Uses the paper's balanced dimension tree by default
    (``options.use_dimension_tree``), falling back to the direct sweep
    for 1-D/2-D inputs where the tree memoizes nothing.
    ``transport``/``comm_config``/``collective_timeout``
    select and tune the communication layer exactly as in
    :func:`repro.distributed.mp_sthosvd.mp_sthosvd`.  The result is
    bit-identical to the in-process :func:`repro.distributed.spmd_hooi.spmd_hooi` with the
    same options.

    ``checkpoint_path`` makes rank 0 overwrite a
    :class:`~repro.distributed.checkpoint.SweepCheckpoint` after every
    non-final iteration; ``resume_from`` (a path or loaded checkpoint)
    restarts from one, bit-identically to an uninterrupted run.
    ``orthogonality_tol`` enables the per-update factor drift guard.
    With the flight recorder on (the default), ``profile_out``, when
    given, receives every rank's flight ring;
    :meth:`~repro.observability.profile.RunProfile.from_ranks` views
    them.
    """
    options = options or HOOIOptions()
    ranks = check_ranks(x.shape, ranks)
    grid = ProcessorGrid(grid_dims)
    if grid.ndim != x.ndim:
        raise ValueError(f"{x.ndim}-way tensor needs a {x.ndim}-way grid")
    subspace = _llsv_is_subspace(options.llsv_method)

    resume, x_dig = prepare_resume(
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

    events: list = []
    outs = run_elastic(
        _hooi_rank_program,
        grid.size,
        scatter_blocks(x, grid),
        tuple(grid.dims),
        tuple(x.shape),
        tuple(ranks),
        options.use_dimension_tree,
        subspace,
        options.n_subspace_iters,
        options.max_iters,
        options.seed,
        x_dig,
        checkpoint_path,
        orthogonality_tol,
        resume,
        timeout=timeout,
        transport=transport,
        config=comm_config,
        collective_timeout=collective_timeout,
        profile_out=profile_out,
        events_out=events,
        monitor=monitor,
    )
    core, factors, stats = outs[0]
    assert core is not None and factors is not None
    stats.recovery_events = events
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
    x_digest: str,
    checkpoint_path: str | None,
    orthogonality_tol: float | None,
    resume: SweepCheckpoint | None,
) -> tuple[
    np.ndarray | None, list[np.ndarray] | None, MPRankAdaptiveStats
]:
    grid = ProcessorGrid(grid_dims)
    coords = grid.coords(comm.rank)
    x_block = blocks[comm.rank]
    x_layout = BlockLayout(shape, grid)
    use_tree = opts.use_dimension_tree and tree_applicable(len(shape))
    subspace = opts.llsv_method is LLSVMethod.SUBSPACE

    rng = np.random.default_rng(opts.seed)
    if resume is not None:
        # Replicated factors + generator state are the complete
        # inter-sweep state: restoring them makes the remaining
        # iterations — including the next ``expand_factor`` draws —
        # bit-identical to an uninterrupted run.
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

    engine = MPTreeEngine(
        comm,
        coords,
        factors,
        ranks,
        subspace=subspace,
        n_subspace_iters=opts.n_subspace_iters,
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
        start_it = resume.iteration
        per_iter = list(resume.extra.get("per_iteration_ttms", []))
        history = decode_history(resume.extra.get("history", []))
        converged = bool(resume.extra.get("converged", False))
        first_satisfied = resume.extra.get("first_satisfied")
        engine.ttm_count = int(resume.extra.get("ttm_count", 0))

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
            rng_state=rng.bit_generator.state,
            x_digest=x_digest,
            extra={
                "per_iteration_ttms": per_iter,
                "history": encode_history(history),
                "converged": converged,
                "first_satisfied": first_satisfied,
                "ttm_count": engine.ttm_count,
            },
        )

    # Starting-point snapshot (iteration 0 or the resume point): a
    # crash inside the very first sweep must also be recoverable.
    save_checkpoint(comm, _boundary_ck, start_it, None)
    state: MPState = (x_block, x_layout)
    fr = comm.flight
    for it in range(start_it + 1, opts.max_iters + 1):
        comm.note_progress(iteration=it, total=opts.max_iters, ranks=ranks)
        if fr is not None:
            fr.begin(f"sweep {it}", "sweep")
        t0 = time.perf_counter()
        before = engine.ttm_count
        # Alg. 3 consumes the core every iteration (norm-identity error
        # check + eq. (3) analysis), so form_core stays enabled.
        if use_tree:
            hooi_iteration_dt(state, engine)
        else:
            direct_iteration(state, engine)
        per_iter.append(engine.ttm_count - before)
        factors = engine.factors

        assert engine.core_state is not None
        core = mp_gather_core(comm, *engine.core_state)

        # Rank 0 runs Alg. 3's decision on the gathered core and
        # broadcasts it so every rank truncates/expands its replicated
        # factors identically.
        record: IterationRecord | None = None
        if comm.rank == 0:
            assert core is not None
            record, new_ranks, trunc = assess_iterate(
                core,
                factors,
                ranks,
                it,
                x_norm,
                eps,
                opts,
                time.perf_counter() - t0,
            )
            history.append(record)
            if trunc is not None:
                result_core, result_factors = trunc.core, trunc.factors
            payload = np.array(
                [1 if record.satisfied else 0, *new_ranks], dtype=np.int64
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
            engine.factors, engine.ranks = factors, ranks
            if opts.stop_at_threshold:
                if fr is not None:
                    fr.end()
                break
        elif it < opts.max_iters:
            # Grow only when another iteration will actually run, so
            # the returned factors match the returned core.
            # expand_factor consumes the shared rng identically on
            # every rank (replicated determinism).
            factors = [
                expand_factor(u, r, rng) for u, r in zip(factors, new_ranks)
            ]
            ranks = new_ranks
            engine.factors, engine.ranks = factors, ranks
            # Post-growth boundary: expanded factors, grown ranks,
            # generator state *after* the expand_factor draws.
            save_checkpoint(comm, _boundary_ck, it, checkpoint_path)
        if fr is not None:
            fr.end()

    if result_core is None and comm.rank == 0:
        # Budget never met within max_iters; return the last iterate.
        assert core is not None
        result_core = core
        result_factors = list(factors)

    _stamp_engine_metrics(comm, engine)
    stats = MPRankAdaptiveStats(
        x_norm=x_norm,
        history=history,
        converged=converged,
        first_satisfied=first_satisfied,
        per_iteration_ttms=per_iter,
        used_tree=use_tree,
        trace=comm.trace,
    )
    if comm.rank != 0:
        return None, None, stats
    return result_core, result_factors, stats


def mp_rahosi_dt(
    x: np.ndarray,
    eps: float,
    init_ranks: Sequence[int],
    grid_dims: Sequence[int],
    options: RankAdaptiveOptions | None = None,
    *,
    timeout: float = 240.0,
    transport: str = "shm",
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
    :class:`MPTreeEngine`.  Every traversal starts again from the input
    block, so truncated or grown factors need no invalidation step.

    ``checkpoint_path`` makes rank 0 overwrite a
    :class:`~repro.distributed.checkpoint.SweepCheckpoint` after every
    growth iteration (factors, ranks, rng state, history);
    ``resume_from`` restarts from one, bit-identically to an
    uninterrupted run.  ``orthogonality_tol`` enables the per-update
    factor drift guard.  ``profile_out`` receives the flight rings, as
    in :func:`mp_hooi_dt`.
    """
    options = options or RankAdaptiveOptions()
    if eps <= 0 or eps >= 1:
        raise ConfigError("eps must lie in (0, 1)")
    init_ranks = check_ranks(x.shape, init_ranks, allow_exceed=True)
    grid = ProcessorGrid(grid_dims)
    if grid.ndim != x.ndim:
        raise ValueError(f"{x.ndim}-way tensor needs a {x.ndim}-way grid")
    _llsv_is_subspace(options.llsv_method)

    resume, x_dig = prepare_resume(
        "mp_rahosi_dt",
        x,
        grid,
        resume_from,
        checkpoint_path,
        max_iters=options.max_iters,
    )

    events: list = []
    outs = run_elastic(
        _rahosi_rank_program,
        grid.size,
        scatter_blocks(x, grid),
        tuple(grid.dims),
        tuple(x.shape),
        tuple(init_ranks),
        float(eps),
        tensor_norm(x),
        options,
        x_dig,
        checkpoint_path,
        orthogonality_tol,
        resume,
        timeout=timeout,
        transport=transport,
        config=comm_config,
        collective_timeout=collective_timeout,
        profile_out=profile_out,
        events_out=events,
        monitor=monitor,
    )
    core, factors, stats = outs[0]
    assert core is not None and factors is not None
    stats.recovery_events = events
    return TuckerTensor(core=core, factors=factors), stats
