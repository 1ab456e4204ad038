"""STHOSVD with *real* process parallelism.

Runs TuckerMPI's STHOSVD algorithm on the mini-MPI of
:mod:`repro.vmpi.mp_comm`: every rank is an OS process holding only its
block; Grams, truncating TTMs, and the final core assembly move data
exclusively through the communicator, via the shared executed kernels
of :mod:`repro.distributed.kernels` (which phase-tag each collective).
Functionally equivalent to the sequential algorithm (tested) — this is
the closest thing to the paper's MPI execution an offline single
machine can offer.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.tucker import TuckerTensor
from repro.distributed.checkpoint import SweepCheckpoint
from repro.distributed.kernels import (
    check_factor_orthogonality,
    mp_gather_core,
    mp_gram,
    mp_ttm,
)
from repro.distributed.layout import BlockLayout
from repro.linalg.evd import gram_evd, rank_from_spectrum
from repro.tensor.dense import tensor_norm
from repro.tensor.validation import check_ranks
from repro.distributed.recovery import (
    prepare_resume,
    run_elastic,
    save_checkpoint,
    scatter_blocks,
)
from repro.vmpi.grid import ProcessorGrid
from repro.vmpi.mp_comm import CommConfig, ProcessComm

__all__ = ["mp_sthosvd"]


def _rank_program(
    comm: ProcessComm,
    blocks: list[np.ndarray],
    grid_dims: tuple[int, ...],
    shape: tuple[int, ...],
    ranks: tuple[int, ...] | None,
    threshold_sq: float | None,
    x_digest: str,
    checkpoint_path: str | None,
    orthogonality_tol: float | None,
    resume: SweepCheckpoint | None,
) -> tuple[np.ndarray | None, list[np.ndarray] | None]:
    """The per-rank SPMD program (runs inside a worker process)."""
    grid = ProcessorGrid(grid_dims)
    coords = grid.coords(comm.rank)
    block = blocks[comm.rank]
    layout = BlockLayout(shape, grid)
    factors: list[np.ndarray] = []
    start_mode = 0

    if resume is not None:
        # The checkpoint stores the already-chosen factors; replaying
        # their (deterministic) truncating TTMs from the input block
        # rebuilds this rank's partially-truncated block exactly —
        # the Grams and EVDs of the completed modes are skipped.
        start_mode = resume.iteration
        for mode, u in enumerate(resume.factors):
            u = np.ascontiguousarray(u)
            factors.append(u)
            block, layout = mp_ttm(
                comm, block, layout, coords, u, mode, phase="ttm"
            )

    def _boundary_ck(completed: int) -> SweepCheckpoint:
        return SweepCheckpoint(
            algorithm="mp_sthosvd",
            iteration=completed,
            shape=shape,
            grid_dims=grid_dims,
            ranks=tuple(f.shape[1] for f in factors),
            factors=factors,
            x_digest=x_digest,
        )

    # Starting-point snapshot (mode 0 or the resume point): a crash
    # inside the very first mode must also be recoverable.
    save_checkpoint(comm, _boundary_ck, start_mode, None)
    fr = comm.flight
    for mode in range(start_mode, len(shape)):
        comm.note_progress(
            mode=mode,
            total=len(shape),
            ranks=tuple(f.shape[1] for f in factors),
        )
        if fr is not None:
            # STHOSVD's outer loop is its "sweep": one pass per mode.
            fr.begin(f"mode {mode}", "sweep")
        # --- parallel Gram (all-to-all into 1-D columns + a local Gram
        # on every rank + allreduce) and replicated EVD + rank choice
        # (every rank identical).
        g = mp_gram(comm, block, layout, coords, mode, phase="gram")
        if fr is not None:
            fr.begin("gram:evd", "kernel", "gram")
        sq_vals, vecs = gram_evd(g)
        if fr is not None:
            fr.end()
        if ranks is not None:
            r = ranks[mode]
        else:
            r = rank_from_spectrum(sq_vals, threshold_sq)
        u = np.ascontiguousarray(vecs[:, :r])
        if orthogonality_tol is not None:
            check_factor_orthogonality(
                u,
                mode=mode,
                rank=comm.rank,
                tol=orthogonality_tol,
                phase="gram",
            )
        factors.append(u)

        # --- parallel truncating TTM: local partial with the factor
        # rows of this rank's slab, reduce-scatter over the mode comm.
        block, layout = mp_ttm(
            comm, block, layout, coords, u, mode, phase="ttm"
        )

        if mode + 1 < len(shape):
            save_checkpoint(comm, _boundary_ck, mode + 1, checkpoint_path)
        if fr is not None:
            fr.end()

    # --- gather the core blocks at rank 0.
    core = mp_gather_core(comm, block, layout)
    if comm.rank != 0:
        return None, None
    return core, factors


def mp_sthosvd(
    x: np.ndarray,
    grid_dims: Sequence[int],
    *,
    ranks: Sequence[int] | None = None,
    eps: float | None = None,
    timeout: float = 120.0,
    transport: str = "shm",
    comm_config: CommConfig | None = None,
    collective_timeout: float | None = None,
    checkpoint_path: str | None = None,
    resume_from: str | SweepCheckpoint | None = None,
    orthogonality_tol: float | None = None,
    profile_out: dict[int, object] | None = None,
    monitor: object | None = None,
) -> TuckerTensor:
    """Run STHOSVD on real processes (one per grid cell).

    Parameters mirror :func:`repro.distributed.spmd.spmd_sthosvd`; the
    difference is execution: ``prod(grid_dims)`` OS processes, data
    moving only through the mini-MPI collectives.  ``transport`` and
    ``comm_config`` select and tune the communication layer (see
    :func:`repro.vmpi.mp_comm.run_spmd`); ``collective_timeout`` is a
    shorthand for the per-collective deadline of
    :class:`~repro.vmpi.mp_comm.CommConfig`.  The communicator reduces
    in rank order on both wires, so the result is
    bit-identical to :func:`~repro.distributed.spmd.spmd_sthosvd`.

    ``checkpoint_path`` makes rank 0 overwrite a
    :class:`~repro.distributed.checkpoint.SweepCheckpoint` after every
    non-final mode; ``resume_from`` restarts from one, bit-identically
    to an uninterrupted run.  ``orthogonality_tol`` enables the
    per-mode factor drift guard.  With the flight recorder on (the
    default), ``profile_out`` receives each rank's
    :class:`~repro.observability.telemetry.FlightRing`.  ``monitor``
    attaches a live telemetry monitor
    (:class:`~repro.observability.telemetry.TelemetryMonitor`): ranks
    publish per-mode progress out of band while the sweep runs.
    """
    if ranks is None and eps is None:
        raise ValueError("mp_sthosvd needs ranks or eps")
    if ranks is not None:
        ranks = check_ranks(x.shape, ranks)
    grid = ProcessorGrid(grid_dims)
    if grid.ndim != x.ndim:
        raise ValueError(f"{x.ndim}-way tensor needs a {x.ndim}-way grid")
    threshold_sq = (
        None if eps is None else (eps * tensor_norm(x)) ** 2 / x.ndim
    )

    resume, x_dig = prepare_resume(
        "mp_sthosvd", x, grid, resume_from, checkpoint_path, max_iters=x.ndim
    )

    # run_spmd passes identical *args to every rank; the program picks
    # its own block by comm.rank.
    outs = run_elastic(
        _rank_program,
        grid.size,
        scatter_blocks(x, grid),
        tuple(grid.dims),
        tuple(x.shape),
        None if ranks is None else tuple(ranks),
        threshold_sq,
        x_dig,
        checkpoint_path,
        orthogonality_tol,
        resume,
        timeout=timeout,
        transport=transport,
        config=comm_config,
        collective_timeout=collective_timeout,
        profile_out=profile_out,
        monitor=monitor,
    )
    core, factors = outs[0]
    assert core is not None and factors is not None
    return TuckerTensor(core=core, factors=factors)
