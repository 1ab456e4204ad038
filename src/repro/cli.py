"""Command-line drivers mirroring the TuckerMPI-HOOI artifact.

``repro-sthosvd --parameter-file STHOSVD.cfg`` and
``repro-hooi --parameter-file HOOI.cfg`` accept the artifact's
parameter-file keys, generate the synthetic tensor the drivers would
(``Global dims`` + construction ranks + ``Noise``), run the requested
algorithm on the simulated machine, and print progress/timings to
stdout the way the artifact's output stream does.

Both drivers accept ``--checkpoint-dir DIR`` (or the parameter-file
key ``Checkpoint dir``), which switches execution to the real
process-parallel layer and makes rank 0 overwrite a sweep checkpoint
(see :mod:`repro.distributed.checkpoint`) after every non-final
iteration/mode, with the parameter file snapshotted alongside.  An
interrupted run is then continued with::

    repro resume DIR/checkpoint.npz

which regenerates the tensor from the snapshotted parameters, verifies
the checkpoint's input digest, and replays the remaining sweeps —
bit-identically to an uninterrupted run.  ``repro`` is the umbrella
entry point (``repro sthosvd|hooi|resume ...``).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from repro.analysis.breakdown import group_breakdown
from repro.analysis.metrics import compression_ratio
from repro.config import ParameterFile
from repro.core.errors import ConfigError
from repro.core.hooi import HOOIOptions
from repro.core.rank_adaptive import RankAdaptiveOptions
from repro.distributed.checkpoint import SweepCheckpoint
from repro.distributed.hooi import dist_hooi
from repro.distributed.rank_adaptive import dist_rank_adaptive_hooi
from repro.distributed.sthosvd import dist_sthosvd
from repro.linalg.llsv import LLSVMethod
from repro.tensor.random import tucker_plus_noise

__all__ = ["sthosvd_main", "hooi_main", "resume_main", "run_main", "main"]

#: File names inside a ``--checkpoint-dir``.
CHECKPOINT_NAME = "checkpoint.npz"
PARAMS_SNAPSHOT = "parameters.cfg"


def _parse_args(
    argv: Sequence[str] | None, prog: str
) -> tuple[ParameterFile, argparse.Namespace]:
    parser = argparse.ArgumentParser(
        prog=prog,
        description=f"{prog}: TuckerMPI-style driver on the simulated machine",
    )
    parser.add_argument(
        "--parameter-file",
        required=True,
        help="TuckerMPI-style 'Key = value' parameter file",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help=(
            "run on the process-parallel layer and write a sweep "
            "checkpoint (resumable with 'repro resume') into this "
            "directory after every non-final iteration"
        ),
    )
    args = parser.parse_args(argv)
    return ParameterFile.from_path(args.parameter_file), args


def _checkpoint_path(
    params: ParameterFile, args: argparse.Namespace
) -> str | None:
    """Resolve ``--checkpoint-dir`` / ``Checkpoint dir``; snapshot the
    parameter file next to the checkpoint so ``repro resume`` can
    regenerate the same tensor."""
    ckdir = (
        Path(args.checkpoint_dir)
        if args.checkpoint_dir
        else params.get_path("checkpoint dir")
    )
    if ckdir is None:
        return None
    ckdir.mkdir(parents=True, exist_ok=True)
    (ckdir / PARAMS_SNAPSHOT).write_text(
        Path(args.parameter_file).read_text()
    )
    path = ckdir / CHECKPOINT_NAME
    print(f"Checkpointing to {path} after every sweep")
    return str(path)


def _print_options(params: ParameterFile) -> None:
    print("Parsed parameter file options:")
    for key, value in sorted(params.values.items()):
        print(f"  {key} = {value}")


def _svd_method(code: int) -> LLSVMethod:
    if code == 0:
        return LLSVMethod.GRAM_EVD
    if code == 2:
        return LLSVMethod.SUBSPACE
    raise ConfigError(
        f"SVD Method = {code} unsupported (0 = Gram+EVD, 2 = subspace)"
    )


def _print_timings(breakdown: dict[str, float]) -> None:
    print("Simulated time breakdown (seconds):")
    for label, secs in group_breakdown(breakdown).items():
        print(f"  {label:>14s}: {secs:.6g}")


def _resolve_grid(
    params: ParameterFile,
    dims: tuple[int, ...],
    ranks: tuple[int, ...],
    algorithm: str,
) -> tuple[int, ...]:
    """Handle ``Processor grid dims = auto`` (needs ``Processors``)."""
    raw = params.get_str("processor grid dims", "")
    if raw.strip().lower() == "auto":
        from repro.analysis.autotune import autotune_grid

        p = params.get_int("processors")
        choice = autotune_grid(dims, ranks, p, algorithm)
        print(
            f"Auto-tuned grid for {algorithm} at P={p}: "
            f"{'x'.join(map(str, choice.grid))} "
            f"({choice.seconds:.4g} simulated s)"
        )
        return choice.grid
    return params.get_ints("processor grid dims", (1,) * len(dims))


def sthosvd_main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``repro-sthosvd``."""
    params, args = _parse_args(argv, "repro-sthosvd")
    if params.get_bool("print options", True):
        _print_options(params)

    dims = params.get_ints("global dims")
    noise = params.get_float("noise", 1e-4)
    ranks = params.get_ints("ranks")
    eps = params.get_float("sv threshold", 0.0)
    seed = params.get_int("seed", 0)
    grid = _resolve_grid(params, dims, ranks, "sthosvd")
    ck_path = _checkpoint_path(params, args)

    print(f"Generating synthetic tensor {dims} with ranks {ranks}")
    x = tucker_plus_noise(dims, ranks, noise=noise, seed=seed)

    if ck_path is not None:
        # Checkpointing implies the real process-parallel layer.
        from repro.distributed.mp_sthosvd import mp_sthosvd

        print(
            f"Running STHOSVD on {int(np.prod(grid))} processes "
            f"({'x'.join(map(str, grid))} grid)"
        )
        tucker_mp = mp_sthosvd(
            x,
            grid,
            eps=eps if eps > 0 else None,
            ranks=None if eps > 0 else ranks,
            checkpoint_path=ck_path,
        )
        _print_mp_result(tucker_mp, x)
        return 0

    # "Mode order = auto" applies the exchange-optimal processing order.
    mode_order = None
    if params.get_str("mode order", "").strip().lower() == "auto":
        from repro.core.sthosvd import auto_mode_order

        mode_order = auto_mode_order(dims, ranks)
        print(f"Auto mode order: {mode_order}")

    print(f"Running STHOSVD on a {'x'.join(map(str, grid))} grid")
    tucker, stats = dist_sthosvd(
        x,
        grid,
        eps=eps if eps > 0 else None,
        ranks=None if eps > 0 else ranks,
        mode_order=mode_order,
    )
    assert tucker is not None
    err = tucker.relative_error(x)
    print(f"STHOSVD ranks: {tucker.ranks}")
    print(f"Approximation relative error: {err:.6e}")
    print(
        "Compression ratio: "
        f"{compression_ratio(x.shape, tucker.ranks):.3f}x"
    )
    print(f"Simulated wall time: {stats.simulated_seconds:.6g} s")
    if params.get_bool("print timings", True):
        _print_timings(stats.breakdown)
    return 0


def _print_mp_result(tucker, x: np.ndarray) -> None:
    print(f"Final ranks: {tucker.ranks}")
    print(f"Final relative error: {tucker.relative_error(x):.6e}")
    print(
        "Compression ratio: "
        f"{compression_ratio(x.shape, tucker.ranks):.3f}x"
    )


def hooi_main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``repro-hooi``."""
    params, args = _parse_args(argv, "repro-hooi")
    if params.get_bool("print options", True):
        _print_options(params)

    dims = params.get_ints("global dims")
    noise = params.get_float("noise", 1e-4)
    construction = params.get_ints("construction ranks")
    use_dt = params.get_bool("dimension tree memoization", False)
    method = _svd_method(params.get_int("svd method", 0))
    max_iters = params.get_int("hooi max iters", 2)
    adapt = params.get_float("hooi-adapt threshold", 0.0)
    seed = params.get_int("seed", 0)
    # Accepted for artifact compatibility; the simulator always gathers.
    params.get_bool("hooi adapt core tensor gather type", False)

    variant = {
        (False, LLSVMethod.GRAM_EVD): "HOOI",
        (True, LLSVMethod.GRAM_EVD): "HOOI-DT",
        (False, LLSVMethod.SUBSPACE): "HOSI",
        (True, LLSVMethod.SUBSPACE): "HOSI-DT",
    }[(use_dt, method)]

    print(f"Generating synthetic tensor {dims} with ranks {construction}")
    x = tucker_plus_noise(dims, construction, noise=noise, seed=seed)

    # "Decomposition Ranks = auto" estimates starting ranks from
    # sampled unfolding spectra (requires the adaptive threshold).
    if params.get_str("decomposition ranks", "").strip().lower() == "auto":
        if adapt <= 0:
            raise ConfigError(
                "Decomposition Ranks = auto requires HOOI-Adapt Threshold"
            )
        from repro.core.rank_estimate import estimate_ranks

        decomposition = estimate_ranks(x, adapt, seed=seed)
        print(f"Estimated starting ranks: {decomposition}")
    else:
        decomposition = params.get_ints("decomposition ranks", construction)

    grid = _resolve_grid(params, dims, decomposition, variant.lower())
    ck_path = _checkpoint_path(params, args)
    print(
        f"Running {'rank-adaptive ' if adapt > 0 else ''}{variant} on a "
        f"{'x'.join(map(str, grid))} grid "
        f"(SVD method: {method.value}, dimension tree: {use_dt})"
    )

    if ck_path is not None:
        # Checkpointing implies the real process-parallel layer.
        from repro.distributed.mp_hooi import mp_hooi_dt, mp_rahosi_dt

        if adapt > 0:
            ra_options = RankAdaptiveOptions(
                max_iters=max_iters,
                use_dimension_tree=use_dt,
                llsv_method=method,
                stop_at_threshold=True,
                seed=seed,
            )
            tucker_mp, mp_ra_stats = mp_rahosi_dt(
                x,
                adapt,
                decomposition,
                grid,
                ra_options,
                checkpoint_path=ck_path,
            )
            for rec in mp_ra_stats.history:
                print(
                    f"iteration {rec.iteration}: ranks {rec.ranks_used} "
                    f"error {rec.error:.6e}"
                )
            print(f"Converged: {mp_ra_stats.converged}")
        else:
            h_options = HOOIOptions(
                use_dimension_tree=use_dt,
                llsv_method=method,
                max_iters=max_iters,
                seed=seed,
            )
            tucker_mp, _ = mp_hooi_dt(
                x,
                decomposition,
                grid,
                h_options,
                checkpoint_path=ck_path,
            )
        _print_mp_result(tucker_mp, x)
        return 0

    if adapt > 0:
        options = RankAdaptiveOptions(
            max_iters=max_iters,
            use_dimension_tree=use_dt,
            llsv_method=method,
            stop_at_threshold=True,
            seed=seed,
        )
        tucker, ra_stats = dist_rank_adaptive_hooi(
            x, adapt, decomposition, grid, options=options
        )
        for rec in ra_stats.history:
            post = (
                f" -> truncated to {rec.truncated_ranks} "
                f"(error {rec.truncated_error:.6e})"
                if rec.truncated_ranks is not None
                else ""
            )
            print(
                f"iteration {rec.iteration}: ranks {rec.ranks_used} "
                f"error {rec.error:.6e}{post}"
            )
        print(f"Converged: {ra_stats.converged}")
        breakdown = ra_stats.breakdown
        sim_seconds = ra_stats.simulated_seconds
    else:
        options = HOOIOptions(
            use_dimension_tree=use_dt,
            llsv_method=method,
            max_iters=max_iters,
            seed=seed,
        )
        tucker, h_stats = dist_hooi(x, decomposition, grid, options=options)
        assert tucker is not None
        for i, err in enumerate(h_stats.errors, start=1):
            print(f"iteration {i}: approximation error {err:.6e}")
        breakdown = h_stats.breakdown
        sim_seconds = h_stats.simulated_seconds

    assert tucker is not None
    print(f"Final ranks: {tucker.ranks}")
    print(f"Final relative error: {tucker.relative_error(x):.6e}")
    print(
        "Compression ratio: "
        f"{compression_ratio(x.shape, tucker.ranks):.3f}x"
    )
    print(f"Simulated wall time: {sim_seconds:.6g} s")
    if params.get_bool("print timings", True):
        _print_timings(breakdown)
    return 0


def resume_main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``repro resume <checkpoint>``.

    Loads a sweep checkpoint, regenerates the input tensor from the
    parameter-file snapshot written next to it (or ``--parameter-file``),
    and replays the remaining iterations on the process-parallel
    layer — bit-identically to an uninterrupted run (the drivers verify
    the checkpoint's input-tensor digest before continuing).  The
    checkpoint's recorded world size and backend are validated against
    the requested run up front, so a grid or ``--backend`` mismatch
    fails with an actionable message instead of a shape error
    mid-sweep.
    """
    parser = argparse.ArgumentParser(
        prog="repro resume",
        description="continue an interrupted checkpointed run",
    )
    parser.add_argument(
        "checkpoint", help="path to the sweep checkpoint (.npz)"
    )
    parser.add_argument(
        "--parameter-file",
        default=None,
        help=(
            "parameter file describing the original run (default: "
            f"{PARAMS_SNAPSHOT} next to the checkpoint)"
        ),
    )
    parser.add_argument(
        "--backend",
        choices=("shm", "tcp"),
        default=None,
        help=(
            "rank interconnect (default: the backend recorded in the "
            "checkpoint, else shm)"
        ),
    )
    args = parser.parse_args(argv)

    ck = SweepCheckpoint.load(args.checkpoint)
    pfile = Path(
        args.parameter_file
        or Path(args.checkpoint).parent / PARAMS_SNAPSHOT
    )
    if not pfile.exists():
        raise ConfigError(
            f"no parameter file at {pfile} — pass --parameter-file to "
            "point at the original run's parameters"
        )
    params = ParameterFile.from_path(pfile)

    dims = params.get_ints("global dims")
    noise = params.get_float("noise", 1e-4)
    seed = params.get_int("seed", 0)
    grid = ck.grid_dims

    # Fail actionably on a world-size or backend mismatch now, instead
    # of surfacing it as a shape error three collectives into a sweep.
    import math as _math

    pgrid = params.get_ints("processor grid dims", ())
    if tuple(pgrid) and tuple(pgrid) != tuple(grid):
        raise ConfigError(
            f"checkpoint was written on a {'x'.join(map(str, grid))} "
            f"grid but the parameter file requests "
            f"{'x'.join(map(str, pgrid))} — a resumed run must keep the "
            "original processor grid (reduction order and block layout "
            "depend on it); edit 'Processor grid dims' or resume with "
            "the original parameter file"
        )
    ck_world = ck.extra.get("world_size")
    if ck_world is not None and int(ck_world) != _math.prod(grid):
        raise ConfigError(
            f"checkpoint records world size {ck_world} but its grid "
            f"{'x'.join(map(str, grid))} implies "
            f"{_math.prod(grid)} ranks — the checkpoint is "
            "inconsistent; re-create it from the original run"
        )
    ck_backend = ck.extra.get("backend")
    backend = args.backend or ck_backend or "shm"
    if (
        args.backend is not None
        and ck_backend is not None
        and args.backend != ck_backend
    ):
        raise ConfigError(
            f"checkpoint was written on the {ck_backend!r} backend but "
            f"--backend {args.backend!r} was requested — pass "
            f"--backend {ck_backend} (or drop --backend to use the "
            "recorded one); a silent switch usually means the wrong "
            "checkpoint file"
        )
    print(
        f"Resuming {ck.algorithm} from {args.checkpoint} "
        f"({ck.iteration} completed "
        f"{'modes' if ck.algorithm == 'mp_sthosvd' else 'iterations'}) "
        f"on a {'x'.join(map(str, grid))} grid"
    )

    if ck.algorithm == "mp_sthosvd":
        from repro.distributed.mp_sthosvd import mp_sthosvd

        ranks = params.get_ints("ranks")
        eps = params.get_float("sv threshold", 0.0)
        print(f"Regenerating synthetic tensor {dims} with ranks {ranks}")
        x = tucker_plus_noise(dims, ranks, noise=noise, seed=seed)
        tucker = mp_sthosvd(
            x,
            grid,
            eps=eps if eps > 0 else None,
            ranks=None if eps > 0 else ranks,
            resume_from=ck,
            checkpoint_path=args.checkpoint,
            transport=backend,
        )
    elif ck.algorithm in ("mp_hooi_dt", "mp_rahosi_dt"):
        from repro.distributed.mp_hooi import mp_hooi_dt, mp_rahosi_dt

        construction = params.get_ints("construction ranks")
        decomposition = params.get_ints(
            "decomposition ranks", construction
        )
        use_dt = params.get_bool("dimension tree memoization", False)
        method = _svd_method(params.get_int("svd method", 0))
        max_iters = params.get_int("hooi max iters", 2)
        adapt = params.get_float("hooi-adapt threshold", 0.0)
        print(
            f"Regenerating synthetic tensor {dims} with ranks "
            f"{construction}"
        )
        x = tucker_plus_noise(dims, construction, noise=noise, seed=seed)
        if ck.algorithm == "mp_rahosi_dt":
            if adapt <= 0:
                raise ConfigError(
                    "checkpoint is from a rank-adaptive run but the "
                    "parameter file sets no HOOI-Adapt Threshold"
                )
            tucker, _ = mp_rahosi_dt(
                x,
                adapt,
                decomposition,
                grid,
                RankAdaptiveOptions(
                    max_iters=max_iters,
                    use_dimension_tree=use_dt,
                    llsv_method=method,
                    stop_at_threshold=True,
                    seed=seed,
                ),
                resume_from=ck,
                checkpoint_path=args.checkpoint,
                transport=backend,
            )
        else:
            tucker, _ = mp_hooi_dt(
                x,
                decomposition,
                grid,
                HOOIOptions(
                    use_dimension_tree=use_dt,
                    llsv_method=method,
                    max_iters=max_iters,
                    seed=seed,
                ),
                resume_from=ck,
                checkpoint_path=args.checkpoint,
                transport=backend,
            )
    else:
        raise ConfigError(
            f"checkpoint algorithm {ck.algorithm!r} has no CLI driver"
        )

    _print_mp_result(tucker, x)
    return 0


def _smoke_program(comm) -> float:
    """Tiny conformance program behind ``repro run --smoke``: one
    allreduce, one barrier, returns the reduced value."""
    total = comm.allreduce(np.array([float(comm.rank + 1)]))
    comm.barrier()
    return float(total[0])


def run_main(argv: Sequence[str] | None = None) -> int:
    """``repro run``: execute on the process-parallel layer with an
    explicit transport backend.

    ``--backend shm`` (default) forks ranks that exchange payloads
    through the pooled shared-memory transport; ``--backend tcp``
    connects the ranks over loopback TCP sockets instead — same
    drivers, same collectives, bit-identical results (the
    backend-parameterized conformance matrix in the test suite holds
    them to that).  ``--smoke`` runs a tiny conformance program
    through :func:`~repro.vmpi.mp_comm.run_spmd` on the chosen wire.
    """
    parser = argparse.ArgumentParser(
        prog="repro run",
        description="run on the mp layer with a selectable transport",
    )
    parser.add_argument(
        "--backend",
        choices=("shm", "tcp"),
        default="shm",
        help="rank interconnect (default: shm)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run a tiny conformance program instead of a driver",
    )
    parser.add_argument(
        "--np",
        type=int,
        default=2,
        dest="nprocs",
        help="rank count for --smoke (default: 2)",
    )
    parser.add_argument(
        "--parameter-file",
        default=None,
        help="TuckerMPI-style parameter file (driver mode)",
    )
    parser.add_argument(
        "--algorithm",
        choices=("sthosvd", "hooi"),
        default="sthosvd",
        help="driver to run against --parameter-file",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        from repro.vmpi.mp_comm import run_spmd

        if args.nprocs < 1:
            raise ConfigError("--np must be positive")
        out = run_spmd(_smoke_program, args.nprocs, transport=args.backend)
        how = (
            "forked ranks over loopback TCP"
            if args.backend == "tcp"
            else "forked ranks over pooled shared memory"
        )
        expected = float(
            args.nprocs * (args.nprocs + 1) // 2
        )
        if out != [expected] * args.nprocs:  # pragma: no cover
            print(f"smoke FAILED: {out}", file=sys.stderr)
            return 1
        print(
            f"smoke ok: {args.nprocs} ranks ({how}), "
            f"allreduce -> {out[0]:g}"
        )
        return 0

    if args.parameter_file is None:
        parser.error("driver mode needs --parameter-file (or --smoke)")
    params = ParameterFile.from_path(args.parameter_file)
    if params.get_bool("print options", True):
        _print_options(params)
    dims = params.get_ints("global dims")
    noise = params.get_float("noise", 1e-4)
    seed = params.get_int("seed", 0)

    if args.algorithm == "sthosvd":
        from repro.distributed.mp_sthosvd import mp_sthosvd

        ranks = params.get_ints("ranks")
        eps = params.get_float("sv threshold", 0.0)
        grid = _resolve_grid(params, dims, ranks, "sthosvd")
        print(f"Generating synthetic tensor {dims} with ranks {ranks}")
        x = tucker_plus_noise(dims, ranks, noise=noise, seed=seed)
        print(
            f"Running STHOSVD on {int(np.prod(grid))} processes "
            f"({'x'.join(map(str, grid))} grid, "
            f"{args.backend} backend)"
        )
        tucker = mp_sthosvd(
            x,
            grid,
            eps=eps if eps > 0 else None,
            ranks=None if eps > 0 else ranks,
            transport=args.backend,
        )
    else:
        from repro.distributed.mp_hooi import mp_hooi_dt

        construction = params.get_ints("construction ranks")
        decomposition = params.get_ints(
            "decomposition ranks", construction
        )
        use_dt = params.get_bool("dimension tree memoization", False)
        method = _svd_method(params.get_int("svd method", 0))
        grid = _resolve_grid(params, dims, decomposition, "hooi")
        print(
            f"Generating synthetic tensor {dims} with ranks "
            f"{construction}"
        )
        x = tucker_plus_noise(dims, construction, noise=noise, seed=seed)
        print(
            f"Running HOOI on {int(np.prod(grid))} processes "
            f"({'x'.join(map(str, grid))} grid, "
            f"{args.backend} backend)"
        )
        tucker, _ = mp_hooi_dt(
            x,
            decomposition,
            grid,
            HOOIOptions(
                use_dimension_tree=use_dt,
                llsv_method=method,
                max_iters=params.get_int("hooi max iters", 2),
                seed=seed,
            ),
            transport=args.backend,
        )
    _print_mp_result(tucker, x)
    return 0


def lint_main(argv: Sequence[str] | None = None) -> int:
    """``repro lint``: static SPMD correctness lint (spmdlint), plus
    the whole-program protocol model checker under ``--protocol``.

    Imported lazily — the analyzer package pulls in the full analysis
    stack, which the numeric subcommands never need.
    """
    from repro.analysis.verify.cli import lint_main as _lint_main

    return _lint_main(list(argv) if argv is not None else None)


def prof_main(argv: Sequence[str] | None = None) -> int:
    """``repro prof``: run an mp driver under the span profiler.

    Imported lazily, like ``lint`` — the renderers pull in the
    analysis stack.
    """
    from repro.observability.cli import prof_main as _prof_main

    return _prof_main(list(argv) if argv is not None else None)


def top_main(argv: Sequence[str] | None = None) -> int:
    """``repro top``: live telemetry view of an mp driver run.

    Imported lazily, like ``prof``.
    """
    from repro.observability.cli import top_main as _top_main

    return _top_main(list(argv) if argv is not None else None)


_SUBCOMMANDS = {
    "sthosvd": sthosvd_main,
    "hooi": hooi_main,
    "resume": resume_main,
    "run": run_main,
    "lint": lint_main,
    "prof": prof_main,
    "top": top_main,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Umbrella entry point:
    ``repro sthosvd|hooi|resume|run|lint|prof|top ...``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(
            "usage: repro {sthosvd,hooi,resume,run,lint,prof,top} ...\n"
            "  sthosvd  run STHOSVD from a parameter file\n"
            "  hooi     run HOOI/HOSI (optionally rank-adaptive)\n"
            "  resume   continue an interrupted checkpointed run\n"
            "  run      run on the mp layer (--backend shm|tcp)\n"
            "  lint     static SPMD lint (spmdlint; --protocol adds the\n"
            "           whole-program schedule model checker)\n"
            "  prof     profile an mp run (trace, metrics, attribution)\n"
            "  top      live telemetry view of an mp run (repro top)",
            file=sys.stderr,
        )
        return 0 if argv else 2
    cmd = argv.pop(0)
    if cmd not in _SUBCOMMANDS:
        print(
            f"repro: unknown command {cmd!r} "
            f"(expected one of {sorted(_SUBCOMMANDS)})",
            file=sys.stderr,
        )
        return 2
    return _SUBCOMMANDS[cmd](argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
