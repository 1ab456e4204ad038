"""Command-line drivers mirroring the TuckerMPI-HOOI artifact.

``repro-sthosvd --parameter-file STHOSVD.cfg`` and
``repro-hooi --parameter-file HOOI.cfg`` accept the artifact's
parameter-file keys, generate the synthetic tensor the drivers would
(``Global dims`` + construction ranks + ``Noise``), run the requested
algorithm on the simulated machine, and print progress/timings to
stdout the way the artifact's output stream does.

Every subcommand that reads a parameter file (``sthosvd``, ``hooi``,
``resume``, ``run``, ``prof`` and ``top``) reads it through one
function, :func:`_read_request`, and runs the result through
:func:`_run_simulated` or :func:`_run_mp`, so a file means the same
thing to all of them — ``Processor grid dims = auto`` and
``Decomposition Ranks = auto`` included, and ``HOOI-Adapt Threshold``
always selecting rank-adaptive HOSI.

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
entry point (``repro sthosvd|hooi|resume|run|lint|prof|top ...``).
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.analysis.breakdown import group_breakdown
from repro.analysis.metrics import compression_ratio
from repro.config import ParameterFile
from repro.core.errors import CheckpointError, ConfigError
from repro.core.hooi import HOOIOptions
from repro.core.rank_adaptive import RankAdaptiveOptions
from repro.distributed.checkpoint import SweepCheckpoint
from repro.distributed.hooi import dist_hooi
from repro.distributed.rank_adaptive import dist_rank_adaptive_hooi
from repro.distributed.sthosvd import dist_sthosvd
from repro.linalg.llsv import LLSVMethod
from repro.tensor.random import tucker_plus_noise

__all__ = [
    "sthosvd_main", "hooi_main", "resume_main", "run_main", "main",
    "sthosvd_script", "hooi_script",
]

#: File names inside a ``--checkpoint-dir``.
CHECKPOINT_NAME = "checkpoint.npz"
PARAMS_SNAPSHOT = "parameters.cfg"

#: Request algorithm -> (mp driver, simulated driver) names.
_DRIVERS = {
    "sthosvd": ("mp_sthosvd", "dist_sthosvd"),
    "hooi": ("mp_hooi_dt", "dist_hooi"),
    "rahosi": ("mp_rahosi_dt", "dist_rank_adaptive_hooi"),
}


@dataclass(frozen=True)
class _Request:
    """One run described by a parameter file."""

    #: ``"sthosvd"``, ``"hooi"``, or ``"rahosi"`` (HOOI with a threshold)
    algorithm: str
    #: ``"STHOSVD"``, ``"HOOI"``, ``"HOOI-DT"``, ``"HOSI"`` or ``"HOSI-DT"``
    variant: str
    x: np.ndarray
    grid: tuple[int, ...]
    #: target ranks (``sthosvd``, ``hooi``) or starting ranks (``rahosi``)
    ranks: tuple[int, ...]
    #: ``SV Threshold`` / ``HOOI-Adapt Threshold``; ``None`` = fixed rank
    threshold: float | None
    options: HOOIOptions | RankAdaptiveOptions | None

    @property
    def label(self) -> str:
        prefix = "rank-adaptive " if self.algorithm == "rahosi" else ""
        return prefix + self.variant


def _read_request(params: ParameterFile, algorithm: str) -> _Request:
    """Read a parameter file into the run it describes.

    The one reader of the input, algorithm and option keys and the one
    place the synthetic input is generated.  ``algorithm`` is
    ``"sthosvd"`` or ``"hooi"``; a HOOI file that sets ``HOOI-Adapt
    Threshold`` becomes a ``"rahosi"`` request.  ``Decomposition Ranks
    = auto`` estimates starting ranks from sampled unfolding spectra
    (it needs the threshold); ``Processor grid dims = auto`` picks the
    grid the simulated machine prices fastest for ``Processors`` ranks.
    """
    dims = params.get_ints("global dims")
    noise = params.get_float("noise", 1e-4)
    seed = params.get_int("seed", 0)
    options: HOOIOptions | RankAdaptiveOptions | None = None
    auto_ranks = False
    if algorithm == "sthosvd":
        variant = "STHOSVD"
        construction = ranks = params.get_ints("ranks")
        threshold = params.get_float("sv threshold", 0.0)
    else:
        construction = params.get_ints("construction ranks")
        threshold = params.get_float("hooi-adapt threshold", 0.0)
        use_dt = params.get_bool("dimension tree memoization", False)
        method = _svd_method(params.get_int("svd method", 0))
        max_iters = params.get_int("hooi max iters", 2)
        # Accepted for artifact compatibility; the drivers always gather.
        params.get_bool("hooi adapt core tensor gather type", False)
        variant = ("HOSI" if method is LLSVMethod.SUBSPACE else "HOOI") + (
            "-DT" if use_dt else ""
        )
        if threshold > 0:
            algorithm = "rahosi"
            options = RankAdaptiveOptions(
                max_iters=max_iters,
                use_dimension_tree=use_dt,
                llsv_method=method,
                stop_at_threshold=True,
                seed=seed,
            )
        else:
            options = HOOIOptions(
                use_dimension_tree=use_dt,
                llsv_method=method,
                max_iters=max_iters,
                seed=seed,
            )
        auto_ranks = (
            params.get_str("decomposition ranks", "").strip().lower()
            == "auto"
        )
        if not auto_ranks:
            ranks = params.get_ints("decomposition ranks", construction)
        elif threshold <= 0:
            raise ConfigError(
                "Decomposition Ranks = auto requires HOOI-Adapt Threshold"
            )

    print(f"Generating synthetic tensor {dims} with ranks {construction}")
    x = tucker_plus_noise(dims, construction, noise=noise, seed=seed)
    if auto_ranks:
        from repro.core.rank_estimate import estimate_ranks

        ranks = estimate_ranks(x, threshold, seed=seed)
        print(f"Estimated starting ranks: {ranks}")

    if params.get_str("processor grid dims", "").strip().lower() == "auto":
        from repro.analysis.autotune import autotune_grid

        p = params.get_int("processors")
        choice = autotune_grid(dims, ranks, p, variant.lower())
        grid = choice.grid
        print(
            f"Auto-tuned grid for {variant.lower()} at P={p}: "
            f"{'x'.join(map(str, grid))} "
            f"({choice.seconds:.4g} simulated s)"
        )
    else:
        grid = params.get_ints("processor grid dims", (1,) * len(dims))
    return _Request(
        algorithm,
        variant,
        x,
        tuple(grid),
        tuple(ranks),
        threshold if threshold > 0 else None,
        options,
    )


def _print_history(stats: Any) -> None:
    """Print a rank-adaptive run's iterations (simulated or mp)."""
    for rec in stats.history:
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
    print(f"Converged: {stats.converged}")


def _print_result(tucker: Any, x: np.ndarray, name: str = "Final") -> None:
    print(f"{name} ranks: {tucker.ranks}")
    print(f"Final relative error: {tucker.relative_error(x):.6e}")
    print(
        "Compression ratio: "
        f"{compression_ratio(x.shape, tucker.ranks):.3f}x"
    )


def _run_simulated(
    request: _Request, mode_order: Sequence[int] | None = None
) -> tuple[Any, Any]:
    """Run ``request`` on the simulated machine: the one caller of the
    simulated drivers.  Returns the driver's ``(tucker, stats)``."""
    r = request
    if r.algorithm == "sthosvd":
        return dist_sthosvd(
            r.x,
            r.grid,
            eps=r.threshold,
            ranks=None if r.threshold else r.ranks,
            mode_order=mode_order,
        )
    if r.algorithm == "hooi":
        return dist_hooi(r.x, r.ranks, r.grid, options=r.options)
    return dist_rank_adaptive_hooi(
        r.x, r.threshold, r.ranks, r.grid, options=r.options
    )


def _run_mp(request: _Request, **launch: Any) -> None:
    """Run ``request`` on the process-parallel layer and print the
    result: the one caller of the mp drivers.

    ``launch`` carries the drivers' execution keywords: ``transport``,
    ``comm_config``, ``checkpoint_path``, ``resume_from``,
    ``profile_out`` and ``monitor``.
    """
    r = request
    print(
        f"Running {r.label} on {int(np.prod(r.grid))} processes "
        f"({'x'.join(map(str, r.grid))} grid, "
        f"{launch.get('transport', 'shm')} backend)"
    )
    if r.algorithm == "sthosvd":
        from repro.distributed.mp_sthosvd import mp_sthosvd

        tucker = mp_sthosvd(
            r.x,
            r.grid,
            eps=r.threshold,
            ranks=None if r.threshold else r.ranks,
            **launch,
        )
    elif r.algorithm == "hooi":
        from repro.distributed.mp_hooi import mp_hooi_dt

        tucker, _ = mp_hooi_dt(r.x, r.ranks, r.grid, r.options, **launch)
    else:
        from repro.distributed.mp_hooi import mp_rahosi_dt

        tucker, stats = mp_rahosi_dt(
            r.x, r.threshold, r.ranks, r.grid, r.options, **launch
        )
        _print_history(stats)
    _print_result(tucker, r.x)


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


def _driver_main(argv: Sequence[str] | None, algorithm: str) -> int:
    """``repro sthosvd`` / ``repro hooi``: simulated by default, on the
    process-parallel layer under ``--checkpoint-dir``."""
    params, args = _parse_args(argv, f"repro-{algorithm}")
    if params.get_bool("print options", True):
        _print_options(params)
    request = _read_request(params, algorithm)
    ck_path = _checkpoint_path(params, args)
    if ck_path is not None:
        # Checkpointing implies the real process-parallel layer.
        _run_mp(request, checkpoint_path=ck_path)
        return 0

    # "Mode order = auto" applies the exchange-optimal processing order.
    mode_order = None
    if (
        algorithm == "sthosvd"
        and params.get_str("mode order", "").strip().lower() == "auto"
    ):
        from repro.core.sthosvd import auto_mode_order

        mode_order = auto_mode_order(request.x.shape, request.ranks)
        print(f"Auto mode order: {mode_order}")

    print(
        f"Running {request.label} on a "
        f"{'x'.join(map(str, request.grid))} grid"
    )
    tucker, stats = _run_simulated(request, mode_order)
    if request.algorithm == "rahosi":
        _print_history(stats)
    elif request.algorithm == "hooi":
        for i, err in enumerate(stats.errors, start=1):
            print(f"iteration {i}: approximation error {err:.6e}")
    _print_result(
        tucker, request.x, "STHOSVD" if algorithm == "sthosvd" else "Final"
    )
    print(f"Simulated wall time: {stats.simulated_seconds:.6g} s")
    if params.get_bool("print timings", True):
        _print_timings(stats.breakdown)
    return 0


def sthosvd_main(argv: Sequence[str] | None = None) -> int:
    """``repro sthosvd`` for library callers: a bad parameter file
    raises (the ``repro-sthosvd`` script reports it, see
    :func:`sthosvd_script`)."""
    return _driver_main(argv, "sthosvd")


def hooi_main(argv: Sequence[str] | None = None) -> int:
    """``repro hooi`` for library callers: a bad parameter file raises
    (the ``repro-hooi`` script reports it, see :func:`hooi_script`)."""
    return _driver_main(argv, "hooi")


def resume_main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``repro resume <checkpoint>``.

    Loads a sweep checkpoint, reads the parameter-file snapshot written
    next to it (or ``--parameter-file``) exactly as the original run
    did, and replays the remaining iterations on the process-parallel
    layer — bit-identically to an uninterrupted run (the drivers verify
    the checkpoint's input-tensor digest before continuing).  The
    checkpoint's recorded world size and backend are validated against
    the requested run before the input is generated, and its grid and
    driver against the file's resolved request after, so a grid,
    ``--backend`` or ``HOOI-Adapt Threshold`` mismatch fails with an
    actionable message instead of a shape error mid-sweep.
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
    grid = tuple(ck.grid_dims)
    grid_str = "x".join(map(str, grid))

    # Fail actionably on a world-size or backend mismatch now, instead
    # of surfacing it as a shape error three collectives into a sweep.
    ck_world = ck.extra.get("world_size")
    if ck_world is not None and int(ck_world) != int(np.prod(grid)):
        raise ConfigError(
            f"checkpoint records world size {ck_world} but its grid "
            f"{grid_str} implies {int(np.prod(grid))} ranks — the "
            "checkpoint is inconsistent; re-create it from the original run"
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
    if ck.algorithm not in (mp for mp, _ in _DRIVERS.values()):
        raise ConfigError(
            f"checkpoint algorithm {ck.algorithm!r} has no CLI driver"
        )
    print(
        f"Resuming {ck.algorithm} from {args.checkpoint} "
        f"({ck.iteration} completed "
        f"{'modes' if ck.algorithm == 'mp_sthosvd' else 'iterations'}) "
        f"on a {grid_str} grid"
    )

    request = _read_request(
        params, "sthosvd" if ck.algorithm == "mp_sthosvd" else "hooi"
    )
    if request.grid != grid:
        raise ConfigError(
            f"checkpoint was written on a {grid_str} grid but the "
            f"parameter file requests {'x'.join(map(str, request.grid))} "
            "— a resumed run must keep the original processor grid "
            "(reduction order and block layout depend on it); edit "
            "'Processor grid dims' or resume with the original "
            "parameter file"
        )
    driver = _DRIVERS[request.algorithm][0]
    if driver != ck.algorithm:
        raise ConfigError(
            f"checkpoint was written by {ck.algorithm} but the parameter "
            f"file selects {driver}: it "
            f"{'sets' if request.threshold else 'sets no'} HOOI-Adapt "
            "Threshold — resume with the original parameter file"
        )
    _run_mp(
        request,
        resume_from=ck,
        checkpoint_path=args.checkpoint,
        transport=backend,
    )
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
    them to that).  Driver mode runs ``--algorithm`` (default
    ``sthosvd``) on ``--parameter-file``'s grid; ``--smoke`` runs a
    tiny conformance program through
    :func:`~repro.vmpi.mp_comm.run_spmd` on ``--np`` ranks (default 2)
    instead.  A flag of the other mode is rejected.
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
        default=None,
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
        default=None,
        help="driver to run against --parameter-file (default: sthosvd)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        for flag, value in (
            ("--parameter-file", args.parameter_file),
            ("--algorithm", args.algorithm),
        ):
            if value is not None:
                parser.error(f"{flag} selects driver mode; drop it or --smoke")
        from repro.vmpi.mp_comm import run_spmd

        nprocs = 2 if args.nprocs is None else args.nprocs
        if nprocs < 1:
            raise ConfigError("--np must be positive")
        out = run_spmd(_smoke_program, nprocs, transport=args.backend)
        how = (
            "forked ranks over loopback TCP"
            if args.backend == "tcp"
            else "forked ranks over pooled shared memory"
        )
        expected = float(nprocs * (nprocs + 1) // 2)
        if out != [expected] * nprocs:  # pragma: no cover
            print(f"smoke FAILED: {out}", file=sys.stderr)
            return 1
        print(f"smoke ok: {nprocs} ranks ({how}), allreduce -> {out[0]:g}")
        return 0

    if args.nprocs is not None:
        parser.error(
            "--np is the --smoke rank count; driver mode runs on the "
            "parameter file's 'Processor grid dims'"
        )
    if args.parameter_file is None:
        parser.error("driver mode needs --parameter-file (or --smoke)")
    params = ParameterFile.from_path(args.parameter_file)
    if params.get_bool("print options", True):
        _print_options(params)
    request = _read_request(params, args.algorithm or "sthosvd")
    _run_mp(request, transport=args.backend)
    return 0


def lint_main(argv: Sequence[str] | None = None) -> int:
    """``repro lint``: static SPMD correctness lint (spmdlint), plus
    the whole-program protocol model checker under ``--protocol``.

    Imported lazily — the analyzer package pulls in the full analysis
    stack, which the numeric subcommands never need.
    """
    from repro.analysis.verify.cli import lint_main as _lint_main

    return _lint_main(list(argv) if argv is not None else None)


def _driver_parser(prog: str, description: str) -> argparse.ArgumentParser:
    """The positional driver and ``--parameter-file`` of ``prof``/``top``."""
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument(
        "driver",
        choices=("hooi", "sthosvd"),
        help="which mp algorithm to run",
    )
    parser.add_argument(
        "--parameter-file",
        required=True,
        help="TuckerMPI-style 'Key = value' parameter file",
    )
    return parser


def prof_main(argv: Sequence[str] | None = None) -> int:
    """``repro prof``: run an mp driver and render where its time went.

    Runs the parameter file's request on the process-parallel layer
    with the default config and renders the flight rings every rank
    ships home as a :class:`~repro.observability.profile.RunProfile`:
    ``--trace-out``
    writes Chrome ``trace_event`` JSON (one lane per rank, spans nested
    sweep > phase > kernel/collective), ``--metrics-out`` per-rank
    metrics JSON, ``--timeline`` a per-rank ASCII timeline, and
    ``--report`` prices the same request on the simulated machine and
    prints the measured-vs-modeled attribution per phase (see
    :mod:`repro.analysis.attribution`).  The renderers are imported
    lazily: they pull in the analysis stack.
    """
    parser = _driver_parser(
        "repro prof",
        "profile an mp driver: spans, metrics, and the "
        "measured-vs-modeled attribution report",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        help="write Chrome trace_event JSON (Perfetto / chrome://tracing)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        help="write per-rank metrics JSON (counters, gauges, histograms)",
    )
    parser.add_argument(
        "--report",
        action="store_true",
        help=(
            "price the same run on the simulated machine and print the "
            "measured-vs-modeled attribution report"
        ),
    )
    parser.add_argument(
        "--timeline",
        action="store_true",
        help="print the per-rank ASCII timeline",
    )
    args = parser.parse_args(argv)

    from repro.observability.profile import RunProfile, validate_chrome_trace

    request = _read_request(
        ParameterFile.from_path(args.parameter_file), args.driver
    )
    sink: dict[int, object] = {}
    _run_mp(request, profile_out=sink)
    profile = RunProfile.from_ranks(sink)

    spans = sum(len(p.spans) for p in profile.ranks)
    dropped = sum(p.dropped for p in profile.ranks)
    print(
        f"Profiled {profile.size} ranks: {spans} spans"
        + (f" ({dropped} events dropped off the ring)" if dropped else "")
    )
    if args.trace_out is not None:
        trace = profile.chrome_trace()
        validate_chrome_trace(trace)
        Path(args.trace_out).write_text(json.dumps(trace))
        print(
            f"Wrote Chrome trace ({profile.size} rank lanes) to "
            f"{args.trace_out}"
        )
    if args.metrics_out is not None:
        Path(args.metrics_out).write_text(
            json.dumps(profile.metrics(), indent=2, sort_keys=True)
        )
        print(f"Wrote metrics to {args.metrics_out}")
    if args.timeline:
        print()
        print(profile.timeline())
    if args.report:
        from repro.analysis.attribution import format_attribution_report

        _, stats = _run_simulated(request)
        print()
        print(
            format_attribution_report(
                profile,
                stats.breakdown,
                model_label=_DRIVERS[request.algorithm][1],
            )
        )
    return 0


def top_main(argv: Sequence[str] | None = None) -> int:
    """``repro top``: live telemetry view of an mp run.

    Runs the parameter file's request on the process-parallel layer
    with a :class:`~repro.observability.telemetry.TelemetryMonitor`
    attached: the driver runs in a background thread while the
    foreground redraws the monitor's rank table (state, phase, sweep
    progress, stall flags) at the telemetry cadence, writes the JSONL
    event log on request, and prints the causal postmortem timeline
    when the run dies.
    """
    parser = _driver_parser(
        "repro top",
        "run an mp driver with the live telemetry monitor attached "
        "and render per-rank progress while it runs",
    )
    parser.add_argument(
        "--backend",
        choices=("shm", "tcp"),
        default="shm",
        help="collective wire (shm = shared-memory pool, tcp = sockets)",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=0.5,
        help="telemetry heartbeat / redraw cadence in seconds",
    )
    parser.add_argument(
        "--jsonl",
        default=None,
        help="write the telemetry event log (JSON Lines, schema v1)",
    )
    parser.add_argument(
        "--no-ui",
        action="store_true",
        help="no live redraw (CI): run, then print the final table once",
    )
    args = parser.parse_args(argv)

    from repro.observability.telemetry import TelemetryMonitor
    from repro.vmpi.mp_comm import CommConfig, RankFailureError

    request = _read_request(
        ParameterFile.from_path(args.parameter_file), args.driver
    )
    monitor = TelemetryMonitor()
    cfg = CommConfig(telemetry_interval=args.interval)
    outcome: dict[str, BaseException] = {}

    def _drive() -> None:
        try:
            _run_mp(
                request,
                transport=args.backend,
                comm_config=cfg,
                monitor=monitor,
            )
        except BaseException as exc:  # surfaced after the UI loop
            outcome["exc"] = exc

    worker = threading.Thread(target=_drive, daemon=True)
    worker.start()
    live = not args.no_ui and sys.stdout.isatty()
    try:
        while worker.is_alive():
            worker.join(max(args.interval, 0.1))
            if live and worker.is_alive():
                sys.stdout.write("\x1b[2J\x1b[H" + monitor.render() + "\n")
                sys.stdout.flush()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    print()
    print(monitor.render())
    if args.jsonl is not None:
        monitor.write_jsonl(args.jsonl)
        print(f"Wrote telemetry log to {args.jsonl}")
    exc = outcome.get("exc")
    if exc is None:
        return 0
    if isinstance(exc, RankFailureError) and exc.postmortem is not None:
        print()
        print(exc.postmortem.render())
    else:
        print(f"run failed: {exc!r}", file=sys.stderr)
    return 1


_SUBCOMMANDS = {
    "sthosvd": sthosvd_main,
    "hooi": hooi_main,
    "resume": resume_main,
    "run": run_main,
    "lint": lint_main,
    "prof": prof_main,
    "top": top_main,
}


def _report_usage_errors(
    prog: str,
    entry: Callable[[Sequence[str] | None], int],
    argv: Sequence[str] | None,
) -> int:
    """Run ``entry(argv)`` for a console script named ``prog``.

    A bad parameter file, checkpoint or path is a usage error: one line
    and exit code 2, as argparse reports a bad flag."""
    try:
        return entry(argv)
    except (ConfigError, CheckpointError, FileNotFoundError) as exc:
        print(f"{prog}: error: {exc}", file=sys.stderr)
        return 2


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
    return _report_usage_errors(f"repro {cmd}", _SUBCOMMANDS[cmd], argv)


def sthosvd_script(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``repro-sthosvd`` console script."""
    return _report_usage_errors("repro-sthosvd", sthosvd_main, argv)


def hooi_script(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``repro-hooi`` console script."""
    return _report_usage_errors("repro-hooi", hooi_main, argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
