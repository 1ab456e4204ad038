"""``repro prof``: run an mp driver with the span profiler armed.

Parses the same TuckerMPI-style parameter file as ``repro hooi`` /
``repro sthosvd``, runs the requested algorithm on the real
process-parallel layer with ``CommConfig(profile=True)``, and renders
the gathered :class:`~repro.observability.profile.RunProfile`:

``--trace-out``
    Chrome ``trace_event`` JSON — open in Perfetto / chrome://tracing;
    one lane per rank, spans nested sweep > phase > kernel/collective.
``--metrics-out``
    Per-rank metrics JSON (counters, gauges, histograms).
``--report``
    Measured-vs-modeled attribution: the same run is priced on the
    simulated machine and joined per phase against the measured spans
    (see :mod:`repro.analysis.attribution`).
``--timeline``
    Per-rank ASCII timeline on stdout.

Profiled runs are bit-identical to unprofiled ones — the profiler
only reads clocks around existing boundaries.

``repro top`` (:func:`top_main`) shares the same parameter files and
drivers but attaches a live
:class:`~repro.observability.telemetry.TelemetryMonitor` instead: the
driver runs in a background thread while the foreground redraws the
monitor's rank table (state, phase, sweep progress, stall flags) at
the telemetry cadence, writes the JSONL event log on request, and
prints the causal postmortem timeline when the run dies.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from collections.abc import Sequence
from pathlib import Path

from repro.config import ParameterFile
from repro.core.errors import ConfigError
from repro.core.hooi import HOOIOptions
from repro.core.rank_adaptive import RankAdaptiveOptions
from repro.linalg.llsv import LLSVMethod
from repro.observability.profile import RunProfile, validate_chrome_trace
from repro.tensor.random import tucker_plus_noise
from repro.vmpi.mp_comm import CommConfig

__all__ = ["prof_main", "top_main"]


def _svd_method(code: int) -> LLSVMethod:
    if code == 0:
        return LLSVMethod.GRAM_EVD
    if code == 2:
        return LLSVMethod.SUBSPACE
    raise ConfigError(
        f"SVD Method = {code} unsupported (0 = Gram+EVD, 2 = subspace)"
    )


def _run_hooi(
    params: ParameterFile,
    *,
    want_model: bool,
    cfg: CommConfig | None = None,
    transport: str = "shm",
    monitor: object | None = None,
) -> tuple[RunProfile, dict[str, float] | None, str]:
    dims = params.get_ints("global dims")
    noise = params.get_float("noise", 1e-4)
    construction = params.get_ints("construction ranks")
    decomposition = params.get_ints("decomposition ranks", construction)
    use_dt = params.get_bool("dimension tree memoization", False)
    method = _svd_method(params.get_int("svd method", 0))
    max_iters = params.get_int("hooi max iters", 2)
    adapt = params.get_float("hooi-adapt threshold", 0.0)
    seed = params.get_int("seed", 0)
    grid = params.get_ints("processor grid dims", (1,) * len(dims))

    print(f"Generating synthetic tensor {dims} with ranks {construction}")
    x = tucker_plus_noise(dims, construction, noise=noise, seed=seed)
    sink: dict[int, object] = {}
    cfg = cfg or CommConfig(profile=True)
    model: dict[str, float] | None = None

    if adapt > 0:
        ra_options = RankAdaptiveOptions(
            max_iters=max_iters,
            use_dimension_tree=use_dt,
            llsv_method=method,
            stop_at_threshold=True,
            seed=seed,
        )
        print(
            f"Profiling rank-adaptive HOSI on "
            f"{'x'.join(map(str, grid))} processes"
        )
        from repro.distributed.mp_hooi import mp_rahosi_dt

        mp_rahosi_dt(
            x,
            adapt,
            decomposition,
            grid,
            ra_options,
            transport=transport,
            comm_config=cfg,
            profile_out=sink,
            monitor=monitor,
        )
        if want_model:
            from repro.distributed.rank_adaptive import (
                dist_rank_adaptive_hooi,
            )

            _, ra_stats = dist_rank_adaptive_hooi(
                x, adapt, decomposition, grid, options=ra_options
            )
            model = ra_stats.breakdown
        label = "dist_rank_adaptive_hooi"
    else:
        h_options = HOOIOptions(
            use_dimension_tree=use_dt,
            llsv_method=method,
            max_iters=max_iters,
            seed=seed,
        )
        print(
            f"Profiling HOOI-DT on {'x'.join(map(str, grid))} processes"
        )
        from repro.distributed.mp_hooi import mp_hooi_dt

        mp_hooi_dt(
            x,
            decomposition,
            grid,
            h_options,
            transport=transport,
            comm_config=cfg,
            profile_out=sink,
            monitor=monitor,
        )
        if want_model:
            from repro.distributed.hooi import dist_hooi

            _, h_stats = dist_hooi(
                x, decomposition, grid, options=h_options
            )
            model = h_stats.breakdown
        label = "dist_hooi"
    return RunProfile.from_ranks(sink), model, label


def _run_sthosvd(
    params: ParameterFile,
    *,
    want_model: bool,
    cfg: CommConfig | None = None,
    transport: str = "shm",
    monitor: object | None = None,
) -> tuple[RunProfile, dict[str, float] | None, str]:
    dims = params.get_ints("global dims")
    noise = params.get_float("noise", 1e-4)
    ranks = params.get_ints("ranks")
    eps = params.get_float("sv threshold", 0.0)
    seed = params.get_int("seed", 0)
    grid = params.get_ints("processor grid dims", (1,) * len(dims))

    print(f"Generating synthetic tensor {dims} with ranks {ranks}")
    x = tucker_plus_noise(dims, ranks, noise=noise, seed=seed)
    sink: dict[int, object] = {}
    print(f"Profiling STHOSVD on {'x'.join(map(str, grid))} processes")
    from repro.distributed.mp_sthosvd import mp_sthosvd

    mp_sthosvd(
        x,
        grid,
        eps=eps if eps > 0 else None,
        ranks=None if eps > 0 else ranks,
        transport=transport,
        comm_config=cfg or CommConfig(profile=True),
        profile_out=sink,
        monitor=monitor,
    )
    model: dict[str, float] | None = None
    if want_model:
        from repro.distributed.sthosvd import dist_sthosvd

        _, s_stats = dist_sthosvd(
            x,
            grid,
            eps=eps if eps > 0 else None,
            ranks=None if eps > 0 else ranks,
        )
        model = s_stats.breakdown
    return RunProfile.from_ranks(sink), model, "dist_sthosvd"


def prof_main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``repro prof``."""
    parser = argparse.ArgumentParser(
        prog="repro prof",
        description=(
            "profile an mp driver: spans, metrics, and the "
            "measured-vs-modeled attribution report"
        ),
    )
    parser.add_argument(
        "driver",
        choices=("hooi", "sthosvd"),
        help="which mp algorithm to run under the profiler",
    )
    parser.add_argument(
        "--parameter-file",
        required=True,
        help="TuckerMPI-style 'Key = value' parameter file",
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

    params = ParameterFile.from_path(args.parameter_file)
    runner = _run_hooi if args.driver == "hooi" else _run_sthosvd
    profile, model, model_label = runner(params, want_model=args.report)

    spans = sum(len(p.spans) for p in profile.ranks)
    dropped = sum(p.dropped for p in profile.ranks)
    print(
        f"Profiled {profile.size} ranks: {spans} spans"
        + (f" ({dropped} dropped at capacity)" if dropped else "")
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

        print()
        print(
            format_attribution_report(
                profile, model, model_label=model_label
            )
        )
    return 0


def top_main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``repro top``: live telemetry view of an mp run."""
    parser = argparse.ArgumentParser(
        prog="repro top",
        description=(
            "run an mp driver with the live telemetry monitor attached "
            "and render per-rank progress while it runs"
        ),
    )
    parser.add_argument(
        "driver",
        choices=("hooi", "sthosvd"),
        help="which mp algorithm to run under the monitor",
    )
    parser.add_argument(
        "--parameter-file",
        required=True,
        help="TuckerMPI-style 'Key = value' parameter file",
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

    params = ParameterFile.from_path(args.parameter_file)
    monitor = TelemetryMonitor()
    # profile=True keeps the runner helpers' RunProfile assembly valid;
    # telemetry rides out of band either way.
    cfg = CommConfig(profile=True, telemetry_interval=args.interval)
    runner = _run_hooi if args.driver == "hooi" else _run_sthosvd
    outcome: dict[str, BaseException] = {}

    def _drive() -> None:
        try:
            runner(
                params,
                want_model=False,
                cfg=cfg,
                transport=args.backend,
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
    from repro.vmpi.mp_comm import RankFailureError

    if isinstance(exc, RankFailureError) and exc.postmortem is not None:
        print()
        print(exc.postmortem.render())
    else:
        print(f"run failed: {exc!r}", file=sys.stderr)
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(prof_main())
