"""Recorder spans, metrics, renderers, and the attribution report.

Certifies the observability contract of the mp layer: runs with the
flight recorder on (the default) are bit-identical to
``CommConfig(flight=False)`` runs for every driver, every default run's
gathered rings render a ``RunProfile`` with a valid Chrome trace (one
lane per rank), per-rank metrics carry the documented
counters/gauges/histograms, a failed rank ships its ring and last open
span inside ``RankFailureError``, and the measured-vs-modeled
attribution report stays machine-parseable.
"""

import json
import re
import time

import numpy as np
import pytest

from repro.analysis.attribution import (
    attribution_rows,
    collective_rows,
    format_attribution_report,
    parse_attribution_report,
)
from repro.core.hooi import HOOIOptions
from repro.core.rank_adaptive import RankAdaptiveOptions
from repro.distributed.mp_hooi import mp_hooi_dt, mp_rahosi_dt
from repro.distributed.mp_sthosvd import mp_sthosvd
from repro.observability.profile import RunProfile, validate_chrome_trace
from repro.observability.spans import Histogram, merge_intervals
from repro.observability.telemetry import FlightRecorder, FlightRing
from repro.tensor.random import tucker_plus_noise
from repro.vmpi.faults import FaultPlan
from repro.vmpi.mp_comm import (
    CommConfig,
    ProcessComm,
    RankFailureError,
    run_spmd,
)
from repro.vmpi.trace import PHASES, render_lanes

SHAPE, RANKS, GRID = (12, 10, 8), (4, 3, 3), (2, 2, 1)


def _tensor() -> np.ndarray:
    return tucker_plus_noise(SHAPE, RANKS, noise=1e-4, seed=0)


# Module-level SPMD programs (must be picklable).


def _prog_stuck_step(comm: ProcessComm) -> float:
    comm.flight.begin("stuck step", "phase", "ttm")
    comm.phase = "ttm"
    out = np.zeros(4)
    for _ in range(4):
        out = out + comm.allreduce(np.ones(4))
    comm.flight.end()
    return float(out.sum())


def _ring(events, **fields) -> FlightRing:
    """A ring of ``(t, kind, phase, detail)`` events (op ids unused)."""
    return FlightRing(
        rank=fields.pop("rank", 0),
        wall_origin=fields.pop("wall_origin", 0.0),
        capacity=256,
        seq=len(events),
        events=[
            (i + 1, t, kind, 0, phase, detail)
            for i, (t, kind, phase, detail) in enumerate(events)
        ],
        **fields,
    )


class TestRecorderSpans:
    """The span side of the one per-rank recorder."""

    def test_nesting_depth_and_order(self):
        fr = FlightRecorder(rank=0)
        fr.begin("sweep 1", "sweep")
        fr.begin("ttm", "phase", "ttm")
        fr.record("collective_begin", 1, "ttm", ("allreduce", 4))
        fr.record("collective_end", 1, "ttm", ("allreduce", 4))
        fr.end()
        fr.end()
        spans = fr.snapshot().spans
        cats = [(s.name, s.category, s.depth) for s in spans]
        # Spans close innermost-first; depth is the enclosing count.
        assert cats == [
            ("allreduce", "collective", 2),
            ("ttm", "phase", 1),
            ("sweep 1", "sweep", 0),
        ]
        assert all(s.seconds >= 0 for s in spans)

    def test_end_returns_duration(self):
        fr = FlightRecorder(rank=0)
        fr.begin("k", "kernel")
        time.sleep(0.01)
        dt = fr.end()
        assert dt >= 0.009
        assert fr.snapshot().spans[0].seconds == dt

    def test_open_span_reports_innermost(self):
        fr = FlightRecorder(rank=1)
        assert fr.open_span() is None
        fr.begin("sweep 1", "sweep")
        fr.begin("gram", "phase", "gram")
        info = fr.snapshot().open_span
        assert info is not None
        assert info["name"] == "gram"
        assert info["phase"] == "gram"
        assert info["open_for"] >= 0
        assert info["wall_start"] == pytest.approx(
            fr.wall_origin + info["start"]
        )

    def test_snapshot_is_picklable_and_carries_metrics(self):
        import pickle

        fr = FlightRecorder(rank=2)
        fr.begin("x", "kernel")
        fr.end()
        fr.metrics.inc("ttm_flops", 10.0)
        fr.metrics.observe("checkpoint_write_seconds", 0.5)
        snap = pickle.loads(pickle.dumps(fr.snapshot()))
        assert snap.rank == 2
        assert [s.name for s in snap.spans] == ["x"]
        assert snap.metrics["counters"]["ttm_flops"] == 10.0
        hist = snap.metrics["histograms"]["checkpoint_write_seconds"]
        assert hist["count"] == 1 and hist["total"] == 0.5

    def test_wrapped_ring_keeps_latest_spans(self):
        # The ring keeps the end of the run: a span whose begin fell
        # off is skipped, every later span survives, and the drop count
        # is visible.
        fr = FlightRecorder(rank=0, capacity=8)
        fr.begin("sweep 1", "sweep")
        for i in range(6):
            fr.begin(f"k{i}", "kernel")
            fr.end()
        fr.end()
        ring = fr.snapshot()
        assert ring.dropped == 6
        assert [s.name for s in ring.spans] == ["k3", "k4", "k5"]


class TestHistogramAndIntervals:
    def test_histogram_stats(self):
        h = Histogram()
        for v in (0.5, 1.0, 2.0, 2.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["total"] == 5.5
        assert snap["min"] == 0.5 and snap["max"] == 2.0
        assert sum(snap["buckets"].values()) == 4

    def test_empty_histogram(self):
        assert Histogram().snapshot() == {"count": 0, "total": 0.0}

    def test_merge_intervals_unions_nested(self):
        merged = merge_intervals([(0.0, 2.0), (1.0, 1.5), (3.0, 4.0)])
        assert merged == [(0.0, 2.0), (3.0, 4.0)]

    def test_phase_seconds_is_union_not_sum(self):
        # A nested same-phase span (a helper opening the phase its
        # caller is already in) must not double-count.
        tag = ("ttm", "phase")
        p = _ring(
            [
                (0.0, "span_begin", "ttm", tag),
                (0.5, "span_begin", "ttm", tag),
                (1.5, "span_end", "ttm", tag),
                (2.0, "span_end", "ttm", tag),
            ]
        )
        assert p.phase_seconds() == {"ttm": 2.0}
        assert p.phase_intervals() == {"ttm": [(0.0, 2.0)]}


def _recorder_pair(driver):
    """Run ``driver(CommConfig(flight=False), sink)`` and
    ``driver(None, sink)``: the recorder off, then the default."""
    off_sink: dict[int, object] = {}
    off = driver(CommConfig(flight=False), off_sink)
    assert off_sink == {}
    sink: dict[int, object] = {}
    on = driver(None, sink)
    return off, on, sink


class TestBitIdentity:
    def test_mp_hooi_dt(self):
        x = _tensor()
        opts = HOOIOptions(use_dimension_tree=True, max_iters=2, seed=0)

        def drive(cfg, sink):
            tucker, stats = mp_hooi_dt(
                x, RANKS, GRID, opts, comm_config=cfg, profile_out=sink
            )
            assert (stats.profile is None) == (cfg is not None)
            return tucker

        plain, profiled, sink = _recorder_pair(drive)
        assert np.array_equal(plain.core, profiled.core)
        assert all(
            np.array_equal(a, b)
            for a, b in zip(plain.factors, profiled.factors)
        )
        assert sorted(sink) == [0, 1, 2, 3]

    def test_mp_rahosi_dt(self):
        x = _tensor()
        opts = RankAdaptiveOptions(
            max_iters=2, use_dimension_tree=True, seed=0
        )

        def drive(cfg, sink):
            tucker, stats = mp_rahosi_dt(
                x,
                0.3,
                (2, 2, 2),
                GRID,
                opts,
                comm_config=cfg,
                profile_out=sink,
            )
            assert (stats.profile is None) == (cfg is not None)
            return tucker

        plain, profiled, sink = _recorder_pair(drive)
        assert np.array_equal(plain.core, profiled.core)
        assert all(
            np.array_equal(a, b)
            for a, b in zip(plain.factors, profiled.factors)
        )
        assert sorted(sink) == [0, 1, 2, 3]

    def test_mp_sthosvd(self):
        x = _tensor()

        def drive(cfg, sink):
            return mp_sthosvd(
                x, GRID, ranks=RANKS, comm_config=cfg, profile_out=sink
            )

        plain, profiled, sink = _recorder_pair(drive)
        assert np.array_equal(plain.core, profiled.core)
        assert all(
            np.array_equal(a, b)
            for a, b in zip(plain.factors, profiled.factors)
        )
        assert sorted(sink) == [0, 1, 2, 3]


class TestGatheredProfile:
    @pytest.fixture(scope="class")
    def run(self):
        """One default-config mp_hooi_dt run shared by the render
        tests."""
        x = _tensor()
        sink: dict[int, object] = {}
        opts = HOOIOptions(use_dimension_tree=True, max_iters=2, seed=0)
        _, stats = mp_hooi_dt(x, RANKS, GRID, opts, profile_out=sink)
        return RunProfile.from_ranks(sink), stats

    def test_stats_carries_the_profile(self, run):
        _, stats = run
        assert isinstance(stats.profile, RunProfile)
        assert stats.profile.size == 4

    def test_chrome_trace_valid_one_lane_per_rank(self, run):
        profile, _ = run
        trace = profile.chrome_trace()
        validate_chrome_trace(trace)
        json.dumps(trace)  # must be serializable as-is
        tids = {
            e["tid"]
            for e in trace["traceEvents"]
            if e["ph"] == "X"
        }
        assert tids == {0, 1, 2, 3}
        names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {f"rank {r}" for r in range(4)}

    def test_span_vocabulary(self, run):
        profile, _ = run
        p0 = profile.ranks[0]
        cats = {s.category for s in p0.spans}
        assert cats == {"sweep", "phase", "kernel", "collective"}
        assert {s.phase for s in p0.spans if s.phase} <= PHASES
        sweeps = [s.name for s in p0.by_category("sweep")]
        assert sweeps.count("sweep 1") == 1
        assert sweeps.count("sweep 2") == 1

    def test_metrics_presence(self, run):
        profile, _ = run
        payload = profile.metrics()
        assert sorted(payload["ranks"]) == ["0", "1", "2", "3"]
        for rank_metrics in payload["ranks"].values():
            assert rank_metrics["spans"] > 0
            assert rank_metrics["counters"]["ttm_flops"] > 0
            gauges = rank_metrics["gauges"]
            for name in (
                "ttm_count",
                "cache_hits",
                "cache_misses",
                "cache_evictions",
                "sent_bytes",
                "recv_bytes",
            ):
                assert name in gauges
            hists = rank_metrics["histograms"]
            assert hists["collective_wait_seconds"]["count"] > 0
            assert hists["collective_transfer_seconds"]["count"] > 0

    def test_timeline_renders_rank_lanes(self, run):
        profile, _ = run
        text = profile.timeline()
        assert "rank 0" in text and "rank 3" in text
        assert "measured s" in text

    def test_attribution_report_round_trip(self, run):
        profile, _ = run
        report = format_attribution_report(profile)
        rows = parse_attribution_report(report)
        assert {r["phase"] for r in rows} >= {"ttm", "llsv"}
        for row in rows:
            float(row["measured mean s"])
            float(row["imbalance"])
            float(row["critical path s"])
        assert collective_rows(profile)

    def test_checkpoint_write_histogram(self, tmp_path):
        x = _tensor()
        sink: dict[int, object] = {}
        opts = HOOIOptions(use_dimension_tree=True, max_iters=2, seed=0)
        mp_hooi_dt(
            x,
            RANKS,
            GRID,
            opts,
            checkpoint_path=str(tmp_path / "ck.npz"),
            profile_out=sink,
        )
        hists = sink[0].metrics["histograms"]
        assert hists["checkpoint_write_seconds"]["count"] >= 1
        assert [s.name for s in sink[0].by_category("kernel")].count(
            "checkpoint"
        ) == hists["checkpoint_write_seconds"]["count"]


def _run_hooi(sink):
    opts = HOOIOptions(use_dimension_tree=True, max_iters=2, seed=0)
    return mp_hooi_dt(_tensor(), RANKS, GRID, opts, profile_out=sink)


def _run_rahosi(sink):
    opts = RankAdaptiveOptions(max_iters=2, use_dimension_tree=True, seed=0)
    return mp_rahosi_dt(
        _tensor(), 0.3, (2, 2, 2), GRID, opts, profile_out=sink
    )


def _run_sthosvd(sink):
    return mp_sthosvd(_tensor(), GRID, ranks=RANKS, profile_out=sink)


class TestEveryDriverProfile:
    """Every default-config run says where its time went."""

    @pytest.fixture(
        scope="class",
        params=[
            (_run_hooi, {"ttm", "llsv"}),
            (_run_rahosi, {"ttm", "llsv"}),
            (_run_sthosvd, {"ttm", "gram"}),
        ],
        ids=["mp_hooi_dt", "mp_rahosi_dt", "mp_sthosvd"],
    )
    def run(self, request):
        driver, phases = request.param
        sink: dict[int, object] = {}
        driver(sink)
        return RunProfile.from_ranks(sink), phases

    def test_chrome_trace_one_lane_per_rank(self, run):
        profile, _ = run
        trace = profile.chrome_trace()
        validate_chrome_trace(trace)
        lanes = {e["tid"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert lanes == {0, 1, 2, 3}

    def test_span_categories_and_phases(self, run):
        profile, _ = run
        for p in profile.ranks:
            assert p.dropped == 0
            assert {s.category for s in p.spans} == {
                "sweep", "phase", "kernel", "collective",
            }
            phases = {s.name for s in p.by_category("phase")}
            assert phases <= PHASES

    def test_metrics(self, run):
        profile, _ = run
        for p in profile.ranks:
            assert p.metrics["counters"]["ttm_flops"] > 0
            hists = p.metrics["histograms"]
            assert hists["collective_wait_seconds"]["count"] > 0
            assert hists["collective_transfer_seconds"]["count"] > 0

    def test_attribution_report_parses(self, run):
        profile, phases = run
        rows = parse_attribution_report(format_attribution_report(profile))
        assert {r["phase"] for r in rows} >= phases


def test_rings_hold_a_whole_two_sweep_run():
    """A 2-sweep rank-adaptive run on a 4-way input drops no event."""
    x = tucker_plus_noise((8, 7, 6, 5), (3, 3, 2, 2), noise=1e-4, seed=1)
    opts = RankAdaptiveOptions(max_iters=2, use_dimension_tree=True, seed=0)
    sink: dict[int, object] = {}
    _, stats = mp_rahosi_dt(
        x, 1e-6, (2, 2, 2, 2), (2, 2, 1, 1), opts, profile_out=sink
    )
    assert len(stats.history) == 2
    assert sorted(sink) == [0, 1, 2, 3]
    for ring in sink.values():
        assert ring.dropped == 0
        assert len(ring.by_category("sweep")) == 2


class TestFailurePath:
    def test_failed_rank_ships_partial_profile(self):
        cfg = CommConfig(fault_plan=FaultPlan.kill(1, op_index=2, hard=False))
        with pytest.raises(RankFailureError) as exc_info:
            run_spmd(_prog_stuck_step, 4, config=cfg, timeout=60.0)
        err = exc_info.value
        partial = err.flight_records[1]
        assert partial.open_span is not None
        assert partial.open_span["name"] == "stuck step"
        assert partial.open_span["phase"] == "ttm"
        assert "last open span" in str(err)
        assert "'stuck step'" in str(err)

    def test_driver_failure_names_the_open_phase(self):
        # The kill lands inside a TTM's reduce-scatter: the innermost
        # open span is that phase, not the enclosing sweep.
        cfg = CommConfig(fault_plan=FaultPlan.kill(1, op_index=7, hard=False))
        opts = HOOIOptions(use_dimension_tree=True, max_iters=2, seed=0)
        with pytest.raises(RankFailureError) as exc_info:
            mp_hooi_dt(_tensor(), RANKS, GRID, opts, comm_config=cfg)
        assert "rank 1 last open span: 'ttm' (phase, phase ttm)" in str(
            exc_info.value
        )


class TestAttributionSynthetic:
    @staticmethod
    def _profile() -> RunProfile:
        def rank(r: int, ttm: float, llsv: float) -> FlightRing:
            coll = ("allreduce", 2)
            return _ring(
                [
                    (0.0, "span_begin", "ttm", ("ttm", "phase")),
                    (0.1, "collective_begin", "ttm", coll),
                    (0.1 + ttm / 2, "collective_end", "ttm", coll),
                    (ttm, "span_end", "ttm", ("ttm", "phase")),
                    (ttm, "span_begin", "llsv", ("llsv", "phase")),
                    (ttm + llsv, "span_end", "llsv", ("llsv", "phase")),
                ],
                rank=r,
                wall_origin=100.0 + r,
                metrics={
                    "counters": {},
                    "gauges": {},
                    "histograms": {
                        "collective_wait_seconds": {
                            "count": 1,
                            "total": 0.3,
                        },
                        "collective_transfer_seconds": {
                            "count": 1,
                            "total": 0.1,
                        },
                    },
                },
            )

        return RunProfile([rank(0, 1.0, 1.0), rank(1, 3.0, 1.0)])

    def test_rows_imbalance_and_critical_path(self):
        rows = {
            r.phase: r for r in attribution_rows(self._profile())
        }
        ttm = rows["ttm"]
        assert ttm.mean_s == pytest.approx(2.0)
        assert ttm.max_s == pytest.approx(3.0)
        assert ttm.imbalance == pytest.approx(1.5)
        # One instance per rank; the slowest rank took 3s.
        assert ttm.critical_path_s == pytest.approx(3.0)
        assert ttm.model_s is None and ttm.flag == ""

    def test_divergence_flag_on_shares(self):
        # Measured shares: ttm 2/3, llsv 1/3.  Modeled shares: ttm
        # 0.1 (ratio 6.7 -> divergent), llsv 0.4 (ratio 1.2 ->
        # clean); the core_comm charge has no measured row and only
        # feeds the model total.
        model = {"ttm": 1.0, "gram": 4.0, "core_comm": 5.0}
        rows = {
            r.phase: r
            for r in attribution_rows(self._profile(), model)
        }
        assert rows["ttm"].flag == "DIVERGENT"
        assert rows["llsv"].flag == ""

    def test_report_round_trip_with_model(self):
        model = {"ttm": 1.0, "gram": 1.0}
        report = format_attribution_report(
            self._profile(), model, model_label="dist_hooi"
        )
        assert "model: dist_hooi" in report
        assert "blocked wait" in report
        rows = parse_attribution_report(report)
        assert {r["phase"] for r in rows} == {"ttm", "llsv"}

    def test_parse_rejects_reportless_text(self):
        with pytest.raises(ValueError):
            parse_attribution_report("nothing to see here")


class TestChromeTraceValidation:
    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": []})
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "Z", "name": "x"}]}
            )

    def test_empty_run_profile_rejected(self):
        with pytest.raises(ValueError):
            RunProfile([])


class TestMismatchHardening:
    """Model/profile phase mismatches stay visible and parseable.

    Regressions for the attribution hardening: ledger phases no
    measured phase covers surface as ``MODEL-ONLY`` rows instead of
    silently dropping model time, the parser names the exact corrupt
    cell, and the shared timeline renderer tolerates the degenerate
    lane sets a crashed rank's partial profile produces.
    """

    def test_model_only_rows_for_uncovered_model_phases(self):
        profile = TestAttributionSynthetic._profile()
        # Measured phases are {ttm, llsv}; neither maps to the core
        # charges, so both must appear as zero-measured rows.
        model = {"ttm": 1.0, "core": 2.0, "core_comm": 5.0}
        rows = {r.phase: r for r in attribution_rows(profile, model)}
        for phase in ("core", "core_comm"):
            assert rows[phase].flag == "MODEL-ONLY"
            assert rows[phase].mean_s == 0.0
            assert rows[phase].measured_share == 0.0
        assert rows["core"].model_s == pytest.approx(2.0)
        report = format_attribution_report(profile, model)
        parsed = parse_attribution_report(report)
        flags = {r["phase"]: r["flag"] for r in parsed}
        assert flags["core"] == "MODEL-ONLY"
        assert flags["core_comm"] == "MODEL-ONLY"

    def test_zero_model_charges_not_surfaced(self):
        profile = TestAttributionSynthetic._profile()
        rows = attribution_rows(profile, {"ttm": 1.0, "core": 0.0})
        assert "core" not in {r.phase for r in rows}

    def test_parse_names_the_corrupt_cell(self):
        report = format_attribution_report(
            TestAttributionSynthetic._profile()
        )
        lines = report.splitlines()
        head = next(
            i for i, l in enumerate(lines) if l.startswith("phase  ")
        )
        lines[head + 2] = re.sub(r"\d", "x", lines[head + 2])
        with pytest.raises(ValueError, match="neither numeric nor"):
            parse_attribution_report("\n".join(lines))

    def test_render_lanes_degenerate_inputs(self):
        assert render_lanes([]) == "(no events)"
        assert render_lanes([("r0", [])]) == "(no events)"
        assert (
            render_lanes([("r0", [(0.0, 0.0)])])
            == "(zero-duration trace)"
        )

    def test_render_lanes_clamps_negative_start(self):
        # A truncated partial profile can carry an interval starting
        # before the shared origin: render the visible part, never
        # wrap around via negative indices.
        out = render_lanes(
            [("r0", [(-0.5, 0.2)]), ("r1", [(0.0, 1.0)])], width=10
        )
        lane = next(
            l for l in out.splitlines() if l.startswith("r0")
        )
        bar = lane.split("|")[1]
        assert bar[0] == "#"
        assert "#" not in bar[5:]
