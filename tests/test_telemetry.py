"""Flight recorder, live telemetry, and causal postmortem timelines.

Certifies the always-on observability contract: the per-rank flight
ring is bounded and bit-identity-preserving, rings merge into one
causally-ordered global timeline regardless of wall-clock skew,
``build_postmortem`` names the diverging rank and collective for every
failure shape (crash, laggard, mismatch, early exit), the live
telemetry channel heartbeats and flags stalls before
``CollectiveTimeoutError`` fires, the JSONL export validates against
its schema, and a seeded deadlock and a seeded rank crash each produce
the *same* postmortem verdict on the shm and tcp wires.
"""

import threading
import time

import numpy as np
import pytest

from repro.observability.spans import Histogram, MetricsRegistry
from repro.observability.telemetry import (
    FlightRecorder,
    FlightRing,
    TelemetryMonitor,
    build_postmortem,
    format_event,
    merge_flight_rings,
    validate_telemetry_jsonl,
)
from repro.vmpi.faults import FaultPlan
from repro.vmpi.mp_comm import (
    CommConfig,
    ProcessComm,
    RankFailureError,
    run_spmd,
)

# Module-level SPMD programs (must be picklable).


def _prog_clean(comm: ProcessComm, arr: np.ndarray) -> np.ndarray:
    comm.phase = "ttm"
    comm.note_progress(iteration=1, total=2)
    out = comm.allreduce(arr * (comm.rank + 1))
    comm.note_event("checkpoint", {"mode": 1})
    comm.barrier()
    return out


def _prog_deadlock(comm: ProcessComm) -> str:
    """Rank 1 skips the second allreduce: ranks 0 and 2 hang at op #2."""
    comm.phase = "gram"
    comm.allreduce(np.ones(2))
    if comm.rank == 1:
        return "early"
    comm.allreduce(np.ones(2))
    return "late"


def _prog_crash_site(comm: ProcessComm) -> int:
    """barrier (#1), allreduce (#2), allreduce (#3) — the kill site."""
    comm.barrier()
    comm.allreduce(np.ones(3))
    comm.allreduce(np.ones(3))
    return comm.rank


def _prog_straggler(comm: ProcessComm) -> int:
    """Rank 0 naps between collectives; rank 1 stalls in op #2."""
    comm.phase = "ttm"
    comm.note_progress(iteration=1, total=2)
    comm.allreduce(np.ones(2))
    if comm.rank == 0:
        time.sleep(1.2)
    comm.note_progress(iteration=2, total=2)
    comm.allreduce(np.ones(2))
    return comm.rank


# Synthetic-ring helpers.


def _ev(seq, t, kind, op_id, phase="", detail=""):
    return (seq, t, kind, op_id, phase, detail)


def _ring(rank, events, *, wall_origin=0.0, seq=None):
    return FlightRing(
        rank=rank,
        wall_origin=wall_origin,
        capacity=256,
        seq=len(events) if seq is None else seq,
        events=list(events),
    )


class TestFlightRecorder:
    def test_ring_is_bounded_and_counts_drops(self):
        fr = FlightRecorder(rank=3, capacity=8)
        for i in range(20):
            fr.record("post", i, "ttm", {"i": i})
        ring = fr.snapshot()
        assert fr.seq == 20
        assert len(ring.events) == 8
        assert ring.dropped == 12
        # The ring keeps the *latest* events; seq numbers survive wrap.
        assert [ev[0] for ev in ring.events] == list(range(13, 21))
        assert len(ring.tail(3)) == 3

    def test_capacity_floor(self):
        assert FlightRecorder(rank=0, capacity=1).capacity >= 8

    def test_open_collective_tracking(self):
        fr = FlightRecorder(rank=0)
        assert fr.open_collective() is None
        fr.record("collective_begin", 1, "gram", ("allreduce", 4))
        open_ev = fr.open_collective()
        assert open_ev is not None and open_ev[3] == 1
        fr.record("collective_end", 1, "gram", ("allreduce", 4))
        assert fr.open_collective() is None

    def test_last_state_names_open_op(self):
        fr = FlightRecorder(rank=2)
        fr.record("collective_begin", 5, "evd", ("reduce_scatter", 3))
        state = fr.snapshot().last_state()
        assert state["open_op"] == "reduce_scatter"
        assert state["op_id"] == 5
        assert state["phase"] == "evd"

    def test_last_state_empty_ring(self):
        state = _ring(0, []).last_state()
        assert state["open_op"] is None
        assert state["last_kind"] is None
        assert state["op_id"] == 0

    def test_format_event_renders_details(self):
        line = format_event(_ev(9, 1.25, "collective_begin", 4, "ttm",
                                ("allreduce", 6)))
        assert "#9" in line and "op#4" in line
        assert "phase=ttm" in line and "allreduce p=6" in line
        line = format_event(_ev(1, 0.0, "sweep", 2, "", {"iteration": 3}))
        assert "iteration=3" in line


class TestMergeFlightRings:
    def test_op_ids_beat_wall_clock_skew(self):
        # Rank 1's wall clock is an hour ahead; the collective sequence
        # number must still interleave the ranks causally.
        r0 = _ring(0, [
            _ev(1, 0.0, "collective_begin", 1, "", ("allreduce", 2)),
            _ev(2, 0.1, "collective_end", 1, "", ("allreduce", 2)),
            _ev(3, 0.2, "collective_begin", 2, "", ("barrier", 2)),
        ], wall_origin=1000.0)
        r1 = _ring(1, [
            _ev(1, 0.0, "collective_begin", 1, "", ("allreduce", 2)),
            _ev(2, 0.1, "collective_end", 1, "", ("allreduce", 2)),
            _ev(3, 0.2, "collective_begin", 2, "", ("barrier", 2)),
        ], wall_origin=4600.0)
        rows = merge_flight_rings({0: r0, 1: r1})
        assert [r["op_id"] for r in rows] == [1, 1, 1, 1, 2, 2]
        # Within op #1: every begin precedes every end.
        kinds = [r["kind"] for r in rows[:4]]
        assert kinds == ["collective_begin", "collective_begin",
                         "collective_end", "collective_end"]

    def test_stage_order_within_one_op(self):
        r0 = _ring(0, [
            _ev(1, 0.5, "collective_begin", 1, "", ("allreduce", 2)),
            _ev(2, 0.6, "post", 1, "", ""),
            _ev(3, 0.7, "collective_end", 1, "", ""),
        ])
        # Rank 1's post carries an *earlier* wall time than rank 0's
        # begin — stage order must still put all begins first.
        r1 = _ring(1, [
            _ev(1, 0.0, "collective_begin", 1, "", ("allreduce", 2)),
            _ev(2, 0.1, "post", 1, "", ""),
        ])
        rows = merge_flight_rings({0: r0, 1: r1})
        assert [r["kind"] for r in rows] == [
            "collective_begin", "collective_begin", "post", "post",
            "collective_end",
        ]


class TestBuildPostmortem:
    def _blocked(self, rank, op_id, op="allreduce", t=1.0):
        return _ring(rank, [
            _ev(1, t, "collective_begin", op_id, "gram", (op, 3)),
        ])

    def _finished(self, rank, op_id):
        return _ring(rank, [
            _ev(1, 0.0, "collective_begin", op_id, "gram", ("allreduce", 3)),
            _ev(2, 0.1, "collective_end", op_id, "gram", ("allreduce", 3)),
        ])

    def test_laggard_branch(self):
        pm = build_postmortem({
            0: self._blocked(0, 4),
            1: self._finished(1, 2),
            2: self._blocked(2, 4),
        })
        assert pm.diverging == [1]
        assert pm.collective == "allreduce"
        assert pm.op_id == 4
        assert "never reached allreduce (op #4)" in pm.verdict
        assert "[0, 2] blocked waiting" in pm.verdict

    def test_completed_early_branch(self):
        pm = build_postmortem({
            0: self._blocked(0, 2),
            1: self._finished(1, 2),
            2: self._blocked(2, 2),
        }, completed=[1])
        assert pm.diverging == [1]
        assert pm.collective == "allreduce"
        assert "completed while ranks [0, 2] still blocked" in pm.verdict

    def test_mismatched_collectives_branch(self):
        pm = build_postmortem({
            0: self._blocked(0, 3, op="allreduce"),
            1: self._blocked(1, 3, op="allreduce"),
            2: self._blocked(2, 3, op="reduce_scatter"),
        })
        assert pm.diverging == [2]
        assert pm.collective == "reduce_scatter"
        assert "mismatched collectives at op #3" in pm.verdict

    def test_crashed_branch_names_rank_and_op(self):
        pm = build_postmortem({
            0: self._blocked(0, 3),
            1: self._blocked(1, 3),
            2: self._blocked(2, 3),
        }, crashed=[1])
        assert pm.crashed == [1]
        assert pm.diverging == [1]
        assert pm.verdict.startswith("rank 1 crashed inside allreduce (op #3)")
        assert "ranks [0, 2] still blocked" in pm.verdict

    def test_crashed_between_collectives(self):
        pm = build_postmortem({0: self._finished(0, 2)}, crashed=[0])
        assert "crashed between collectives (op #2)" in pm.verdict

    def test_crashed_rank_without_ring_is_ignored(self):
        pm = build_postmortem({
            0: self._blocked(0, 2),
            1: self._blocked(1, 2),
        }, crashed=[5])
        assert pm.crashed == []
        assert "all ranks blocked in allreduce (op #2)" in pm.verdict

    def test_no_rings(self):
        pm = build_postmortem({})
        assert pm.verdict == "no flight-recorder events collected"
        assert pm.diverging == []

    def test_lines_and_render(self):
        pm = build_postmortem({
            0: self._blocked(0, 2),
            1: self._finished(1, 2),
        }, completed=[1])
        lines = pm.lines()
        assert lines[0].startswith("postmortem:")
        assert any("rank 0: blocked in allreduce (op #2)" in l for l in lines)
        assert any("rank 1: completed" in l for l in lines)
        text = pm.render()
        assert "global timeline" in text
        assert "r0 collective_begin" in text


class TestTelemetryMonitor:
    def _beat(self, op_id, seconds=None, op="allreduce"):
        sample = {
            "kind": "heartbeat",
            "rank": 1,
            "ts": time.time(),
            "op_id": op_id,
            "phase": "ttm",
            "progress": {"iteration": 2, "total": 5},
            "flight_seq": op_id,
            "blocked": None,
            "metrics": {},
        }
        if seconds is not None:
            sample["blocked"] = {"op": op, "op_id": op_id, "seconds": seconds}
        return sample

    @pytest.mark.parametrize("interval", [0.0, -1.0, float("nan")])
    def test_interval_must_be_positive(self, interval):
        with pytest.raises(ValueError, match="interval must be positive"):
            TelemetryMonitor(interval=interval)

    def test_stall_flagged_once_per_collective(self):
        mon = TelemetryMonitor(stall_after=0.5)
        mon.on_start(2, "shm")
        mon.on_sample(1, self._beat(3, seconds=0.6))
        mon.on_sample(1, self._beat(3, seconds=1.2))  # same op: no dup
        assert len(mon.stalls()) == 1
        mon.on_sample(1, self._beat(4, seconds=0.9))  # next op: new stall
        assert len(mon.stalls()) == 2
        assert mon.stalls()[0]["rank"] == 1

    def test_render_shows_progress_and_stall(self):
        mon = TelemetryMonitor(stall_after=0.5)
        mon.on_start(2, "tcp")
        mon.on_sample(1, self._beat(3, seconds=0.8))
        mon.on_done(0, "ok")
        text = mon.render()
        assert "repro top" in text and "backend=tcp" in text
        assert "STALLED" in text
        assert "sweep 2/5" in text
        assert "done(ok)" in text
        assert "starting" not in text  # both ranks accounted for

    def test_jsonl_roundtrip_validates(self):
        mon = TelemetryMonitor(stall_after=0.5)
        mon.on_start(2, "shm")
        mon.on_sample(1, self._beat(3, seconds=0.8))
        mon.on_done(1, "error")
        mon.on_postmortem("rank 1 crashed", [1])
        counts = validate_telemetry_jsonl(mon.jsonl())
        assert counts == {
            "run": 1, "heartbeat": 1, "stall": 1, "final": 1,
            "postmortem": 1,
        }

    @pytest.mark.parametrize("line, match", [
        ('{"v": 2, "ts": 1, "kind": "run", "size": 2, "backend": "shm"}',
         "schema version"),
        ('{"v": 1, "ts": 1, "kind": "mystery"}', "unknown record kind"),
        ('{"v": 1, "kind": "final", "rank": 0, "status": "ok"}',
         "missing ts"),
        ('{"v": 1, "ts": 1, "kind": "stall", "rank": 0}',
         "missing 'op'"),
        ("not json", "invalid JSON"),
        ("[1, 2]", "expected object"),
    ])
    def test_validator_rejects_malformed_lines(self, line, match):
        with pytest.raises(ValueError, match=match):
            validate_telemetry_jsonl([line])

    def test_validator_rejects_empty_log(self):
        with pytest.raises(ValueError, match="empty"):
            validate_telemetry_jsonl([])


class TestMetricsEdgeCases:
    """Registry hardening: zero-count histograms, bucket clamps, and
    snapshots taken mid-update from another thread."""

    def test_zero_count_histogram_snapshot(self):
        assert Histogram().snapshot() == {"count": 0, "total": 0.0}

    def test_huge_value_clamps_to_top_bucket(self):
        h = Histogram()
        h.observe(2.0 ** 40)
        snap = h.snapshot()
        assert snap["count"] == 1 and snap["max"] == 2.0 ** 40
        # One observation, clamped into the single top bucket.
        assert sum(snap["buckets"].values()) == 1
        assert len(snap["buckets"]) == 1

    def test_nonpositive_values_land_in_bottom_bucket(self):
        h = Histogram()
        h.observe(0.0)
        h.observe(-1.5)
        snap = h.snapshot()
        assert snap["count"] == 2
        assert snap["min"] == -1.5
        assert sum(snap["buckets"].values()) == 2
        assert len(snap["buckets"]) == 1  # both in the bottom bucket

    def test_snapshot_during_concurrent_updates(self):
        reg = MetricsRegistry()
        stop = threading.Event()

        def hammer():
            i = 0
            while not stop.is_set():
                reg.observe(f"hist_{i % 64}", float(i % 7))
                reg.gauge(f"gauge_{i % 64}", float(i))
                reg.inc(f"ctr_{i % 64}")
                i += 1

        writer = threading.Thread(target=hammer, daemon=True)
        writer.start()
        try:
            for _ in range(200):
                snap = reg.snapshot()
                assert set(snap) == {"counters", "gauges", "histograms"}
                for h in snap["histograms"].values():
                    assert h["count"] >= 0
        finally:
            stop.set()
            writer.join(timeout=5.0)


# ---------------------------------------------------------------------------
# Live runs: bit-identity, cross-wire postmortems, telemetry channel.
# ---------------------------------------------------------------------------


class TestFlightBitIdentity:
    def test_flight_on_matches_flight_off(self):
        arr = np.random.default_rng(3).standard_normal(64)
        off = run_spmd(_prog_clean, 2, arr, timeout=60.0,
                       config=CommConfig(flight=False))
        on = run_spmd(_prog_clean, 2, arr, timeout=60.0,
                      config=CommConfig(flight=True))
        for a, b in zip(off, on):
            assert np.array_equal(a, b)


#: The acceptance literal for the seeded deadlock: asserting the exact
#: string on every backend is what "identical verdicts on shm and tcp"
#: means operationally.
_DEADLOCK_VERDICT = (
    "rank(s) [1] completed while ranks [0, 2] still blocked in "
    "allreduce (op #2)"
)
_CRASH_VERDICT = (
    "rank 1 crashed inside allreduce (op #3); ranks [0, 2] still blocked"
)


class TestPostmortemCrossWire:
    def test_seeded_deadlock_postmortem(self, backend):
        with pytest.raises(RankFailureError) as info:
            run_spmd(
                _prog_deadlock, 3, timeout=60.0, transport=backend,
                collective_timeout=2.0,
            )
        exc = info.value
        pm = exc.postmortem
        assert pm is not None
        assert pm.verdict == _DEADLOCK_VERDICT
        assert pm.diverging == [1]
        assert pm.collective == "allreduce" and pm.op_id == 2
        # All three rings reached the launcher: the early exiter ships
        # its ring before its result, the timed-out ranks embed theirs
        # in the failure report.
        assert set(exc.flight_records) == {0, 1, 2}
        # Satellite: the error message carries the flight tails and the
        # postmortem block.
        msg = str(exc)
        assert "flight recorder (last" in msg
        assert "postmortem: " + _DEADLOCK_VERDICT in msg

    def test_seeded_crash_postmortem(self, backend):
        cfg = CommConfig(
            fault_plan=FaultPlan.kill(1, op_index=3),
            collective_timeout=15.0,
        )
        with pytest.raises(RankFailureError) as info:
            run_spmd(
                _prog_crash_site, 3, timeout=60.0, transport=backend,
                config=cfg,
            )
        exc = info.value
        pm = exc.postmortem
        assert pm is not None
        assert pm.verdict == _CRASH_VERDICT
        assert pm.crashed == [1] and pm.diverging == [1]
        assert pm.collective == "allreduce" and pm.op_id == 3
        # The crashed rank shipped its ring before dying; its last
        # state shows the collective it died inside.
        assert exc.flight_records[1].last_state()["open_op"] == "allreduce"

    def test_timeline_is_causally_ordered(self):
        with pytest.raises(RankFailureError) as info:
            run_spmd(_prog_deadlock, 3, timeout=60.0, collective_timeout=2.0)
        pm = info.value.postmortem
        op_ids = [row["op_id"] for row in pm.timeline]
        assert op_ids == sorted(op_ids)
        # Within each op every begin precedes every end.
        for op in set(op_ids):
            kinds = [r["kind"] for r in pm.timeline if r["op_id"] == op]
            if "collective_end" in kinds and "collective_begin" in kinds:
                assert kinds.index("collective_end") > max(
                    i for i, k in enumerate(kinds)
                    if k == "collective_begin"
                )

    def test_flight_off_still_fails_cleanly(self):
        with pytest.raises(RankFailureError) as info:
            run_spmd(
                _prog_deadlock, 3, timeout=60.0, collective_timeout=2.0,
                config=CommConfig(flight=False),
            )
        assert info.value.flight_records == {}


class TestLiveTelemetryChannel:
    def test_monitor_heartbeats_and_stall_flag(self, backend):
        mon = TelemetryMonitor(interval=0.1, stall_after=0.4)
        out = run_spmd(
            _prog_straggler, 2, timeout=60.0, transport=backend,
            monitor=mon,
        )
        assert out == [0, 1]
        counts = validate_telemetry_jsonl(mon.jsonl())
        assert counts["run"] == 1
        assert counts["final"] == 2
        assert counts["heartbeat"] >= 2
        # The run record names the wire by the name the run was given.
        (run,) = [e for e in mon.events if e["kind"] == "run"]
        assert run["backend"] == backend
        # Rank 1 sat in the second allreduce ~1.2s >> stall_after: the
        # stall was flagged while the run was still live, long before
        # any CollectiveTimeoutError would fire.
        stalls = mon.stalls()
        assert any(s["rank"] == 1 and s["op"] == "allreduce" for s in stalls)
        text = mon.render()
        assert "done(ok)" in text and "backend=" in text

    def test_last_heartbeat_shows_where_each_rank_ended(self, backend):
        # The interval outlasts the run, so every rank's only beats are
        # the one at start and the one its pusher sends when stopped,
        # ahead of the rank's terminal status.
        mon = TelemetryMonitor(interval=30.0)
        run_spmd(
            _prog_crash_site, 3, timeout=60.0, transport=backend,
            monitor=mon,
        )
        events = list(mon.events)
        for rank in range(3):
            beats = [
                i for i, e in enumerate(events)
                if e["kind"] == "heartbeat" and e["rank"] == rank
            ]
            (final,) = [
                i for i, e in enumerate(events)
                if e["kind"] == "final" and e["rank"] == rank
            ]
            assert beats and beats[-1] < final
            last = events[beats[-1]]
            assert last["op_id"] == 3  # barrier + two allreduces
            assert last["metrics"]["histograms"]

    def test_monitor_sees_postmortem_on_failure(self):
        mon = TelemetryMonitor(interval=0.1, stall_after=5.0)
        with pytest.raises(RankFailureError):
            run_spmd(
                _prog_deadlock, 3, timeout=60.0, collective_timeout=2.0,
                monitor=mon,
            )
        counts = validate_telemetry_jsonl(mon.jsonl())
        assert counts.get("postmortem") == 1
        rec = [e for e in mon.events if e["kind"] == "postmortem"][0]
        assert rec["verdict"] == _DEADLOCK_VERDICT
        assert rec["diverging"] == [1]
