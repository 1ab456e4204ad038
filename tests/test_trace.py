"""Event tracing and timeline rendering."""

import numpy as np
import pytest

from repro.distributed.arrays import SymbolicArray
from repro.distributed.hooi import dist_hooi
from repro.distributed.sthosvd import dist_sthosvd
from repro.vmpi.cost import CostKind
from repro.vmpi.machine import MachineModel
from repro.vmpi.trace import TraceEvent, TracingLedger, render_timeline


class TestTracingLedger:
    def test_records_all_kinds(self):
        led = TracingLedger(MachineModel(), 4)
        led.compute("a", 1e9)
        led.sequential("b", 1e9)
        led.comm("c", 1e6, 2)
        kinds = [e.kind for e in led.events]
        assert kinds == [
            CostKind.COMPUTE, CostKind.SEQUENTIAL, CostKind.COMM,
        ]

    def test_events_are_contiguous(self):
        led = TracingLedger(MachineModel(), 1)
        led.compute("a", 1e9)
        led.compute("b", 2e9)
        assert led.events[1].start == pytest.approx(led.events[0].end)

    def test_zero_cost_not_recorded(self):
        led = TracingLedger(MachineModel(), 1)
        led.comm("a", 0.0, 0.0)
        assert led.events == []

    def test_totals_match_base_ledger(self):
        led = TracingLedger(MachineModel(), 2)
        led.compute("a", 1e9)
        led.comm("b", 1e6, 1)
        assert sum(e.seconds for e in led.events) == pytest.approx(
            led.seconds()
        )


class TestDriversWithTrace:
    def test_sthosvd_trace(self):
        x = SymbolicArray((64, 64, 64), np.float32)
        _, stats = dist_sthosvd(x, (1, 2, 2), ranks=(4, 4, 4), trace=True)
        events = stats.ledger.events
        assert events
        # STHOSVD structure: a gram step precedes the first EVD.
        phases = [e.phase for e in events]
        assert phases.index("gram") < phases.index("evd")

    def test_hooi_trace(self):
        from repro.core.hooi import variant_options

        x = SymbolicArray((32, 32, 32), np.float32)
        _, stats = dist_hooi(
            x, (4, 4, 4), (2, 2, 1),
            options=variant_options("hosi-dt", max_iters=1),
            trace=True,
        )
        phases = {e.phase for e in stats.ledger.events}
        assert "ttm" in phases and "qrcp" in phases

    def test_trace_off_by_default(self):
        x = SymbolicArray((32, 32, 32), np.float32)
        _, stats = dist_sthosvd(x, (1, 2, 2), ranks=(4, 4, 4))
        assert not hasattr(stats.ledger, "events")


class TestRenderTimeline:
    def test_empty(self):
        assert render_timeline([]) == "(no events)"

    def test_lanes_and_totals(self):
        events = [
            TraceEvent("a", CostKind.COMPUTE, 0.0, 1.0),
            TraceEvent("b", CostKind.COMM, 1.0, 1.0),
        ]
        out = render_timeline(events, width=20)
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("a")
        assert "#" in lines[1] and "#" in lines[2]

    def test_short_events_visible(self):
        events = [
            TraceEvent("long", CostKind.COMPUTE, 0.0, 100.0),
            TraceEvent("blip", CostKind.COMM, 100.0, 1e-9),
        ]
        out = render_timeline(events, width=30)
        blip_line = [l for l in out.splitlines() if l.startswith("blip")][0]
        assert "#" in blip_line


class TestCommTracePhases:
    """Phase tagging on the executed-collective trace (CommTrace)."""

    @staticmethod
    def record(op, phase):
        from repro.vmpi.trace import CollectiveRecord

        return CollectiveRecord(op, "ring", 4, 1, 8, 64, 1, 8, 64, 0, phase)

    @staticmethod
    def dummy_comm():
        """The minimum _comm_phase needs: a mutable ``phase`` slot and
        the (disabled) flight recorder it probes on entry/exit."""

        class _Dummy:
            phase = ""
            flight = None

        return _Dummy()

    def test_for_phase_exact_match_only(self):
        # Overlapping names: "ttm" must not swallow "ttm_comm".
        from repro.vmpi.trace import CommTrace

        t = CommTrace()
        t.add(self.record("allreduce", "ttm"))
        t.add(self.record("allreduce", "ttm_comm"))
        t.add(self.record("bcast", "ttm"))
        assert [r.phase for r in t.for_phase("ttm")] == ["ttm", "ttm"]
        assert [r.phase for r in t.for_phase("ttm_comm")] == ["ttm_comm"]

    def test_for_phase_multiple_names(self):
        from repro.vmpi.trace import CommTrace

        t = CommTrace()
        t.add(self.record("allreduce", "gram"))
        t.add(self.record("allreduce", "evd"))
        t.add(self.record("allreduce", "gram_evd"))
        got = t.for_phase("gram", "evd")
        assert [r.phase for r in got] == ["gram", "evd"]

    def test_count_restricted_to_phases(self):
        from repro.vmpi.trace import CommTrace

        t = CommTrace()
        t.add(self.record("allreduce", "ttm"))
        t.add(self.record("allreduce", "ttm_comm"))
        t.add(self.record("barrier", "ttm"))
        assert t.count("allreduce") == 2
        assert t.count("allreduce", "ttm") == 1
        assert t.count("allreduce", "ttm", "ttm_comm") == 2
        assert t.count("barrier", "ttm_comm") == 0

    def test_nested_comm_phase_restores_outer(self):
        from repro.distributed.kernels import _comm_phase

        comm = self.dummy_comm()
        with _comm_phase(comm, "outer"):
            assert comm.phase == "outer"
            with _comm_phase(comm, "inner"):
                assert comm.phase == "inner"
            assert comm.phase == "outer"
        assert comm.phase == ""

    def test_nested_comm_phase_tags_records(self):
        from repro.distributed.kernels import _comm_phase
        from repro.vmpi.trace import CommTrace

        comm = self.dummy_comm()
        trace = CommTrace()
        with _comm_phase(comm, "sweep"):
            trace.add(self.record("allreduce", comm.phase))
            with _comm_phase(comm, "sweep_ttm"):
                trace.add(self.record("reduce_scatter", comm.phase))
            trace.add(self.record("allgather", comm.phase))
        assert [r.phase for r in trace.records] == [
            "sweep",
            "sweep_ttm",
            "sweep",
        ]
        # Overlapping prefixes stay distinct on lookup.
        assert len(trace.for_phase("sweep")) == 2
        assert len(trace.for_phase("sweep_ttm")) == 1

    def test_comm_phase_restores_on_exception(self):
        from repro.distributed.kernels import _comm_phase

        comm = self.dummy_comm()
        comm.phase = "base"
        try:
            with _comm_phase(comm, "risky"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert comm.phase == "base"
