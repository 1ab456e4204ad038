"""Comm/compute overlap on the long-vector reduction collectives.

Times repeated large allreduces (the pipelined
pairwise-rs + ring-ag path) with ``CommConfig.overlap`` off vs on, on
real processes.  The contract this bench enforces everywhere, smoke
included: overlapping changes *scheduling only* — results bit-identical,
collective traces identical record for record — and the receive waits
the pipeline hides are visible as the ``collective_wait_hidden_seconds``
histogram in the flight rings of the timed runs.

The wall-clock column is reported but only loosely gated (overlap must
not make things dramatically worse): on an unloaded many-core host the
hidden wait converts into speedup, but on a single-core or oversubscribed
runner the prefetch thread competes with the payload math, so a hard
speedup gate would be flaky by construction.  The honest, stable claim
is the attribution one: with overlap on, the blocked-wait share of the
profile moves into the hidden histogram, and that is asserted exactly.
"""

from __future__ import annotations

import os
import time

import numpy as np

from _util import save_result
from repro.analysis.reporting import format_table
from repro.vmpi.mp_comm import CommConfig, ProcessComm, run_spmd

#: CI smoke mode: tiny payloads, identity checks only.
SMOKE = os.environ.get("MP_BENCH_SMOKE", "") == "1"

RANKS = 3
WORDS = 1_500_000
ROUNDS = 8
TRIALS = 3
MAX_SLOWDOWN = 1.5
if SMOKE:
    WORDS = 20_000
    ROUNDS = 2
    TRIALS = 1


def _prog(comm: ProcessComm, words: int, rounds: int) -> tuple:
    rng = np.random.default_rng(11 + comm.rank)
    a = rng.standard_normal(words)
    comm.barrier()
    t0 = time.perf_counter()
    for _ in range(rounds):
        a = comm.allreduce(a)
        a *= 1.0 / comm.size  # payload math for the prefetch to hide
    dt = time.perf_counter() - t0
    trace = [
        (r.op, r.algorithm, r.sent_messages, r.sent_words,
         r.recv_messages, r.recv_words)
        for r in comm.trace.records
    ]
    return dt / rounds, a[:64].copy(), trace


def _launch(overlap: bool):
    cfg = CommConfig(
        overlap=overlap,
        eager_max_words=4096,
        collective_timeout=120.0,
    )
    rings: dict = {}
    outs = run_spmd(
        _prog, RANKS, WORDS, ROUNDS,
        timeout=600.0, config=cfg, profile_out=rings,
    )
    return max(o[0] for o in outs), outs, rings


def _wait_totals(rings: dict) -> tuple[float, float]:
    visible = hidden = 0.0
    for p in rings.values():
        hists = p.metrics["histograms"]
        visible += hists.get("collective_wait_seconds", {}).get("total", 0.0)
        hidden += hists.get(
            "collective_wait_hidden_seconds", {}
        ).get("total", 0.0)
    return visible, hidden


def test_overlap(benchmark):
    def run():
        t_off = t_on = float("inf")
        outs_off = outs_on = rings_off = rings_on = None
        for _ in range(TRIALS):  # interleaved, best-of-trials
            t, outs, rings = _launch(False)
            if t < t_off:
                t_off, outs_off, rings_off = t, outs, rings
            t, outs, rings = _launch(True)
            if t < t_on:
                t_on, outs_on, rings_on = t, outs, rings
        # Scheduling-only: same bits, same trace, on every rank.
        for off, on in zip(outs_off, outs_on):
            np.testing.assert_array_equal(off[1], on[1])
            assert off[2] == on[2]
        # The wait attribution split, from the best runs' rings.
        return t_off, t_on, _wait_totals(rings_off), _wait_totals(rings_on)

    t_off, t_on, (vis_off, hid_off), (vis_on, hid_on) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    save_result(
        "overlap",
        format_table(
            ["overlap", "per-round ms", "visible wait s", "hidden wait s"],
            [
                ["off", t_off * 1e3, f"{vis_off:.4f}", f"{hid_off:.4f}"],
                ["on", t_on * 1e3, f"{vis_on:.4f}", f"{hid_on:.4f}"],
            ],
            title=f"pairwise-rs+ring-ag allreduce x{ROUNDS}, {WORDS} words, "
            f"{RANKS} ranks (best of {TRIALS}, slowest rank)",
        ),
    )
    # The attribution claim, asserted in smoke too: overlap moves the
    # long-path receive waits into the hidden histogram.
    assert hid_off == 0.0
    assert hid_on > 0.0
    if SMOKE:
        # Tiny payloads: startup skew in the opening barrier dominates
        # every wait histogram, so the share comparison stops here.
        return
    # With real payloads the allreduce waits dominate the barrier skew:
    # the visible-wait share must drop once the pipeline hides them.
    assert vis_on < vis_off
    assert t_on <= t_off * MAX_SLOWDOWN, (
        f"overlap-on per-round {t_on * 1e3:.1f}ms vs off "
        f"{t_off * 1e3:.1f}ms exceeds {MAX_SLOWDOWN}x slowdown gate"
    )
