"""Transport shoot-out: shared memory vs tcp.

Times the three bandwidth-bound collectives (allreduce, reduce-scatter,
allgather) on real processes at p = 4 across payload sizes from 8 KiB
to 8 MiB, on both wires of the communicator: the pooled shared-memory
transport and the tcp socket transport.

The shm-vs-tcp pairing is reported through the postal model: per
collective, the measured (bytes, seconds) samples of each wire are
least-squares fitted to ``t = alpha + beta * bytes``
(:func:`repro.vmpi.collectives.fit_alpha_beta`) and the payload size
where the lines cross
(:func:`repro.vmpi.collectives.transport_crossover_bytes`) is the
break-even point — below it the lower-alpha wire wins, above it the
lower-beta one.  On one host shm should dominate everywhere
(crossover ``inf``).  No assertion rides on the fit — loopback tcp
numbers are a model input, not a performance claim.

Timing happens *inside* the ranks (process spawn/join excluded); the
reported figure is the slowest rank's per-call time, best of
``TRIALS`` runs.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

from _util import save_result
from repro.analysis.reporting import format_table
from repro.vmpi.collectives import fit_alpha_beta, transport_crossover_bytes
from repro.vmpi.mp_comm import run_spmd

#: CI smoke mode: tiny payloads, one trial — exercises both
#: transports end-to-end and fails only on crashes.
SMOKE = os.environ.get("MP_BENCH_SMOKE", "") == "1"

P = 4
# (label, payload words per collective) — float64, so words x 8 bytes.
SIZES = [
    ("8KiB", 1 << 10),
    ("64KiB", 1 << 13),
    ("2MiB", 1 << 18),
    ("8MiB", 1 << 20),
]
OPS = ("allreduce", "reduce_scatter", "allgather")
REPS = {1 << 10: 12, 1 << 13: 10, 1 << 18: 6, 1 << 20: 3}
TRIALS = 3
if SMOKE:
    SIZES = [("8KiB", 1 << 10), ("64KiB", 1 << 13)]
    REPS = {1 << 10: 2, 1 << 13: 2}
    TRIALS = 1


def _bench_program(comm, op: str, words: int, reps: int) -> float:
    rng = np.random.default_rng(100 + comm.rank)
    if op == "allgather":
        arr = rng.standard_normal(words // comm.size)
    else:
        arr = rng.standard_normal(words)

    def once():
        if op == "allreduce":
            comm.allreduce(arr)
        elif op == "reduce_scatter":
            comm.reduce_scatter(arr, axis=0)
        else:
            comm.allgather(arr, axis=0)

    once()  # warm-up: fault in buffers, build the segment pool
    once()
    comm.barrier()
    t0 = time.perf_counter()
    for _ in range(reps):
        once()
    return time.perf_counter() - t0


def _time_collective(transport: str, op: str, words: int) -> float:
    """Slowest-rank seconds per call, best of TRIALS runs."""
    reps = REPS[words]
    best = float("inf")
    for _ in range(TRIALS):
        elapsed = run_spmd(
            _bench_program, P, op, words, reps,
            transport=transport, timeout=300.0,
        )
        best = min(best, max(elapsed) / reps)
    return best


def _crossover_rows(samples: dict[str, dict[str, list]]) -> list[list]:
    """Fit the postal model per op and locate the shm/tcp break-even."""
    rows = []
    for op in OPS:
        s = samples[op]
        shm_fit = fit_alpha_beta(s["bytes"], s["shm"])
        tcp_fit = fit_alpha_beta(s["bytes"], s["tcp"])
        cross = transport_crossover_bytes(shm_fit, tcp_fit)
        rows.append([
            op,
            shm_fit[0] * 1e6, shm_fit[1] * 1e9,
            tcp_fit[0] * 1e6, tcp_fit[1] * 1e9,
            "inf" if math.isinf(cross) else f"{cross:.0f}",
        ])
    return rows


def test_mp_transport_shootout(benchmark):
    def run():
        rows = []
        samples: dict[str, dict[str, list]] = {
            op: {"bytes": [], "shm": [], "tcp": []} for op in OPS
        }
        for label, words in SIZES:
            for op in OPS:
                t_shm = _time_collective("shm", op, words)
                t_tcp = _time_collective("tcp", op, words)
                rows.append(
                    [op, label, words * 8, t_shm * 1e3, t_tcp * 1e3]
                )
                samples[op]["bytes"].append(words * 8)
                samples[op]["shm"].append(t_shm)
                samples[op]["tcp"].append(t_tcp)
        return rows, samples

    rows, samples = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(
        "mp_transport",
        format_table(
            ["op", "payload", "bytes", "shm ms", "tcp ms"],
            rows,
            title=f"shm vs tcp transport, p={P} (per-call, slowest rank)",
        )
        + "\n\n"
        + format_table(
            ["op", "shm alpha us", "shm beta ns/B", "tcp alpha us",
             "tcp beta ns/B", "crossover bytes"],
            _crossover_rows(samples),
            title=(
                "postal-model fit t = alpha + beta*bytes per wire; "
                "crossover = payload where tcp stops losing "
                "(inf: shm wins at every size)"
            ),
        ),
    )
