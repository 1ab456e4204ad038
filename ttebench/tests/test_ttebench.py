"""Tests of the benchmark's own logic.

    PYTHONPATH=src:. python -m pytest ttebench/tests -q
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.datasets.simulation import hcci_like, miranda_like  # noqa: E402
from repro.distributed.mp_hooi import mp_rahosi_dt  # noqa: E402
from repro.distributed.mp_sthosvd import mp_sthosvd  # noqa: E402
from repro.tensor.random import tucker_plus_noise  # noqa: E402
from ttebench import analysis, check, gen, run  # noqa: E402
from ttebench.tracer import Tracer  # noqa: E402


# -- tail rule ----------------------------------------------------------------


def test_tail_is_max_below_eleven_samples():
    assert analysis.tail([3.0, 1.0, 2.0]) == (3.0, 100, 3)
    assert analysis.tail(list(range(10))) == (9, 100, 10)


@pytest.mark.parametrize("n", [11, 12, 37, 50, 99, 100, 101, 250])
def test_tail_is_highest_percentile_with_ten_beyond(n):
    values = list(np.random.default_rng(n).permutation(n).astype(float))
    value, pct, count = analysis.tail(values)
    assert count == n
    assert sum(v > value for v in values) >= 10
    # One percentile higher would leave fewer than ten samples beyond it.
    idx = math.ceil((pct + 1) * n / 100) - 1
    assert n - idx - 1 < 10


def test_tail_examples():
    assert analysis.tail([float(i) for i in range(11)]) == (0.0, 9, 11)
    assert analysis.tail([float(i) for i in range(50)]) == (39.0, 80, 50)


# -- self time ----------------------------------------------------------------


def span(name, start, end, parent=-1, req=0, rank=0, counts=None):
    return [name, start, end, parent, req, rank, counts]


def test_self_time_subtracts_union_of_direct_children():
    spans = [
        span("parent", 0.0, 10.0),
        span("a", 1.0, 3.0, parent=0),
        span("b", 2.0, 5.0, parent=0),  # overlaps a
        span("c", 9.0, 12.0, parent=0),  # runs past the parent's end
        span("grandchild", 1.5, 2.0, parent=1),
    ]
    selfs = analysis.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (4.0 + 1.0))
    assert selfs[1] == pytest.approx(2.0 - 0.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(0.5)


def test_self_time_of_leaf_is_duration():
    assert analysis.self_times([span("x", 2.0, 2.25)]) == [0.25]


# -- send/recv matching -------------------------------------------------------


def msg(kind, start, end, src, dst, tag, req=0, nbytes=8):
    rank = src if kind == "transport.send" else dst
    return span(kind, start, end, req=req, rank=rank,
                counts={"src": src, "dst": dst, "tag": tag, "bytes": nbytes})


def test_messages_match_in_order_per_key_and_request():
    spans = [
        msg("transport.recv", 5.0, 6.0, 0, 1, "t"),
        msg("transport.send", 1.0, 1.1, 0, 1, "t"),
        msg("transport.send", 4.0, 4.1, 0, 1, "t"),
        msg("transport.recv", 0.5, 2.0, 0, 1, "t"),
        msg("transport.send", 1.0, 1.1, 1, 0, "t"),  # other direction, unmatched
        msg("transport.recv", 3.0, 3.5, 0, 1, "t", req=1),  # other request
        msg("transport.send", 2.0, 2.1, 0, 1, "t", req=1),
    ]
    pairs = analysis.match_messages(spans)
    got = sorted((s[1], r[1]) for s, r in pairs)
    assert got == [(1.0, 0.5), (2.0, 3.0), (4.0, 5.0)]
    times = sorted(analysis.one_way_s(s, r) for s, r in pairs)
    # Receiver waiting first: from the send.  Sender first: from the recv.
    assert times == pytest.approx([0.5, 1.0, 1.0])


def test_collective_wait_is_first_in_waiting_for_last():
    def coll(start, rank, group=(0, 1)):
        return span("mp_comm.allreduce", start, start + 1, rank=rank,
                    counts={"bytes": 8, "group": list(group)})

    spans = [coll(1.0, 0), coll(1.3, 1), coll(2.0, 0), coll(2.05, 1),
             coll(5.0, 0, group=(0,)), coll(7.0, 1, group=(1,))]
    assert analysis.collective_waits(spans) == {0: pytest.approx(0.35)}


# -- schedule -----------------------------------------------------------------


@pytest.mark.parametrize("trace", [False, True])
def test_schedule_is_a_function_of_workload_seed_and_seconds(trace):
    a = run.schedule("hcci-shm", 3, 20, trace)
    assert a == run.schedule("hcci-shm", 3, 20, trace)
    assert len(a) == run.SEGMENTS
    counts = {}
    for seg in a:
        assert seg["cold"] == list(run.COLD)
        for op, n, mode in seg["blocks"]:
            counts[(op, mode)] = counts.get((op, mode), 0) + n
    assert all(n >= run.MIN_PER_OP for key, n in counts.items() if key[0] != "launch")


# -- generator and answer check ----------------------------------------------


@pytest.mark.parametrize(
    "field, shape, reference",
    [
        ("miranda", (12, 12, 12), lambda: miranda_like(12, seed=0)),
        ("hcci", (8, 8, 3, 6), lambda: hcci_like((8, 8, 3, 6), seed=0)),
    ],
)
def test_generator_reproduces_dataset(field, shape, reference):
    rng = np.random.default_rng(0)
    x = gen.add_noise(field, gen.signal(field, shape, rng), rng)
    expected = reference()
    assert x.dtype == expected.dtype
    np.testing.assert_array_equal(x, expected)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_norm_expansion_matches_reconstruction(dtype):
    x = tucker_plus_noise((20, 17, 9), (4, 3, 2), noise=0.05, seed=1).astype(dtype)
    rng = np.random.default_rng(2)
    factors = [np.linalg.qr(rng.standard_normal((n, r)))[0].astype(dtype)
               for n, r in zip(x.shape, (5, 4, 3))]
    core = check.project(x, factors).astype(dtype) * 1.01
    x64 = x.astype(np.float64)
    recon = np.einsum("abc,ia,jb,kc->ijk", core.astype(np.float64),
                      *[u.astype(np.float64) for u in factors])
    direct = np.linalg.norm(x64 - recon) / np.linalg.norm(x64)
    x_norm_sq = float(np.vdot(x64, x64))
    assert check.relative_error(x, x_norm_sq, core, factors) == pytest.approx(direct, rel=1e-9)


def test_orthonormality_and_digest():
    u = np.linalg.qr(np.random.default_rng(0).standard_normal((30, 4)))[0]
    assert check.orthonormality_ulps([u]) < 100
    assert check.orthonormality_ulps([u * 1.001]) > check.ORTHO_ULPS
    core = np.ones((4,))
    d = check.digest(core, [u])
    assert d == check.digest(core.copy(), [u.copy()])
    bumped = u.copy()
    bumped[0, 0] = np.nextafter(bumped[0, 0], 2.0)
    assert d != check.digest(core, [bumped])
    assert d != check.digest(core.astype(np.float32), [u])


# -- tracing leaves answers bit-identical -------------------------------------


@pytest.mark.parametrize("wire", ["shm", "tcp"])
def test_traced_answers_are_bit_identical(wire, tmp_path):
    x = tucker_plus_noise((16, 12, 10), (4, 3, 3), noise=1e-3, seed=3)
    grid = (2, 1, 1)

    tracer = Tracer(tmp_path)

    def answers():
        tracer.req = 0
        ra, _ = mp_rahosi_dt(x, 0.01, (3, 3, 2), grid, transport=wire)
        tracer.req = 1
        st = mp_sthosvd(x, grid, eps=0.01, transport=wire)
        return [check.digest(t.core, t.factors) for t in (ra, st)]

    plain = answers()
    tracer.install()
    try:
        traced = answers()
    finally:
        tracer.uninstall()
    assert traced == plain
    lists, transport = tracer.load()
    names = {s[0] for spans in lists for s in spans}
    assert {"launch.run_spmd", "program", "transport.send", "transport.recv",
            "mp_comm.allgather", "sweep.mp_ttm", "kernels.ttm"} <= names
    assert transport[0]["msgs"] > 0 and transport[1]["msgs"] > 0
    # Uninstalled: the wrappers are gone again.
    assert answers() == plain


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "ttebench", tmp_path / "ttebench",
                    ignore=shutil.ignore_patterns("__pycache__", "evidence"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "ttebench/run.py", "--workload", "hcci-shm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
