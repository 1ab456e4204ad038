"""Cross-layer collective conformance suite.

One parametrized harness runs every collective (allreduce,
reduce-scatter, allgather, all-to-all, bcast, gather, barrier) across the
execution layers — the ``mp_comm`` communicator on both its wires
(pooled shared memory and TCP sockets) and the in-process executable
block collectives of :mod:`repro.vmpi.collectives` — over
group sizes {1, 2, 3, 4, 7, 8} and payload corners (float32/float64,
integer dtypes, empty arrays, non-contiguous views, 0-d scalars,
ragged allgather extents, extents that do not divide the group size,
all-to-all splits that leave some members empty slabs),
asserting *bit-identical* results against a NumPy reference.  The tcp
cases carry the ``transport_matrix`` marker so the CI matrix job can
select them; a dedicated trace-identity test additionally certifies
that shm and tcp produce *identical*
:class:`~repro.vmpi.trace.CollectiveRecord` sequences in every field
except ``shm_messages`` (the one backend-specific counter, zero on
tcp).

Payload values are integer-valued floats, so every summation order is
exact and bit-identity against the NumPy reference is well-defined.
The rank-order claim itself is certified separately, on non-integer
payloads whose sums depend on the order of the adds.

The divergence tests at the bottom certify the deadlock-safety
guarantee: mismatched collective sequences raise
:class:`~repro.vmpi.mp_comm.CollectiveTimeoutError` (surfaced by
``run_spmd``) instead of hanging the test run.
"""

import dataclasses
import time
from functools import lru_cache

import numpy as np
import pytest

from repro.vmpi.collectives import (
    allgather_blocks,
    allreduce_blocks,
    alltoall_blocks,
    bcast_block,
    gather_blocks,
    reduce_scatter_blocks,
)
from repro.vmpi.mp_comm import CommConfig, run_spmd

GROUP_SIZES = (1, 2, 3, 4, 7, 8)
#: The layers under test: ProcessComm on the shm wire (id ``p2p-det``),
#: the in-process block collectives, and ProcessComm on the tcp wire.
TRANSPORTS = (
    "p2p-det",
    "blocks",
    pytest.param("tcp", marks=pytest.mark.transport_matrix),
)

# Thresholds chosen so one run exercises both allreduce algorithm
# families (payloads of <= 24 words go latency-optimal, larger ones
# bandwidth-optimal) and both transport encodings (payloads of >= 256
# bytes ride shared memory, smaller ones pickle).
_P2P_CONFIG = CommConfig(
    collective_timeout=60.0, shm_min_bytes=256, eager_max_words=24
)


def _payloads(rank: int) -> dict[str, np.ndarray]:
    """Deterministic integer-valued per-rank payloads."""
    rng = np.random.default_rng(1000 + rank)

    def ints(shape, dtype):
        return rng.integers(-8, 9, size=shape).astype(dtype)

    wide = ints((6, 8), np.float64)
    return {
        "f64": ints((3, 4), np.float64),
        "f32": ints((4, 3), np.float32),
        "int64": rng.integers(-8, 9, size=(2, 3)),
        "big": ints((25, 8), np.float64),  # 200 words: long allreduce + shm
        "empty": np.zeros((0, 3), dtype=np.float64),
        "scalar": np.array(float(rng.integers(-8, 9))),
        "noncontig": wide[::2, 1::2],  # 3x4 strided view
        "uneven": ints((7, 2), np.float64),  # extent 7 never divides 2..8
        "ragged": ints((rank + 1, 2), np.float64),  # per-rank extent
    }


# (name, op, payload key, kwargs) — every rank runs these in order.
CASES = [
    ("allreduce-f64", "allreduce", "f64", {}),
    ("allreduce-f32", "allreduce", "f32", {}),
    ("allreduce-int64", "allreduce", "int64", {}),
    ("allreduce-big", "allreduce", "big", {}),
    ("allreduce-empty", "allreduce", "empty", {}),
    ("allreduce-scalar", "allreduce", "scalar", {}),
    ("allreduce-noncontig", "allreduce", "noncontig", {}),
    ("reduce_scatter-axis0", "reduce_scatter", "f64", {"axis": 0}),
    ("reduce_scatter-axis1", "reduce_scatter", "big", {"axis": 1}),
    ("reduce_scatter-uneven", "reduce_scatter", "uneven", {"axis": 0}),
    ("reduce_scatter-empty", "reduce_scatter", "empty", {"axis": 1}),
    ("reduce_scatter-noncontig", "reduce_scatter", "noncontig", {"axis": 0}),
    ("allgather-axis0", "allgather", "f64", {"axis": 0}),
    ("allgather-axis1", "allgather", "f32", {"axis": 1}),
    ("allgather-ragged", "allgather", "ragged", {"axis": 0}),
    ("allgather-empty", "allgather", "empty", {"axis": 0}),
    # split 8 columns: even for p in {2, 4, 8}, uneven for 3 and 7
    ("alltoall-big", "alltoall", "big", {"split": 1, "concat": 0}),
    # split 7 rows: uneven everywhere, an empty slab at p = 8
    ("alltoall-uneven", "alltoall", "uneven", {"split": 0, "concat": 1}),
    # split 2 columns: empty slabs for every p >= 3
    ("alltoall-ragged", "alltoall", "ragged", {"split": 1, "concat": 0}),
    ("alltoall-empty", "alltoall", "empty", {"split": 1, "concat": 0}),
    ("alltoall-same-axis", "alltoall", "f32", {"split": 0, "concat": 0}),
    ("alltoall-noncontig", "alltoall", "noncontig", {"split": 1, "concat": 0}),
    ("bcast-root0", "bcast", "f64", {"root": 0}),
    ("bcast-rootlast", "bcast", "noncontig", {"root": -1}),
    ("bcast-big", "bcast", "big", {"root": 0}),
    ("gather-root0", "gather", "f32", {"root": 0}),
    ("gather-rootlast", "gather", "scalar", {"root": -1}),
    ("barrier", "barrier", "f64", {}),
]


def _resolve_root(root: int, size: int) -> int:
    return root % size


def _conformance_program(comm) -> dict[str, object]:
    """The SPMD program: run every case, return {case: result}."""
    mine = _payloads(comm.rank)
    out: dict[str, object] = {}
    for name, op, key, kwargs in CASES:
        block = mine[key]
        if op == "allreduce":
            out[name] = comm.allreduce(block)
        elif op == "reduce_scatter":
            out[name] = comm.reduce_scatter(block, axis=kwargs["axis"])
        elif op == "allgather":
            out[name] = comm.allgather(block, axis=kwargs["axis"])
        elif op == "alltoall":
            out[name] = comm.alltoall(
                block, kwargs["split"], kwargs["concat"]
            )
        elif op == "bcast":
            root = _resolve_root(kwargs["root"], comm.size)
            payload = block if comm.rank == root else None
            out[name] = comm.bcast(payload, root=root)
        elif op == "gather":
            root = _resolve_root(kwargs["root"], comm.size)
            out[name] = comm.gather(block, root=root)
        elif op == "barrier":
            out[name] = comm.barrier()
    return out


def _blocks_layer(size: int) -> list[dict[str, object]]:
    """Run the cases through the executable block collectives."""
    payloads = [_payloads(r) for r in range(size)]
    outs: list[dict[str, object]] = [{} for _ in range(size)]
    for name, op, key, kwargs in CASES:
        blocks = [p[key] for p in payloads]
        if op == "allreduce":
            results = allreduce_blocks(blocks)
        elif op == "reduce_scatter":
            results = reduce_scatter_blocks(blocks, axis=kwargs["axis"])
        elif op == "allgather":
            results = allgather_blocks(blocks, axis=kwargs["axis"])
        elif op == "alltoall":
            send = [
                np.array_split(b, size, axis=kwargs["split"]) for b in blocks
            ]
            results = [
                np.concatenate(row, axis=kwargs["concat"])
                for row in alltoall_blocks(send)
            ]
        elif op == "bcast":
            root = _resolve_root(kwargs["root"], size)
            results = bcast_block(blocks[root], size)
        elif op == "gather":
            root = _resolve_root(kwargs["root"], size)
            results = gather_blocks(blocks, root=root)
        elif op == "barrier":
            # No data moves; the block layer's barrier is a no-op.
            results = [None] * size
        for r in range(size):
            outs[r][name] = results[r]
    return outs


@lru_cache(maxsize=None)
def _run_layer(transport: str, size: int) -> tuple:
    if transport == "blocks":
        return tuple(_blocks_layer(size))
    if transport == "tcp":
        return tuple(
            run_spmd(
                _conformance_program,
                size,
                transport="tcp",
                config=_P2P_CONFIG,
            )
        )
    return tuple(
        run_spmd(
            _conformance_program, size, transport="shm", config=_P2P_CONFIG
        )
    )


def _reference(size: int) -> list[dict[str, object]]:
    """Pure-NumPy expected result of every case, per rank."""
    payloads = [_payloads(r) for r in range(size)]
    refs: list[dict[str, object]] = [{} for _ in range(size)]
    for name, op, key, kwargs in CASES:
        blocks = [p[key] for p in payloads]
        if op == "allreduce":
            total = blocks[0].copy()
            for b in blocks[1:]:
                total = total + b
            expected = [total] * size
        elif op == "reduce_scatter":
            total = blocks[0].copy()
            for b in blocks[1:]:
                total = total + b
            expected = np.array_split(total, size, axis=kwargs["axis"])
        elif op == "allgather":
            cat = np.concatenate(blocks, axis=kwargs["axis"])
            expected = [cat] * size
        elif op == "alltoall":
            expected = [
                np.concatenate(
                    [
                        np.array_split(b, size, axis=kwargs["split"])[j]
                        for b in blocks
                    ],
                    axis=kwargs["concat"],
                )
                for j in range(size)
            ]
        elif op == "bcast":
            root = _resolve_root(kwargs["root"], size)
            expected = [np.asarray(blocks[root])] * size
        elif op == "gather":
            root = _resolve_root(kwargs["root"], size)
            expected = [
                blocks if r == root else None for r in range(size)
            ]
        elif op == "barrier":
            expected = [None] * size
        for r in range(size):
            refs[r][name] = expected[r]
    return refs


def _assert_bit_identical(got, expected, ctx: str) -> None:
    if expected is None:
        assert got is None, ctx
        return
    if isinstance(expected, list):
        assert isinstance(got, list) and len(got) == len(expected), ctx
        for g, e in zip(got, expected):
            _assert_bit_identical(g, e, ctx)
        return
    got = np.asarray(got)
    expected = np.asarray(expected)
    assert got.dtype == expected.dtype, f"{ctx}: dtype {got.dtype}"
    assert got.shape == expected.shape, f"{ctx}: shape {got.shape}"
    assert np.array_equal(got, expected), ctx


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("size", GROUP_SIZES)
@pytest.mark.parametrize("case", [c[0] for c in CASES])
def test_conformance(transport, size, case):
    """Every collective, every layer, bit-identical to NumPy."""
    outs = _run_layer(transport, size)
    refs = _reference(size)
    for rank in range(size):
        _assert_bit_identical(
            outs[rank][case],
            refs[rank][case],
            f"{transport} p={size} rank={rank} {case}",
        )


def _traced_program(comm) -> list:
    """Run the full case list, return this rank's CollectiveRecords."""
    _conformance_program(comm)
    return list(comm.trace.records)


@lru_cache(maxsize=None)
def _run_traced(transport: str, size: int) -> tuple:
    return tuple(
        run_spmd(
            _traced_program, size, transport=transport, config=_P2P_CONFIG
        )
    )


@pytest.mark.transport_matrix
@pytest.mark.parametrize("size", (2, 3, 4))
def test_shm_and_tcp_traces_identical(size):
    """The two wires leave the same CollectiveRecord sequence.

    Every field — op, algorithm chosen, group size, message/word/byte
    counters, phase — must match record-for-record; ``shm_messages``
    is the one backend-specific column (how many payloads rode a
    shared-memory segment), necessarily zero on tcp, so it is the only
    field masked out.
    """
    shm = _run_traced("shm", size)
    tcp = _run_traced("tcp", size)
    for rank in range(size):
        assert len(shm[rank]) == len(tcp[rank]), f"p={size} rank={rank}"
        for i, (a, b) in enumerate(zip(shm[rank], tcp[rank])):
            assert b.shm_messages == 0, f"p={size} rank={rank} [{i}]"
            assert dataclasses.replace(a, shm_messages=0) == b, (
                f"p={size} rank={rank} record {i}: {a} != {b}"
            )


# (name, op, shape, kwargs): small payloads take the latency-optimal
# allreduce, large ones the bandwidth-optimal one (``_P2P_CONFIG``).
_ORDER_CASES = [
    ("allreduce-small", "allreduce", (3, 4), {}),
    ("allreduce-big", "allreduce", (25, 8), {}),
    ("reduce_scatter-axis0", "reduce_scatter", (7, 5), {"axis": 0}),
    ("reduce_scatter-axis1", "reduce_scatter", (6, 9), {"axis": 1}),
]


def _order_payload(rank: int, shape: tuple) -> np.ndarray:
    """Non-integer float64 values spanning several magnitudes, so
    floating-point sums of them depend on the order of the adds."""
    rng = np.random.default_rng(2000 + rank)
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)


def _order_program(comm) -> dict[str, np.ndarray]:
    out = {}
    for name, op, shape, kwargs in _ORDER_CASES:
        block = _order_payload(comm.rank, shape)
        if op == "allreduce":
            out[name] = comm.allreduce(block)
        else:
            out[name] = comm.reduce_scatter(block, **kwargs)
    return out


def test_deterministic_p2p_matches_blocks_bitwise():
    """With rank-order reductions the shm wire reproduces the
    left-to-right sums of the in-process block collectives
    bit-for-bit, on payloads where the summation order shows."""
    for size in (3, 4):
        outs = run_spmd(_order_program, size, config=_P2P_CONFIG)
        for name, op, shape, kwargs in _ORDER_CASES:
            blocks = [_order_payload(r, shape) for r in range(size)]
            # The payloads must expose the order: a reversed sum differs.
            assert not np.array_equal(sum(blocks), sum(blocks[::-1])), name
            if op == "allreduce":
                expected = allreduce_blocks(blocks)
            else:
                expected = reduce_scatter_blocks(blocks, **kwargs)
            for rank in range(size):
                _assert_bit_identical(
                    outs[rank][name], expected[rank], f"p={size} {name}"
                )


# ---------------------------------------------------------------------------
# deadlock safety: divergent sequences fail fast instead of hanging
# ---------------------------------------------------------------------------


def _prog_mismatched_ops(comm):
    if comm.rank == 0:
        comm.allreduce(np.ones(4))
    else:
        comm.barrier()


def _prog_mismatched_counts(comm):
    comm.allreduce(np.ones(4))
    if comm.rank == 0:
        comm.allreduce(np.ones(4))


def _prog_recv_nothing(comm):
    if comm.rank == 0:
        comm.recv(1, tag=7, timeout=1.0)


class TestDivergenceTimeout:
    @pytest.mark.parametrize(
        "transport",
        [
            "shm",
            pytest.param("tcp", marks=pytest.mark.transport_matrix),
        ],
    )
    def test_mismatched_ops_fail_fast(self, transport):
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="CollectiveTimeoutError"):
            run_spmd(
                _prog_mismatched_ops,
                2,
                transport=transport,
                collective_timeout=1.5,
                timeout=60.0,
            )
        assert time.monotonic() - start < 30.0

    def test_mismatched_counts_fail_fast(self):
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="diverged"):
            run_spmd(
                _prog_mismatched_counts,
                2,
                collective_timeout=1.5,
                timeout=60.0,
            )
        assert time.monotonic() - start < 30.0

    def test_point_to_point_recv_timeout(self):
        with pytest.raises(RuntimeError, match="CollectiveTimeoutError"):
            run_spmd(_prog_recv_nothing, 2, timeout=60.0)
