"""Statistics of a run: tails and the trace breakdown.

A span is ``[name, start, end, parent, request, rank, counts]``; ``parent``
indexes the span's own list (one list per process and request).
"""

from __future__ import annotations

import math
from collections import defaultdict

SMALL_BYTES = 8 * 1024
MP_OPS = ("ra", "st")


def tail(values: list[float]) -> tuple[float, int, int]:
    """Highest whole percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)``; the nearest-rank percentile
    ``p = floor(100 (n - 10) / n)`` leaves at least ten samples above it.
    With fewer than 11 samples the tail is the maximum (percentile 100).
    """
    n = len(values)
    ordered = sorted(values)
    if n < 11:
        return ordered[-1], 100, n
    pct = (100 * (n - 10)) // n
    return ordered[max(math.ceil(pct * n / 100) - 1, 0)], pct, n


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append((end - start) - covered)
    return out


def match_messages(spans: list[list]) -> list[tuple[list, list]]:
    """Pair each ``transport.send`` with its ``transport.recv``.

    Messages are matched per request by (source, destination, tag) in
    order: the k-th send of a key pairs with the k-th receive of that key.
    """
    sends: dict[tuple, list] = defaultdict(list)
    recvs: dict[tuple, list] = defaultdict(list)
    for s in spans:
        if s[0] in ("transport.send", "transport.recv") and s[6] is not None:
            c = s[6]
            key = (s[4], c["src"], c["dst"], c["tag"])
            (sends if s[0] == "transport.send" else recvs)[key].append(s)
    pairs = []
    for key, ss in sends.items():
        rr = sorted(recvs.get(key, ()), key=lambda s: s[1])
        pairs.extend(zip(sorted(ss, key=lambda s: s[1]), rr))
    return pairs


def one_way_s(send: list, recv: list) -> float:
    """Delivery time once both sides were ready, on the shared clock."""
    return recv[2] - max(send[1], recv[1])


def collective_waits(spans: list[list]) -> dict[int, float]:
    """Per request: summed time the first rank into each collective waited
    for the last (collectives matched by name, group and order)."""
    calls: dict[tuple, dict[int, float]] = defaultdict(dict)
    seen: dict[tuple, int] = defaultdict(int)
    for s in sorted(spans, key=lambda s: s[1]):
        if not s[0].startswith("mp_comm.") or s[6] is None:
            continue
        group = tuple(s[6]["group"])
        if len(group) < 2:
            continue
        k = (s[4], s[5], s[0], group)
        calls[(s[4], s[0], group, seen[k])][s[5]] = s[1]
        seen[k] += 1
    waits: dict[int, float] = defaultdict(float)
    for (req, _, group, _), starts in calls.items():
        if set(starts) == set(group):
            waits[req] += max(starts.values()) - min(starts.values())
    return dict(waits)


def trace_rows(lists: list[list[list]], transport: dict, requests: list[dict]) -> dict:
    """Per-layer figures of each traced request, by op, plus the one-way
    times of small messages and the durations of small collectives.

    Times are self times, taken on the rank where each is largest; counts
    are exact.  Kernel flop and byte figures are computed from shapes.
    """
    per: dict[int, dict[int, dict]] = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
    program: dict[int, float] = defaultdict(float)
    wall: dict[int, float] = {}
    everything: list[list] = []
    for spans in lists:
        for s, own in zip(spans, self_times(spans)):
            name, req, rank, counts = s[0], s[4], s[5], s[6]
            if req < 0:
                continue
            everything.append(s)
            if name == "request":
                wall[req] = s[2] - s[1]
            elif name == "program":
                program[req] = max(program[req], s[2] - s[1])
            else:
                acc = per[req][rank]
                acc[f"{name}.s"] += own
                acc[f"{name}.calls"] += 1
                if counts and "flops" in counts:
                    acc[f"{name}.flops"] += counts["flops"]
                    acc[f"{name}.bytes"] += counts["bytes"]
                    acc[f"{name}.dtype"] = counts["dtype"]
    waits = collective_waits(everything)

    by_op: dict[str, list[dict]] = defaultdict(list)
    for req, w in wall.items():
        op = requests[req]["op"]
        row: dict = {}
        for acc in per[req].values():
            for key, val in acc.items():
                row[key] = val if key.endswith(".dtype") else max(row.get(key, 0.0), val)
        if op in MP_OPS:
            row["launch_s"] = w - program[req]
            row["mp_comm.wait_s"] = waits.get(req, 0.0)
            for k, v in transport.get(req, {}).items():
                row[f"transport.{k}"] = v
        by_op[op].append(row)

    return {
        "rows": dict(by_op),
        "small_msg_s": [
            one_way_s(s, r) for s, r in match_messages(everything) if s[6]["bytes"] <= SMALL_BYTES
        ],
        "small_call_s": [
            s[2] - s[1]
            for s in everything
            if s[0].startswith("mp_comm.") and s[6] is not None and s[6]["bytes"] <= SMALL_BYTES
        ],
    }
