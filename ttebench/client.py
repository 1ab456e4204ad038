"""Single-client closed loop of decomposition requests, one segment per
fresh interpreter.

    python -m ttebench.client SPEC.json

A segment imports ``repro`` (timed), loads the input, makes the first
request of each op (timed: the cold start), then runs its blocks of
same-op requests.  After each request it checks the answer, then idles
until a fixed gap has passed since the request returned, so pacing does
not depend on how fast the run goes.  The result is written as JSON to
``SPEC["out"]``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def rss_mb() -> float:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * resource.getpagesize() / 2**20


def cpu_s() -> float:
    """CPU seconds of this process plus its reaped children (the ranks)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def barrier_program(comm) -> None:
    comm.barrier()


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    t0 = time.perf_counter()
    import repro  # noqa: F401  (the import users pay)
    from repro.core import rank_adaptive_hooi
    from repro.distributed.mp_hooi import mp_rahosi_dt
    from repro.distributed.mp_sthosvd import mp_sthosvd
    from repro.vmpi.mp_comm import CommConfig, run_spmd

    import_s = time.perf_counter() - t0

    import numpy as np

    from ttebench import check
    from ttebench.workloads import grid_dims

    x = np.load(spec["input"])
    meta = spec["meta"]
    eps, wire = spec["eps"], spec["wire"]
    grid = grid_dims(x.shape)
    ranks = tuple(meta["start_ranks"])
    configs = {
        "ra": None,
        "ra_noflight": CommConfig(flight=False),
        "ra_overlap": CommConfig(overlap=True),
    }

    def run_op(op: str):
        if op == "st":
            return mp_sthosvd(x, grid, eps=eps, transport=wire), {}
        if op == "seq":
            tt, stats = rank_adaptive_hooi(x, eps, ranks)
            return tt, {
                "sweeps": len(stats.history),
                "solver_error": stats.history[-1].truncated_error,
            }
        tt, stats = mp_rahosi_dt(
            x, eps, ranks, grid, transport=wire, comm_config=configs[op]
        )
        return tt, {
            "sweeps": len(stats.history),
            "ttms": sum(stats.per_iteration_ttms),
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
            "solver_error": stats.history[-1].truncated_error,
        }

    refs: dict = spec.get("refs") or {}
    tracer = None
    if spec.get("trace_dir"):
        from ttebench.tracer import Tracer

        tracer = Tracer(Path(spec["trace_dir"]))
    requests: list[dict] = []

    def request(op: str, block: int, traced: bool) -> tuple[dict, float]:
        """One checked request; returns its record and when it returned."""
        base = op.split("_")[0]
        rss = rss_mb()
        c0 = cpu_s()
        t = time.perf_counter()
        if traced:
            tracer.req = len(requests)
            tt, info = tracer.call("request", run_op, (op,), {})
        else:
            tt, info = run_op(op)
        done = time.perf_counter()
        wall = done - t
        cpu = cpu_s() - c0
        dig = check.digest(tt.core, tt.factors)
        if base not in refs:
            refs[base] = {
                "digest": dig,
                "storage": tt.storage_size(),
                "solver_error": info.get("solver_error"),
                **check.full_check(x, meta["x_norm_sq"], eps, tt.core, tt.factors),
            }
        ref = refs[base]
        wellformed = dig == ref["digest"] and ref["orthonormal"] and ref["finite"]
        rec = {
            "op": op,
            "block": block,
            "traced": traced,
            "wall": wall,
            "cpu": cpu,
            "rss_mb": rss,
            "wellformed": wellformed,
            "passed": wellformed and ref["meets_eps"],
            **info,
        }
        requests.append(rec)
        return rec, done

    def pause(since: float) -> None:
        rest = spec["gap_s"] - (time.perf_counter() - since)
        if rest > 0:
            time.sleep(rest)

    first = {}
    for op in spec["cold"]:
        rec, done = request(op, -1, False)
        first[op] = rec["wall"]
        pause(done)

    launch = []
    for b, (op, n, mode) in enumerate(spec["blocks"]):
        if mode == "traced":
            tracer.install()
        try:
            for _ in range(n):
                if op == "launch":
                    t = time.perf_counter()
                    run_spmd(barrier_program, 2, transport=wire)
                    done = time.perf_counter()
                    launch.append(done - t)
                else:
                    done = request(op, b, mode == "traced")[1]
                pause(done)
        finally:
            if mode == "traced":
                tracer.uninstall()

    out = {
        "import_s": import_s,
        "first": first,
        "requests": requests,
        "refs": refs,
        "launch": launch,
        "maxrss_self_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "maxrss_children_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    if tracer is not None:
        from ttebench import analysis

        lists, transport = tracer.load()
        out["trace"] = analysis.trace_rows(lists, transport, requests)
    Path(spec["out"]).write_text(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1])
