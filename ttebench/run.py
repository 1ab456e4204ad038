"""Time-to-epsilon benchmark of the rank-adaptive and STHOSVD solvers.

    python3 ttebench/run.py --workload miranda-shm --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout.  One run:

1. generates the input in its own process (``ttebench.gen``);
2. runs a single-client closed loop in ``SEGMENTS`` fresh interpreters
   (``ttebench.client``): each imports ``repro`` and makes the first request
   of each op (the cold start), then runs same-op blocks with a fixed idle
   gap after every request.  Request counts and block order are a fixed
   function of workload, seed and ``--seconds``;
3. probes the host (``ttebench.host``) and the steal time of the run window;
4. prints one line per metric, a ``detail:`` line with the per-run
   statistics and schedule, and the result object as the last line.

``--trace 0`` reports the end-to-end metrics from untraced requests.
``--trace 1`` adds traced requests and variants and reports the per-layer
metrics.  Exits non-zero without a result when the program or a check
cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from ttebench import analysis, host  # noqa: E402
from ttebench.workloads import OPS, WORKLOADS  # noqa: E402

SEGMENTS = 4
GAP_S = 0.05
COLD = ("st", "ra", "seq")
#: Shares of ``--seconds`` per op in an untraced run: ``st`` gets the most
#: because it is the slowest request and would otherwise have the fewest
#: samples.
SHARES = {("ra", "plain"): 0.3, ("st", "plain"): 0.45, ("seq", "plain"): 0.25}
MIN_PER_OP = 11
#: Whole-run deadline in seconds: child processes still running past it are
#: killed and the run fails.
DEADLINE_S = 170.0
#: Shares of ``--seconds`` per (op, mode) in a traced run.  Plain requests
#: give the bases, tails and CPU times; traced requests and the two ``ra``
#: variants mostly run at ``MIN_PER_OP``.  Launch probes are a fixed count
#: per segment.
TRACE_SHARES = {
    ("ra", "plain"): 0.25,
    ("st", "plain"): 0.2,
    ("seq", "plain"): 0.1,
    ("ra_noflight", "plain"): 0.08,
    ("ra_overlap", "plain"): 0.08,
    ("ra", "traced"): 0.05,
    ("st", "traced"): 0.05,
    ("seq", "traced"): 0.03,
}
LAUNCH_PER_SEGMENT = 4


def schedule(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Blocks of each segment: ``[op, count, mode]`` in a seeded order."""
    nominal = WORKLOADS[workload]["nominal_s"]
    shares = TRACE_SHARES if trace else SHARES
    rng = random.Random(seed)
    totals = {
        key: max(MIN_PER_OP, round(seconds * share / (nominal[key[0].split("_")[0]] + GAP_S)))
        for key, share in shares.items()
    }
    segments = []
    for k in range(SEGMENTS):
        blocks = [
            [op, total // SEGMENTS + (k < total % SEGMENTS), mode]
            for (op, mode), total in totals.items()
        ]
        rng.shuffle(blocks)
        if trace:
            blocks.append(["launch", LAUNCH_PER_SEGMENT, "plain"])
        segments.append({"cold": list(COLD), "blocks": blocks})
    return segments


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list[str], deadline: float) -> str:
    """Run ``python -m <args>`` as a new process group; kill the whole group on
    timeout or exit so no rank process outlives the run."""
    proc = subprocess.Popen(
        [sys.executable, "-m", *args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    finally:
        _kill_group(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited with {proc.returncode}")
    return out


def _group_alive(pgid: int) -> bool:
    """Whether a process of group ``pgid`` still runs (zombies have ended)."""
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid and fields[0] not in "ZX":
            return True
    return False


def _kill_group(proc: subprocess.Popen) -> None:
    """Reap ``proc``, let its group drain, then kill what is left."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    for sig in (None, signal.SIGKILL):
        if sig is not None:
            try:
                os.killpg(proc.pid, sig)
            except ProcessLookupError:
                return
        for _ in range(200):
            if not _group_alive(proc.pid):
                return
            time.sleep(0.01)


def steady(requests: list[dict], op: str) -> list[float]:
    return [r["wall"] for r in requests if r["op"] == op and r["block"] >= 0 and not r["traced"]]


def ratio(a: list[float], b: list[float]) -> float:
    return statistics.median(a) / statistics.median(b)


def peak_rss(seg: dict) -> float:
    """Largest peak resident set of a segment's client or any of its ranks."""
    return max(seg["maxrss_self_mb"], seg["maxrss_children_mb"])


def cold_excess(seg: dict, walls: dict) -> float:
    """A segment's first request of each op, net of that op's steady median."""
    return sum(seg["first"][op] - statistics.median(walls[op]) for op in OPS)


def end_to_end(segs: list[dict], meta: dict, walls: dict) -> dict:
    med = {op: statistics.median(walls[op]) for op in OPS}
    setup = [s["import_s"] + cold_excess(s, walls) for s in segs]
    refs = segs[0]["refs"]
    answers = [r for s in segs for r in s["requests"]]
    return {
        "ra_solve_s": (med["ra"], "s"),
        "st_solve_s": (med["st"], "s"),
        "seq_solve_s": (med["seq"], "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(peak_rss(s) for s in segs), "MiB"),
        "ra_compression": (meta["elements"] / refs["ra"]["storage"], "ratio"),
        "st_compression": (meta["elements"] / refs["st"]["storage"], "ratio"),
        "passed_frac": (sum(r["passed"] for r in answers) / len(answers), "fraction"),
    }


KERNELS = (("ra", "ttm"), ("st", "ttm"), ("st", "gram"), ("seq", "ttm"))
COLLECTIVES = {
    "ra": ("allreduce", "reduce_scatter", "allgather", "bcast", "gather"),
    "st": ("allreduce", "reduce_scatter", "allgather", "gather"),
}
SWEEP = {
    "ra": ("mp_ttm", "mp_subspace_llsv", "mp_gather_core"),
    "st": ("mp_gram", "mp_ttm", "mp_gather_core"),
}
LINALG = (("ra", "qrcp"), ("seq", "qrcp"), ("st", "gram_evd"), ("seq", "subspace_iteration_llsv"))


def per_layer(segs: list[dict], walls: dict, hostinfo: dict, steal: float, eps: float) -> dict:
    requests = [r for s in segs for r in s["requests"]]
    rows = {op: [row for s in segs for row in s["trace"]["rows"].get(op, ())] for op in OPS}

    def tr(op: str, key: str) -> float:
        """Median over traced requests; a layer a request skipped counts 0."""
        vals = [row.get(key, 0.0) for row in rows[op]]
        return vals[0] if isinstance(vals[0], str) else statistics.median(vals)

    m: dict[str, tuple[float, str]] = {}
    launch = [t for s in segs for t in s["launch"]]
    m["launch.world_s"] = (statistics.median(launch), "s")
    for op in ("ra", "st"):
        m[f"{op}.launch_s"] = (tr(op, "launch_s"), "s")
    m["client.rss_mb"] = (statistics.median(r["rss_mb"] for r in requests), "MiB")
    for op in ("ra", "st"):
        for k, unit in (("msgs", "count"), ("bytes", "B"), ("shm_msgs", "count")):
            m[f"{op}.transport.{k}"] = (tr(op, f"transport.{k}"), unit)
        m[f"{op}.transport.send_s"] = (tr(op, "transport.send.s"), "s")
        m[f"{op}.transport.recv_s"] = (tr(op, "transport.recv.s"), "s")
    small = [t for s in segs for t in s["trace"]["small_msg_s"]]
    m["transport.small_msg_s"] = (statistics.median(small), "s")
    for op, names in COLLECTIVES.items():
        for c in names:
            m[f"{op}.mp_comm.{c}.calls"] = (tr(op, f"mp_comm.{c}.calls"), "count")
            m[f"{op}.mp_comm.{c}.s"] = (tr(op, f"mp_comm.{c}.s"), "s")
        m[f"{op}.mp_comm.wait_s"] = (tr(op, "mp_comm.wait_s"), "s")
    calls = [t for s in segs for t in s["trace"]["small_call_s"]]
    m["mp_comm.small_call_s"] = (statistics.median(calls), "s")
    m["mp_comm.overlap_effect"] = (ratio(walls["ra_overlap"], walls["ra"]), "ratio")
    for op, names in SWEEP.items():
        for name in names:
            m[f"{op}.sweep.{name}.s"] = (tr(op, f"sweep.{name}.s"), "s")
    ra_answers = [r for r in requests if r["op"] == "ra"]
    m["mp_hooi.sweeps"] = (statistics.median(r["sweeps"] for r in ra_answers), "count")
    m["mp_hooi.ttms"] = (statistics.median(r["ttms"] for r in ra_answers), "count")
    hits = sum(r["cache_hits"] for r in ra_answers)
    lookups = hits + sum(r["cache_misses"] for r in ra_answers)
    m["mp_hooi.cache_hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    peak = {"f": hostinfo["gemm_f32_gflops"], "d": hostinfo["gemm_f64_gflops"]}
    for op, k in KERNELS:
        s, gflop = tr(op, f"kernels.{k}.s"), tr(op, f"kernels.{k}.flops") / 1e9
        gbyte = tr(op, f"kernels.{k}.bytes") / 1e9
        rate = gflop / s if s > 0 else 0.0
        bound = min(peak[tr(op, f"kernels.{k}.dtype")],
                    hostinfo["stream_gbps"] * gflop / gbyte if gbyte > 0 else float("inf"))
        pre = f"{op}.kernels.{k}"
        m[f"{pre}.calls"] = (tr(op, f"kernels.{k}.calls"), "count")
        m[f"{pre}.s"] = (s, "s")
        m[f"{pre}.gflop"] = (gflop, "GFLOP")
        m[f"{pre}.gbyte"] = (gbyte, "GB")
        m[f"{pre}.gflops"] = (rate, "GFLOP/s")
        m[f"{pre}.roofline_frac"] = (rate / bound if bound > 0 else 0.0, "fraction")
    for op, name in LINALG:
        m[f"{op}.linalg.{name}.s"] = (tr(op, f"linalg.{name}.s"), "s")
    for op in ("ra", "seq"):
        m[f"{op}.core.core_analysis.s"] = (tr(op, "core.core_analysis.s"), "s")
    refs = segs[0]["refs"]
    for op in OPS:
        m[f"{op}.core.rel_error"] = (refs[op]["rel_error"], "ratio")
    m["core.eps"] = (eps, "ratio")
    m["telemetry.flight_overhead"] = (ratio(walls["ra"], walls["ra_noflight"]), "ratio")
    m["telemetry.flight_base_s"] = (statistics.median(walls["ra_noflight"]), "s")
    imports = [s["import_s"] for s in segs]
    m["setup.import_s"] = (statistics.median(imports), "s")
    m["setup.first_call_s"] = (statistics.median(cold_excess(s, walls) for s in segs), "s")
    m["host.steal_frac"] = (steal, "fraction")
    for k in ("gemm_f32_gflops", "gemm_f64_gflops"):
        m[f"host.{k}"] = (hostinfo[k], "GFLOP/s")
    m["host.stream_gbps"] = (hostinfo["stream_gbps"], "GB/s")
    m["host.stream_bytes"] = (hostinfo["stream_bytes"], "B")
    m["host.l3_bytes"] = (hostinfo["l3_bytes"], "B")
    traced_ra = [r["wall"] for r in requests if r["op"] == "ra" and r["traced"]]
    m["bench.trace_overhead"] = (ratio(traced_ra, walls["ra"]), "ratio")
    m["bench.parallel_speedup"] = (ratio(walls["seq"], walls["ra"]), "ratio")
    # Base of overlap_effect, trace_overhead and parallel_speedup.
    m["ra.base_s"] = (statistics.median(walls["ra"]), "s")
    for op in OPS:
        cpu = [r["cpu"] for r in requests if r["op"] == op and r["block"] >= 0 and not r["traced"]]
        m[f"{op}.cpu_s"] = (statistics.median(cpu), "s")
        value, pct, n = analysis.tail(walls[op])
        m[f"{op}.solve_tail_s"] = (value, "s")
        m[f"{op}.solve_tail_pct"] = (pct, "pct")
        m[f"{op}.solve_tail_n"] = (n, "count")
    return m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    wl = WORKLOADS[args.workload]
    cache = ROOT / ".bench_build" / "ttebench"
    run_dir = cache / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        run_child(["ttebench.gen", "--workload", args.workload, "--seed", str(args.seed),
                   "--out", str(run_dir / "input"), "--cache", str(cache)], deadline)
        meta = json.loads((run_dir / "input" / "meta.json").read_text())
        plan = schedule(args.workload, args.seed, args.seconds, bool(args.trace))
        segs: list[dict] = []
        refs = None
        stat0 = host.read_stat()
        for k, seg in enumerate(plan):
            spec = {
                **seg,
                "input": str(run_dir / "input" / "x.npy"),
                "meta": meta,
                "eps": wl["eps"],
                "wire": wl["wire"],
                "gap_s": GAP_S,
                "refs": refs,
                "trace_dir": str(run_dir / f"trace-{k}") if args.trace else None,
                "out": str(run_dir / f"seg-{k}.json"),
            }
            (run_dir / f"spec-{k}.json").write_text(json.dumps(spec))
            run_child(["ttebench.client", str(run_dir / f"spec-{k}.json")], deadline)
            segs.append(json.loads((run_dir / f"seg-{k}.json").read_text()))
            refs = segs[0]["refs"]
        steal = host.steal_frac(stat0, host.read_stat())
        hostinfo = json.loads(run_child(["ttebench.host"], deadline))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    requests = [r for s in segs for r in s["requests"]]
    ops = sorted({r["op"] for r in requests})
    walls = {op: steady(requests, op) for op in ops}
    e2e = end_to_end(segs, meta, walls)
    metrics = per_layer(segs, walls, hostinfo, steal, wl["eps"]) if args.trace else e2e
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    refs = segs[0]["refs"]
    for op in OPS:
        ref = refs[op]
        verdict = "meets" if ref["meets_eps"] else "MISSES"
        reported = "" if ref["solver_error"] is None else f" (solver reports {ref['solver_error']:.6g})"
        print(f"{op}: float64 rel error {ref['rel_error']:.6g} {verdict} eps={wl['eps']}{reported}")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "steal_frac": steal,
        "host": hostinfo,
        "quartiles": {op: statistics.quantiles(walls[op], n=4) for op in ops},
        "samples": {op: len(walls[op]) for op in ops},
        "segment_peak_rss_mb": [peak_rss(s) for s in segs],
        "e2e": {k: v for k, (v, _) in e2e.items()},
        "schedule": plan,
    }
    print("detail: " + json.dumps(detail))
    answers = len(requests)
    passed = sum(r["passed"] for r in requests)
    result = {
        "correct": all(r["wellformed"] for r in requests),
        "attempted": answers,
        "failed": answers - passed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
