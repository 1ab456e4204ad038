#!/usr/bin/env python
"""Bit-parity digest of every execution layer's Tucker answers.

Runs a fixed matrix of small, seeded problems through the sequential,
simulated, in-process SPMD and process-parallel drivers and prints one
JSON object: sha256 prefixes of every core and factor, history floats
as exact hex, the simulated ledger's seconds and breakdowns, and for
the process-parallel runs rank 0's ``CommTrace`` records, the executed
per-iteration TTM counts and the memo-cache counters.  Wall-clock
fields are left out, so two runs of the same code print the same
bytes.

Only public driver functions are imported, so the script also runs
against older checkouts.  To check that a refactor kept every layer
bit-identical, run it under both trees and compare::

    PYTHONPATH=src python scripts/parity_digest.py --wire shm > new.json
    PYTHONPATH=<old>/src python scripts/parity_digest.py --wire shm > old.json
    cmp old.json new.json

``--wire`` picks the transport of the process-parallel runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import sys

import numpy as np

from repro.core.hooi import HOOIOptions, hooi
from repro.core.rank_adaptive import RankAdaptiveOptions, rank_adaptive_hooi
from repro.core.sthosvd import sthosvd
from repro.distributed.hooi import dist_hooi
from repro.distributed.mp_hooi import mp_hooi_dt, mp_rahosi_dt
from repro.distributed.mp_sthosvd import mp_sthosvd
from repro.distributed.rank_adaptive import dist_rank_adaptive_hooi
from repro.distributed.spmd import spmd_sthosvd
from repro.distributed.spmd_hooi import spmd_hooi
from repro.distributed.sthosvd import dist_sthosvd
from repro.linalg.llsv import LLSVMethod
from repro.tensor.random import tucker_plus_noise

#: name -> (tensor, starting ranks, processor grid)
INPUTS = {
    "f64x4": (
        tucker_plus_noise((10, 9, 8, 7), (3, 4, 2, 3), 1e-3, seed=7),
        (2, 3, 2, 2),
        (2, 1, 1, 2),
    ),
    "f64x3": (
        tucker_plus_noise((12, 10, 9), (4, 3, 5), 2e-3, seed=11),
        (4, 3, 5),
        (2, 2, 1),
    ),
    "f32x3": (
        tucker_plus_noise((12, 11, 10), (3, 4, 3), 1e-3, seed=5).astype(
            np.float32
        ),
        (2, 2, 2),
        (2, 1, 2),
    ),
}
KERNELS = {"subspace": LLSVMethod.SUBSPACE, "gram": LLSVMethod.GRAM_EVD}


def _sha(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()[:16]


def _hex(v: float | None) -> str | None:
    return None if v is None else float(v).hex()


def _tucker(t) -> dict:
    return {"core": _sha(t.core), "factors": [_sha(u) for u in t.factors]}


def _ledger(seconds: float, breakdown: dict[str, float]) -> dict:
    return {
        "seconds": _hex(seconds),
        "breakdown": {k: _hex(v) for k, v in sorted(breakdown.items())},
    }


def _history(history, *, with_seconds: bool) -> list[dict]:
    out = []
    for r in history:
        row = {
            "iteration": r.iteration,
            "ranks_used": list(r.ranks_used),
            "error": _hex(r.error),
            "satisfied": bool(r.satisfied),
            "storage_size": int(r.storage_size),
            "truncated_ranks": (
                None if r.truncated_ranks is None else list(r.truncated_ranks)
            ),
            "truncated_error": _hex(r.truncated_error),
            "truncated_storage": r.truncated_storage,
        }
        if with_seconds:  # simulated seconds; wall-clock ones are noise
            row["seconds"] = _hex(r.seconds)
        out.append(row)
    return out


def _ra_common(stats, *, with_seconds: bool) -> dict:
    return {
        "x_norm": _hex(stats.x_norm),
        "converged": bool(stats.converged),
        "first_satisfied": stats.first_satisfied,
        "history": _history(stats.history, with_seconds=with_seconds),
    }


def _mp_common(stats) -> dict:
    return {
        "trace": [dataclasses.asdict(r) for r in stats.trace.records],
        "per_iteration_ttms": list(stats.per_iteration_ttms),
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
        "used_tree": stats.used_tree,
    }


def ra_cases(wire: str) -> dict:
    out: dict = {}
    for name, (x, start, grid) in INPUTS.items():
        for tree, kernel, trunc, stop, eps in itertools.product(
            (True, False), KERNELS, ("exhaustive", "greedy"),
            (True, False), (1e-2, 1e-3),
        ):
            opts = RankAdaptiveOptions(
                max_iters=3,
                stop_at_threshold=stop,
                use_dimension_tree=tree,
                llsv_method=KERNELS[kernel],
                truncation=trunc,
                seed=3,
            )
            key = (
                f"{name}/{'tree' if tree else 'direct'}-{kernel}-{trunc}"
                f"-{'stop' if stop else 'full'}-eps{eps:g}"
            )
            t, s = rank_adaptive_hooi(x, eps, start, opts)
            out[f"ra/seq/{key}"] = {
                **_tucker(t), **_ra_common(s, with_seconds=False)
            }
            t, s = dist_rank_adaptive_hooi(x, eps, start, grid, options=opts)
            out[f"ra/dist/{key}"] = {
                **_tucker(t),
                **_ra_common(s, with_seconds=True),
                "iterations": [
                    _ledger(sec, brk)
                    for sec, brk in zip(
                        s.iteration_seconds, s.iteration_breakdowns
                    )
                ],
                "ledger": _ledger(s.simulated_seconds, s.breakdown),
            }
            # The mp layer on every tree/kernel/stop combination, with
            # the truncation rule alternating, at the looser budget.
            if eps == 1e-2 and (trunc == "greedy") == (tree != stop):
                t, s = mp_rahosi_dt(
                    x, eps, start, grid, opts, transport=wire
                )
                out[f"ra/mp/{key}"] = {
                    **_tucker(t),
                    **_ra_common(s, with_seconds=False),
                    **_mp_common(s),
                }
    return out


def hooi_cases(wire: str) -> dict:
    out: dict = {}
    for name, (x, start, grid) in INPUTS.items():
        ranks = tuple(min(r + 1, n) for r, n in zip(start, x.shape))
        for tree, kernel in itertools.product((True, False), KERNELS):
            opts = HOOIOptions(
                use_dimension_tree=tree,
                llsv_method=KERNELS[kernel],
                max_iters=2,
                seed=1,
            )
            key = f"{name}/{'tree' if tree else 'direct'}-{kernel}"
            t, s = hooi(x, ranks, opts)
            out[f"hooi/seq/{key}"] = {
                **_tucker(t), "errors": [_hex(e) for e in s.errors]
            }
            t, s = dist_hooi(x, ranks, grid, options=opts)
            out[f"hooi/dist/{key}"] = {
                **_tucker(t),
                "errors": [_hex(e) for e in s.errors],
                "ledger": _ledger(s.simulated_seconds, s.breakdown),
            }
            out[f"hooi/spmd/{key}"] = _tucker(spmd_hooi(x, ranks, grid, opts))
            t, s = mp_hooi_dt(x, ranks, grid, opts, transport=wire)
            out[f"hooi/mp/{key}"] = {**_tucker(t), **_mp_common(s)}
    return out


def sthosvd_cases(wire: str) -> dict:
    out: dict = {}
    for name, (x, _, grid) in INPUTS.items():
        for eps in (0.1, 0.01):
            key = f"{name}/eps{eps:g}"
            t, _ = sthosvd(x, eps=eps)
            out[f"st/seq/{key}"] = _tucker(t)
            t, s = dist_sthosvd(x, grid, eps=eps)
            out[f"st/dist/{key}"] = {
                **_tucker(t),
                "ledger": _ledger(s.simulated_seconds, s.breakdown),
            }
            out[f"st/spmd/{key}"] = _tucker(spmd_sthosvd(x, grid, eps=eps))
            out[f"st/mp/{key}"] = _tucker(
                mp_sthosvd(x, grid, eps=eps, transport=wire)
            )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--wire", choices=("shm", "tcp"), default="shm")
    args = parser.parse_args(argv)
    digest = {
        **ra_cases(args.wire),
        **hooi_cases(args.wire),
        **sthosvd_cases(args.wire),
    }
    json.dump(
        {"wire": args.wire, "configurations": len(digest), "runs": digest},
        sys.stdout,
        indent=1,
        sort_keys=True,
    )
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
