"""Input generator, run in its own process so the client never holds the
generator's float64 working set.

    python -m ttebench.gen --workload miranda-shm --seed 1 --out DIR --cache CACHE

Writes ``DIR/x.npy`` (the input, in the dataset's dtype) and
``DIR/meta.json`` (shape, dtype, float64 squared norm, start ranks).  The
noise-free field is drawn with generator seed 0 and cached in ``CACHE``;
the benchmark seed draws only the noise realization, at the generator's
noise level.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
from pathlib import Path

import numpy as np

from repro.core import sthosvd
from repro.datasets.simulation import smooth_multilinear_field
from repro.tensor.dense import tensor_norm
from ttebench.workloads import FIELDS, WORKLOADS, start_ranks


def signal(field: str, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """The dataset generator's noise-free float64 field, drawn from ``rng``."""
    params = {k: v for k, v in FIELDS[field].items() if k not in ("noise", "dtype")}
    return smooth_multilinear_field(
        shape, noise=0.0, seed=rng, dtype=np.float64, **params
    )


def add_noise(
    field: str, sig: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Signal plus noise at the generator's level, cast to the dataset dtype.

    Same arithmetic as ``smooth_multilinear_field``: with ``rng`` continuing
    the generator that drew ``sig`` this reproduces the dataset exactly.
    """
    level = FIELDS[field]["noise"]
    pert = rng.standard_normal(sig.shape)
    out = sig + level * tensor_norm(sig) / max(tensor_norm(pert), 1e-300) * pert
    return out.astype(FIELDS[field]["dtype"], copy=False)


def cached_signal(field: str, shape: tuple[int, ...], cache: Path) -> np.ndarray:
    """The seed-0 field, cached under a key that changes with the generator."""
    key = hashlib.sha256(
        (inspect.getsource(smooth_multilinear_field) + repr((FIELDS[field], shape))).encode()
    ).hexdigest()[:16]
    path = cache / f"signal-{field}-{key}.npy"
    if path.exists():
        return np.load(path)
    sig = signal(field, shape, np.random.default_rng(0))
    tmp = path.with_suffix(".tmp.npy")
    np.save(tmp, sig)
    tmp.replace(path)
    return sig


def squared_norm_f64(x: np.ndarray) -> float:
    """Float64 sum of squares, one mode-0 slab at a time."""
    total = 0.0
    for i in range(0, x.shape[0], 16):
        s = np.asarray(x[i : i + 16], dtype=np.float64).ravel()
        total += float(np.dot(s, s))
    return total


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--cache", required=True)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    shape = tuple(wl["shape"])
    sig = cached_signal(wl["field"], shape, Path(args.cache))
    x = add_noise(wl["field"], sig, np.random.default_rng(args.seed))
    del sig
    perfect = sthosvd(x, eps=wl["eps"])[0].ranks
    np.save(out / "x.npy", x)
    meta = {
        "shape": list(shape),
        "dtype": str(x.dtype),
        "elements": math.prod(shape),
        "x_norm_sq": squared_norm_f64(x),
        "perfect_ranks": list(perfect),
        "start_ranks": list(start_ranks(perfect, wl["start"])),
    }
    (out / "meta.json").write_text(json.dumps(meta))


if __name__ == "__main__":
    main()
