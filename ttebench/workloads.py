"""Workload table of the time-to-epsilon benchmark (pure Python, no numpy).

Every workload decomposes one fixed field (generator seed 0) plus a noise
realization drawn from the benchmark seed, on 2 rank processes split along
mode 0, with BLAS pinned to one thread per process.  Start ranks follow the
paper's Fig. 4: ``perfect`` is the STHOSVD ranks at eps on the same input,
``under`` is 75% of them.
"""

from __future__ import annotations

OPS = ("ra", "st", "seq")

#: Parameters of ``repro.datasets.simulation.miranda_like`` /
#: ``hcci_like``; ``ttebench/tests/test_ttebench.py`` pins that these reproduce the
#: dataset generators bit for bit.
FIELDS = {
    "miranda": {
        "num_terms": 48,
        "decay": 0.78,
        "smoothness": 1.2,
        "noise": 5e-4,
        "dtype": "float32",
    },
    "hcci": {
        "num_terms": 32,
        "decay": 0.8,
        "smoothness": 1.4,
        "noise": 1e-6,
        "dtype": "float64",
    },
}

#: ``nominal_s`` is a fixed per-request cost used only to size the
#: schedule: request counts are a function of ``--seconds`` and these
#: constants, never of how fast a run goes.
WORKLOADS = {
    "miranda-shm": {
        "field": "miranda",
        "shape": (256, 256, 256),
        "eps": 0.01,
        "start": "perfect",
        "wire": "shm",
        "nominal_s": {"ra": 0.12, "st": 0.34, "seq": 0.07},
    },
    "hcci-shm": {
        "field": "hcci",
        "shape": (64, 64, 9, 48),
        "eps": 0.01,
        "start": "under",
        "wire": "shm",
        "nominal_s": {"ra": 0.13, "st": 0.15, "seq": 0.026},
    },
    "hcci-tcp": {
        "field": "hcci",
        "shape": (64, 64, 9, 48),
        "eps": 0.01,
        "start": "under",
        "wire": "tcp",
        "nominal_s": {"ra": 0.10, "st": 0.13, "seq": 0.026},
    },
}


def grid_dims(shape: tuple[int, ...]) -> tuple[int, ...]:
    """2 ranks split along mode 0."""
    return (2,) + (1,) * (len(shape) - 1)


def start_ranks(perfect: tuple[int, ...], start: str) -> tuple[int, ...]:
    """Fig. 4 start ranks from the STHOSVD ranks at eps."""
    if start == "perfect":
        return tuple(perfect)
    if start == "under":
        return tuple(max(1, (3 * r) // 4) for r in perfect)
    raise ValueError(f"unknown start {start!r}")
