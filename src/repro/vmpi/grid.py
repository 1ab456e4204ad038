"""d-dimensional processor grids (TuckerMPI's ``Processor grid dims``).

A grid assigns each of ``P`` ranks a coordinate in a
``P_1 x ... x P_d`` lattice; the tensor is block-distributed
accordingly, and each collective in a distributed kernel runs inside a
per-mode sub-communicator of size ``P_j``.  Grid choice matters (paper
§4): STHOSVD favours ``P_1 = 1`` and the dimension-tree HOOI variants
favour ``P_1 = P_d = 1``; experiments search a candidate set and report
the fastest, mirroring the paper's methodology.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

import numpy as np

__all__ = ["ProcessorGrid", "candidate_grids", "suggested_grids"]


class ProcessorGrid:
    """Cartesian rank lattice of shape ``dims`` (C-order rank layout)."""

    def __init__(self, dims: Sequence[int]):
        self.dims = tuple(int(x) for x in dims)
        if not self.dims:
            raise ValueError("grid needs at least one dimension")
        if any(x < 1 for x in self.dims):
            raise ValueError(f"grid dims must be positive, got {self.dims}")
        self.size = math.prod(self.dims)

    @property
    def ndim(self) -> int:
        return len(self.dims)

    def coords(self, rank: int) -> tuple[int, ...]:
        """Grid coordinates of ``rank``."""
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range for size {self.size}")
        return tuple(int(c) for c in np.unravel_index(rank, self.dims))

    def rank(self, coords: Sequence[int]) -> int:
        """Rank of grid ``coords``."""
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.ndim:
            raise ValueError("coordinate order mismatch")
        for c, n in zip(coords, self.dims):
            if not 0 <= c < n:
                raise ValueError(f"coords {coords} outside grid {self.dims}")
        return int(np.ravel_multi_index(coords, self.dims))

    def mode_size(self, mode: int) -> int:
        """Sub-communicator size along ``mode`` (``P_j``)."""
        return self.dims[mode]

    def mode_comm_ranks(self, mode: int, coords: Sequence[int]) -> list[int]:
        """Ranks in the mode-``mode`` sub-communicator through ``coords``."""
        coords = list(coords)
        out = []
        for c in range(self.dims[mode]):
            coords[mode] = c
            out.append(self.rank(coords))
        return out

    def iter_ranks(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        """Yield ``(rank, coords)`` for every rank in order."""
        for r in range(self.size):
            yield r, self.coords(r)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcessorGrid({'x'.join(map(str, self.dims))})"


def _prime_factors(p: int) -> list[int]:
    out: list[int] = []
    f = 2
    while f * f <= p:
        while p % f == 0:
            out.append(f)
            p //= f
        f += 1
    if p > 1:
        out.append(p)
    return out


def _spread(p: int, slots: int) -> tuple[int, ...]:
    """Factor ``p`` across ``slots`` as evenly as possible."""
    dims = [1] * slots
    for f in sorted(_prime_factors(p), reverse=True):
        j = int(np.argmin(dims))
        dims[j] *= f
    return tuple(sorted(dims, reverse=True))


def candidate_grids(p: int, d: int) -> list[tuple[int, ...]]:
    """All ordered factorizations of ``p`` into ``d`` grid dimensions.

    Exhaustive — intended for small ``p`` (tests) or offline sweeps; the
    experiment harness uses :func:`suggested_grids`.
    """
    if p < 1 or d < 1:
        raise ValueError("p and d must be positive")

    def rec(remaining: int, slots: int) -> Iterator[tuple[int, ...]]:
        if slots == 1:
            yield (remaining,)
            return
        for f in range(1, remaining + 1):
            if remaining % f == 0:
                for rest in rec(remaining // f, slots - 1):
                    yield (f, *rest)

    return list(rec(p, d))


def suggested_grids(
    p: int,
    d: int,
    shape: Sequence[int] | None = None,
) -> list[tuple[int, ...]]:
    """Heuristic grid candidates for an experiment at ``p`` ranks.

    Includes balanced grids, ``P_1 = 1`` grids (good for STHOSVD),
    ``P_1 = P_d = 1`` grids (good for dimension-tree HOOI), and
    last-mode-only grids.  When ``shape`` is given, grids asking for
    more ranks than a mode has slabs are dropped (load imbalance would
    make them strictly worse).
    """
    if p < 1 or d < 1:
        raise ValueError("p and d must be positive")
    cands: set[tuple[int, ...]] = set()
    cands.add(_spread_to(p, d, active=list(range(d))))
    cands.add(_spread_to(p, d, active=list(range(1, d))))  # P_1 = 1
    if d >= 3:
        cands.add(_spread_to(p, d, active=list(range(1, d - 1))))  # P_1=P_d=1
    cands.add(_spread_to(p, d, active=[d - 1]))  # all in last mode
    if d >= 2:
        cands.add(_spread_to(p, d, active=[d - 2, d - 1]))
    out = []
    for g in sorted(cands):
        if shape is not None and any(
            gj > nj for gj, nj in zip(g, shape)
        ):
            continue
        out.append(g)
    # Never return an empty candidate list: fall back to a single-slot
    # grid in the largest mode, capped at its extent.
    if not out:
        g = [1] * d
        j = int(np.argmax(shape)) if shape is not None else d - 1
        g[j] = min(p, shape[j]) if shape is not None else p
        out.append(tuple(g))
    return out


def _spread_to(p: int, d: int, active: list[int]) -> tuple[int, ...]:
    """Spread ``p`` over the ``active`` mode slots, 1 elsewhere."""
    if not active:
        active = list(range(d))
    packed = _spread(p, len(active))
    dims = [1] * d
    # Larger factors go to later modes (they usually have larger extents
    # in the paper's datasets, e.g. the time mode).
    for slot, f in zip(sorted(active), sorted(packed)):
        dims[slot] = f
    # Put the residual product in the last active slot if rounding left
    # any imbalance (cannot happen with _spread, but keep the invariant).
    assert math.prod(dims) == p
    return tuple(dims)


def grid_product_check(dims: Sequence[int], p: int) -> bool:
    """Whether ``dims`` is a valid grid for ``p`` ranks."""
    return math.prod(int(x) for x in dims) == int(p)
