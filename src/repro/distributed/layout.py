"""Block distribution of a dense tensor over a processor grid.

TuckerMPI block-distributes: grid coordinate ``c_j`` along mode ``j``
owns the ``c_j``-th of ``P_j`` near-equal slabs of that mode (NumPy
``array_split`` semantics, so uneven divisions are allowed and the
*maximum* block size — which governs load-imbalanced cost — can exceed
``n_j / P_j``).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.vmpi.grid import ProcessorGrid

__all__ = ["BlockLayout", "column_split"]


def _split_bounds(n: int, parts: int) -> list[tuple[int, int]]:
    """Start/stop of each of ``parts`` near-equal slabs of ``range(n)``."""
    sizes = [len(chunk) for chunk in np.array_split(np.arange(n), parts)]
    bounds, start = [], 0
    for s in sizes:
        bounds.append((start, start + s))
        start += s
    return bounds


class BlockLayout:
    """Maps grid coordinates to the sub-block each rank owns."""

    def __init__(self, shape: Sequence[int], grid: ProcessorGrid):
        self.shape = tuple(int(s) for s in shape)
        self.grid = grid
        if len(self.shape) != grid.ndim:
            raise ValueError(
                f"{len(self.shape)}-way tensor on a {grid.ndim}-way grid"
            )
        self.bounds = [
            _split_bounds(n, p) for n, p in zip(self.shape, grid.dims)
        ]

    def local_slices(self, coords: Sequence[int]) -> tuple[slice, ...]:
        """Slices of the global tensor owned by grid ``coords``."""
        coords = tuple(int(c) for c in coords)
        if len(coords) != len(self.shape):
            raise ValueError("coordinate order mismatch")
        return tuple(
            slice(*self.bounds[j][c]) for j, c in enumerate(coords)
        )

    def local_shape(self, coords: Sequence[int]) -> tuple[int, ...]:
        """Block extents owned by grid ``coords``."""
        return tuple(
            self.bounds[j][c][1] - self.bounds[j][c][0]
            for j, c in enumerate(coords)
        )

    def local_size(self, coords: Sequence[int]) -> int:
        """Entry count of the block owned by grid ``coords``."""
        return math.prod(self.local_shape(coords))

    def max_local_shape(self) -> tuple[int, ...]:
        """Largest block extent per mode (load-imbalance bound)."""
        return tuple(
            max(b - a for a, b in mode_bounds)
            for mode_bounds in self.bounds
        )

    def max_local_size(self) -> int:
        """Largest per-rank block size (drives per-rank-max costs)."""
        return math.prod(self.max_local_shape())

    def mode_share(self, mode: int) -> int:
        """Largest slab extent of ``mode`` (``ceil(n_j / P_j)``-ish)."""
        return max(b - a for a, b in self.bounds[mode])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BlockLayout(shape={self.shape}, grid={self.grid.dims})"


def column_split(block: np.ndarray, mode: int) -> tuple[np.ndarray, int]:
    """The block and axis of the all-to-all into the 1-D column layout.

    The Gram and Alg. 5's ``Z`` relayout the blocks of a mode
    sub-communicator so that each member holds full mode-``mode``
    fibers for its share of the columns: an all-to-all that splits
    every block along the returned axis and concatenates along
    ``mode``.  The axis is the block's largest non-mode axis, first
    among equals; the members of a mode group share every non-mode
    extent, so they all pick the same one.  A block with no non-mode
    axis (``d = 1``) is a single column: it gains a trailing unit axis,
    which the split hands whole to the first member.
    """
    if block.ndim == 1:
        return block[:, None], 1
    axes = [k for k in range(block.ndim) if k != mode]
    return block, max(axes, key=lambda k: (block.shape[k], -k))
