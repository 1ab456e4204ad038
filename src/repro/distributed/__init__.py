"""Distributed Tucker algorithms on the virtual-MPI substrate.

Execution model (see DESIGN.md): numerics run *semantically globally*
(one exact NumPy op per kernel, independent of the simulated rank
count), while every kernel charges the
:class:`~repro.vmpi.cost.CostLedger` the per-rank flop, memory and
communication costs implied by the block layout — so simulated time
scales with the processor grid exactly as the paper's Tables 1-2
predict.  Kernels also accept :class:`SymbolicArray` operands (shape
only, no data), which lets the strong-scaling experiments use the
paper's full tensor dimensions (3750^3, 560^4) without allocating them.
"""

from repro.distributed.arrays import SymbolicArray, is_concrete
from repro.distributed.checkpoint import (
    SweepCheckpoint,
    tensor_digest,
)
from repro.distributed.dist_tensor import DistTensor
from repro.distributed.hooi import (
    DistHOOIStats,
    DistributedTreeEngine,
    dist_hooi,
)
from repro.distributed.layout import BlockLayout
from repro.distributed.rank_adaptive import (
    DistRankAdaptiveStats,
    dist_rank_adaptive_hooi,
)
from repro.distributed.mp_hooi import (
    MPHooiStats,
    MPRankAdaptiveStats,
    MPTreeEngine,
    mp_hooi_dt,
    mp_rahosi_dt,
)
from repro.distributed.mp_sthosvd import mp_sthosvd
from repro.distributed.recovery import (
    RecoveryEvent,
    RecoveryManager,
    run_elastic,
)
from repro.distributed.spmd import (
    gather_tensor,
    scatter_tensor,
    spmd_gram,
    spmd_sthosvd,
    spmd_ttm,
)
from repro.distributed.sthosvd import DistSTHOSVDStats, dist_sthosvd

__all__ = [
    "gather_tensor",
    "mp_hooi_dt",
    "mp_rahosi_dt",
    "mp_sthosvd",
    "scatter_tensor",
    "spmd_gram",
    "spmd_sthosvd",
    "spmd_ttm",
    "BlockLayout",
    "DistHOOIStats",
    "DistRankAdaptiveStats",
    "DistSTHOSVDStats",
    "DistTensor",
    "DistributedTreeEngine",
    "MPHooiStats",
    "MPRankAdaptiveStats",
    "MPTreeEngine",
    "RecoveryEvent",
    "RecoveryManager",
    "SweepCheckpoint",
    "SymbolicArray",
    "dist_hooi",
    "dist_rank_adaptive_hooi",
    "dist_sthosvd",
    "is_concrete",
    "run_elastic",
    "tensor_digest",
]
