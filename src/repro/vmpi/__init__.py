"""Virtual MPI: a simulated distributed-memory substrate.

The paper runs on TuckerMPI (C++/MPI) on NERSC Perlmutter.  mpi4py is
unavailable here, so this subpackage provides the stand-in described in
DESIGN.md: a d-dimensional processor grid, faithful block-level
collectives (validated against NumPy references in the test suite), and
an alpha-beta-gamma machine model with a memory-bandwidth roofline.
Distributed algorithms execute their numerics exactly (semantically
global) while a :class:`~repro.vmpi.cost.CostLedger` charges per-rank
flop, memory and communication costs derived from the block layout —
the LogGP-style discrete simulation approach.  Simulated seconds are
reported for all scaling experiments.
"""

from repro.vmpi.collectives import (
    allgather_blocks,
    allreduce_blocks,
    alltoall_blocks,
    bcast_block,
    gather_blocks,
    reduce_scatter_blocks,
    select_allreduce_algorithm,
)
from repro.vmpi.cost import CostKind, CostLedger, PhaseCost
from repro.vmpi.faults import (
    EXIT_INJECTED_CRASH,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedRankCrash,
)
from repro.vmpi.grid import ProcessorGrid, candidate_grids, suggested_grids
from repro.vmpi.machine import MachineModel, perlmutter_like
from repro.vmpi.mp_comm import (
    CollectiveTimeoutError,
    CommConfig,
    ProcessComm,
    RankFailureError,
    run_spmd,
)
from repro.vmpi.trace import CollectiveRecord, CommTrace
from repro.vmpi.transport import (
    ShmPoolTransport,
    TcpSocketTransport,
    Transport,
    TransportClosedError,
)

__all__ = [
    "CollectiveRecord",
    "CollectiveTimeoutError",
    "CommConfig",
    "CommTrace",
    "CostKind",
    "CostLedger",
    "EXIT_INJECTED_CRASH",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedRankCrash",
    "MachineModel",
    "PhaseCost",
    "ProcessComm",
    "ProcessorGrid",
    "RankFailureError",
    "ShmPoolTransport",
    "TcpSocketTransport",
    "Transport",
    "TransportClosedError",
    "allgather_blocks",
    "allreduce_blocks",
    "alltoall_blocks",
    "bcast_block",
    "candidate_grids",
    "gather_blocks",
    "perlmutter_like",
    "reduce_scatter_blocks",
    "run_spmd",
    "select_allreduce_algorithm",
    "suggested_grids",
]
