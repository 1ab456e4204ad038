"""Cost accounting for the simulated machine.

The ledger records, per *phase* (``"gram"``, ``"evd"``, ``"ttm"``,
``"qrcp"``, ``"contraction"``, ``"core_analysis"``, ...), three kinds of
charges:

* ``COMPUTE`` — a parallel kernel step; caller supplies the per-rank
  *maximum* flops and memory words, the ledger converts to seconds via
  the roofline.
* ``SEQUENTIAL`` — a redundant or rank-0 kernel (EVD, QRCP, core
  analysis) charged at a single core's flop rate.
* ``COMM`` — a communication step; caller supplies per-rank maximum
  words and message count, converted via alpha-beta.

Besides simulated seconds, raw per-rank flop and word counters are kept
so the Table 1 / Table 2 benchmarks can compare *measured* leading-order
counts against the paper's closed forms.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.vmpi.machine import MachineModel

__all__ = ["CostKind", "PhaseCost", "CostLedger"]


class CostKind(enum.Enum):
    COMPUTE = "compute"
    SEQUENTIAL = "sequential"
    COMM = "comm"


@dataclass
class PhaseCost:
    """Accumulated charges for one phase."""

    seconds: float = 0.0
    #: per-rank-max parallel flops, summed over steps
    flops: float = 0.0
    #: redundant/sequential flops, summed over steps
    seq_flops: float = 0.0
    #: per-rank-max communicated words, summed over steps
    words: float = 0.0
    #: per-rank-max message count, summed over steps
    messages: float = 0.0

    def merge(self, other: "PhaseCost") -> None:
        """Accumulate another phase's charges into this one."""
        self.seconds += other.seconds
        self.flops += other.flops
        self.seq_flops += other.seq_flops
        self.words += other.words
        self.messages += other.messages


class CostLedger:
    """Per-phase simulated-time and volume accounting.

    Parameters
    ----------
    machine:
        The :class:`~repro.vmpi.machine.MachineModel` converting counts
        to seconds.
    p:
        Number of simulated ranks (fixed for the ledger's lifetime; the
        roofline needs it to apportion node memory bandwidth).
    """

    def __init__(self, machine: MachineModel, p: int) -> None:
        if p < 1:
            raise ValueError("rank count must be positive")
        self.machine = machine
        self.p = int(p)
        self.phases: dict[str, PhaseCost] = {}
        #: largest per-rank resident set (words) any kernel step noted
        self.peak_words: float = 0.0

    def note_memory(self, words: float) -> None:
        """Record a kernel step's per-rank resident footprint (words)."""
        if words > self.peak_words:
            self.peak_words = float(words)

    def memory_feasible(self, *, dtype_bytes: int = 8) -> bool:
        """Whether the recorded peak fits each rank's DRAM share."""
        budget = self.machine.mem_words_per_rank(self.p) * 8 / dtype_bytes
        return self.peak_words <= budget

    def _phase(self, phase: str) -> PhaseCost:
        return self.phases.setdefault(phase, PhaseCost())

    # -- charging ---------------------------------------------------------

    def compute(
        self, phase: str, flops: float, mem_words: float = 0.0
    ) -> float:
        """Charge a parallel kernel step; returns the seconds charged."""
        dt = self.machine.compute_seconds(flops, mem_words, self.p)
        entry = self._phase(phase)
        entry.seconds += dt
        entry.flops += flops
        return dt

    def sequential(self, phase: str, flops: float) -> float:
        """Charge a sequential/redundant kernel step."""
        dt = self.machine.sequential_seconds(flops)
        entry = self._phase(phase)
        entry.seconds += dt
        entry.seq_flops += flops
        return dt

    def comm(self, phase: str, words: float, messages: float = 1.0) -> float:
        """Charge a communication step (per-rank max words/messages)."""
        if words <= 0 and messages <= 0:
            return 0.0
        dt = self.machine.comm_seconds(words, messages)
        entry = self._phase(phase)
        entry.seconds += dt
        entry.words += words
        entry.messages += messages
        return dt

    # -- reporting ---------------------------------------------------------

    def seconds(self, phase: str | None = None) -> float:
        """Simulated seconds of one phase, or the total when omitted."""
        if phase is not None:
            return self.phases.get(phase, PhaseCost()).seconds
        return sum(c.seconds for c in self.phases.values())

    def total_flops(self) -> float:
        """Per-rank-max parallel flops across all phases."""
        return sum(c.flops for c in self.phases.values())

    def total_seq_flops(self) -> float:
        """Sequential/redundant flops across all phases."""
        return sum(c.seq_flops for c in self.phases.values())

    def total_words(self) -> float:
        """Per-rank-max communicated words across all phases."""
        return sum(c.words for c in self.phases.values())

    def breakdown(self) -> dict[str, float]:
        """Phase -> simulated seconds, sorted descending."""
        return dict(
            sorted(
                ((k, v.seconds) for k, v in self.phases.items()),
                key=lambda kv: -kv[1],
            )
        )

    def merge(self, other: "CostLedger") -> None:
        """Fold another ledger (same machine/p) into this one."""
        if other.p != self.p:
            raise ValueError("cannot merge ledgers with different rank counts")
        for phase, cost in other.phases.items():
            self._phase(phase).merge(cost)

    def snapshot(self) -> dict[str, PhaseCost]:
        """Deep copy of the phase table (for per-iteration deltas)."""
        return {
            k: PhaseCost(v.seconds, v.flops, v.seq_flops, v.words, v.messages)
            for k, v in self.phases.items()
        }

    def seconds_since(self, snap: dict[str, PhaseCost]) -> float:
        """Total simulated seconds accrued since ``snapshot()``."""
        before = sum(c.seconds for c in snap.values())
        return self.seconds() - before

    def breakdown_since(self, snap: dict[str, PhaseCost]) -> dict[str, float]:
        """Per-phase seconds accrued since ``snapshot()`` (zeros dropped)."""
        out: dict[str, float] = {}
        for phase, cost in self.phases.items():
            delta = cost.seconds - (
                snap[phase].seconds if phase in snap else 0.0
            )
            if delta > 0:
                out[phase] = delta
        return out
