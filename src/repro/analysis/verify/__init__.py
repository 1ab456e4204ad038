"""Two-tier SPMD correctness analyzer for the mini-MPI stack.

Tier 1 (:mod:`.spmdlint`) is a static AST lint over SPMD driver code;
tier 1b (:mod:`.protocol`) is the whole-program collective-protocol
model checker behind ``repro lint --protocol``; tier 2
(:mod:`.runtime`) is the runtime collective-matching verifier,
deadlock detector, and shm-lifecycle sanitizer activated by
``CommConfig(verify=True)``, joined by the transport occupancy guard
(:mod:`.races`, SPMD223) behind ``CommConfig(race_detect=True)``, which
certifies that the overlap worker and its rank's main thread are never
inside one transport at once.  All tiers share the rule registry in
:mod:`.rules`.

This package is imported lazily by :mod:`repro.vmpi.mp_comm` (only
when verify mode is on) and must therefore never import from
:mod:`repro.vmpi` or the rest of :mod:`repro.analysis` at module
scope.
"""

from repro.analysis.verify.protocol import check_paths, check_source
from repro.analysis.verify.races import RaceError, TransportGuard
from repro.analysis.verify.rules import RULES, Baseline, Finding, Rule, rule
from repro.analysis.verify.runtime import (
    CollectiveMismatchError,
    CollectiveSignature,
    DeadlockError,
    ShmLifecycleError,
    ShmSanitizer,
    VerifyError,
    WaitMonitor,
    match_signatures,
)
from repro.analysis.verify.spmdlint import lint_paths, lint_source

__all__ = [
    "Baseline",
    "CollectiveMismatchError",
    "CollectiveSignature",
    "DeadlockError",
    "Finding",
    "RULES",
    "RaceError",
    "Rule",
    "ShmLifecycleError",
    "ShmSanitizer",
    "TransportGuard",
    "VerifyError",
    "WaitMonitor",
    "check_paths",
    "check_source",
    "lint_paths",
    "lint_source",
    "match_signatures",
    "rule",
]
