"""Shared rule registry of the SPMD correctness analyzer.

Both tiers of :mod:`repro.analysis.verify` — the static AST lint
(:mod:`~repro.analysis.verify.spmdlint`) and the runtime
collective-matching verifier (:mod:`~repro.analysis.verify.runtime`)
— draw their rule IDs, severities, and one-line summaries from the
single table below, so ``repro lint --list-rules`` documents the whole
contract and CI can assert "0 static findings, 0 dynamic mismatches"
against one vocabulary.

Static rules (``SPMD1xx``) are reported as :class:`Finding` records
with a ``file:line``; dynamic rules (``SPMD2xx``) surface as typed
exceptions carrying the rule ID (see the runtime module).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "Baseline",
    "Finding",
    "RULES",
    "Rule",
    "Severity",
    "filter_findings",
    "rule",
]


#: Severity vocabulary.  ``error`` findings fail ``repro lint``;
#: ``warning`` findings fail only under ``--strict``.
Severity = str

STATIC = "static"
DYNAMIC = "dynamic"


@dataclass(frozen=True)
class Rule:
    """One entry of the analyzer's rule catalog."""

    id: str
    tier: str  # "static" | "dynamic"
    severity: Severity  # "error" | "warning"
    summary: str


_RULE_TABLE: tuple[Rule, ...] = (
    # -- tier 1: static AST lint -------------------------------------------
    Rule(
        "SPMD101",
        STATIC,
        "error",
        "collective reachable only under rank-dependent control flow",
    ),
    Rule(
        "SPMD102",
        STATIC,
        "error",
        "collective root/op argument drifts across ranks or branches",
    ),
    Rule(
        "SPMD103",
        STATIC,
        "error",
        "point-to-point send/recv with no matching counterpart",
    ),
    Rule(
        "SPMD104",
        STATIC,
        "warning",
        "unseeded or process-global RNG use inside an SPMD region",
    ),
    Rule(
        "SPMD105",
        STATIC,
        "warning",
        "shared-memory handle escapes its pool scope without close/unlink",
    ),
    Rule(
        "SPMD106",
        STATIC,
        "warning",
        "phase tag literal outside the shared PHASES vocabulary",
    ),
    # -- tier 1b: whole-program protocol model checker ----------------------
    Rule(
        "SPMD121",
        STATIC,
        "error",
        "loop trip count around collectives diverges across ranks",
    ),
    Rule(
        "SPMD122",
        STATIC,
        "error",
        "rank-dependent conditional collective without a matching arm",
    ),
    Rule(
        "SPMD123",
        STATIC,
        "error",
        "phase tag differs across ranks at a matched protocol position",
    ),
    Rule(
        "SPMD124",
        STATIC,
        "error",
        "p2p tag collides with a reserved control-plane namespace",
    ),
    Rule(
        "SPMD125",
        STATIC,
        "error",
        "unmatched send/recv in the whole-program protocol",
    ),
    Rule(
        "SPMD126",
        STATIC,
        "error",
        "protocol event issued after the rank's shutdown point",
    ),
    # -- tier 2: runtime verifier ------------------------------------------
    Rule(
        "SPMD201",
        DYNAMIC,
        "error",
        "collective signature mismatch across group members",
    ),
    Rule(
        "SPMD202",
        DYNAMIC,
        "error",
        "collective sequence diverged (skipped or reordered call)",
    ),
    Rule(
        "SPMD203",
        DYNAMIC,
        "error",
        "deadlock cycle in the in-flight wait-for graph",
    ),
    Rule(
        "SPMD211",
        DYNAMIC,
        "error",
        "shm segment reused while a peer may still read it",
    ),
    Rule(
        "SPMD212",
        DYNAMIC,
        "error",
        "shm segment released twice (duplicated credit message)",
    ),
    Rule(
        "SPMD213",
        DYNAMIC,
        "error",
        "shm segment still in flight at rank exit (leak)",
    ),
    # -- tier 2: transport occupancy guard ----------------------------------
    Rule(
        "SPMD223",
        DYNAMIC,
        "error",
        "two threads concurrently inside one transport endpoint",
    ),
)

RULES: dict[str, Rule] = {r.id: r for r in _RULE_TABLE}


def rule(rule_id: str) -> Rule:
    """Look up a rule by ID (raises ``KeyError`` on unknown IDs)."""
    return RULES[rule_id]


@dataclass(frozen=True)
class Finding:
    """One static-lint finding, pinned to a ``file:line``.

    ``source`` carries the stripped source line the finding anchors to;
    it feeds the line-number-insensitive baseline fingerprint.
    """

    rule_id: str
    path: str
    line: int
    message: str
    source: str = ""

    @property
    def severity(self) -> Severity:
        return RULES[self.rule_id].severity

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}: {self.rule_id} "
            f"{self.severity}: {self.message}"
        )

    def fingerprint(self) -> str:
        """Stable identity for baselining: file + rule + source text
        (not the line number, which churns on unrelated edits)."""
        key = f"{self.path}:{self.rule_id}:{self.source}"
        return hashlib.sha1(key.encode()).hexdigest()[:16]


class Baseline:
    """A set of accepted finding fingerprints persisted as JSON."""

    def __init__(self, fingerprints: set[str] | None = None) -> None:
        self.fingerprints = set(fingerprints or ())

    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        data = json.loads(Path(path).read_text())
        return cls(set(data.get("fingerprints", ())))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(
                {"version": 1, "fingerprints": sorted(self.fingerprints)},
                indent=2,
            )
            + "\n"
        )

    @classmethod
    def from_findings(cls, findings: list[Finding]) -> "Baseline":
        return cls({f.fingerprint() for f in findings})

    def accepts(self, finding: Finding) -> bool:
        return finding.fingerprint() in self.fingerprints


def filter_findings(
    findings: list[Finding],
    *,
    select: set[str] | None = None,
    ignore: set[str] | None = None,
    baseline: Baseline | None = None,
) -> list[Finding]:
    """Apply ``--select`` / ``--ignore`` / baseline filtering."""
    out: list[Finding] = []
    for f in findings:
        if select is not None and f.rule_id not in select:
            continue
        if ignore is not None and f.rule_id in ignore:
            continue
        if baseline is not None and baseline.accepts(f):
            continue
        out.append(f)
    return out
