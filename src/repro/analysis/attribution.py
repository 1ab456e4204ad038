"""Model-vs-measured attribution: join profiled spans to the ledger.

The headline claims rest on the alpha-beta-gamma machine model
(:class:`~repro.vmpi.cost.CostLedger`); the flight recorder records
where wall-clock *actually* went.  This module joins the two per
phase: measured mean/max seconds across ranks, load imbalance
(max/mean), the critical path (per phase instance, the slowest rank's
interval — the time the run really spent there), the modeled seconds,
and a divergence flag.

Absolute seconds are not comparable — the model is parameterized for
the paper's machine, the measurement ran on whatever host executed the
test — so divergence is flagged on *shares*: a phase that takes x% of
modeled time but >2x% (or <x/2%) of measured time is doing something
the model does not capture (or vice versa).  Tiny phases (<2% on both
sides) are never flagged.

A second table joins the measured collectives per (phase, kind)
against the modeled ``*_comm`` charges — the (phase, collective-kind)
view of where communication time went.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.reporting import format_table
from repro.observability.profile import RunProfile

__all__ = [
    "CollectiveRow",
    "PhaseRow",
    "attribution_rows",
    "collective_rows",
    "format_attribution_report",
    "parse_attribution_report",
]

#: measured phase -> the ledger phases it corresponds to.  The
#: executed layer tags coarse algorithm phases; the simulator charges
#: finer ones (see PHASES in repro.vmpi.trace), so the join aggregates
#: the model side per measured phase.
MODEL_PHASES: dict[str, tuple[str, ...]] = {
    "ttm": ("ttm", "ttm_comm"),
    "gram": ("gram", "gram_comm", "redistribute_comm", "evd"),
    "llsv": (
        "gram",
        "gram_comm",
        "redistribute_comm",
        "evd",
        "subspace",
        "subspace_comm",
        "qrcp",
    ),
    "core": ("core_analysis",),
    "core_comm": ("core_comm",),
}

#: share-ratio beyond which a phase is flagged as divergent, and the
#: minimum share (of either side) for the flag to be meaningful.
DIVERGENCE_RATIO = 2.0
DIVERGENCE_MIN_SHARE = 0.02


@dataclass(frozen=True)
class PhaseRow:
    """One measured phase joined against its modeled counterpart."""

    phase: str
    mean_s: float
    max_s: float
    imbalance: float  # max/mean across ranks
    critical_path_s: float  # sum over instances of slowest rank
    measured_share: float
    model_s: float | None
    model_share: float | None
    flag: str


@dataclass(frozen=True)
class CollectiveRow:
    """Measured collectives of one (phase, kind) pair."""

    phase: str
    op: str
    count: int  # per rank
    mean_s: float
    max_s: float


def _per_rank_phase_seconds(
    profile: RunProfile,
) -> dict[str, list[float]]:
    """phase -> measured seconds on each rank (interval union)."""
    out: dict[str, list[float]] = {}
    for p in profile.ranks:
        for phase, secs in p.phase_seconds().items():
            out.setdefault(phase, []).append(secs)
    return out


def _critical_path(profile: RunProfile, phase: str) -> float:
    """Sum over phase *instances* of the slowest rank's interval.

    Ranks execute the same loosely-synchronous schedule, so the k-th
    merged phase interval on each rank is the same algorithmic step;
    the run cannot leave that step before its slowest rank does.
    Ranks with fewer instances (e.g. a truncated partial profile)
    simply stop contributing to later instances.
    """
    per_rank = [
        p.phase_intervals().get(phase, []) for p in profile.ranks
    ]
    instances = max((len(iv) for iv in per_rank), default=0)
    total = 0.0
    for k in range(instances):
        durs = [
            iv[k][1] - iv[k][0] for iv in per_rank if k < len(iv)
        ]
        total += max(durs)
    return total


def attribution_rows(
    profile: RunProfile, model: dict[str, float] | None = None
) -> list[PhaseRow]:
    """Per-phase join, sorted by measured mean seconds descending.

    ``model`` is a ledger phase->seconds breakdown
    (:meth:`~repro.vmpi.cost.CostLedger.breakdown`); ``None`` yields
    measured-only rows.

    The join is total on both sides: measured phases with no modeled
    counterpart print ``-`` in the model columns, and ledger phases
    that no measured phase maps to (a partial profile from a crashed
    run, or a model charging work the executed layer never tagged)
    are appended as zero-measured rows flagged ``MODEL-ONLY`` rather
    than silently dropped.
    """
    per_phase = _per_rank_phase_seconds(profile)
    measured_total = sum(
        sum(v) / len(v) for v in per_phase.values()
    )
    model_total = sum(model.values()) if model else 0.0
    rows = []
    for phase, secs in per_phase.items():
        mean_s = sum(secs) / len(secs)
        max_s = max(secs)
        model_s: float | None = None
        model_share: float | None = None
        if model:
            model_s = sum(
                model.get(p, 0.0) for p in MODEL_PHASES.get(phase, ())
            )
            if model_total > 0:
                model_share = model_s / model_total
        measured_share = (
            mean_s / measured_total if measured_total > 0 else 0.0
        )
        flag = ""
        if model_share is not None and (
            measured_share > DIVERGENCE_MIN_SHARE
            or model_share > DIVERGENCE_MIN_SHARE
        ):
            hi = max(measured_share, model_share)
            lo = min(measured_share, model_share)
            if lo <= 0 or hi / lo > DIVERGENCE_RATIO:
                flag = "DIVERGENT"
        rows.append(
            PhaseRow(
                phase=phase,
                mean_s=mean_s,
                max_s=max_s,
                imbalance=max_s / mean_s if mean_s > 0 else 1.0,
                critical_path_s=_critical_path(profile, phase),
                measured_share=measured_share,
                model_s=model_s,
                model_share=model_share,
                flag=flag,
            )
        )
    rows.sort(key=lambda r: r.mean_s, reverse=True)
    if model:
        # Ledger phases no measured phase maps to: a crashed rank's
        # partial profile may be missing whole phases, and the model
        # may charge phases the executed layer never tags.  Surface
        # them instead of letting the join silently drop model time.
        covered: set[str] = set()
        for phase in per_phase:
            covered.update(MODEL_PHASES.get(phase, ()))
        for p in sorted(model):
            if p in covered or model[p] <= 0:
                continue
            model_share = (
                model[p] / model_total if model_total > 0 else None
            )
            rows.append(
                PhaseRow(
                    phase=p,
                    mean_s=0.0,
                    max_s=0.0,
                    imbalance=1.0,
                    critical_path_s=0.0,
                    measured_share=0.0,
                    model_s=model[p],
                    model_share=model_share,
                    flag="MODEL-ONLY",
                )
            )
    return rows


def collective_rows(profile: RunProfile) -> list[CollectiveRow]:
    """Measured collective time per (phase, kind), sorted descending.

    Collective spans never nest, so per-rank time is a plain sum; the
    per-rank call counts are identical by SPMD construction (asserted
    bit-identical elsewhere), so ``count`` reports rank 0's.
    """
    acc: dict[tuple[str, str], list[float]] = {}
    counts: dict[tuple[str, str], int] = {}
    for p in profile.ranks:
        per_rank: dict[tuple[str, str], float] = {}
        for s in p.by_category("collective"):
            key = (s.phase, s.name)
            per_rank[key] = per_rank.get(key, 0.0) + s.seconds
            if p.rank == profile.ranks[0].rank:
                counts[key] = counts.get(key, 0) + 1
        for key, secs in per_rank.items():
            acc.setdefault(key, []).append(secs)
    rows = [
        CollectiveRow(
            phase=phase,
            op=op,
            count=counts.get((phase, op), 0),
            mean_s=sum(secs) / len(secs),
            max_s=max(secs),
        )
        for (phase, op), secs in acc.items()
    ]
    rows.sort(key=lambda r: r.mean_s, reverse=True)
    return rows


def _wait_transfer_line(profile: RunProfile) -> str | None:
    """One-line wait-vs-transfer split from the recv histograms.

    With ``CommConfig.overlap`` the pipelined collectives attribute
    receive waits that ran concurrently with payload math to
    ``collective_wait_hidden_seconds``; the line then reports the
    visible wait share *and* how much wait the overlap hid, so an
    overlap-on run shows its wait-share reduction directly here.
    """
    wait = hidden = transfer = 0.0
    for p in profile.ranks:
        hists = p.metrics.get("histograms", {})
        wait += hists.get("collective_wait_seconds", {}).get(
            "total", 0.0
        )
        hidden += hists.get(
            "collective_wait_hidden_seconds", {}
        ).get("total", 0.0)
        transfer += hists.get(
            "collective_transfer_seconds", {}
        ).get("total", 0.0)
    if wait + hidden + transfer <= 0:
        return None
    share = wait / (wait + hidden + transfer)
    line = (
        f"collective receive time: {wait:.4g}s blocked wait + "
        f"{transfer:.4g}s payload transfer "
        f"({share * 100:.0f}% visible wait) across all ranks"
    )
    if hidden > 0:
        line += (
            f"; {hidden:.4g}s further wait hidden behind compute "
            "by comm/compute overlap"
        )
    return line


def _recovery_line(profile: RunProfile) -> str | None:
    """One-line elastic-recovery cost summary from the recovery
    histograms (``repro.distributed.recovery``).

    ``buddy_replicate_seconds`` is the steady-state premium every
    elastic sweep pays; ``recovery_seconds`` (building a survivor's
    report) appears only on runs that actually absorbed a failure.
    """
    replicate = recover = 0.0
    episodes = 0
    for p in profile.ranks:
        hists = p.metrics.get("histograms", {})
        replicate += hists.get("buddy_replicate_seconds", {}).get(
            "total", 0.0
        )
        rec = hists.get("recovery_seconds", {})
        recover += rec.get("total", 0.0)
        episodes += int(rec.get("count", 0))
    if replicate + recover <= 0:
        return None
    line = (
        f"elastic recovery: {replicate:.4g}s buddy replication "
        "across all ranks"
    )
    if recover > 0:
        line += (
            f"; {recover:.4g}s failure handling across {episodes} "
            "survivor reports"
        )
    return line


def format_attribution_report(
    profile: RunProfile,
    model: dict[str, float] | None = None,
    *,
    model_label: str = "",
) -> str:
    """The printable model-vs-measured report."""
    phase_rows = attribution_rows(profile, model)
    header = (
        f"Measured-vs-modeled attribution ({profile.size} ranks"
        + (f", model: {model_label}" if model_label else "")
        + ")"
    )
    sections = [
        format_table(
            [
                "phase",
                "measured mean s",
                "measured max s",
                "imbalance",
                "critical path s",
                "measured share",
                "modeled s",
                "modeled share",
                "flag",
            ],
            [
                [
                    r.phase,
                    r.mean_s,
                    r.max_s,
                    r.imbalance,
                    r.critical_path_s,
                    f"{r.measured_share * 100:.1f}%",
                    "-" if r.model_s is None else r.model_s,
                    "-"
                    if r.model_share is None
                    else f"{r.model_share * 100:.1f}%",
                    r.flag or "-",
                ]
                for r in phase_rows
            ],
            title=header,
        ),
        format_table(
            ["phase", "collective", "count", "mean s", "max s"],
            [
                [r.phase or "(untagged)", r.op, r.count, r.mean_s, r.max_s]
                for r in collective_rows(profile)
            ],
            title="Measured collectives per (phase, kind)",
        ),
    ]
    wait_line = _wait_transfer_line(profile)
    if wait_line is not None:
        sections.append(wait_line)
    recovery_line = _recovery_line(profile)
    if recovery_line is not None:
        sections.append(recovery_line)
    if model:
        sections.append(
            "shares, not absolute seconds, carry the comparison: the "
            "model prices the paper's machine, the measurement this "
            "host."
        )
    return "\n\n".join(sections)


def parse_attribution_report(text: str) -> list[dict[str, str]]:
    """Parse the phase table back out of a formatted report.

    The CI smoke job and tests use this to assert the report stayed
    machine-readable; raises ``ValueError`` when the table is missing
    or malformed.
    """
    lines = text.splitlines()
    try:
        head_idx = next(
            i
            for i, line in enumerate(lines)
            if line.startswith("phase  ")
        )
    except StopIteration:
        raise ValueError("no phase table header found") from None
    header = lines[head_idx]
    rule = lines[head_idx + 1]
    # Column starts come from the dashed rule (columns are two-space
    # separated, but header titles themselves contain single spaces).
    starts = [0] + [
        i for i in range(1, len(rule)) if rule[i] == "-" and rule[i - 1] == " "
    ]
    def cells(line: str) -> list[str]:
        out = []
        for j, a in enumerate(starts):
            b = starts[j + 1] if j + 1 < len(starts) else len(line)
            out.append(line[a:b].strip())
        return out
    names = cells(header)
    rows = []
    for line in lines[head_idx + 2:]:
        if not line.strip():
            break
        rows.append(dict(zip(names, cells(line))))
    if not rows:
        raise ValueError("phase table has no rows")
    for row in rows:
        # Every cell must be numeric or the explicit "-" placeholder
        # (model columns of measured-only rows, and vice versa for
        # MODEL-ONLY rows) — anything else means the table drifted.
        for key in ("measured mean s", "imbalance", "critical path s",
                    "modeled s"):
            value = row.get(key, "-")
            if value != "-":
                try:
                    float(value)
                except ValueError:
                    raise ValueError(
                        f"phase {row.get('phase', '?')!r}: column "
                        f"{key!r} is neither numeric nor '-': "
                        f"{value!r}"
                    ) from None
    return rows
