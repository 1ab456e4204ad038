"""Markdown report generation from regenerated results.

Collects every ``results/*.txt`` artifact produced by the benchmark
harness into one markdown document — a machine-generated companion to
the hand-written EXPERIMENTS.md.
"""

from __future__ import annotations

from pathlib import Path

__all__ = ["generate_report", "SECTIONS"]

#: ordered (stem, heading) pairs; stems missing from the results dir
#: are listed as not-yet-regenerated rather than dropped.
SECTIONS: tuple[tuple[str, str], ...] = (
    ("table1_flops", "Table 1 — flop costs"),
    ("table1_dt_factor", "Table 1 — dimension-tree factor"),
    ("table2_words", "Table 2 — communication"),
    ("table2_grid_preferences", "Table 2 — grid preferences"),
    ("fig2_3way_scaling", "Figure 2 (top) — 3-way strong scaling"),
    ("fig2_4way_scaling", "Figure 2 (bottom) — 4-way strong scaling"),
    ("fig3_3way_breakdown", "Figure 3 (top) — 3-way breakdown"),
    ("fig3_4way_breakdown", "Figure 3 (bottom) — 4-way breakdown"),
    ("fig4_miranda_progression", "Figure 4 — Miranda progression"),
    ("fig5_miranda_breakdown", "Figure 5 — Miranda breakdown"),
    ("fig6_hcci_progression", "Figure 6 — HCCI progression"),
    ("fig7_hcci_breakdown", "Figure 7 — HCCI breakdown"),
    ("fig8_sp_progression", "Figure 8 — SP progression"),
    ("fig9_sp_breakdown", "Figure 9 — SP breakdown"),
    ("ablation_truncation", "Ablation — truncation solver"),
    ("ablation_adaptation", "Ablation — adaptation strategy"),
    ("ablation_alpha", "Ablation — growth factor"),
    ("ablation_subspace_sweeps", "Ablation — subspace sweeps"),
    ("ablation_tree_split", "Ablation — tree shape"),
    ("ablation_llsv_kernels", "Ablation — LLSV kernels"),
    ("ablation_mode_order", "Ablation — mode order"),
    ("weak_scaling", "Extension — weak scaling"),
    ("grid_search", "Extension — grid search"),
    ("memory_sizing", "Extension — memory sizing"),
    ("memory_peak_scaling", "Extension — peak memory"),
    ("roofline", "Extension — roofline"),
    ("machine_sensitivity", "Extension — machine-model sensitivity"),
    ("decompression", "Extension — region decompression"),
    ("crossover", "Analysis — §3.1 n/r crossover"),
    ("mp_transport", "Infrastructure — mp transport shoot-out"),
    ("mp_dimension_tree", "Infrastructure — memoized vs direct mp HOOI"),
    (
        "overhead",
        "Infrastructure — flight recorder, verifier and "
        "transport guard overhead",
    ),
    ("kernels_speedup", "Infrastructure — native kernels vs tensordot"),
    ("overlap", "Infrastructure — comm/compute overlap"),
    ("recovery", "Infrastructure — elastic recovery vs full restart"),
)


def generate_report(
    results_dir: str | Path,
    *,
    title: str = "Regenerated results",
) -> str:
    """Assemble all regenerated tables into one markdown document."""
    results_dir = Path(results_dir)
    parts = [f"# {title}", ""]
    missing = []
    for stem, heading in SECTIONS:
        path = results_dir / f"{stem}.txt"
        if not path.exists():
            missing.append(heading)
            continue
        parts.append(f"## {heading}")
        parts.append("")
        parts.append("```")
        parts.append(path.read_text().rstrip())
        parts.append("```")
        parts.append("")
    if missing:
        parts.append("## Not regenerated in this run")
        parts.append("")
        for heading in missing:
            parts.append(f"- {heading}")
        parts.append("")
    return "\n".join(parts)
