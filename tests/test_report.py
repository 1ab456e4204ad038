"""Markdown report assembly."""

from repro.analysis.report import SECTIONS, generate_report


class TestGenerateReport:
    def test_includes_present_sections(self, tmp_path):
        (tmp_path / "table1_flops.txt").write_text("some table\n")
        (tmp_path / "weak_scaling.txt").write_text("weak data\n")
        report = generate_report(tmp_path)
        assert "## Table 1 — flop costs" in report
        assert "some table" in report
        assert "weak data" in report

    def test_lists_missing(self, tmp_path):
        report = generate_report(tmp_path)
        assert "Not regenerated in this run" in report
        assert "Figure 2 (top)" in report

    def test_custom_title(self, tmp_path):
        report = generate_report(tmp_path, title="My run")
        assert report.startswith("# My run")

    def test_sections_cover_all_benches(self):
        """Every save_result stem used by the harness has a section."""
        import re
        from pathlib import Path

        bench_dir = Path(__file__).resolve().parent.parent / "benchmarks"
        stems = set()
        for f in bench_dir.glob("bench_*.py"):
            stems.update(re.findall(r'save_result\(\s*"(\w+)"', f.read_text()))
        known = {s for s, _ in SECTIONS}
        assert stems <= known, stems - known


def test_committed_report_matches_results():
    """``results/REPORT.md`` is ``generate_report`` over the committed
    tables, so a table regenerated on its own cannot leave it stale."""
    from pathlib import Path

    results = Path(__file__).resolve().parent.parent / "results"
    assert (results / "REPORT.md").read_text() == generate_report(results)
