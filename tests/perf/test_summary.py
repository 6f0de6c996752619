"""Reproduction-summary aggregator."""
import pytest

from repro.perf import SummaryRow, render_summary, reproduction_summary


@pytest.fixture(scope="module")
def rows():
    return reproduction_summary()


class TestSummary:
    def test_covers_all_experiment_families(self, rows):
        families = {r.experiment for r in rows}
        assert {"Fig 2", "Fig 4", "Sec V-A1", "Sec V-A3", "Sec V-B1",
                "Sec VI", "Sec VII-A"} <= families

    def test_every_row_has_both_sides(self, rows):
        for r in rows:
            assert r.paper and r.measured

    def test_batch_limit_row_matches_paper(self, rows):
        row = next(r for r in rows if "max batch" in r.metric)
        assert row.measured == "1 / 2"

    def test_render_is_table(self, rows):
        out = render_summary()
        lines = out.splitlines()
        assert lines[0].startswith("Reproduction summary")
        assert len(lines) == len(rows) + 3

    def test_render_default_computes(self):
        out = render_summary()
        assert "TC FN/FP" in out
