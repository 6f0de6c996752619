"""The claims table: every paper number against the value measured here."""
import dataclasses
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest

from repro.cli import main
from repro.perf import claims

FAST = [c for c in claims.CLAIMS if not c.trained]
EXPERIMENTS = pathlib.Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


@pytest.mark.parametrize("claim", FAST, ids=lambda c: c.id)
def test_fast_row_in_band(claim):
    result = claims.check(claim)
    target = claim.deviation.value if claim.deviation else claim.paper
    assert not result.failed, (
        f"{claim.id}: measured {result.value:.6g} against "
        f"{'pinned' if claim.deviation else 'paper'} {target:g} ({claim.band})")


class TestReport:
    def test_covers_all_experiment_families(self):
        sections = {c.section for c in claims.CLAIMS}
        assert {"Sec VI", "Fig 2", "Fig 3", "Fig 4", "Fig 5", "Fig 6", "Fig 7",
                "Fig 8", "Fig 9", "Sec V-A1", "Sec V-A2", "Sec V-A3",
                "Sec V-B1", "Sec V-B2", "Sec V-B3", "Sec V-B4", "Sec V-B5",
                "Sec VII-A"} <= sections

    def test_every_row_has_a_paper_value_and_reason(self):
        ids = [c.id for c in claims.CLAIMS]
        assert len(ids) == len(set(ids))
        assert set(claims.DEVIATIONS) <= set(ids)
        for c in claims.CLAIMS:
            assert c.reason and c.metric and math.isfinite(c.paper), c.id
            if c.deviation:
                assert c.deviation.item > 0 and c.deviation.reason, c.id
                # A deviation is a miss of the band, never a band widened.
                assert not c.band.holds(c.paper, c.deviation.value), c.id

    def test_render_is_table(self):
        text, failed = claims.report()
        lines = text.splitlines()
        assert not failed
        assert lines[0].startswith("Reproduction summary")
        assert lines[1].split() == ["section", "id", "metric", "paper",
                                    "measured", "band", "verdict"]
        assert FAST[0].id in lines[3]
        assert lines[-1] == (f"{len(FAST)} rows: {len(FAST)} in band or "
                             f"pinned, 0 out of band")

    def test_out_of_band_row_exits_1_and_is_named(self, monkeypatch, capsys):
        bad = dataclasses.replace(FAST[0], id="test.bad_row",
                                  measure=lambda: FAST[0].paper * 2)
        monkeypatch.setattr(claims, "CLAIMS", (*claims.CLAIMS, bad))
        assert main(["report"]) == 1
        out = capsys.readouterr().out
        assert re.search(r"test\.bad_row .* FAIL", out)
        assert out.rstrip().endswith("1 out of band: test.bad_row")

    def test_moved_deviation_fails(self):
        row = next(c for c in FAST if c.deviation)
        moved = dataclasses.replace(row, measure=lambda: row.deviation.value * 1.02)
        assert claims.check(moved).failed

    def test_cold_report_imports_no_training_code(self):
        code = ("import sys; from repro.perf.claims import report; report(); "
                "assert 'repro.perf.trained' not in sys.modules")
        subprocess.run([sys.executable, "-c", code], check=True,
                       cwd=EXPERIMENTS.parent,
                       env={**os.environ, "PYTHONPATH": "src"})

    def test_experiments_block_starts_with_fast_report(self, capsys):
        doc = EXPERIMENTS.read_text()
        block = doc.split("```text\n", 1)[1].split("```", 1)[0]
        assert main(["report"]) == 0
        fast = capsys.readouterr().out
        assert block.startswith(fast), "EXPERIMENTS.md is stale: rerun " \
                                       "`repro report --trained` and paste it"
