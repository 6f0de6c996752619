"""Behaviour ledger: SHA-256 of virtual-clock drill reports on pinned seeds.

Each drill runs on ``SimulatedClock`` with a pinned service model, so its
``--json`` report is a pure function of the arguments; ``report`` is the
reproduction table itself (every cost model, no clock at all).  A refactor
that moves a hash changed behaviour; an intentional behaviour change updates
the hash in the same PR and says why (ROADMAP item 4a).
"""

import hashlib

import pytest

from repro.cli import main
from tests import test_cli

LEDGER = {
    "fleet": (
        ["fleet", *test_cli.TestFleetCli.FAST,
         "--plan", "rank_fail@25:rank=0", "--json"],
        "e11a05af77648c9b7f87d34cb801cd70c8df9edc2ded12e096d8df594a59e185"),
    "campaign": (
        ["campaign", "--users", "2", "--jobs", "6", "--seed", "7",
         "--plan", "rank_fail@1:rank=0", "--json"],
        "c7365a8bb6c896e5582e7d0a19821e31de5336ac33d1148d36c045477f3556c0"),
    "serve": (
        ["serve", "--requests", "16", "--rate", "1000", "--replicas", "2",
         "--service-ms", "1", "--channels", "2", "--seed", "2",
         "--plan", "rank_fail@1:rank=1", "--json"],
        "33325e8f15a1e4a8e4a0f64c0cdb9af7f1803d7b04a8f337205faba040ee32a0"),
    "report": (
        ["report"],
        "f832bfe14e790e336576908ea94d33937b7f82f4dd81de53391bf75330e77faa"),
}


@pytest.mark.parametrize("drill", sorted(LEDGER))
def test_report_hash_unchanged(drill, capsys):
    argv, expected = LEDGER[drill]
    assert main(argv) == 0
    report = capsys.readouterr().out
    assert hashlib.sha256(report.encode()).hexdigest() == expected
