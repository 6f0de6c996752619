"""Behaviour ledger: SHA-256 of virtual-clock drill reports on pinned seeds.

Each drill runs on ``SimulatedClock`` with a pinned service time, so its
``--json`` report is a pure function of the arguments; ``report`` is the
reproduction table itself (every cost model, no clock at all).  Each entry
also pins the drill's exit code: the pool-loss drill fails every request
still owed once its one replica dies, so it exits 1.  A drill that writes
artifacts gets ``--out OUT``: the test points it at a fresh temporary
directory and hashes the report with that path put back to ``OUT``.  A
refactor that moves a hash changed behaviour; an intentional behaviour
change updates the hash in the same PR and says why (ROADMAP item 4a).
"""

import hashlib

import pytest

from repro.cli import main
from tests import test_cli

OUT = "OUT"

LEDGER = {
    "fleet": (
        ["fleet", *test_cli.TestFleetCli.FAST,
         "--plan", "rank_fail@25:rank=0", "--json"],
        0, "e11a05af77648c9b7f87d34cb801cd70c8df9edc2ded12e096d8df594a59e185"),
    "campaign": (
        ["campaign", "--users", "2", "--jobs", "6", "--seed", "7",
         "--plan", "rank_fail@1:rank=0", "--json"],
        0, "c7365a8bb6c896e5582e7d0a19821e31de5336ac33d1148d36c045477f3556c0"),
    "serve": (
        ["serve", "--requests", "16", "--rate", "1000", "--replicas", "2",
         "--service-ms", "1", "--channels", "2", "--seed", "2",
         "--plan", "rank_fail@1:rank=1", "--json"],
        0, "33325e8f15a1e4a8e4a0f64c0cdb9af7f1803d7b04a8f337205faba040ee32a0"),
    "report": (
        ["report"],
        0, "9cc751feebf470ab97e7960dff957440b754d92425beb2f100f610b499abda7c"),
    # Low load, repeat snapshots, overload and a mid-run replica kill.
    "serve-low": (
        ["serve", "--requests", "48", "--rate", "100", "--service-ms", "0.2",
         "--replicas", "2", "--channels", "2", "--seed", "0", "--json"],
        0, "dedb92edc9d57fdf275e79e19eb36883d720b9a416b96031b2bfaa38ea81e44d"),
    "serve-repeat": (
        ["serve", "--requests", "48", "--rate", "100", "--service-ms", "0.2",
         "--replicas", "2", "--channels", "2", "--repeat", "0.5",
         "--seed", "0", "--json"],
        0, "ed6e0c4ddce1bd2eefdf71e1f6b1629d521fbacac44873f2ce53a9fcf37be5e4"),
    "serve-overload": (
        ["serve", "--requests", "200", "--rate", "20000", "--service-ms",
         "1.0", "--replicas", "2", "--max-depth", "8", "--slo-ms", "20",
         "--channels", "2", "--seed", "0", "--json"],
        0, "0bee86cb20068369ceea4ee449b53a0afe2fab39ad279a3bf34ab8e8fcfc345e"),
    "serve-fault": (
        ["serve", "--requests", "64", "--rate", "1000", "--service-ms", "0.5",
         "--replicas", "2", "--plan", "rank_fail@2:rank=1", "--channels", "2",
         "--seed", "0", "--json"],
        0, "778c12c7b2227e24a135a054059caa5673f3757124a9d8c979ffb72433cf3182"),
    # Total pool loss: the only replica dies, everything still owed fails.
    "serve-pool-loss": (
        ["serve", "--requests", "32", "--rate", "1000", "--service-ms", "0.5",
         "--replicas", "1", "--plan", "rank_fail@2:rank=0", "--channels", "2",
         "--seed", "0", "--json"],
        1, "12176ec9e8e675ccc8598a3a43247f6738360a57b9fe4e19cd789d92550fe988"),
    # The resilience drill (elastic shrink, read retries, autoresume) and
    # the health drill (streaming windows, alert rules, cross-rank trace).
    "faults": (
        ["faults", "--out", OUT],
        0, "fae742a545c303c28a0a23426c2b9182cc505b4571539b81fe0323183a223fb7"),
    "health": (
        ["health", "--json", "--out", OUT],
        0, "735bb4838eba6a0aef7c9297ccd7e10ea6a0aafa401e6919de0f168f37efb8b6"),
    # Dense vs int8-compressed training through the exchange engine.
    "comm-drill": (
        ["comm-drill", "--json"],
        0, "7c5ec9a35ef0701337a4736dc0976de6abc673312061fb741b9f4c863c5a42fe"),
    # No age wait: every batch dispatches the instant a replica is free.
    "serve-zero-wait": (
        ["serve", "--requests", "64", "--rate", "3000", "--service-ms", "0.3",
         "--replicas", "2", "--max-wait-ms", "0", "--channels", "2",
         "--seed", "3", "--json"],
        0, "827bdac84519a99f2ac1dbd37d39e3680b08072f4e21bb486b8c18cdca3e58d4"),
}


@pytest.mark.parametrize("drill", sorted(LEDGER))
def test_report_hash_unchanged(drill, capsys, tmp_path):
    argv, exit_code, expected = LEDGER[drill]
    out = str(tmp_path / "out")
    assert main([out if a == OUT else a for a in argv]) == exit_code
    report = capsys.readouterr().out.replace(out, OUT)
    assert hashlib.sha256(report.encode()).hexdigest() == expected
