"""Golden replays: every bundled scenario reproduces its artifacts byte
for byte. The pins are sha256 digests of the files the CLI writes; a
change that alters any artifact must regenerate them and say why."""
import hashlib
import pathlib
import sys

import pytest

from soqn.runner import EXIT_OK, run_scenario
from soqn.scenario import parse_scenario

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
sys.path[:0] = [str(ROOT / "perfbench")]

import workloads  # noqa: E402

GOLDEN = {
    "cs_backbone.soqn": {
        "events.log": "bbd2d0371e24c5ab3abf306e358569691bb5bdfb2e85295eec4244b1e1150b0d",
        "report.txt": "38f0f6562aa187c2f8043568c3f165e17360ca571741a3e9ff06c88522240b87",
        "records.tsv": "5af06d1a55fee54c175982557b383cf358eb8e591fea58433a97a4b5ad7c7c69",
    },
    "p2p_relay.soqn": {
        "events.log": "b82a679de406245d909cae169f92eb4f2fab0de2fc4c9722750d86b3190e41a8",
        "report.txt": "83eeebd6cc7b497ab0f226a1506b64ab4de716730193513a877f0a0f17d82b93",
        "records.tsv": "2876b50b18a7fe1f20e9907bdc0567a795afd38ba658c73d5f01c914c66744a3",
    },
}

# The same scenarios with routing snapshots taken between topology changes,
# once at each file's own settings and once with links that become active
# only after an acquisition delay (link_active events refresh the table).
SNAPSHOT_TIMES = (0.0, 1.0, 2.5, 3.5, 5.2, 5.6, 9.0)

GOLDEN_SNAPSHOTS = {
    ("cs_backbone.soqn", None): {
        "events.log": "bbd2d0371e24c5ab3abf306e358569691bb5bdfb2e85295eec4244b1e1150b0d",
        "report.txt": "90373b9627c41c66c1e83148bccf324d10dca88d25886a4521fd3c490919dcaa",
        "records.tsv": "b8b7a7ed0d0ca102b0b1eb1417d61d2377bb4efcb25275101950e082d653957c",
    },
    ("cs_backbone.soqn", 0.5): {
        "events.log": "e2153ff82550b13f6f5636271491446cbb858c3658b6b3e0597e79b4ad742f16",
        "report.txt": "eb2d1e8f6dc32ee7cdf120ab96c39c6d7b5c17245e3166c6e04caba7776db841",
        "records.tsv": "dca848bc3096eb023255cf21b81856f70fe418b107d01f7fa1336d622a171854",
    },
    ("p2p_relay.soqn", None): {
        "events.log": "b82a679de406245d909cae169f92eb4f2fab0de2fc4c9722750d86b3190e41a8",
        "report.txt": "ba6b5b8ba51e38edb4c31fe73c5995189ca1bf5d46cb91ba32a6db3292c90476",
        "records.tsv": "d05e59084d5fae0906abf5ad12f724be4f3875eaa0947753b326bb0af4ea8e62",
    },
    ("p2p_relay.soqn", 0.5): {
        "events.log": "b96723f2abe83059cb5484fbb11e11656cfdcf96706433ebea6d4b318a27e27e",
        "report.txt": "ad62513d8ea1f90f237c587b5484804f46427c1dbf7fa7e22b884d2949d56a42",
        "records.tsv": "e91626a9c2d4fc613dfb9ff793e7a9a9b6458fd40543099ae1db7324a753f568",
    },
}


def _digests(tmp_path, artifacts):
    return {artifact: hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest()
            for artifact in artifacts}


def test_every_scenario_is_pinned():
    assert sorted(p.name for p in SCENARIOS.glob("*.soqn")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_replay(name, tmp_path):
    sc = parse_scenario((SCENARIOS / name).read_text())
    _, code = run_scenario(sc, out_dir=str(tmp_path))
    assert code == EXIT_OK
    assert _digests(tmp_path, GOLDEN[name]) == GOLDEN[name]


def test_every_scenario_is_pinned_with_snapshots():
    assert sorted({name for name, _ in GOLDEN_SNAPSHOTS}) == sorted(GOLDEN)


@pytest.mark.parametrize("name,acquire_delay", sorted(GOLDEN_SNAPSHOTS, key=str))
def test_golden_replay_with_snapshots(name, acquire_delay, tmp_path):
    sc = parse_scenario((SCENARIOS / name).read_text())
    if acquire_delay is not None:
        sc.params["acquire_coarse_s"] = acquire_delay  # as `--sweep` overrides it
    _, code = run_scenario(sc, snapshot_times=SNAPSHOT_TIMES, out_dir=str(tmp_path))
    assert code == EXIT_OK
    expected = GOLDEN_SNAPSHOTS[name, acquire_delay]
    assert _digests(tmp_path, expected) == expected


# Mid-size synthetic scenarios from the benchmark's seeded generator, at
# seed 1: cs_mobility has late joins (broadcasts reaching only the nodes
# deployed so far) and qkd_bulk_chain long QKD sessions.
GOLDEN_WORKLOADS = {
    "cs_mobility": {
        "events.log": "03a83fd10c086afcac8f675bddbfd3e1d992e93c58c36dbb58d2b8e6facd8500",
        "report.txt": "32f40f1ad5deeadd03cbe151ff0481e6295194a80982174d3e3a3dfb1b4d6b0e",
        "records.tsv": "a3a1c769d0941881bef8c796330134521fb09fddf01a59ac82b1432983141c1d",
    },
    "qkd_bulk_chain": {
        "events.log": "9a998f38ea6aecc5e7beb3e525b6a2c30c08ce0d126929dccf1f8eb461a918c4",
        "report.txt": "9f9f962937e2f04c48770b20c98d0c3f2234bfb226ba009bbff94b985ee5269f",
        "records.tsv": "6099e0f9a8f8a13c9ed0b1b457cd0233838769c79c3aa0df1bd65628f5319192",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_WORKLOADS))
def test_golden_replay_of_workload(name, tmp_path):
    sc = parse_scenario(workloads.generate(name, 1))
    _, code = run_scenario(sc, out_dir=str(tmp_path))
    assert code == EXIT_OK
    assert _digests(tmp_path, GOLDEN_WORKLOADS[name]) == GOLDEN_WORKLOADS[name]
