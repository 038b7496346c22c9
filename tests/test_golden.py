"""Golden replays: every bundled scenario reproduces its artifacts byte
for byte. The pins are sha256 digests of the files the CLI writes; a
change that alters any artifact must regenerate them and say why."""
import hashlib
import pathlib

import pytest

from soqn.runner import EXIT_OK, run_scenario
from soqn.scenario import parse_scenario

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

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


def test_every_scenario_is_pinned():
    assert sorted(p.name for p in SCENARIOS.glob("*.soqn")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_replay(name, tmp_path):
    sc = parse_scenario((SCENARIOS / name).read_text())
    _, code = run_scenario(sc, out_dir=str(tmp_path))
    assert code == EXIT_OK
    digests = {artifact: hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest()
               for artifact in GOLDEN[name]}
    assert digests == GOLDEN[name]
