"""Golden replays: every bundled scenario reproduces its artifacts byte
for byte. The pins are sha256 digests of the files the CLI writes; a
change that alters any artifact must regenerate them and say why.

Each replay also runs ``check_log`` on the written ``events.log``: its
lines are numbered without gaps, each broadcast's ``receivers=`` count is
the number of nodes deployed before it, less its source, each consume
starts at its pair's running cursor, and each relay record follows one
block per hop and one ``relay_xor`` broadcast of its length per relay.

``PYTHONPATH=src python tests/test_golden.py`` prints the digests of the
current code for every pin, in the layout of the dicts below, so a
regeneration is pasted from that output rather than edited by hand.
"""
import hashlib
import pathlib
import sys
import tempfile

import pytest

from soqn.rng import RandomStream
from soqn.runner import EXIT_OK, run_scenario
from soqn.scenario import parse_scenario

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
sys.path[:0] = [str(ROOT / "perfbench")]

import workloads  # noqa: E402
from event_log import check_log  # noqa: E402

GOLDEN = {
    "cs_backbone.soqn": {
        "events.log": "3bc9e2524d8a1bdbb91f74540ac7908d7c1035b932d612f4047368e5eb869048",
        "report.txt": "3c6f024bdb60fc831d0a32271b722c7ec8e1cda4cafd40614aa0cdc47a617704",
        "records.tsv": "252829b7d80c6369521c0514ea4574fe10e30a10d6762a0cb91cce5d333c97fb",
    },
    "p2p_relay.soqn": {
        "events.log": "e393ecd00a4a64189f633200835f0395e9e0cd9caf9d5a86d410c3ff67fd37b9",
        "report.txt": "d03ccaeca4654338e73b1118cf26bee8afb4a9fa26a484cc0b8cb377ebe73359",
        "records.tsv": "a3cd4eacf4278affbc2eedb59bdca57ff40703ff318f9718fa7209155c4edd2b",
    },
}

# The same scenarios with routing snapshots taken between topology changes,
# once at each file's own settings and once with links that become active
# only after an acquisition delay (link_active events refresh the table).
SNAPSHOT_TIMES = (0.0, 1.0, 2.5, 3.5, 5.2, 5.6, 9.0)

GOLDEN_SNAPSHOTS = {
    ("cs_backbone.soqn", None): {
        "events.log": "3bc9e2524d8a1bdbb91f74540ac7908d7c1035b932d612f4047368e5eb869048",
        "report.txt": "25e11c5d4e8b3476fab1ef47dc92a1c15d03634c4dc8506056160e90c7489d32",
        "records.tsv": "58372d0019f27d68d70e0be9b7943ba69075b37dde80c29159ee4be4ab5aedbb",
    },
    ("cs_backbone.soqn", 0.5): {
        "events.log": "33d56df913cc605492656ed94b949f71a25078448934560e134e631570f7326c",
        "report.txt": "5c8fb2043f3f9ffe355a680757243d9b28c3068717925151bc117c685e598972",
        "records.tsv": "558af44be37fc43b4ff1509706350ee781541dac8b6cc70a8123ccea12d10592",
    },
    ("p2p_relay.soqn", None): {
        "events.log": "e393ecd00a4a64189f633200835f0395e9e0cd9caf9d5a86d410c3ff67fd37b9",
        "report.txt": "f14c16935e5aea5597ed3a9265410c66fb22bc36d3669baae495457add122478",
        "records.tsv": "74053e8410551012e05cabd3ba915773269ac08c8c5615a270e5a3464cceac18",
    },
    ("p2p_relay.soqn", 0.5): {
        "events.log": "069bed0296bb5310411718194d39d054b3703d8cde2b3899859ae3c17cc92587",
        "report.txt": "cfb47d01ac223c60c9e974c2e49fbb6946b2a2d0d90e9222fffdaac27c87b934",
        "records.tsv": "101e9cb0f6bd686a52d94814617a9445385c6f84c2e88f6aecb610e5777cc075",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _replay(sc, out_dir, **kwargs):
    """Run ``sc`` into ``out_dir``, check its ``events.log`` and return the
    sha256 of each artifact."""
    _, code = run_scenario(sc, out_dir=str(out_dir), **kwargs)
    if code != EXIT_OK:
        raise RuntimeError(f"scenario exited {code}")
    written = (out_dir / "events.log").read_bytes()
    check_log(written.decode().splitlines())
    return {"events.log": _sha256(written),
            "report.txt": _sha256((out_dir / "report.txt").read_bytes()),
            "records.tsv": _sha256((out_dir / "records.tsv").read_bytes())}


def scenario_digests(name, out_dir):
    return _replay(parse_scenario((SCENARIOS / name).read_text()), out_dir)


def snapshot_digests(key, out_dir):
    name, acquire_delay = key
    sc = parse_scenario((SCENARIOS / name).read_text())
    if acquire_delay is not None:
        sc.params["acquire_delay_s"] = acquire_delay  # as `--sweep` overrides it
    return _replay(sc, out_dir, snapshot_times=SNAPSHOT_TIMES)


def workload_digests(name, out_dir):
    return _replay(parse_scenario(workloads.generate(name, 1)), out_dir)


def test_every_scenario_is_pinned():
    assert sorted(p.name for p in SCENARIOS.glob("*.soqn")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_replay(name, tmp_path):
    assert scenario_digests(name, tmp_path) == GOLDEN[name]


def test_every_scenario_is_pinned_with_snapshots():
    assert sorted({name for name, _ in GOLDEN_SNAPSHOTS}) == sorted(GOLDEN)


@pytest.mark.parametrize("name,acquire_delay", sorted(GOLDEN_SNAPSHOTS, key=str))
def test_golden_replay_with_snapshots(name, acquire_delay, tmp_path):
    key = (name, acquire_delay)
    assert snapshot_digests(key, tmp_path) == GOLDEN_SNAPSHOTS[key]


# Mid-size synthetic scenarios from the benchmark's seeded generator, at
# seed 1: cs_mobility has late joins (broadcasts reaching only the nodes
# deployed so far), p2p_mesh_sends relayed sends over 144 peers, and
# qkd_bulk_chain long QKD sessions.
GOLDEN_WORKLOADS = {
    "cs_mobility": {
        "events.log": "3c61453db319b23a483f457981c388962e03926f216b341fa5e0858ffef7ee04",
        "report.txt": "20cbf9994148cb09260536d944df66f7ad03499b792dd4b9d7f2b58cf8e5a286",
        "records.tsv": "6bb393ac03911d8f38d77d10c28a0bca29a8ef506240fa873c0f1eab645177cd",
    },
    "p2p_mesh_sends": {
        "events.log": "8ae6041a8ff9d60465fc680ae7c8130a44ab524431169a0afad812ec1e40b024",
        "report.txt": "d2baaeabe7905afd300d849dec29910fbd415d1e2a03bf811c785d961ee0de6f",
        "records.tsv": "0b68d7dce02b0186c3042ae7e7734891c791b3a4a89c165efa752fdbbc69a733",
    },
    "qkd_bulk_chain": {
        "events.log": "8ca23fdc98b180f91fc14200179b26898d14f308ac0d5ff1a04869bc4902a7e6",
        "report.txt": "52301b188b99d32db4b29800b40ad29000edc76e45186fed0d0bfb94aff1ec81",
        "records.tsv": "26dd60be1beaf90a91957acdd1be5c695115dfc6f77e29cc4664a0c6bc4b6eaa",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_WORKLOADS))
def test_golden_replay_of_workload(name, tmp_path):
    assert workload_digests(name, tmp_path) == GOLDEN_WORKLOADS[name]


def test_untraced_runs_draw_no_key_bits(monkeypatch, tmp_path):
    # the key plane holds counts, so no run reads a session's key bits:
    # every pinned artifact comes out with the bit draw refused
    def refused(*args, **kwargs):
        raise AssertionError("a run drew key bits")

    monkeypatch.setattr(RandomStream, "bits", refused)
    for name in sorted(GOLDEN):
        assert scenario_digests(name, tmp_path / name) == GOLDEN[name]
    for name in sorted(GOLDEN_WORKLOADS):
        assert workload_digests(name, tmp_path / name) == GOLDEN_WORKLOADS[name]


# A bundled scenario with params that no bundled file sets, keyed by its
# name and then each param and its value. With precharge_bits, each
# organize, join and move tops up every active pair, and a link that
# finishes acquiring tops up its own pair, before any send asks for key.
GOLDEN_PARAMS = {
    ("p2p_relay.soqn", "precharge_bits", 256): {
        "events.log": "35887c8bef33a7c377703e883c65be477813898f7f092a63ce5a6fe4ae5733be",
        "report.txt": "db2937fd2fe1cb2e8ab01c558a08a301ad9ae0f850fb3acad7fe717f29365120",
        "records.tsv": "eb5b67680dce17d6a431bee37d0f400955a1443d26350ef0e292997ac0c881c0",
    },
    ("p2p_relay.soqn", "precharge_bits", 256, "acquire_delay_s", 0.5): {
        "events.log": "977c9c459fa48f70af577fd1a67026d9cf4eb516bb2d93203b9a88e85a4e78da",
        "report.txt": "eb517e64ce3659d713921ba12b395a8087dd4654a3e5d6407152394bcd7c0ce3",
        "records.tsv": "842f17d99cb90d44d15dad73e657f1621d09d358783e03b928b9f32b7550bda1",
    },
}


def param_digests(key, out_dir):
    name, *settings = key
    sc = parse_scenario((SCENARIOS / name).read_text())
    sc.params.update(zip(settings[::2], settings[1::2]))
    return _replay(sc, out_dir)


@pytest.mark.parametrize("key", sorted(GOLDEN_PARAMS), ids=lambda key: "-".join(map(str, key)))
def test_golden_replay_with_param(key, tmp_path):
    assert param_digests(key, tmp_path) == GOLDEN_PARAMS[key]


def _literal(key):
    if isinstance(key, tuple):
        return "(" + ", ".join(map(_literal, key)) + ")"
    return f'"{key}"' if isinstance(key, str) else repr(key)


def print_pins():
    """Print every pin dict as this file lays it out, with the digests of
    the current code."""
    pins = (("GOLDEN", GOLDEN, scenario_digests),
            ("GOLDEN_SNAPSHOTS", GOLDEN_SNAPSHOTS, snapshot_digests),
            ("GOLDEN_WORKLOADS", GOLDEN_WORKLOADS, workload_digests),
            ("GOLDEN_PARAMS", GOLDEN_PARAMS, param_digests))
    with tempfile.TemporaryDirectory() as tmp:
        for dict_name, pinned, digests in pins:
            print(f"{dict_name} = {{")
            for i, key in enumerate(pinned):
                out_dir = pathlib.Path(tmp, f"{dict_name}-{i}")
                out_dir.mkdir()
                print(f"    {_literal(key)}: {{")
                for artifact, digest in digests(key, out_dir).items():
                    print(f'        "{artifact}": "{digest}",')
                print("    },")
            print("}")


if __name__ == "__main__":
    print_pins()
