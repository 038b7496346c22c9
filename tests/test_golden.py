"""Golden replays: every bundled scenario reproduces its artifacts byte
for byte. The pins are sha256 digests of the files the CLI writes; a
change that alters any artifact must regenerate them and say why.

``PYTHONPATH=src python tests/test_golden.py`` prints the digests of the
current code for every pin, in the layout of the dicts below, so a
regeneration is pasted from that output rather than edited by hand.
"""
import hashlib
import pathlib
import sys
import tempfile

import pytest

from soqn.runner import EXIT_OK, run_scenario
from soqn.scenario import parse_scenario

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
sys.path[:0] = [str(ROOT / "perfbench")]

import workloads  # noqa: E402

GOLDEN = {
    "cs_backbone.soqn": {
        "events.log": "853b8dfaf26dcd9050fbb458cbaef61c654a21172d58c5d02d55d79876db2985",
        "report.txt": "25eea5c842293ac8e346abda64ad6f1772f4e8520c50081ca984538e088bf9b7",
        "records.tsv": "e5d17609ed9d22420c16b3fe0d781e8799fbf347fd32756ae9c11eae810833a9",
    },
    "p2p_relay.soqn": {
        "events.log": "ae27315b9eefc1faa4b9ae0432ada09cc3945bf2ac501793551da258f8655739",
        "report.txt": "afd4f8059d58ebc1890a5067fe64e7c2e9d3194663a347991996d0b726e9e088",
        "records.tsv": "6620f0dada69a5a6367624cfd3cefdbbb48ee2593532521c9d7ec53fddbea77f",
    },
}

# The same scenarios with routing snapshots taken between topology changes,
# once at each file's own settings and once with links that become active
# only after an acquisition delay (link_active events refresh the table).
SNAPSHOT_TIMES = (0.0, 1.0, 2.5, 3.5, 5.2, 5.6, 9.0)

GOLDEN_SNAPSHOTS = {
    ("cs_backbone.soqn", None): {
        "events.log": "853b8dfaf26dcd9050fbb458cbaef61c654a21172d58c5d02d55d79876db2985",
        "report.txt": "05f2c69685a4d54de0bf0541a633e606f56de86a89df29d86434762cb39ed59d",
        "records.tsv": "50c748b4583fa05830c7f4ece63c5787305cba4c7cac4bc7510b830aed490437",
    },
    ("cs_backbone.soqn", 0.5): {
        "events.log": "fb3f85217af00eec856b16474a0114890726c386cfab2cb8dafac08f86993821",
        "report.txt": "f4ab3d3b6b55c446c835aabecde514f3ac8b274ecbc99313cd107a21fd909c4f",
        "records.tsv": "28b4cf86309561d97f96ee21c48552f17ac7de8a9cdc8719b640e969c480dbe3",
    },
    ("p2p_relay.soqn", None): {
        "events.log": "ae27315b9eefc1faa4b9ae0432ada09cc3945bf2ac501793551da258f8655739",
        "report.txt": "6ac725aec3250d8190d1e5d778b7be91dbb106eba1b1c435a796d2bdcbe02b20",
        "records.tsv": "207fa5e3109dc73251f1f694a133fe29db0975aa8605f3d7e62fd1d3dd782a4c",
    },
    ("p2p_relay.soqn", 0.5): {
        "events.log": "c536267580ff63f06a199c24df456003286fa2cb54eb5784a1631e4195ab08c7",
        "report.txt": "9219a1e5ef764e9cc895a21015005a9c2029ae88deac083585767729e99c649d",
        "records.tsv": "a8b02262b48a02a208661817b4dcd58b488041c87e6484d167eae4887374df7e",
    },
}


ARTIFACTS = ("events.log", "report.txt", "records.tsv")


def _replay(sc, out_dir, **kwargs):
    """Run ``sc`` into ``out_dir``; the sha256 of each artifact."""
    _, code = run_scenario(sc, out_dir=str(out_dir), **kwargs)
    if code != EXIT_OK:
        raise RuntimeError(f"scenario exited {code}")
    return {artifact: hashlib.sha256((out_dir / artifact).read_bytes()).hexdigest()
            for artifact in ARTIFACTS}


def scenario_digests(name, out_dir):
    return _replay(parse_scenario((SCENARIOS / name).read_text()), out_dir)


def snapshot_digests(key, out_dir):
    name, acquire_delay = key
    sc = parse_scenario((SCENARIOS / name).read_text())
    if acquire_delay is not None:
        sc.params["acquire_coarse_s"] = acquire_delay  # as `--sweep` overrides it
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
# deployed so far) and qkd_bulk_chain long QKD sessions.
GOLDEN_WORKLOADS = {
    "cs_mobility": {
        "events.log": "26d9dd70014c254ef1aff85621d77942574d0b471e769a1f61e5d32925a2eeb6",
        "report.txt": "6e2d58d490a0b740f7744dfb420159f5e51405fe64c3ad34de9ceb9603c7813d",
        "records.tsv": "fc0da2b9cad30c00bcab15e03b590bbcc76001fc64f714265237ded1ae354e59",
    },
    "qkd_bulk_chain": {
        "events.log": "5d64707fdb01f888d9bee07255a9ee44d76a2311a3793ecbfc19132534770032",
        "report.txt": "e7849c3abef8e930d39c52835155779beccde00e8b9e9a6fd93a11f6b52a3e33",
        "records.tsv": "81f9600323d06a244c3624c80e3110a8456996033f77f3868a7fe39d3c3652dd",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_WORKLOADS))
def test_golden_replay_of_workload(name, tmp_path):
    assert workload_digests(name, tmp_path) == GOLDEN_WORKLOADS[name]


def _literal(key):
    if isinstance(key, tuple):
        return "(" + ", ".join(map(_literal, key)) + ")"
    return f'"{key}"' if isinstance(key, str) else repr(key)


def print_pins():
    """Print every pin dict as this file lays it out, with the digests of
    the current code."""
    pins = (("GOLDEN", GOLDEN, scenario_digests),
            ("GOLDEN_SNAPSHOTS", GOLDEN_SNAPSHOTS, snapshot_digests),
            ("GOLDEN_WORKLOADS", GOLDEN_WORKLOADS, workload_digests))
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
