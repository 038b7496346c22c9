"""Golden replays: every bundled scenario reproduces its artifacts byte
for byte. The pins are sha256 digests of the files the CLI writes; a
change that alters any artifact must regenerate them and say why.

Each replay also runs ``check_log`` on the written ``events.log``: its
lines are numbered without gaps, and each broadcast's ``receivers=`` count
is the number of nodes deployed before it, less its source.

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
from event_log import check_log  # noqa: E402

GOLDEN = {
    "cs_backbone.soqn": {
        "events.log": "c90b5e43fc294d9fdee129fc1dc76f7735222cf8c0f0321e931b97a1a6204b30",
        "report.txt": "3c6f024bdb60fc831d0a32271b722c7ec8e1cda4cafd40614aa0cdc47a617704",
        "records.tsv": "c88de9c3dfed283e2b9c3d3618ebd398455d0734808e7c560c2be90664c97cdf",
    },
    "p2p_relay.soqn": {
        "events.log": "fa8694b12b6c9b7e7a9d782f51f5daac9be2e07f32cb4e864998dce59e2b9935",
        "report.txt": "d03ccaeca4654338e73b1118cf26bee8afb4a9fa26a484cc0b8cb377ebe73359",
        "records.tsv": "950939342255f77b1030d41675cadbaa003312b69f1d9247598a06185803e100",
    },
}

# The same scenarios with routing snapshots taken between topology changes,
# once at each file's own settings and once with links that become active
# only after an acquisition delay (link_active events refresh the table).
SNAPSHOT_TIMES = (0.0, 1.0, 2.5, 3.5, 5.2, 5.6, 9.0)

GOLDEN_SNAPSHOTS = {
    ("cs_backbone.soqn", None): {
        "events.log": "c90b5e43fc294d9fdee129fc1dc76f7735222cf8c0f0321e931b97a1a6204b30",
        "report.txt": "25e11c5d4e8b3476fab1ef47dc92a1c15d03634c4dc8506056160e90c7489d32",
        "records.tsv": "2e4371094bfd4c47495241d8d8137a767a5245f9e3e5979354176dd919a6b486",
    },
    ("cs_backbone.soqn", 0.5): {
        "events.log": "4385e68f049c2029fd33eb1e502325c6ed20a6f70d3aaf4b397b214150da8e07",
        "report.txt": "5c8fb2043f3f9ffe355a680757243d9b28c3068717925151bc117c685e598972",
        "records.tsv": "06b83ebe668706106b4b39b547bb46c2d61f6e4a0de18ca68472a193993c4ac0",
    },
    ("p2p_relay.soqn", None): {
        "events.log": "fa8694b12b6c9b7e7a9d782f51f5daac9be2e07f32cb4e864998dce59e2b9935",
        "report.txt": "f14c16935e5aea5597ed3a9265410c66fb22bc36d3669baae495457add122478",
        "records.tsv": "8f0b3f9a834bd0a0744b5267355b6bd447aa1273e9ee983e18991a19216493b9",
    },
    ("p2p_relay.soqn", 0.5): {
        "events.log": "a04ef7bc461e1553a0b7f802daedb796a0b666b8c095d1f43b13e0339dd2fea0",
        "report.txt": "cfb47d01ac223c60c9e974c2e49fbb6946b2a2d0d90e9222fffdaac27c87b934",
        "records.tsv": "8aaae4aad06d0b96d1ac0809b89bb96b87d79d1066c0d90a9abea78174aa7a5c",
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
        "events.log": "56b2ee2793abda0803f60f9b21fc48939df75739096b13661f2f614c8b451a11",
        "report.txt": "20cbf9994148cb09260536d944df66f7ad03499b792dd4b9d7f2b58cf8e5a286",
        "records.tsv": "814dd82e573b12726e9aab655269f5e33f9aae80837f9bfec1b42e74c504f6e2",
    },
    "p2p_mesh_sends": {
        "events.log": "14fca10ca7ab74bd1dad97185adc07f7c727d8ae5a2e85a7599267977e907778",
        "report.txt": "d2baaeabe7905afd300d849dec29910fbd415d1e2a03bf811c785d961ee0de6f",
        "records.tsv": "cbe1ff91d36b3671289365c54182696907a105892cfd289e65cb9ab5b71fd441",
    },
    "qkd_bulk_chain": {
        "events.log": "e79f15b5463425331524b1621cc8df9afe54f59d29f351ba875fbb080136ce38",
        "report.txt": "52301b188b99d32db4b29800b40ad29000edc76e45186fed0d0bfb94aff1ec81",
        "records.tsv": "d69e0991205d73dd489edaef4e0c2b68bd0b5dac0ecccc8fe190a0694e9d1d1a",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_WORKLOADS))
def test_golden_replay_of_workload(name, tmp_path):
    assert workload_digests(name, tmp_path) == GOLDEN_WORKLOADS[name]


# A bundled scenario with params that no bundled file sets, keyed by its
# name and then each param and its value. With precharge_bits, each
# organize, join and move tops up every active pair, and a link that
# finishes acquiring tops up its own pair, before any send asks for key.
GOLDEN_PARAMS = {
    ("p2p_relay.soqn", "precharge_bits", 256): {
        "events.log": "4509562e96139388a2b4dae79029b7a7dca79fea871da9c8996ca0dbb3bb0b65",
        "report.txt": "db2937fd2fe1cb2e8ab01c558a08a301ad9ae0f850fb3acad7fe717f29365120",
        "records.tsv": "b97502288b1106e55e6f5a6ac3f22c1d16401c78d2e967da40118b97aa951e69",
    },
    ("p2p_relay.soqn", "precharge_bits", 256, "acquire_delay_s", 0.5): {
        "events.log": "aaa06a98f1c56c1c4ea4250965f1c584323c26adcc1f88aba1b8b8e8b101cdae",
        "report.txt": "eb517e64ce3659d713921ba12b395a8087dd4654a3e5d6407152394bcd7c0ce3",
        "records.tsv": "974184b7ad7939d14939606ca445f1417bd4ec6b948d0c417349e130c60067dc",
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
