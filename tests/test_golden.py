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
        "events.log": "35b57c61031094bb4838c9aa9ccaeb0a040e8807088166b79baa974c4d5cf935",
        "report.txt": "f01e0254ebe45a2413633e8c71bc795a46acdbd0f3afa143878325d66c298e77",
        "records.tsv": "599e0cd06bb7ae6cb45c829f75472e56d2b55bd4e7d87f433639c70fe153a91e",
    },
    "p2p_relay.soqn": {
        "events.log": "1b031c944875848d41c705992d6fb3db3e5c1f9a150fdbe43444c089c43e8d06",
        "report.txt": "c40214331b2563fb2bd813cfbd0e2622b45b6df97ef0aa2e6806003916e2757f",
        "records.tsv": "c3268616ca89ce9aa64a9aebdd31fd90f18cb5db6d770e8ac9e27869077cc957",
    },
}

# The same scenarios with routing snapshots taken between topology changes,
# once at each file's own settings and once with links that become active
# only after an acquisition delay (link_active events refresh the table).
SNAPSHOT_TIMES = (0.0, 1.0, 2.5, 3.5, 5.2, 5.6, 9.0)

GOLDEN_SNAPSHOTS = {
    ("cs_backbone.soqn", None): {
        "events.log": "35b57c61031094bb4838c9aa9ccaeb0a040e8807088166b79baa974c4d5cf935",
        "report.txt": "56743ea8d2f8cd4c6a8b5e2bb638557abef0ce0736e520e9f4712a157d39bb39",
        "records.tsv": "f5a423beea1686aa2aed3e1eb145322a62fe067b4edb33cb97fa7ee0dbc55d66",
    },
    ("cs_backbone.soqn", 0.5): {
        "events.log": "b106fb52d833b0d43811454d6423c474f56187f6c77d841b43aa0e25dbf6bb70",
        "report.txt": "bde2f701358dae1ac7e790d72e0bae0656f95fce5d4898bba55becce098953e5",
        "records.tsv": "f5d98dce6b821c8b99557fda9cf5f5bee6d492276a8d9439f8ad81059595f574",
    },
    ("p2p_relay.soqn", None): {
        "events.log": "1b031c944875848d41c705992d6fb3db3e5c1f9a150fdbe43444c089c43e8d06",
        "report.txt": "984423d6d0eee3b4cf1a0186f5881dc472e790d8123794131f930e3214949e30",
        "records.tsv": "9263fe777e327509018d045cba7f9ce1a396706a6be9d9a1f2026ed406323ab7",
    },
    ("p2p_relay.soqn", 0.5): {
        "events.log": "3901270ac027d7cc627ad8be438ea6331afe49874ad8ee9f3bdedde9e4623e8b",
        "report.txt": "d5f4a9f5238d41b7ef13295a453406e5be86775b82e256e8a3a20e701f2b55d0",
        "records.tsv": "89d9858d35f696961dadcb761ee198bb48bd72274f121ddc1c4591928e3c0ba5",
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
        "events.log": "67f35fc1c731cb83ef9564c43ce240700de1df89b1d931b7022d7b097a6b2001",
        "report.txt": "3dfd50ab1e1cc11a83cc30ceab3fef19ba70dccdebcf81eef60044387564d73d",
        "records.tsv": "aa04ed4132dcc52968c85dec9a0b723cebdb4ecb1ef9616b88e91d6604093c3f",
    },
    "p2p_mesh_sends": {
        "events.log": "d9184cc63a2939007f117a1809f496a05dac51f97439fe9f387bae98f0325830",
        "report.txt": "0051e40d9095f882f1c33b990efe8825598beeae8277528806eb732579c6f705",
        "records.tsv": "a907836331e0b1301891f77a8a62c768ea0da34df7a525cf8542fe9b4cafc9db",
    },
    "qkd_bulk_chain": {
        "events.log": "cafd95a58bcb3496d970488c476686978499eac05a6883b2c3e41507e3fe94a8",
        "report.txt": "46bb1caf35d26167df3f406d9cc8e35d5c0bbf92a422c5c2ec7bb8a36fe786a7",
        "records.tsv": "27513d61cd7c3d258f2c2ffe3d971d0a940411b47eb5f65e7505f46278bf3fa4",
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
        "events.log": "a1690dabc35e6fa90fc57e3f8d27aa280e0d120e8935a3231a3353e9ccfd7717",
        "report.txt": "117c474ba8a9592d1798a5a77e10eb6c69552171d16f06b789933b97392e75c6",
        "records.tsv": "fffff7a6202454237eec399e362a759aeac76055083eb86c8467120c4f1e46dd",
    },
    ("p2p_relay.soqn", "precharge_bits", 256, "acquire_delay_s", 0.5): {
        "events.log": "e0c7e842dba067c3edda1aaad9ca82fd00604818305585e205b381faa9c55c41",
        "report.txt": "dd7a83ff0a4aea806ab92ec1b1e894888d29f3c3ea8619f7275d8591762b915d",
        "records.tsv": "9c617b09a80ada6e67f71b63f0d4fd822a1b08dee036452e5d325543725b58aa",
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
