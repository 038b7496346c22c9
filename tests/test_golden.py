"""Golden replays: every bundled scenario reproduces its artifacts byte
for byte. The pins are sha256 digests of the files the CLI writes; a
change that alters any artifact must regenerate them and say why.

``events.log`` is written in format v2 (one record per broadcast). Its pin
is the digest of the v1 log that ``expand_log`` rebuilds from the written
file, and ``events.log v2`` pins the written file itself.

``PYTHONPATH=src python tests/test_golden.py`` prints the digests of the
current code for every pin, in the layout of the dicts below, so a
regeneration is pasted from that output rather than edited by hand.
"""
import hashlib
import pathlib
import sys
import tempfile

import pytest

from soqn.engine import expand_log
from soqn.runner import EXIT_OK, run_scenario
from soqn.scenario import parse_scenario

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
sys.path[:0] = [str(ROOT / "perfbench")]

import workloads  # noqa: E402

GOLDEN = {
    "cs_backbone.soqn": {
        "events.log": "9121fa1b8f0476e4bb61b2ef7beb981771e55a705657b374e391f92531054b01",
        "events.log v2": "ba6f35c19e48107fee02adf1c2b6dd38ec47a61893de4518610776cc476c2066",
        "report.txt": "f01e0254ebe45a2413633e8c71bc795a46acdbd0f3afa143878325d66c298e77",
        "records.tsv": "599e0cd06bb7ae6cb45c829f75472e56d2b55bd4e7d87f433639c70fe153a91e",
    },
    "p2p_relay.soqn": {
        "events.log": "5eabfa320896647a1ad35ec355662260d8a0be30f21e441f88f26664ba83bef9",
        "events.log v2": "03df858475e6a0efcd6f1872a93a6b169cb670ca44908872c354286947f03920",
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
        "events.log": "9121fa1b8f0476e4bb61b2ef7beb981771e55a705657b374e391f92531054b01",
        "events.log v2": "ba6f35c19e48107fee02adf1c2b6dd38ec47a61893de4518610776cc476c2066",
        "report.txt": "56743ea8d2f8cd4c6a8b5e2bb638557abef0ce0736e520e9f4712a157d39bb39",
        "records.tsv": "f5a423beea1686aa2aed3e1eb145322a62fe067b4edb33cb97fa7ee0dbc55d66",
    },
    ("cs_backbone.soqn", 0.5): {
        "events.log": "1e115f2b08a62692a9dbee40e22cd31cf9f26a27c8eca63f48e5768f6f866bf7",
        "events.log v2": "8633c16d942f9f984b47674521d3228bae567533144664ea77500b57c1c426fd",
        "report.txt": "bde2f701358dae1ac7e790d72e0bae0656f95fce5d4898bba55becce098953e5",
        "records.tsv": "f5d98dce6b821c8b99557fda9cf5f5bee6d492276a8d9439f8ad81059595f574",
    },
    ("p2p_relay.soqn", None): {
        "events.log": "5eabfa320896647a1ad35ec355662260d8a0be30f21e441f88f26664ba83bef9",
        "events.log v2": "03df858475e6a0efcd6f1872a93a6b169cb670ca44908872c354286947f03920",
        "report.txt": "984423d6d0eee3b4cf1a0186f5881dc472e790d8123794131f930e3214949e30",
        "records.tsv": "9263fe777e327509018d045cba7f9ce1a396706a6be9d9a1f2026ed406323ab7",
    },
    ("p2p_relay.soqn", 0.5): {
        "events.log": "d8a76e364937f0a656b117ed825230cdf18c1576ea12789c2a04b5d22c8677d8",
        "events.log v2": "75904ccfd2b6c2e0c4d42e9aafbacf07dba4ea99ba337241a2f3069de589f410",
        "report.txt": "d5f4a9f5238d41b7ef13295a453406e5be86775b82e256e8a3a20e701f2b55d0",
        "records.tsv": "89d9858d35f696961dadcb761ee198bb48bd72274f121ddc1c4591928e3c0ba5",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _replay(sc, out_dir, **kwargs):
    """Run ``sc`` into ``out_dir``; the sha256 of each artifact, with
    ``events.log`` expanded to v1 and as written (``events.log v2``)."""
    _, code = run_scenario(sc, out_dir=str(out_dir), **kwargs)
    if code != EXIT_OK:
        raise RuntimeError(f"scenario exited {code}")
    written = (out_dir / "events.log").read_bytes()
    v1 = expand_log(written.decode().splitlines())
    return {"events.log": _sha256("".join(line + "\n" for line in v1).encode()),
            "events.log v2": _sha256(written),
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
        "events.log": "91e5f61065afe6dcf928fb948cf53ce1b3cb5c9a70d51726fc3bd9c1297dd5d8",
        "events.log v2": "3bb39d54616991c5112955d455d1a6924f40d9f3949b6174e6c1e428e9950e73",
        "report.txt": "3dfd50ab1e1cc11a83cc30ceab3fef19ba70dccdebcf81eef60044387564d73d",
        "records.tsv": "aa04ed4132dcc52968c85dec9a0b723cebdb4ecb1ef9616b88e91d6604093c3f",
    },
    "p2p_mesh_sends": {
        "events.log": "9d822334f135047ce7a104ddcc316ccd09f0c32e51a3988dbe2ef7dad5d61455",
        "events.log v2": "780e90cbb9bf0147b13b516a4faf56449062e60f538c0f45b83c83ea06ed2887",
        "report.txt": "0051e40d9095f882f1c33b990efe8825598beeae8277528806eb732579c6f705",
        "records.tsv": "a907836331e0b1301891f77a8a62c768ea0da34df7a525cf8542fe9b4cafc9db",
    },
    "qkd_bulk_chain": {
        "events.log": "0bb80f84aeaecc3b1bcff95bce387e53d93bdd5c747e0e4cffe7ae01b1e38e7b",
        "events.log v2": "ca8ec663fa41ed353a9ad052f51fb8c392fce85671f33bdeaae9be682cfc2daf",
        "report.txt": "46bb1caf35d26167df3f406d9cc8e35d5c0bbf92a422c5c2ec7bb8a36fe786a7",
        "records.tsv": "27513d61cd7c3d258f2c2ffe3d971d0a940411b47eb5f65e7505f46278bf3fa4",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_WORKLOADS))
def test_golden_replay_of_workload(name, tmp_path):
    assert workload_digests(name, tmp_path) == GOLDEN_WORKLOADS[name]


# A bundled scenario with one param that no bundled file sets: with
# precharge_bits every active pair is topped up after each topology change,
# before any send asks for key.
GOLDEN_PARAMS = {
    ("p2p_relay.soqn", "precharge_bits", 256): {
        "events.log": "79cf9d7b6eca253c53ca5b293141c2bcd2dd03831a58b0c81ec537e06bd68913",
        "events.log v2": "0b62d81ddbf5b8a3a45b028ea87bca45073172cd620c36dbfcadbdc35cf65bb9",
        "report.txt": "117c474ba8a9592d1798a5a77e10eb6c69552171d16f06b789933b97392e75c6",
        "records.tsv": "fffff7a6202454237eec399e362a759aeac76055083eb86c8467120c4f1e46dd",
    },
}


def param_digests(key, out_dir):
    name, param, value = key
    sc = parse_scenario((SCENARIOS / name).read_text())
    sc.params[param] = value
    return _replay(sc, out_dir)


@pytest.mark.parametrize("name,param,value", sorted(GOLDEN_PARAMS))
def test_golden_replay_with_param(name, param, value, tmp_path):
    key = (name, param, value)
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
