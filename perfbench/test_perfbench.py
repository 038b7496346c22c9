"""Tests of the benchmark itself:  python3 -m pytest -q perfbench"""
from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from soqn.scenario import parse_scenario  # noqa: E402

# sha256 of the generated text at seed 1. A change here changes every
# workload's inputs, so earlier benchmark figures no longer compare.
SEED1_SHA256 = {
    "p2p_mesh_sends": "a3353d86225562cf76fc4f94cf1afc520298bcc1b0bb9785c63c9ef6a236a0ec",
    "cs_mobility": "44aa570dae2111836480da8039bb8ac261462c5c4829168acea7249d68c4c779",
    "qkd_bulk_chain": "bf3ad2dcaef19031c63dd4cf3a5aede94078ad9b66a19e95bb5e66277d921530",
}

# Spans recorded outside the event loop.
OUTSIDE_LOOP = {"scenario.parse", "runner.build", "runner.write", "report.build",
                "report.render", "engine.log_lines"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_and_parses(name):
    text = workloads.generate(name, 1)
    assert workloads.generate(name, 1) == text
    assert workloads.generate(name, 2) != text
    assert hashlib.sha256(text.encode()).hexdigest() == SEED1_SHA256[name]
    sc = parse_scenario(text)
    assert sc.seed == 1 and sc.nodes and sc.events


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError, match="unknown workload"):
        workloads.generate("nope", 1)


def _originals():
    return [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in tracing.TARGETS]


def test_wrappers_are_restored(tmp_path):
    before = _originals()
    text = (ROOT / "scenarios" / "p2p_relay.soqn").read_text()
    traced = run.traced_run(text, tmp_path)
    assert traced.layers["qkd.session.calls"] > 0
    assert all(vars(owner)[attr] is original for owner, attr, original in before)

    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert all(vars(o)[a] is not orig for o, a, orig in before)
            raise RuntimeError("boom")
    assert all(vars(owner)[attr] is original for owner, attr, original in before)


@pytest.mark.parametrize("scenario", ["p2p_relay.soqn", "cs_backbone.soqn"])
def test_self_times_partition_the_run(tmp_path, scenario):
    text = (ROOT / "scenarios" / scenario).read_text()
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = run.run_scenario_once(text, tmp_path, tracer)
    spans = tracer.summary()
    for name, s in spans.items():
        assert 0.0 <= s["self_s"] <= s["total_s"] + 1e-9, name
    in_loop = sum(s["self_s"] for name, s in spans.items() if name not in OUTSIDE_LOOP)
    assert 0.0 < in_loop <= traced.run_s
    handlers = sum(s["total_s"] for name, s in spans.items() if name.startswith("engine.handler."))
    assert in_loop == pytest.approx(handlers, rel=1e-9)
    # the traced run writes the same artifacts as an untraced one
    plain = run.run_scenario_once(text, tmp_path)
    assert plain.digests == traced.digests


def test_tail_keeps_ten_samples_beyond():
    assert run.tail([float(i) for i in range(40, 0, -1)]) == (30.0, 75.0)
    assert run.tail([float(i) for i in range(80)]) == (69.0, 87.5)
    with pytest.raises(RuntimeError):
        run.tail([1.0] * 19)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "qkd_bulk_chain",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
