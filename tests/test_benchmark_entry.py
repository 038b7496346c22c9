"""The benchmark's entry point, run as its declaration runs it.

``perfbench/run.py`` looks up names of the package (``soqn.backend_name``,
the traced names of ``perfbench/tracing.py``) only when it runs, so a
rename inside ``src/`` can pass every other test and still break each
benchmark run. Each case runs one short measurement in a subprocess from
the repository root and checks the JSON object its last line prints.

A module of ``src/soqn`` may import a name it does not use, marked
``# unused here; perfbench/tracing.py wraps them``, so that the tracer finds
it there; such an import is checked against the tracer's targets.
"""
import ast
import importlib
import json
import pathlib
import runpy
import subprocess
import sys

import pytest

from soqn.runner import build_simulation, install_handler
from soqn.scenario import parse_scenario

from event_log import records

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
sys.path[:0] = [str(ROOT / "perfbench")]

import workloads  # noqa: E402


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload,trace", [(w, 0) for w in WORKLOADS]
                         + [("qkd_bulk_chain", 1)])
def test_run_reports_the_declared_metrics(workload, trace):
    result = run_bench(workload, trace)
    assert result["correct"] is True and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    if trace:
        # sessions draw only counts; the tracer reads each record's
        # final_key, which draws it through the traced RandomStream.bits,
        # so rng.draws counts every final key bit the run logged
        assert result["metrics"]["rng.draws"]["value"] == logged_final_bits(workload)


def logged_final_bits(workload: str) -> int:
    """The sum of the ``final=`` fields of the ``qkd`` lines that the
    workload's scenario at seed 1 writes."""
    engine, net = build_simulation(parse_scenario(workloads.generate(workload, 1)))
    install_handler(engine, net, [])
    engine.run_until()
    return sum(int(r.details.split(" final=", 1)[1].split(" ", 1)[0])
               for r in records(engine) if r.kind == "qkd")


TRACER_ONLY = "# unused here; perfbench/tracing.py wraps them"


def test_imports_kept_for_the_tracer_are_traced_and_used_nowhere_else():
    targets = {(owner, attr) for owner, attr, *_ in
               runpy.run_path(str(ROOT / "perfbench" / "tracing.py"))["TARGETS"]}
    problems = []
    for path in sorted((ROOT / "src" / "soqn").glob("*.py")):
        source = path.read_text()
        marked = {n for n, line in enumerate(source.splitlines(), 1) if line.endswith(TRACER_ONLY)}
        if not marked:
            continue
        tree = ast.parse(source)
        module = importlib.import_module(f"soqn.{path.stem}")
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.end_lineno in marked:
                for alias in node.names:
                    name = alias.asname or alias.name
                    if (module, name) not in targets:
                        problems.append(f"{path.stem}.{name} is not a target of the tracer")
                    if name in used:
                        problems.append(f"{path.stem}.{name} is used in {path.name}")
    assert problems == []
