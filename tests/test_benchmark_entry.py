"""The benchmark's entry point, run as its declaration runs it.

``perfbench/run.py`` looks up names of the package (``soqn.backend_name``,
the traced names of ``perfbench/tracing.py``) only when it runs, so a
rename inside ``src/`` can pass every other test and still break each
benchmark run. Each case runs one short measurement in a subprocess from
the repository root and checks the JSON object its last line prints.
"""
import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


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
