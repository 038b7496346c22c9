"""End-to-end scenario benchmark for soqn, with a traced per-layer split.

    python3 perfbench/run.py --workload p2p_mesh_sends --seed 1 --seconds 40 --trace 0
    python3 -m pytest -q perfbench     # the benchmark's own tests

Run from the repository root; the package is imported from ``src/``. The
workload's scenario text is generated from ``--seed`` (see workloads.py),
then the whole scenario (parse, build, event loop, report, three artifacts)
runs again and again, single-process and single-threaded, each run starting
after the previous one ends, until ``--seconds`` have passed (at least two
runs). Every run must exit 0 with no invariant violations and write
artifacts byte-identical to the first run's; the bundled scenarios/*.soqn
also run once through the CLI as a smoke check.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from
untraced runs; each event and the output phase keep their fastest time
over the runs, set-up its median, and the send and topology percentiles
leave out garbage-collector pauses (see ``end_to_end``); the plain
per-run medians are printed beside them. ``--trace 1`` alternates
untraced and traced runs and reports the per-layer metrics from the
traced ones (tracing.py), plus the tracing overhead. The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Lines before it give the host, the scenario and artifact sha256 values,
the report summary and every metric with its unit and sample count.
"""
from __future__ import annotations

import os

# One thread per process, set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
ARTIFACTS = ("events.log", "report.txt", "records.tsv")
MIN_RUNS = 2
# Untraced mode only: after each run, repeat the output phase over its final
# state and time set-up on its own, so that these short, noisy phases get
# more samples spread over the whole measurement: at least REPEAT_MIN times,
# and more while they take under REPEAT_BUDGET_S, up to REPEAT_MAX times.
# The budget is small, so that most of the time goes to whole runs.
REPEAT_MIN, REPEAT_MAX, REPEAT_BUDGET_S = 1, 20, 0.05
# The tail is the highest percentile with TAIL_BEYOND samples beyond it,
# that is the eleventh-slowest event.
TAIL_BEYOND = 10
HANDLER_KINDS = ("deploy", "organize", "move", "qkd", "send")

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "run_s": "s", "output_s": "s",
    "send_p50_ms": "ms", "send_tail_ms": "ms", "topo_p50_ms": "ms", "topo_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> unit. A "_s" time is inclusive of everything the call
# does; "_self_s" excludes the time of traced calls made inside it.
PER_LAYER = {
    "scenario.parse_s": "s",
    "runner.build_s": "s",
    "runner.write_s": "s",
    "engine.emit.calls": "count",
    "engine.emit_s": "s",
    "engine.broadcast.calls": "count",
    "engine.broadcast_s": "s",
    "engine.broadcast_self_s": "s",
    "engine.bcast_rx.count": "count",
    "engine.log_lines_s": "s",
    **{f"engine.handler.{k}{suffix}": unit for k in HANDLER_KINDS
       for suffix, unit in (("_s", "s"), (".calls", "count"))},
    "geo.link_feasible.calls": "count",
    "geo.link_feasible_s": "s",
    "geo.geodesic_distance.calls": "count",
    "network.acquire_yield": "ratio",
    "network.find_path.calls": "count",
    "network.find_path_self_s": "s",
    "network.shortest_path_s": "s",
    "network.refresh_tables.calls": "count",
    "network.refresh_tables_s": "s",
    "network.move_node_s": "s",
    "network.join_network_s": "s",
    "network.organize_network_s": "s",
    "network.relay_key_setup_s": "s",
    "network.send_message_self_s": "s",
    "network.generate_direct_key.calls": "count",
    "network.delivered_ratio": "ratio",
    "network.keybuffer_append_s": "s",
    "network.keybuffer_append.bytes": "bytes",
    "qkd.session.calls": "count",
    "qkd.session_s": "s",
    "qkd.session_abort_ratio": "ratio",
    "qkd.sift_s": "s",
    "qkd.estimate_qber_s": "s",
    "qkd.privacy_amplify_s": "s",
    "qkd.final_bits_per_pulse": "bits/pulse",
    "kernels.transmit_s": "s",
    "kernels.transmit.pulses": "count",
    "kernels.transmit.bytes": "bytes",
    "kernels.toeplitz_s": "s",
    "kernels.toeplitz.bitops": "count",
    "rng.draw_s": "s",
    "rng.draws": "count",
    "bitops.hex_s": "s",
    "bitops.xor.calls": "count",
    "report.build_s": "s",
    "report.render_s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}

clock = time.perf_counter


@dataclass
class Run:
    """Timings and outputs of one scenario run."""

    wall_s: float
    setup_s: float
    run_s: float
    output_s: float
    # (send | move | join | ..., seconds, of which garbage-collector pauses) per event
    events: list[tuple[str, float, float]]
    digests: dict[str, str]
    summary: dict
    traced: bool = False
    layers: dict[str, float] = field(default_factory=dict)
    self_times: dict[str, float] = field(default_factory=dict)
    state: tuple | None = None  # (network, engine, snapshots) until released


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class GcPauses:
    """Running total of the cyclic garbage collector's pauses (a gc callback)."""

    def __init__(self):
        self.total = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = clock()
        else:
            self.total += clock() - self._start


def run_scenario_once(text: str, out_dir: Path, tracer=None) -> Run:
    """Parse and run one scenario through ``soqn.runner.run_scenario``.

    Phase boundaries come from wrapping ``install_handler`` (end of set-up)
    and ``build_report`` (end of the event loop); per-event host times come
    from wrapping ``engine.handler`` once it is installed, together with
    the garbage collector's pauses inside each event.
    """
    from soqn import runner, scenario
    from tracing import patched

    events: list[tuple[str, float, float]] = []
    pauses = GcPauses()
    marks: dict[str, float] = {}
    state: list[tuple] = []
    install, build_report = runner.install_handler, runner.build_report

    def timed_install(engine, network, snapshots):
        install(engine, network, snapshots)
        state.append((network, engine, snapshots))
        inner = engine.handler

        def handler(ev):
            kind = "join" if ev.kind == "deploy" and network.organized else ev.kind
            paused, t = pauses.total, clock()
            if tracer is None:
                inner(ev)
            else:
                tracer.call(f"engine.handler.{ev.kind}", inner, ev)
            events.append((kind, clock() - t, pauses.total - paused))

        engine.handler = handler
        marks["setup"] = clock()

    def marked_build_report(*args):
        marks["run"] = clock()
        return build_report(*args)

    gc.callbacks.append(pauses)
    try:
        with patched(runner, install_handler=timed_install, build_report=marked_build_report):
            t0 = clock()
            sc = scenario.parse_scenario(text)
            report, code = runner.run_scenario(sc, out_dir=str(out_dir))
            t_end = clock()
    finally:
        gc.callbacks.remove(pauses)
    if code != 0 or report.violations:
        raise RuntimeError(f"run exited {code} with violations {report.violations[:5]}")
    return Run(wall_s=t_end - t0, setup_s=marks["setup"] - t0, run_s=marks["run"] - marks["setup"],
               output_s=t_end - marks["run"], events=events,
               digests={a: sha256_file(out_dir / a) for a in ARTIFACTS},
               summary=dict(report.summary), traced=tracer is not None, state=state[0])


def output_once(run: Run, out_dir: Path) -> float:
    """Host time of a repeated output phase (report, renders, artifacts) over
    the final state of ``run``; the artifacts must not change."""
    from soqn import runner

    network, engine, snapshots = run.state
    t0 = clock()
    report = runner.build_report(network, engine, snapshots)
    runner.write_outputs(report, engine, str(out_dir))
    seconds = clock() - t0
    if {a: sha256_file(out_dir / a) for a in ARTIFACTS} != run.digests:
        raise RuntimeError("a repeated output phase wrote different artifacts")
    return seconds


def setup_once(text: str) -> float:
    """Host time of parse + build + install, without running the scenario."""
    from soqn import runner, scenario

    t0 = clock()
    sc = scenario.parse_scenario(text)
    engine, network = runner.build_simulation(sc)
    runner.install_handler(engine, network, [])
    return clock() - t0


def repeat(fn, *args) -> list[float]:
    """Host times of repeated ``fn(*args)`` calls (see REPEAT_MIN)."""
    times: list[float] = []
    while len(times) < REPEAT_MIN or (sum(times) < REPEAT_BUDGET_S and len(times) < REPEAT_MAX):
        times.append(fn(*args))
    return times


def traced_run(text: str, out_dir: Path) -> Run:
    import tracing

    tracer = tracing.Tracer()
    with tracer.installed():
        run = run_scenario_once(text, out_dir, tracer)
    spans = tracer.summary()
    run.self_times = {name: v["self_s"] for name, v in spans.items()}
    run.layers = layer_metrics(spans, tracer.counts, run)
    return run


def layer_metrics(spans: dict, counts: dict, run: Run) -> dict[str, float]:
    """PER_LAYER values (except trace.overhead_s) from one traced run."""

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def own(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for name in ("scenario.parse", "runner.build", "runner.write", "engine.emit",
                 "engine.broadcast", "engine.log_lines", "geo.link_feasible",
                 "network.shortest_path", "network.refresh_tables", "network.move_node",
                 "network.join_network", "network.organize_network",
                 "network.relay_key_setup", "network.keybuffer_append", "qkd.session",
                 "qkd.sift", "qkd.estimate_qber", "qkd.privacy_amplify", "kernels.transmit",
                 "kernels.toeplitz", "rng.draw", "bitops.hex", "report.build", "report.render",
                 *(f"engine.handler.{k}" for k in HANDLER_KINDS)):
        m[f"{name}_s"] = total(name)
    for name in ("engine.emit", "engine.broadcast", "geo.link_feasible", "network.find_path",
                 "network.refresh_tables", "network.generate_direct_key", "qkd.session",
                 *(f"engine.handler.{k}" for k in HANDLER_KINDS)):
        m[f"{name}.calls"] = calls(name)
    for name in ("engine.broadcast", "network.find_path", "network.send_message"):
        m[f"{name}_self_s"] = own(name)
    for name in ("engine.bcast_rx.count", "geo.geodesic_distance.calls",
                 "network.keybuffer_append.bytes", "kernels.transmit.pulses",
                 "kernels.transmit.bytes", "kernels.toeplitz.bitops", "rng.draws",
                 "bitops.xor.calls"):
        m[name] = counts[name]
    m["network.acquire_yield"] = ratio(counts["geo.link_feasible.true"], calls("geo.link_feasible"))
    m["network.delivered_ratio"] = ratio(run.summary["delivered_ok"], run.summary["deliveries"])
    m["qkd.session_abort_ratio"] = ratio(counts["qkd.session.aborted"], calls("qkd.session"))
    m["qkd.final_bits_per_pulse"] = ratio(counts["qkd.session.final_bits"],
                                          counts["qkd.session.pulses"])
    m["trace.run_s"] = run.run_s
    return m


def smoke_bundled(out_dir: Path) -> tuple[int, int]:
    """Run each bundled scenario once through the CLI; (attempted, failed)."""
    from soqn import cli

    attempted = failed = 0
    for path in sorted((ROOT / "scenarios").glob("*.soqn")):
        attempted += 1
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--scenario", str(path), "--out", str(out_dir / path.stem)])
        print(f"smoke: {path.relative_to(ROOT)} exit={code}")
        failed += code != 0
    return attempted, failed


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the slowest sample that has TAIL_BEYOND
    samples beyond it."""
    if len(samples) < 2 * TAIL_BEYOND:
        raise RuntimeError(f"only {len(samples)} samples; a tail needs {2 * TAIL_BEYOND}")
    ordered = sorted(samples)
    return ordered[-TAIL_BEYOND - 1], 100.0 * (len(ordered) - TAIL_BEYOND) / len(ordered)


def host_line() -> str:
    import numpy

    from soqn import backend_name

    numba = "present" if importlib.util.find_spec("numba") else "absent"
    return (f"host: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} backend={backend_name()} numba={numba}"
            + ("; kernel numbers are for the numpy backend only" if numba == "absent" else ""))


def end_to_end(runs: list[Run], setups: list[float], outputs: list[float]) -> tuple[dict, dict]:
    """End-to-end metric values, and a note on the samples behind each.

    Every run replays the same events, so each event and the output phase
    are one fixed piece of work timed several times. Each keeps its
    fastest time: load from other processes on the host only ever adds
    time, in bursts of seconds, and the fastest of several repetitions
    spread over the measurement drops those bursts. Set-up is the median
    of its many repetitions, so that work moved into it shows in full.

    The send and topology percentiles leave out the cyclic garbage
    collector's pauses inside each event. A pause (up to about a
    millisecond here) lands on whichever event the allocation count
    crosses the collector's threshold in, and half the events of a
    workload may get one, so with the pauses the median and the tail jump
    between events with and without a pause from seed to seed. ``run_s``
    and ``wall_s`` keep the pauses.
    """
    kinds = [e[0] for e in runs[0].events]
    if any([e[0] for e in r.events] != kinds for r in runs):
        raise RuntimeError("runs of one scenario processed different events")
    fastest = [min(times) for times in zip(*([e[1] for e in r.events] for r in runs))]
    handler = [min(times) for times in zip(*([e[1] - e[2] for e in r.events] for r in runs))]
    values = {"setup_s": statistics.median(setups), "run_s": sum(fastest),
              "output_s": min(outputs)}
    values["wall_s"] = values["setup_s"] + values["run_s"] + values["output_s"]
    notes = {"setup_s": f"median of {len(setups)} set-ups",
             "run_s": f"sum over {len(kinds)} events of each one's fastest of {len(runs)} runs",
             "output_s": f"fastest of {len(outputs)} output phases",
             "wall_s": "setup_s + run_s + output_s"}
    for group, members in (("send", ("send",)), ("topo", ("move", "join"))):
        samples = [s * 1e3 for kind, s in zip(kinds, handler) if kind in members]
        values[f"{group}_p50_ms"] = statistics.median(samples)
        values[f"{group}_tail_ms"], q = tail(samples)
        notes[f"{group}_p50_ms"] = (f"median of {len(samples)} events, each its fastest of "
                                    f"{len(runs)} runs less collector pauses")
        notes[f"{group}_tail_ms"] = f"p{q:.3g} of the same {len(samples)} events ({TAIL_BEYOND} beyond it)"
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    notes["peak_rss_mb"] = "ru_maxrss of this process"
    return values, notes


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "soqn" / "__init__.py").is_file():
        print(f"perfbench: no soqn package under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("perfbench: --seed must fit in 64 unsigned bits", file=sys.stderr)
        return 2
    sys.path[:0] = [str(Path(__file__).resolve().parent), str(SRC)]
    import workloads

    try:
        text = workloads.generate(args.workload, args.seed)
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(host_line())
    print(f"workload: {args.workload} seed={args.seed} "
          f"scenario_sha256={hashlib.sha256(text.encode()).hexdigest()}")

    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        return measure(args, text, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def measure(args, text: str, out_dir: Path) -> int:
    attempted, failed = smoke_bundled(out_dir / "smoke")
    runs: list[Run] = []
    setups: list[float] = []
    outputs: list[float] = []
    reference: dict[str, str] | None = None
    deadline = clock() + args.seconds
    while not failed and (len(runs) < MIN_RUNS or clock() < deadline):
        gc.collect()
        attempted += 1
        trace_this = args.trace == 1 and len(runs) % 2 == 1
        try:
            run = (traced_run(text, out_dir / "run") if trace_this
                   else run_scenario_once(text, out_dir / "run"))
            if args.trace == 0:
                outputs += [run.output_s] + repeat(output_once, run, out_dir / "run")
            run.state = None
            if args.trace == 0:
                gc.collect()
                setups += repeat(setup_once, text)
        except Exception:
            traceback.print_exc()
            failed += 1
            break
        if reference is None:
            reference = run.digests
        elif run.digests != reference:
            print(f"artifacts differ from the first run: {run.digests}", file=sys.stderr)
            failed += 1
        runs.append(run)
    plain = [r for r in runs if not r.traced]
    traced = [r for r in runs if r.traced]
    if not plain or (args.trace and not traced):
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1

    for name in ARTIFACTS:
        print(f"artifact: {name} sha256={reference[name]}")
    print("summary: " + " ".join(f"{k}={v}" for k, v in plain[0].summary.items()))
    print(f"runs: attempted={attempted} failed={failed} (including the bundled-scenario smoke runs)")

    med = statistics.median
    print(f"measured, median of {len(plain)} runs: wall {med(r.wall_s for r in plain):.6g} s, "
          f"setup {med(r.setup_s for r in plain):.6g} s, run {med(r.run_s for r in plain):.6g} s, "
          f"output {med(r.output_s for r in plain):.6g} s, "
          f"collector pauses in events {med(sum(e[2] for e in r.events) for r in plain):.6g} s")
    values, notes = end_to_end(plain, setups or [r.setup_s for r in plain],
                               outputs or [r.output_s for r in plain])
    for name, unit in END_TO_END.items():
        print(f"  {name:<14} {values[name]:>12.6g} {unit:<5} {notes[name]}")

    if args.trace == 0:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        layers = {name: statistics.median(r.layers[name] for r in traced) for name in PER_LAYER
                  if name != "trace.overhead_s"}
        traced_wall, plain_wall = med(r.wall_s for r in traced), med(r.wall_s for r in plain)
        layers["trace.overhead_s"] = traced_wall - plain_wall
        print(f"tracing overhead: {layers['trace.overhead_s']:.6g} s per run (measured wall, "
              f"median of {len(traced)} traced runs {traced_wall:.6g} s "
              f"against {len(plain)} untraced runs {plain_wall:.6g} s)")
        print("per-layer (traced runs, medians):")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<36} {layers[name]:>14.6g} {unit}")
        own = {name: statistics.median(r.self_times.get(name, 0.0) for r in traced)
               for name in traced[0].self_times}
        print("largest self times (traced runs, medians):")
        for name, seconds in sorted(own.items(), key=lambda kv: -kv[1])[:10]:
            print(f"  {name:<36} {seconds:>10.4f} s  {seconds / layers['trace.run_s']:6.1%} of run_s")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
