"""Load a parsed scenario into the engine, run it, and build the report."""
from __future__ import annotations

import logging
import os
import time

from .engine import ScenarioEvent, SimEngine
from .geo import GeoPosition, LinkFeasibilityParams
from .network import Network, NetworkError
from .qkd import ChannelParams, ProtocolParams
from .report import Report, Snapshot, build_report, render_human, render_records
from .scenario import PARAM_SPECS, Scenario, bits_from_hex

EXIT_OK = 0
EXIT_PARSE_ERROR = 2
EXIT_DELIVERY_FAILED = 3
EXIT_INVARIANT_VIOLATION = 4

log = logging.getLogger(__name__)


def _grouped_params(sc: Scenario) -> dict[str, dict]:
    groups: dict[str, dict] = {"feasibility": {}, "channel": {}, "protocol": {}, "network": {}}
    for name, value in sc.params.items():
        groups[PARAM_SPECS[name][0]][name] = value
    return groups


def build_simulation(sc: Scenario) -> tuple[SimEngine, Network]:
    """Construct the engine and network for a scenario and schedule its events."""
    groups = _grouped_params(sc)
    engine = SimEngine(sc.seed)
    network = Network(
        sc.mode, engine,
        feasibility=LinkFeasibilityParams(**groups["feasibility"]),
        channel=ChannelParams(**groups["channel"]),
        protocol=ProtocolParams(**groups["protocol"]),
        **groups["network"],
    )
    for n in sc.nodes:
        network.add_node(n.node_id, n.role, GeoPosition(n.lat, n.lon, n.alt))
        engine.schedule(ScenarioEvent(n.deploy_at, "deploy", (n.node_id,)))
    if sc.nodes:
        engine.schedule(ScenarioEvent(min(n.deploy_at for n in sc.nodes), "organize"))
    for ev in sc.events:
        engine.schedule(ev)
    return engine, network


def install_handler(engine: SimEngine, network: Network,
                    snapshots_out: list[Snapshot]) -> None:
    def handler(ev: ScenarioEvent) -> None:
        kind = ev.kind
        if kind == "deploy":
            network.handle_deploy(*ev.args)
        elif kind == "organize":
            network.organize_network()
        elif kind == "move":
            nid, lat, lon, alt = ev.args
            network.move_node(nid, GeoPosition(lat, lon, alt))
        elif kind == "qkd":
            a, b, pulses = ev.args
            try:
                network.generate_direct_key(a, b, pulses)
            except NetworkError as exc:
                engine.emit("error", a, f"msg={exc}")
        elif kind == "send":
            src, dst, payload = ev.args
            network.send_message(src, dst, bits_from_hex(payload))
        elif kind == "eve":
            network.set_eve(*ev.args)
        elif kind == "link_active":
            network.activate_link(*ev.args)
        elif kind == "snapshot":
            snapshots_out.append(Snapshot(engine.now, network.table_version,
                                          tuple(sorted(network.active_pairs()))))
        else:
            raise ValueError(f"unhandled event kind {kind!r}")

    engine.handler = handler


def run_scenario(sc: Scenario, *, until: float | None = None, strict: bool = False,
                 snapshot_times: tuple[float, ...] = (),
                 out_dir: str | None = None) -> tuple[Report, int]:
    """Run a scenario to completion (or ``until``) and report.

    Exit code: 0 clean, 3 when --strict and a delivery failed, 4 on an
    internal invariant violation. Logs one info line: the events processed
    and the wall ms of build, event loop, report and write.
    """
    if until is not None and not until >= 0:  # also rejects NaN
        raise ValueError("until must be >= 0")
    t0 = time.perf_counter()
    engine, network = build_simulation(sc)
    snapshots: list[Snapshot] = []
    install_handler(engine, network, snapshots)
    for t in snapshot_times:
        engine.schedule(ScenarioEvent(t, "snapshot"))
    t1 = time.perf_counter()
    engine.run_until(until)
    t2 = time.perf_counter()
    report = build_report(network, engine, snapshots)
    code = EXIT_OK
    if strict and any(not m.delivered or not m.plaintext_ok for m in report.messages):
        code = EXIT_DELIVERY_FAILED
    if report.violations:
        code = EXIT_INVARIANT_VIOLATION
    t3 = time.perf_counter()
    if out_dir is not None:
        write_outputs(report, engine, out_dir)
    log.info("run: %d events; wall ms: build %.3f, event loop %.3f, report %.3f, write %.3f",
             engine.events_processed, 1e3 * (t1 - t0), 1e3 * (t2 - t1), 1e3 * (t3 - t2),
             1e3 * (time.perf_counter() - t3))
    return report, code


def write_outputs(report: Report, engine: SimEngine, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write(render_human(report))
    with open(os.path.join(out_dir, "records.tsv"), "w") as fh:
        fh.write(render_records(report))
    with open(os.path.join(out_dir, "events.log"), "w") as fh:
        lines = engine.log_lines()
        fh.write("\n".join(lines) + ("\n" if lines else ""))
