"""Load a parsed scenario into the engine, run it, and build the report."""
from __future__ import annotations

import os

from .bitops import bits_from_hex
from .channel import ChannelParams
from .engine import ScenarioEvent, SimEngine
from .geo import GeoPosition, LinkFeasibilityParams
from .network import Network, NetworkError
from .qkd import EVE_OFF, EveConfig, ProtocolParams
from .report import Report, Snapshot, build_report, render_human, render_records
from .scenario import PARAM_SPECS, Scenario, resolve_deploy_times

EXIT_OK = 0
EXIT_PARSE_ERROR = 2
EXIT_DELIVERY_FAILED = 3
EXIT_INVARIANT_VIOLATION = 4


def _grouped_params(sc: Scenario) -> dict[str, dict]:
    groups: dict[str, dict] = {"feasibility": {}, "channel": {}, "protocol": {}, "network": {}}
    for name, value in sc.params.items():
        groups[PARAM_SPECS[name][0]][name] = value
    return groups


def build_simulation(sc: Scenario, seed_override: int | None = None) -> tuple[SimEngine, Network]:
    """Construct the engine and network for a scenario and schedule its events."""
    groups = _grouped_params(sc)
    net_params = groups["network"]
    delay = net_params.pop("acquire_coarse_s", 0.0) + net_params.pop("acquire_fine_s", 0.0)
    engine = SimEngine(sc.seed if seed_override is None else seed_override)
    network = Network(
        sc.mode, engine,
        feasibility=LinkFeasibilityParams(**groups["feasibility"]),
        channel=ChannelParams(**groups["channel"]),
        protocol=ProtocolParams(**groups["protocol"]),
        acquire_delay_s=delay,
        **net_params,
    )
    for n in sc.nodes:
        network.add_node(n.node_id, n.role, GeoPosition(n.lat, n.lon, n.alt))
    deploys = resolve_deploy_times(sc)
    for n in sc.nodes:
        engine.schedule(ScenarioEvent(deploys[n.node_id], "deploy", {"node": n.node_id}))
    if sc.nodes:
        engine.schedule(ScenarioEvent(min(deploys.values()), "organize"))
    for ev in sc.events:
        if ev.kind == "join":
            continue  # joins became deploy events above
        engine.schedule(ScenarioEvent(ev.at, ev.kind, {"args": ev.args}))
    return engine, network


def install_handler(engine: SimEngine, network: Network,
                    snapshots_out: list[Snapshot]) -> None:
    def handler(ev: ScenarioEvent) -> None:
        kind = ev.kind
        if kind == "deploy":
            network.handle_deploy(ev.payload["node"])
        elif kind == "organize":
            network.organize_network()
        elif kind == "move":
            nid, lat, lon, alt = ev.payload["args"]
            network.move_node(nid, GeoPosition(lat, lon, alt))
        elif kind == "qkd":
            a, b, pulses = ev.payload["args"]
            try:
                network.generate_direct_key(a, b, pulses)
            except NetworkError as exc:
                engine.emit("error", a, msg=str(exc))
        elif kind == "send":
            src, dst, payload = ev.payload["args"]
            network.send_message(src, dst, bits_from_hex(payload))
        elif kind == "eve":
            a, b, on = ev.payload["args"]
            network.set_eve(a, b, EveConfig("intercept_resend") if on else EVE_OFF)
        elif kind == "link_active":
            network.activate_link(ev.payload["pair"])
        elif kind == "snapshot":
            snapshots_out.append(Snapshot(engine.now, network.table.version,
                                          tuple(sorted(network.table.links))))
        else:
            raise ValueError(f"unhandled event kind {kind!r}")

    engine.handler = handler


def run_scenario(sc: Scenario, *, until: float | None = None, strict: bool = False,
                 snapshot_times: tuple[float, ...] = (), seed_override: int | None = None,
                 out_dir: str | None = None) -> tuple[Report, int]:
    """Run a scenario to completion (or ``until``) and report.

    Exit code: 0 clean, 3 when --strict and a delivery failed, 4 on an
    internal invariant violation.
    """
    if until is not None and not until >= 0:  # also rejects NaN
        raise ValueError("until must be >= 0")
    engine, network = build_simulation(sc, seed_override)
    snapshots: list[Snapshot] = []
    install_handler(engine, network, snapshots)
    for t in snapshot_times:
        engine.schedule(ScenarioEvent(t, "snapshot"))
    if until is None:
        while engine.pending_events():
            engine.run_until(engine.last_event_time())
    else:
        engine.run_until(until)
    report = build_report(network, engine, snapshots)
    code = EXIT_OK
    if strict and any(not m.delivered or not m.plaintext_ok for m in report.messages):
        code = EXIT_DELIVERY_FAILED
    if report.violations:
        code = EXIT_INVARIANT_VIOLATION
    if out_dir is not None:
        write_outputs(report, engine, out_dir)
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
