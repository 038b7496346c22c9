"""Run reports: a fixed-width human table and line-delimited machine records.

All floats are printed with 6 significant digits and every section is
emitted in a fixed order, so two runs of the same scenario produce
byte-identical files.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .engine import SimEngine, fmt
from .network import DeliveryRecord, Network


@dataclass(frozen=True)
class LinkStat:
    pair: tuple[str, str]
    distance_km: float
    loss_db: float
    state: str
    sessions: int
    aborted: int
    last_qber: float
    bits_generated: int
    bits_consumed: int


@dataclass(frozen=True)
class Snapshot:
    at: float
    version: int
    links: tuple[tuple[str, str], ...]


@dataclass
class Report:
    mode: str
    seed: int
    links: list[LinkStat] = field(default_factory=list)
    messages: list[DeliveryRecord] = field(default_factory=list)
    snapshots: list[Snapshot] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)


def build_report(network: Network, engine: SimEngine,
                 snapshots: list[Snapshot]) -> Report:
    pairs = sorted(set(network.link_history) | set(network.buffers) | set(network.session_stats))
    links: list[LinkStat] = []
    for pair in pairs:
        link = network.link_history.get(pair)
        sessions = network.session_stats.get(pair, [])
        buf = network.buffers.get(pair)
        links.append(LinkStat(
            pair=pair,
            distance_km=link.distance_km if link else 0.0,
            loss_db=link.loss_db if link else 0.0,
            state=link.state if link else "none",
            sessions=len(sessions),
            aborted=sum(1 for s in sessions if s.aborted),
            last_qber=sessions[-1].qber if sessions else 0.0,
            bits_generated=buf.total_generated if buf else 0,
            bits_consumed=buf.consumed_offset if buf else 0,
        ))
    violations = network.audit_otp() + network.audit_tables() + network.audit_roles()
    for stat in links:
        if stat.bits_consumed > stat.bits_generated:
            violations.append(f"{stat.pair}: key accounting out of balance")
    delivered = sum(1 for m in network.deliveries if m.delivered)
    summary = {
        "events": engine.events_processed,
        "active_links": len(network.active_pairs()),
        "sessions": sum(s.sessions for s in links),
        "sessions_aborted": sum(s.aborted for s in links),
        "deliveries": len(network.deliveries),
        "delivered_ok": delivered,
        "key_bits_generated": sum(s.bits_generated for s in links),
        "key_bits_consumed": sum(s.bits_consumed for s in links),
    }
    return Report(mode=network.mode, seed=engine.seed, links=links,
                  messages=list(network.deliveries),
                  snapshots=sorted(snapshots, key=lambda s: s.at),
                  summary=summary, violations=violations)


def _pair_str(pair) -> str:
    return f"{pair[0]}~{pair[1]}"


def render_human(report: Report) -> str:
    out: list[str] = []
    out.append(f"simulation report  mode={report.mode} seed={report.seed}")
    out.append("")
    out.append("links")
    header = (f"  {'pair':<16} {'km':>10} {'loss_db':>8} {'state':>10} "
              f"{'sess':>5} {'abrt':>5} {'qber':>8} {'gen':>8} {'used':>8}")
    out.append(header)
    for s in report.links:
        out.append(f"  {_pair_str(s.pair):<16} {fmt(s.distance_km):>10} {fmt(s.loss_db):>8} "
                   f"{s.state:>10} {s.sessions:>5} {s.aborted:>5} {fmt(s.last_qber):>8} "
                   f"{s.bits_generated:>8} {s.bits_consumed:>8}")
    out.append("")
    out.append("messages")
    out.append(f"  {'t':>10} {'src':<8} {'dst':<8} {'outcome':<12} {'bits':>6}  path")
    for m in report.messages:
        path = ">".join(m.path) if m.path else "-"
        out.append(f"  {fmt(m.at):>10} {m.src:<8} {m.dst:<8} {m.outcome:<12} "
                   f"{m.bits_consumed:>6}  {path}")
    for snap in report.snapshots:
        out.append("")
        out.append(f"routing snapshot t={fmt(snap.at)} version={snap.version}")
        for pair in snap.links:
            out.append(f"  {_pair_str(pair)}")
    out.append("")
    out.append("summary")
    for key, value in report.summary.items():
        out.append(f"  {key:<22} {fmt(value)}")
    if report.violations:
        out.append("")
        out.append("INVARIANT VIOLATIONS")
        for v in report.violations:
            out.append(f"  {v}")
    return "\n".join(out) + "\n"


def render_records(report: Report) -> str:
    """One tab-separated record per line, grouped by record type."""
    out: list[str] = []
    out.append(f"run\tmode={report.mode}\tseed={report.seed}")
    for s in report.links:
        out.append("link\t" + "\t".join([
            f"pair={_pair_str(s.pair)}", f"km={fmt(s.distance_km)}",
            f"loss_db={fmt(s.loss_db)}", f"state={s.state}",
            f"sessions={s.sessions}", f"aborted={s.aborted}",
            f"last_qber={fmt(s.last_qber)}", f"generated={s.bits_generated}",
            f"consumed={s.bits_consumed}",
        ]))
    for m in report.messages:
        out.append("message\t" + "\t".join([
            f"t={fmt(m.at)}", f"src={m.src}", f"dst={m.dst}",
            f"path={'>'.join(m.path) if m.path else '-'}",
            f"outcome={m.outcome}", f"bits={m.bits_consumed}",
            f"ok={fmt(m.plaintext_ok)}",
        ]))
    for snap in report.snapshots:
        pairs = ",".join(_pair_str(p) for p in snap.links)
        out.append(f"snapshot\tt={fmt(snap.at)}\tversion={snap.version}\tlinks={pairs}")
    summary = "\t".join(f"{k}={fmt(v)}" for k, v in report.summary.items())
    out.append(f"summary\t{summary}")
    for v in report.violations:
        out.append(f"violation\t{v}")
    return "\n".join(out) + "\n"
