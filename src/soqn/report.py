"""Run reports: a fixed-width human table and line-delimited machine records.

All floats are printed with 6 significant digits and every section is
emitted in a fixed order, so two runs of the same scenario produce
byte-identical files. ``build_report`` makes one walk over the link pairs,
which builds each row and adds up the summary totals. A report is built
once, by ``build_report``, and is frozen; ``Report.link_rows`` formats each
link row once, and both renderers print those rows.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .engine import SimEngine
from .network import DeliveryRecord, Network


def fmt(value) -> str:
    """Stable scalar formatting for report fields (6 significant digits
    for floats)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


class LinkStat(NamedTuple):
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


@dataclass(frozen=True)
class Report:
    """A run's outcome, built once by ``build_report`` and frozen, so each
    link row is formatted once (``link_rows``) for both renderers."""

    mode: str
    seed: int
    links: tuple[LinkStat, ...] = ()
    messages: list[DeliveryRecord] = field(default_factory=list)
    snapshots: list[Snapshot] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)

    @cached_property
    def link_rows(self) -> tuple[tuple, ...]:
        """Each link as printed: the ``LinkStat`` fields in their order, the
        pair as ``a~b`` and the three floats as ``.6g`` (``fmt`` of a float)."""
        return tuple((f"{a}~{b}", f"{km:.6g}", f"{loss:.6g}", state, n, n_aborted,
                      f"{qber:.6g}", gen, used)
                     for (a, b), km, loss, state, n, n_aborted, qber, gen, used in self.links)


def build_report(network: Network, engine: SimEngine,
                 snapshots: list[Snapshot]) -> Report:
    history, buffers, stats = network.link_history, network.buffers, network.session_stats
    links: list[LinkStat] = []
    unbalanced: list[str] = []
    active = sessions = aborted = generated = consumed = 0
    for pair in sorted(history.keys() | buffers.keys() | stats.keys()):
        link = history.get(pair)
        if link is None:
            km = loss = 0.0
            state = "none"
        else:
            km, loss, state = link.distance_km, link.loss_db, link.state
            if state == "active":
                active += 1
        recs = stats.get(pair)
        if recs:
            n = len(recs)
            n_aborted = sum(1 for s in recs if s.aborted)
            qber = recs[-1].qber
        else:
            n = n_aborted = 0
            qber = 0.0
        buf = buffers.get(pair)
        if buf is None:
            gen = used = 0
        else:
            gen, used = buf.total_generated, buf.consumed_offset
            if used > gen:
                unbalanced.append(f"{pair}: key accounting out of balance")
        links.append(LinkStat(pair, km, loss, state, n, n_aborted, qber, gen, used))
        sessions += n
        aborted += n_aborted
        generated += gen
        consumed += used
    violations = network.audit_otp() + network.audit_tables() + network.audit_roles() + unbalanced
    summary = {
        "events": engine.events_processed,
        "active_links": active,
        "sessions": sessions,
        "sessions_aborted": aborted,
        "deliveries": len(network.deliveries),
        "delivered_ok": sum(1 for m in network.deliveries if m.delivered),
        "key_bits_generated": generated,
        "key_bits_consumed": consumed,
    }
    return Report(mode=network.mode, seed=engine.seed, links=tuple(links),
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
    # One %-format pads every field of a row in one call, twice as fast as
    # an f-string's format spec per field.
    out += ["  %-16s %10s %8s %10s %5d %5d %8s %8d %8d" % row for row in report.link_rows]
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
    for pair, km, loss, state, n, n_aborted, qber, gen, used in report.link_rows:
        out.append(f"link\tpair={pair}\tkm={km}\tloss_db={loss}\tstate={state}\tsessions={n}"
                   f"\taborted={n_aborted}\tlast_qber={qber}\tgenerated={gen}\tconsumed={used}")
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
