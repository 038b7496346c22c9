"""The renderers against the per-field renderers they replaced.

A ``Report`` is frozen and formats each link row once (``Report.link_rows``),
which both ``render_human`` and ``render_records`` print; the oracles below
format every field with ``fmt`` in each renderer and join a list, as the
reports were first written. Every artifact must come out byte for byte the
same.
"""
import dataclasses

import pytest

from soqn.network import DeliveryRecord
from soqn.report import (LinkStat, Report, Snapshot, build_report, fmt, render_human,
                         render_records)
from soqn.runner import build_simulation, install_handler
from soqn.scenario import parse_scenario

from test_network import churn_scenario


def _pair_str(pair):
    return f"{pair[0]}~{pair[1]}"


def oracle_human(report):
    out = [f"simulation report  mode={report.mode} seed={report.seed}", "", "links"]
    out.append(f"  {'pair':<16} {'km':>10} {'loss_db':>8} {'state':>10} "
               f"{'sess':>5} {'abrt':>5} {'qber':>8} {'gen':>8} {'used':>8}")
    for s in report.links:
        out.append(f"  {_pair_str(s.pair):<16} {fmt(s.distance_km):>10} {fmt(s.loss_db):>8} "
                   f"{s.state:>10} {s.sessions:>5} {s.aborted:>5} {fmt(s.last_qber):>8} "
                   f"{s.bits_generated:>8} {s.bits_consumed:>8}")
    out += ["", "messages", f"  {'t':>10} {'src':<8} {'dst':<8} {'outcome':<12} {'bits':>6}  path"]
    for m in report.messages:
        path = ">".join(m.path) if m.path else "-"
        out.append(f"  {fmt(m.at):>10} {m.src:<8} {m.dst:<8} {m.outcome:<12} "
                   f"{m.bits_consumed:>6}  {path}")
    for snap in report.snapshots:
        out += ["", f"routing snapshot t={fmt(snap.at)} version={snap.version}"]
        out += [f"  {_pair_str(pair)}" for pair in snap.links]
    out += ["", "summary"]
    out += [f"  {key:<22} {fmt(value)}" for key, value in report.summary.items()]
    if report.violations:
        out += ["", "INVARIANT VIOLATIONS"] + [f"  {v}" for v in report.violations]
    return "\n".join(out) + "\n"


def oracle_records(report):
    out = [f"run\tmode={report.mode}\tseed={report.seed}"]
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
    out.append("summary\t" + "\t".join(f"{k}={fmt(v)}" for k, v in report.summary.items()))
    out += [f"violation\t{v}" for v in report.violations]
    return "\n".join(out) + "\n"


def assert_matches_oracles(report):
    assert render_human(report) == oracle_human(report)
    assert render_records(report) == oracle_records(report)


def hand_built_report():
    links = (
        LinkStat(("a", "b"), 100.08342, 5.004171, "active", 3, 2, 0.2456140, 449, 88),
        LinkStat(("a", "c"), 0.0, 0.0, "none", 0, 0, 0.0, 0, 0),
        LinkStat(("b", "c"), 1234567.0, 1e-7, "torn_down", 1, 1, 0.5, 0, 0),
        LinkStat(("b", "long-node.id_0001"), 12.5, 0.625, "acquiring", 0, 0, 0.0, 123456789, 0),
    )
    messages = [
        DeliveryRecord(2.0, "a", "b", ("a", "b"), "delivered", 40, True),
        DeliveryRecord(3.25, "a", "c", None, "no_route", 0, False, detail="no route"),
        DeliveryRecord(5.0, "c", "a", ("c", "b", "a"), "qkd_abort", 0, False, ("a", "b")),
    ]
    snapshots = [Snapshot(1.5, 2, (("a", "b"), ("b", "c"))), Snapshot(4.0, 3, ())]
    summary = {"events": 10, "active_links": 1, "sessions": 4, "sessions_aborted": 3,
               "deliveries": 3, "delivered_ok": 1, "key_bits_generated": 123457238,
               "key_bits_consumed": 88}
    violations = ["('a', 'b'): key accounting out of balance", "client-client link a~c"]
    return Report("p2p", 7, links, messages, snapshots, summary, violations)


@pytest.fixture(scope="module")
def churn_report():
    engine, net = build_simulation(parse_scenario(churn_scenario()))
    install_handler(engine, net, [])
    engine.run_until()
    return build_report(net, engine, [])


def test_churn_run_matches_the_oracles(churn_report):
    states = {s.state for s in churn_report.links}
    assert {"active", "torn_down"} <= states and len(churn_report.links) > 1000
    assert_matches_oracles(churn_report)


def test_hand_built_report_matches_the_oracles():
    report = hand_built_report()
    assert_matches_oracles(report)
    assert "  a~c" in render_human(report) and "\tstate=none\t" in render_records(report)


def test_replaced_links_are_formatted_again(churn_report):
    report = hand_built_report()
    first = render_human(report), render_records(report)
    report = dataclasses.replace(report, links=churn_report.links[:50] + report.links[1:2])
    assert_matches_oracles(report)
    assert (render_human(report), render_records(report)) != first
    report = dataclasses.replace(report, links=())
    assert_matches_oracles(report)


def test_report_fields_cannot_be_assigned():
    report = hand_built_report()
    for f in dataclasses.fields(Report):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(report, f.name, getattr(report, f.name))


def test_link_rows_are_formatted_once():
    report = hand_built_report()
    render_human(report)
    rows = vars(report)["link_rows"]  # the renderer filled the cache
    render_records(report)
    assert report.link_rows is rows
    assert rows[0] == ("a~b", "100.083", "5.00417", "active", 3, 2, "0.245614", 449, 88)
