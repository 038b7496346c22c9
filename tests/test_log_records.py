"""Whole ``events.log`` lines of the record variants that no golden holds.

The golden scenarios write only the record kinds and outcomes their runs
reach. The lines below pin, byte for byte, the rest: an ``error`` record,
failed sends with ``ok=false`` and a ``detail`` holding spaces, aborted
QKD sessions, both ``eve`` modes, ``link_active`` after an acquisition
delay, floats that print in exponent form or negative, and a relay block
whose length is not a multiple of 4.
"""
import re

import numpy as np

from soqn.engine import SimEngine
from soqn.geo import GeoPosition
from soqn.network import Network, pair_key
from soqn.runner import build_simulation, install_handler
from soqn.scenario import parse_scenario

from event_log import check_log

SCENARIO = """\
mode p2p
seed 5
param acquire_delay_s 1.5
param detector_efficiency 1.0
param fixed_system_loss_db 0.0
param atm_loss_db_per_km 0.05
param min_sift_len 256
param pulses_per_session 4096
param max_session_attempts 1
node a peer 0.0 0.0 500.0
node b peer 0.0 0.9 500.0
node c peer 0.0 1.8 3000.0
node d peer -33.5 -70.25 1000000.0
at 0.5 qkd a c pulses=4096
at 1 send a d hex:ab
at 2 qkd a b pulses=100
at 3 eve a b intercept_resend on
at 4 qkd a b pulses=8192
at 5 send a c hex:cafe
at 6 eve a b intercept_resend off
at 7 send c a hex:""" + "0" * 128 + """
at 8 move d -45.25 -120.5 1000000.0
"""

EXPECTED = """\
0.000000\t0\tdeploy\ta\trole=peer lat=0 lon=0 alt=500
0.000000\t1\tdeploy\tb\trole=peer lat=0 lon=0.9 alt=500
0.000000\t2\tdeploy\tc\trole=peer lat=0 lon=1.8 alt=3000
0.000000\t3\tdeploy\td\trole=peer lat=-33.5 lon=-70.25 alt=1e+06
0.000000\t4\tbroadcast\ta\ttopic=location payload=0,0,500 receivers=3
0.000000\t5\tbroadcast\tb\ttopic=location payload=0,0.9,500 receivers=3
0.000000\t6\tbroadcast\tc\ttopic=location payload=0,1.8,3000 receivers=3
0.000000\t7\tbroadcast\td\ttopic=location payload=-33.5,-70.25,1e+06 receivers=3
0.000000\t8\tlink_up\ta\tpeer=b dist_km=100.083 loss_db=5.00416 state=acquiring
0.000000\t9\tlink_up\tb\tpeer=c dist_km=100.134 loss_db=5.00671 state=acquiring
0.000000\t10\tbroadcast\ta\ttopic=link_report payload=links=1 receivers=3
0.000000\t11\tbroadcast\tb\ttopic=link_report payload=links=2 receivers=3
0.000000\t12\tbroadcast\tc\ttopic=link_report payload=links=1 receivers=3
0.000000\t13\tbroadcast\td\ttopic=link_report payload=links=0 receivers=3
0.000000\t14\torganize\t-\tnodes=4 links=0
0.500000\t15\terror\ta\tmsg=no active link a~c
1.000000\t16\tsend\ta\tdst=d path=- outcome=no_route bits=0 ok=false hop=- detail=no route from a to d
1.500000\t17\tlink_active\t-\tpair=a~b
1.500000\t18\tlink_active\t-\tpair=b~c
2.000000\t19\tqkd\ta\tpeer=b proto=bb84 index=0 pulses=100 sifted=17 qber=0 leak=0 final=0 outcome=abort reason=insufficient_detections
3.000000\t20\teve\t-\tpair=a~b mode=intercept_resend
4.000000\t21\tqkd\ta\tpeer=b proto=bb84 index=1 pulses=8192 sifted=1243 qber=0.237942 leak=0 final=0 outcome=abort reason=qber_exceeds_threshold
5.000000\t22\tqkd\ta\tpeer=b proto=bb84 index=2 pulses=4096 sifted=680 qber=0.244118 leak=0 final=0 outcome=abort reason=qber_exceeds_threshold
5.000000\t23\tsend\ta\tdst=c path=a>b>c outcome=qkd_abort bits=0 ok=false hop=a~b detail=qber_exceeds_threshold
6.000000\t24\teve\t-\tpair=a~b mode=none
7.000000\t25\tqkd\tb\tpeer=c proto=bb84 index=0 pulses=4096 sifted=644 qber=0 leak=0 final=222 outcome=ok reason=none
7.000000\t26\tkeygen\tb\tpeer=c offset=0 bits=222
7.000000\t27\tsend\tc\tdst=a path=c>b>a outcome=key_starved bits=0 ok=false hop=b~c detail=222 bits available, 512 needed
8.000000\t28\tbroadcast\td\ttopic=location payload=-45.25,-120.5,1e+06 receivers=3
8.000000\t29\tbroadcast\td\ttopic=link_report payload=links=0 receivers=3
8.000000\t30\tmove\td\tlat=-45.25 lon=-120.5 alt=1e+06
""".splitlines()


def test_failure_and_edge_records_are_written_as_pinned():
    engine, network = build_simulation(parse_scenario(SCENARIO))
    install_handler(engine, network, [])
    engine.run_until()
    assert engine.log_lines() == EXPECTED
    check_log(EXPECTED)


def test_the_pinned_lines_hold_every_variant_the_module_names():
    # EXPECTED is regenerated whenever the draws change; a regeneration
    # must not lose a variant that no golden holds.
    fields = [line.split("\t", 4) for line in EXPECTED]
    assert {"error", "link_active"} <= {kind for _, _, kind, _, _ in fields}
    sends = {details.partition(" outcome=")[2].partition(" ")[0]: details
             for _, _, kind, _, details in fields if kind == "send"}
    assert {"no_route", "key_starved"} <= sends.keys()
    assert " " in sends["key_starved"].partition(" detail=")[2]
    assert {details.rpartition(" reason=")[2] for _, _, kind, _, details in fields
            if kind == "qkd" and " outcome=abort " in details} == {
                "insufficient_detections", "qber_exceeds_threshold"}
    assert {details.rpartition(" mode=")[2] for _, _, kind, _, details in fields
            if kind == "eve"} == {"intercept_resend", "none"}
    assert any(re.search(r"[=,]-?[0-9.]+e[+-][0-9]+", details) for *_, details in fields)
    assert any(re.search(r"[=,]-[0-9]", details) for *_, details in fields)


def test_relay_blocks_are_written_in_hex_or_as_bits():
    engine = SimEngine(0)
    net = Network("p2p", engine)
    for i, lon in enumerate((0.0, 0.9, 1.8)):
        net.add_node(f"n{i}", "peer", GeoPosition(0.0, lon, 500.0))
        net.handle_deploy(f"n{i}")
    net.organize_network()
    keys = {("n0", "n1"): "1011001011100101011011", ("n1", "n2"): "0110100101011100100101"}
    for pair, bits in keys.items():
        net._store_key(pair_key(*pair), np.array([int(b) for b in bits], dtype=np.uint8))
    start = len(engine.log_lines())
    for block_len in (8, 12, 2):
        net.relay_key_setup(["n0", "n1", "n2"], block_len)
    assert engine.log_lines()[start:] == [
        "0.000000\t14\tconsume\tn0\tpeer=n1 offset=0 bits=8 purpose=relay_hop",
        "0.000000\t15\tconsume\tn1\tpeer=n2 offset=0 bits=8 purpose=relay_hop",
        "0.000000\t16\tbroadcast\tn1\ttopic=relay_xor payload=db receivers=2",
        "0.000000\t17\trelay\tn0\tpath=n0>n1>n2 block_len=8",
        "0.000000\t18\tconsume\tn0\tpeer=n1 offset=8 bits=12 purpose=relay_hop",
        "0.000000\t19\tconsume\tn1\tpeer=n2 offset=8 bits=12 purpose=relay_hop",
        "0.000000\t20\tbroadcast\tn1\ttopic=relay_xor payload=b9f receivers=2",
        "0.000000\t21\trelay\tn0\tpath=n0>n1>n2 block_len=12",
        "0.000000\t22\tconsume\tn0\tpeer=n1 offset=20 bits=2 purpose=relay_hop",
        "0.000000\t23\tconsume\tn1\tpeer=n2 offset=20 bits=2 purpose=relay_hop",
        "0.000000\t24\tbroadcast\tn1\ttopic=relay_xor payload=10 receivers=2",
        "0.000000\t25\trelay\tn0\tpath=n0>n1>n2 block_len=2",
    ]
