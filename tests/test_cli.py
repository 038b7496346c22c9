import errno
import logging
import os
import pathlib
import re

import pytest

from soqn import cli
from soqn.cli import _parse_sweep, main

GOOD = """\
mode p2p
seed 7
param detector_efficiency 1.0
param fixed_system_loss_db 0.0
param atm_loss_db_per_km 0.0
param noise_prob 0.0
param intrinsic_error_prob 0.0
param min_sift_len 64
param safety_margin_bits 0
param pulses_per_session 2048
node n1 peer 0.0 0.0 500.0
node n2 peer 0.0 0.9 500.0
node n3 peer 0.0 1.8 3000.0
at 1.0 qkd n1 n2 pulses=2048
at 2.0 send n1 n2 hex:deadbeef
at 3.0 send n1 n3 hex:cafe
"""

# lossless but with the default intrinsic error, so sessions see qber > 0
NOISY_QKD = """\
mode p2p
param fixed_system_loss_db 0.0
param detector_efficiency 1.0
node a peer 0 0 500
node b peer 0 0.05 500
at 1 qkd a b pulses=20000
"""

P2P_RELAY = (pathlib.Path(__file__).resolve().parent.parent / "scenarios" / "p2p_relay.soqn").read_text()

NO_ROUTE = """\
mode p2p
node a peer 0.0 0.0 0.0
node b peer 40.0 90.0 0.0
at 1.0 send a b hex:ff
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.soqn"
    path.write_text(GOOD)
    return str(path)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestCliRuns:
    def test_clean_run(self, scenario_file, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["--scenario", scenario_file, "--out", out]) == 0
        for name in ("report.txt", "records.tsv", "events.log"):
            assert os.path.exists(os.path.join(out, name))
        stdout = capsys.readouterr().out
        assert "delivered_ok=2" in stdout

    def test_byte_identical_reruns(self, scenario_file, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["--scenario", scenario_file, "--out", out1]) == 0
        assert main(["--scenario", scenario_file, "--out", out2]) == 0
        for name in ("report.txt", "records.tsv", "events.log"):
            assert read(os.path.join(out1, name)) == read(os.path.join(out2, name))

    def test_info_log_says_where_the_time_went(self, scenario_file, tmp_path, caplog):
        # SOQN_LOG=info: one line per run; the default warning level: none.
        runs = {}
        for level in (logging.INFO, logging.WARNING):
            caplog.clear()
            caplog.set_level(level, logger="soqn")
            out = str(tmp_path / logging.getLevelName(level))
            assert main(["--scenario", scenario_file, "--out", out]) == 0
            runs[level] = [r.getMessage() for r in caplog.records if r.name == "soqn.runner"]
            runs[level, "artifacts"] = [read(os.path.join(out, name))
                                        for name in ("report.txt", "records.tsv", "events.log")]
        ms = r"\d+\.\d{3}"
        assert len(runs[logging.INFO]) == 1
        assert re.fullmatch(f"run: 7 events; wall ms: build {ms}, event loop {ms}, "
                            f"report {ms}, write {ms}", runs[logging.INFO][0])
        assert runs[logging.WARNING] == []
        assert runs[logging.INFO, "artifacts"] == runs[logging.WARNING, "artifacts"]

    def test_soqn_log_reaches_a_program_that_set_up_logging(self, scenario_file, tmp_path,
                                                            caplog, monkeypatch):
        # pytest's capture handler is on the root logger, so basicConfig does nothing
        assert logging.getLogger().handlers
        monkeypatch.setenv("SOQN_LOG", "info")
        soqn_log = logging.getLogger("soqn")
        level = soqn_log.level
        try:
            assert main(["--scenario", scenario_file, "--out", str(tmp_path / "o")]) == 0
        finally:
            soqn_log.setLevel(level)
        lines = [r.getMessage() for r in caplog.records if r.name == "soqn.runner"]
        assert len(lines) == 1 and lines[0].startswith("run: 7 events; wall ms: build ")

    def test_snapshot_flag(self, scenario_file, tmp_path):
        out = str(tmp_path / "out")
        assert main(["--scenario", scenario_file, "--out", out,
                     "--snapshot", "1.5", "--snapshot", "2.5"]) == 0
        text = read(os.path.join(out, "report.txt")).decode()
        assert "routing snapshot t=1.5" in text
        assert "routing snapshot t=2.5" in text

    def test_until_cuts_processing(self, scenario_file, tmp_path):
        out = str(tmp_path / "out")
        assert main(["--scenario", scenario_file, "--out", out, "--until", "1.5"]) == 0
        text = read(os.path.join(out, "records.tsv")).decode()
        assert "deliveries=0" in text

    def test_seed_override(self, scenario_file, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["--scenario", scenario_file, "--out", out1, "--seed", "1"]) == 0
        assert main(["--scenario", scenario_file, "--out", out2, "--seed", "2"]) == 0
        assert read(os.path.join(out1, "events.log")) != read(os.path.join(out2, "events.log"))

    def test_seed_flag_runs_as_the_scenario_seed(self, scenario_file, tmp_path):
        seeded = tmp_path / "seeded.soqn"
        seeded.write_text(GOOD.replace("seed 7\n", "seed 1\n"))
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["--scenario", scenario_file, "--out", out1, "--seed", "1"]) == 0
        assert main(["--scenario", str(seeded), "--out", out2]) == 0
        for name in ("report.txt", "records.tsv", "events.log"):
            assert read(os.path.join(out1, name)) == read(os.path.join(out2, name))

    def test_sweep_creates_subdirs(self, scenario_file, tmp_path):
        out = str(tmp_path / "out")
        assert main(["--scenario", scenario_file, "--out", out,
                     "--sweep", "pulses_per_session=2048,4096"]) == 0
        assert os.path.isdir(os.path.join(out, "sweep-pulses_per_session-2048"))
        assert os.path.isdir(os.path.join(out, "sweep-pulses_per_session-4096"))

    # 40 dB/km puts 4000 dB on a 100 km hop, and the transmittance underflows
    # to 0: every session aborts, with (p2p_relay) or without (GOOD) dark counts
    @pytest.mark.parametrize("text,atm", [(P2P_RELAY, "0.05"), (GOOD, "0.0")],
                             ids=["p2p_relay", "no_dark_counts"])
    def test_underflowed_links_abort_every_session(self, tmp_path, capsys, text, atm):
        path = tmp_path / "lossy.soqn"
        path.write_text(text.replace(f"param atm_loss_db_per_km {atm}\n",
                                     "param atm_loss_db_per_km 40\n"))
        out = tmp_path / "o"
        assert main(["--scenario", str(path), "--out", str(out)]) == 0
        summary = dict(kv.split("=") for kv in capsys.readouterr().out.split()[2:])
        assert int(summary["sessions"]) > 0
        assert summary["sessions_aborted"] == summary["sessions"]
        assert summary["delivered_ok"] == "0"
        assert (out / "events.log").exists()


ACQUIRE_DELAY = """\
mode p2p
param acquire_delay_s 3.0
param detector_efficiency 1.0
param fixed_system_loss_db 0.0
param atm_loss_db_per_km 0.0
param min_sift_len 64
param safety_margin_bits 0
param pulses_per_session 2048
node n1 peer 0.0 0.0 200.0
node n2 peer 0.0 0.05 200.0
at 1.0 send n1 n2 hex:aa
at 5.0 send n1 n2 hex:bb
"""


class TestAcquisitionDelay:
    def test_link_activates_after_staged_delay(self, tmp_path):
        # links acquired at t=0 become active at t=3; the t=1 send has no
        # route, the t=5 send is delivered
        path = tmp_path / "delay.soqn"
        path.write_text(ACQUIRE_DELAY)
        out = str(tmp_path / "o")
        assert main(["--scenario", str(path), "--out", out]) == 0
        records = read(os.path.join(out, "records.tsv")).decode().splitlines()
        messages = [r for r in records if r.startswith("message")]
        assert "outcome=no_route" in messages[0]
        assert "outcome=delivered" in messages[1]
        log = read(os.path.join(out, "events.log")).decode()
        assert "\tlink_active\t" in log


# an ideal channel: an honest session reads qber 0, an eavesdropped one about 0.25
EVE_TOGGLE = """\
mode p2p
param detector_efficiency 1.0
param fixed_system_loss_db 0.0
param atm_loss_db_per_km 0.0
param noise_prob 0.0
param intrinsic_error_prob 0.0
param min_sift_len 64
param safety_margin_bits 0
node a peer 0 0 500
node b peer 0 0.05 500
at 1 eve a b intercept_resend on
at 2 qkd a b pulses=20000
at 3 eve b a intercept_resend off
at 4 qkd a b pulses=20000
"""


class TestEveToggle:
    def test_eve_off_after_on_makes_the_next_session_honest(self, tmp_path):
        path = tmp_path / "eve.soqn"
        path.write_text(EVE_TOGGLE)
        out = tmp_path / "o"
        assert main(["--scenario", str(path), "--out", str(out)]) == 0
        records = [line.split("\t") for line in (out / "events.log").read_text().splitlines()]
        eve = [(r[0], r[4]) for r in records if r[2] == "eve"]
        assert eve == [("1.000000", "pair=a~b mode=intercept_resend"),
                       ("3.000000", "pair=a~b mode=none")]
        qkd = [dict(kv.split("=") for kv in r[4].split()) for r in records if r[2] == "qkd"]
        assert [(q["outcome"], q["reason"]) for q in qkd] == [
            ("abort", "qber_exceeds_threshold"), ("ok", "none")]
        assert abs(float(qkd[0]["qber"]) - 0.25) < 0.05 and float(qkd[1]["qber"]) == 0.0


class TestCliExitCodes:
    def test_parse_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.soqn"
        bad.write_text("mode warp\n")
        assert main(["--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_out_of_range_move_is_2_before_the_run(self, tmp_path, capsys):
        # the move is late in the run, yet the parse names it before anything runs
        bad = tmp_path / "bad.soqn"
        bad.write_text(GOOD + "at 9.0 move n2 95.0 0.9 500.0\n")
        out = tmp_path / "o"
        assert main(["--scenario", str(bad), "--out", str(out)]) == 2
        assert f"{bad}: line 17, col 16: latitude must be in [-90, 90]" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_is_2(self, tmp_path):
        assert main(["--scenario", str(tmp_path / "nope.soqn"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_scenario_that_is_not_utf8_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.soqn"
        bad.write_bytes(b"\xff\xfe")
        out = tmp_path / "o"
        assert main(["--scenario", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "soqn: cannot read scenario: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte\n")
        assert not out.exists()

    @pytest.mark.parametrize("out,code", [("taken", errno.EEXIST), ("taken/sub", errno.ENOTDIR)],
                             ids=["a_file", "under_a_file"])
    def test_out_that_cannot_be_written_is_2(self, scenario_file, tmp_path, capsys, out, code):
        (tmp_path / "taken").write_text("a file")
        target = tmp_path / out
        assert main(["--scenario", scenario_file, "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"soqn: cannot write {target}: {os.strerror(code)}\n"
        assert captured.out == "" and (tmp_path / "taken").read_text() == "a file"

    @pytest.mark.parametrize("args,blocker,unwritable", [
        ([], "o", "o"),
        (["--sweep", "f_ec=1.1,1.2"], "o", "o/sweep-f_ec-1.1"),
        (["--sweep", "f_ec=1.1,1.2"], "o/sweep-f_ec-1.2", "o/sweep-f_ec-1.2"),
    ], ids=["run", "sweep", "later_sweep_run"])
    def test_out_that_cannot_be_written_runs_nothing(self, scenario_file, tmp_path, capsys,
                                                     monkeypatch, args, blocker, unwritable):
        monkeypatch.setattr(cli, "run_scenario", lambda *a, **k: pytest.fail("a run started"))
        (tmp_path / blocker).parent.mkdir(exist_ok=True)
        (tmp_path / blocker).write_text("a file")
        out = tmp_path / "o"
        assert main(["--scenario", scenario_file, "--out", str(out), *args]) == 2
        captured = capsys.readouterr()
        code = errno.EEXIST if blocker == unwritable else errno.ENOTDIR
        assert captured.err == f"soqn: cannot write {tmp_path / unwritable}: {os.strerror(code)}\n"
        assert captured.out == ""

    def test_strict_no_route_is_3(self, tmp_path):
        path = tmp_path / "noroute.soqn"
        path.write_text(NO_ROUTE)
        out = str(tmp_path / "o")
        assert main(["--scenario", str(path), "--out", out, "--strict"]) == 3
        assert main(["--scenario", str(path), "--out", out]) == 0

    def test_bad_sweep_is_2(self, scenario_file, tmp_path):
        assert main(["--scenario", scenario_file, "--out", str(tmp_path / "o"),
                     "--sweep", "warp_factor=1,2"]) == 2

    def test_invalid_param_value_is_2(self, tmp_path):
        path = tmp_path / "badparam.soqn"
        path.write_text("mode p2p\nparam detector_efficiency 0.0\nnode n peer 0 0 0\n")
        assert main(["--scenario", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_overflowing_f_ec_is_2(self, tmp_path, capsys):
        # a finite f_ec whose leakage overflows is a configuration error, not a crash
        path = tmp_path / "hugefec.soqn"
        path.write_text(NOISY_QKD + "param f_ec 1e308\n")
        assert main(["--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err and "Traceback" not in err

    @pytest.mark.parametrize("spec", ["acquire_delay_s=nan", "pulses_per_session=1.5",
                                      "f_ec=inf", "require_los=yes", "f_ec=1,,2",
                                      "pulses_per_session=2_048", "f_ec=\u0661.5"])
    def test_sweep_values_typed_like_param_lines(self, spec):
        # called directly: a NaN acquisition delay used to hang the run
        with pytest.raises(ValueError):
            _parse_sweep(spec)

    def test_sweep_values_keep_their_type(self):
        assert _parse_sweep("pulses_per_session=2048,4096") == ("pulses_per_session", [2048, 4096])
        assert _parse_sweep("require_los=true,false") == ("require_los", [True, False])
        assert _parse_sweep("f_ec=1.1,1.2") == ("f_ec", [1.1, 1.2])

    @pytest.mark.parametrize("values", ["1.1,1.10", "1.1,1.2,11e-1", "0.0,-0.0"])
    def test_typed_equal_sweep_values_are_2(self, scenario_file, tmp_path, capsys, values):
        # each value names its run's directory: 1.1 and 1.10 would share sweep-f_ec-1.1
        out = tmp_path / "o"
        assert main(["--scenario", scenario_file, "--out", str(out),
                     "--sweep", f"f_ec={values}"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "repeats an earlier value" in err
        assert not out.exists()

    def test_nonfinite_sweep_is_2(self, tmp_path, capsys):
        path = tmp_path / "noisy.soqn"
        path.write_text(NOISY_QKD)
        assert main(["--scenario", str(path), "--out", str(tmp_path / "o"),
                     "--sweep", "f_ec=inf"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("spec", ["pulses_per_session=2048,0", "acquire_delay_s=0.5,-1"])
    def test_sweep_with_a_bad_later_value_writes_nothing(self, scenario_file, tmp_path, capsys,
                                                         spec):
        # the first run's directory used to be written before the second failed
        out = tmp_path / "o"
        assert main(["--scenario", scenario_file, "--out", str(out), "--sweep", spec]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "invalid configuration" in err
        assert not out.exists()

    def test_sweep_with_an_overflowing_f_ec_writes_nothing(self, tmp_path, capsys):
        # 1e308 used to fail only inside the session, after sweep-f_ec-1.1/ was written
        path = tmp_path / "noisy.soqn"
        path.write_text(NOISY_QKD)
        out = tmp_path / "o"
        assert main(["--scenario", str(path), "--out", str(out), "--sweep", "f_ec=1.1,1e308"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "invalid configuration" in err and "f_ec" in err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
    def test_seed_outside_64_bits_is_2(self, scenario_file, tmp_path, capsys, seed):
        # the seed is hashed as 64 bits: 2**64 + 1 would silently replay seed 1
        out = tmp_path / "o"
        assert main(["--scenario", scenario_file, "--out", str(out), "--seed", str(seed)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--seed" in err
        assert not out.exists()

    def test_largest_seed_runs(self, scenario_file, tmp_path):
        out = tmp_path / "o"
        assert main(["--scenario", scenario_file, "--out", str(out), "--seed", str(2**64 - 1)]) == 0
        assert f"seed={2**64 - 1}" in (out / "report.txt").read_text()

    @pytest.mark.parametrize("until,message", [("nan", "time must be finite"),
                                               ("-1", "time must be >= 0")], ids=["nan", "-1"])
    def test_bad_until_is_2(self, scenario_file, tmp_path, capsys, until, message):
        # a NaN or negative stop time used to run no events and exit 0
        out = tmp_path / "o"
        assert main(["--scenario", scenario_file, "--out", str(out), "--until", until]) == 2
        assert capsys.readouterr().err == f"soqn: --until: {message}\n"
        assert not out.exists()

    # --seed, --until and --snapshot are read as a scenario reads its
    # numbers: Python's int and float also took 1_0 and non-ASCII digits
    OPTION_VALUES = [
        ("--seed", "1_0", "seed must be an integer"),
        ("--seed", "\u0661\u0660", "seed must be an integer"),
        ("--seed", "10.0", "seed must be an integer"),
        ("--until", "1_0", "time must be a number"),
        ("--until", "\u0661\u0660", "time must be a number"),
        ("--until", "inf", "time must be finite"),
        ("--snapshot", "2_0", "time must be a number"),
        ("--snapshot", "-1", "time must be >= 0"),
        ("--snapshot", "nan", "time must be finite"),
        ("--snapshot", "1 2", "expected one value"),
    ]

    @pytest.mark.parametrize("option,value,message", OPTION_VALUES,
                             ids=[f"{o}={v}" for o, v, _ in OPTION_VALUES])
    def test_option_values_are_scenario_literals(self, scenario_file, tmp_path, capsys,
                                                 option, value, message):
        out = tmp_path / "o"
        assert main(["--scenario", scenario_file, "--out", str(out), option, value]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"soqn: {option}: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("name,value", [("pulses_per_session", "0"),
                                            ("pulses_per_session", str(2**63)),
                                            ("max_session_attempts", "-3"),
                                            ("precharge_bits", "-5"),
                                            ("acquire_delay_s", "-1"),
                                            ("min_sift_len", "1")])
    def test_out_of_range_network_param_is_2(self, tmp_path, capsys, name, value):
        # these used to run: silently as 0 (min_sift_len 1 as 2), or until a
        # session or event failed
        path = tmp_path / "network.soqn"
        path.write_text(f"mode p2p\nparam {name} {value}\nnode a peer 0 0 500\n"
                        "node b peer 0 0.05 500\nat 1 send a b hex:ff\n")
        out = tmp_path / "o"
        assert main(["--scenario", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"invalid configuration: {name} must be" in err
        assert not out.exists()

    # removed for changing no run, or for acting only through their sum:
    # the two acquisition stages (acquire_delay_s) and the two noise
    # sources (noise_prob)
    @pytest.mark.parametrize("name,value", [("signal_mean_photons", "0.5"),
                                            ("trojan_tolerance", "0.2"),
                                            ("strong_pulse_intensity", "2"),
                                            ("acquire_coarse_s", "2.0"),
                                            ("acquire_fine_s", "1.0"),
                                            ("dark_count_prob", "1e-6"),
                                            ("background_prob", "1e-4")])
    def test_removed_params_are_2(self, scenario_file, tmp_path, capsys, name, value):
        path = tmp_path / "removed.soqn"
        path.write_text(f"mode p2p\nparam {name} {value}\n")
        assert main(["--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "line 2, col 7: unknown param" in capsys.readouterr().err
        assert main(["--scenario", scenario_file, "--out", str(tmp_path / "o"),
                     "--sweep", f"{name}={value}"]) == 2
        assert f"unknown sweep param {name!r}" in capsys.readouterr().err
