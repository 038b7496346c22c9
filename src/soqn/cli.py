"""Command-line entry point: parse a scenario file, run it, write reports.

Exit codes: 0 ok, 2 parse error (or a scenario that cannot be read, or an
output directory that cannot be written), 3 strict-mode delivery failure, 4
internal invariant violation. ``SOQN_LOG`` selects log verbosity (debug|info|warning).
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

from ._kernels import backend_name
from .runner import EXIT_PARSE_ERROR, build_simulation, run_scenario
from .scenario import PARAM_SPECS, ScenarioError, parse_scenario, parse_value

log = logging.getLogger("soqn")


def _configure_logging() -> None:
    level = os.environ.get("SOQN_LOG")
    numeric = {"debug": logging.DEBUG, "info": logging.INFO,
               "warning": logging.WARNING}.get((level or "").strip().lower(), logging.WARNING)
    logging.basicConfig(level=numeric, format="%(levelname)s %(name)s: %(message)s")
    if level is not None:
        # basicConfig does nothing once the root logger has a handler
        log.setLevel(numeric)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="soqn",
                                description="Simulate a self-organizing free-space QKD network scenario.")
    p.add_argument("--scenario", required=True, help="scenario file to run")
    p.add_argument("--out", default="soqn_out", help="output directory (default: soqn_out)")
    p.add_argument("--until", default=None,
                   help="stop after processing events up to this time")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when any message fails to deliver")
    p.add_argument("--snapshot", action="append", default=[],
                   help="capture a routing-table snapshot at this time (repeatable)")
    p.add_argument("--seed", default=None, help="override the scenario seed")
    p.add_argument("--sweep", default=None, metavar="PARAM=V1,V2,...",
                   help="run once per value of a param, each in its own subdirectory")
    return p


def _read(option: str, kind: str, text: str):
    """An option's value read by ``parse_value``; ValueError names the option."""
    try:
        return parse_value(kind, text)
    except ScenarioError as exc:
        raise ValueError(f"{option}: {exc.message}") from None


def _parse_sweep(spec: str) -> tuple[str, list]:
    """Split ``PARAM=V1,V2,...`` and type each value as a ``param`` line.

    Each value names its run's directory, so values that type equal (1.1
    and 1.10) are rejected rather than run twice into one directory."""
    if "=" not in spec:
        raise ValueError("--sweep expects PARAM=V1,V2,...")
    name, _, values = spec.partition("=")
    if name not in PARAM_SPECS:
        raise ValueError(f"unknown sweep param {name!r}")
    parsed = []
    for raw in values.split(","):
        value = _read(f"--sweep {name}", name, raw)
        if value in parsed:
            raise ValueError(f"--sweep {name}: {raw.strip()!r} repeats an earlier value")
        parsed.append(value)
    return name, parsed


def _cannot_write(exc: OSError, out_dir: str) -> int:
    print(f"soqn: cannot write {exc.filename or out_dir}: {exc.strerror or exc}", file=sys.stderr)
    return EXIT_PARSE_ERROR


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    args = _build_parser().parse_args(argv)
    try:
        seed = None if args.seed is None else _read("--seed", "seed", args.seed)
        until = None if args.until is None else _read("--until", "time", args.until)
        snapshots = tuple(_read("--snapshot", "time", t) for t in args.snapshot)
    except ValueError as exc:
        print(f"soqn: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    try:
        with open(args.scenario, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"soqn: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    try:
        sc = parse_scenario(text)
    except ScenarioError as exc:
        print(f"soqn: {args.scenario}: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    if seed is not None:
        sc = replace(sc, seed=seed)

    log.info("backend: %s", backend_name())
    runs = [(args.out, sc)]
    if args.sweep:
        try:
            name, values = _parse_sweep(args.sweep)
        except ValueError as exc:
            print(f"soqn: {exc}", file=sys.stderr)
            return EXIT_PARSE_ERROR
        runs = [(os.path.join(args.out, f"sweep-{name}-{v}"),
                 replace(sc, params={**sc.params, name: v})) for v in values]
    # Reject a configuration, then an output directory, before any run: a
    # bad one leaves no directory behind, and one that cannot be made fails
    # at once rather than after the run.
    try:
        for _, run_sc in runs:
            build_simulation(run_sc)
    except ValueError as exc:
        print(f"soqn: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    for out_dir, _ in runs:
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            return _cannot_write(exc, out_dir)

    worst = 0
    for out_dir, run_sc in runs:
        try:
            report, code = run_scenario(
                run_sc, until=until, strict=args.strict,
                snapshot_times=snapshots, out_dir=out_dir)
        except ValueError as exc:
            print(f"soqn: invalid configuration: {exc}", file=sys.stderr)
            return EXIT_PARSE_ERROR
        except OSError as exc:
            return _cannot_write(exc, out_dir)
        summary = " ".join(f"{k}={v}" for k, v in report.summary.items())
        print(f"{out_dir}: exit={code} {summary}")
        for v in report.violations:
            print(f"{out_dir}: VIOLATION {v}", file=sys.stderr)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
