"""A reader and a checker of ``events.log`` lines, for the tests."""
from __future__ import annotations

from typing import Iterable, NamedTuple


class Record(NamedTuple):
    """One ``events.log`` line, split on its tabs."""
    time: float
    seq: int
    kind: str
    origin: str
    details: str


def records(engine) -> list[Record]:
    """The lines ``engine`` has written so far, each split into its fields."""
    return [Record(float(t), int(seq), kind, origin, details)
            for t, seq, kind, origin, details
            in (line.split("\t", 4) for line in engine.log_lines())]


def check_log(lines: Iterable[str]) -> None:
    """Check what no single line of an ``events.log`` shows by itself.

    - Each line's sequence field is its index, written as ``str`` writes it.
    - Each ``broadcast`` line's ``receivers=`` count is the number of nodes
      of the ``deploy`` lines before it, less its source.
    - Each ``consume`` line starts at its pair's running cursor: the sum of
      that pair's earlier ``consume`` bits.
    - Each ``relay`` record comes after the lines that relay wrote since the
      last one: one ``relay_hop`` consume of ``block_len`` bits per hop of
      its path, in path order, then one ``relay_xor`` broadcast with payload
      ``bits=<block_len>`` from each interior node, in path order. No
      ``relay_hop`` consume or ``relay_xor`` broadcast is left without one.

    Raises ``ValueError`` naming the first line that breaks a rule.
    """
    deployed: set[str] = set()
    cursor: dict[tuple[str, str], int] = {}
    hops: list[tuple[tuple[str, str], str]] = []  # (pair, bits) since the last relay
    xors: list[tuple[str, str]] = []  # (origin, payload) since the last relay
    for index, line in enumerate(lines):
        _, seq, kind, origin, details = line.split("\t", 4)
        if seq != str(index):
            raise ValueError(f"line {index} has sequence number {seq!r}")
        if kind == "deploy":
            deployed.add(origin)
        elif kind == "broadcast":
            head, has_count, count = details.rpartition(" receivers=")
            if not has_count:
                raise ValueError(f"broadcast seq {seq} has no receivers= count")
            receivers = len(deployed) - (origin in deployed)
            if count != str(receivers):
                raise ValueError(f"broadcast seq {seq} counts receivers={count}, "
                                 f"but {receivers} nodes were deployed besides {origin}")
            if head.startswith("topic=relay_xor "):
                xors.append((origin, head.removeprefix("topic=relay_xor payload=")))
        elif kind == "consume":
            fields = dict(field.split("=", 1) for field in details.split(" "))
            pair = (origin, fields["peer"])
            at = cursor.get(pair, 0)
            if fields["offset"] != str(at):
                raise ValueError(f"consume seq {seq} starts at offset={fields['offset']}, "
                                 f"but {origin}~{fields['peer']} has consumed {at} bits")
            cursor[pair] = at + int(fields["bits"])
            if fields["purpose"] == "relay_hop":
                hops.append((pair, fields["bits"]))
        elif kind == "relay":
            fields = dict(field.split("=", 1) for field in details.split(" "))
            path, n = fields["path"].split(">"), fields["block_len"]
            want_hops = [((a, b) if a < b else (b, a), n) for a, b in zip(path, path[1:])]
            if hops != want_hops:
                raise ValueError(f"relay seq {seq} follows relay_hop consumes {hops}, "
                                 f"not {want_hops}")
            want_xors = [(relay, f"bits={n}") for relay in path[1:-1]]
            if xors != want_xors:
                raise ValueError(f"relay seq {seq} follows relay_xor broadcasts {xors}, "
                                 f"not {want_xors}")
            hops, xors = [], []
    if hops or xors:
        raise ValueError(f"relay_hop consumes {hops} and relay_xor broadcasts {xors} "
                         f"have no relay record")
