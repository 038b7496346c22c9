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

    Each line's sequence field is its index, written as ``str`` writes it,
    and each ``broadcast`` line's ``receivers=`` count is the number of
    nodes of the ``deploy`` lines before it, less its source. Raises
    ``ValueError`` naming the first line that breaks either rule.
    """
    deployed: set[str] = set()
    for index, line in enumerate(lines):
        _, seq, kind, origin, details = line.split("\t", 4)
        if seq != str(index):
            raise ValueError(f"line {index} has sequence number {seq!r}")
        if kind == "deploy":
            deployed.add(origin)
        elif kind == "broadcast":
            _, has_count, count = details.rpartition(" receivers=")
            if not has_count:
                raise ValueError(f"broadcast seq {seq} has no receivers= count")
            receivers = len(deployed) - (origin in deployed)
            if count != str(receivers):
                raise ValueError(f"broadcast seq {seq} counts receivers={count}, "
                                 f"but {receivers} nodes were deployed besides {origin}")
