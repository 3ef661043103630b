"""Trace recording and replay.

CASTANET lets the user "run the simulation in the background while
dumping the output data into a file and ... re-run previously generated
test vectors".  A :class:`Trace` is the file format for that: a list of
time-stamped field dictionaries that can be saved and re-loaded.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

__all__ = ["Trace", "TraceEntry", "TraceError"]

TraceEntry = Tuple[float, Dict[str, Any]]


class TraceError(Exception):
    """Raised on malformed trace files or out-of-order entries."""


class Trace:
    """A time-ordered sequence of (time, fields) records.

    Example:
        >>> t = Trace()
        >>> t.append(0.0, {"VPI": 1})
        >>> t.append(1.0, {"VPI": 2})
        >>> len(t)
        2
    """

    def __init__(self, entries: Optional[Iterable[TraceEntry]] = None,
                 name: str = "trace") -> None:
        self.name = name
        self.entries: List[TraceEntry] = []
        for time, fields in entries or []:
            self.append(time, fields)

    def append(self, time: float, fields: Dict[str, Any]) -> None:
        """Append one record; times must be non-decreasing."""
        if self.entries and time < self.entries[-1][0]:
            raise TraceError(
                f"trace {self.name!r}: entry at t={time} precedes "
                f"t={self.entries[-1][0]}")
        self.entries.append((float(time), dict(fields)))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, index: int) -> TraceEntry:
        return self.entries[index]

    def duration(self) -> float:
        """Time span covered by the trace (0 when < 2 entries)."""
        if len(self.entries) < 2:
            return 0.0
        return self.entries[-1][0] - self.entries[0][0]

    # -- persistence -------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        """Write the trace as JSON lines: one ``[time, fields]`` per line."""
        path = Path(path)
        with path.open("w") as handle:
            handle.write(json.dumps({"trace": self.name}) + "\n")
            for time, fields in self.entries:
                handle.write(json.dumps([time, fields]) + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Trace":
        """Read a trace previously written by :meth:`save`."""
        path = Path(path)
        with path.open() as handle:
            lines = [line for line in handle if line.strip()]
        if not lines:
            raise TraceError(f"{path}: empty trace file")
        try:
            header = json.loads(lines[0])
            name = header["trace"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise TraceError(f"{path}: bad header line") from exc
        trace = cls(name=name)
        for lineno, line in enumerate(lines[1:], start=2):
            try:
                time, fields = json.loads(line)
            except (json.JSONDecodeError, ValueError) as exc:
                raise TraceError(f"{path}:{lineno}: bad entry") from exc
            trace.append(time, fields)
        return trace
