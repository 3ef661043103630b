"""Outside-in span tracer.

The benchmark records spans from its own files: it replaces, by
attribute name, the public entry points of each layer on the objects a
workload built (or on classes/modules for ``repro.shard``) with timing
wrappers.  A span is ``(layer, name, start, end, parent)``; spans stay
in memory until :meth:`Tracer.write_chrome_trace`.

A layer's *self time* is its spans' duration minus the part covered by
their direct child spans, so the layers partition every root span.

Wrapping fails loudly: a missing attribute raises at wrap time, and
:meth:`Tracer.require_calls` raises when a wrapped layer recorded no
call — a renamed entry point must break the benchmark, not report 0 s.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = ["TraceError", "Tracer"]

_MISSING = object()

#: (layer, name, start_s, end_s, parent index or -1)
Span = Tuple[str, str, float, float, int]


class TraceError(RuntimeError):
    """A layer entry point is missing or was never called."""


class Tracer:
    """Wraps entry points and collects their spans."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = [-1]
        self._wrapped: List[Tuple[Any, str, Any]] = []
        self._layers: List[str] = []

    def wrap(self, target: Any, names: Iterable[str], layer: str) -> None:
        """Replace ``target.<name>`` by a span-recording wrapper for
        every name; *target* is an instance, a class or a module."""
        for name in names:
            try:
                original = getattr(target, name)
            except AttributeError:
                raise TraceError(
                    f"layer {layer!r}: {target!r} has no public entry "
                    f"point {name!r} any more") from None
            self._wrapped.append(
                (target, name, vars(target).get(name, _MISSING)))
            setattr(target, name,
                    self._wrapper(original, layer, f"{layer}:{name}"))
        if layer not in self._layers:
            self._layers.append(layer)

    def _wrapper(self, original, layer: str, label: str):
        spans = self.spans
        stack = self._stack
        clock = time.monotonic

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, label, start, end, parent)

        return traced

    def unwrap(self) -> None:
        """Put every replaced attribute back."""
        for target, name, own in reversed(self._wrapped):
            if own is _MISSING:
                delattr(target, name)
            else:
                setattr(target, name, own)
        self._wrapped.clear()

    # ------------------------------------------------------------------
    # Reading the spans
    # ------------------------------------------------------------------
    def self_seconds(self) -> Dict[str, float]:
        """Self time per layer (see module docstring)."""
        child_time = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {layer: 0.0 for layer in self._layers}
        for index, (layer, _, start, end, _) in enumerate(self.spans):
            totals[layer] += (end - start) - child_time[index]
        return totals

    def calls(self, layer: str, name: Optional[str] = None) -> int:
        """Spans recorded for *layer* (optionally one entry point)."""
        label = None if name is None else f"{layer}:{name}"
        return sum(1 for span in self.spans
                   if span[0] == layer
                   and (label is None or span[1] == label))

    def seconds(self, layer: str, name: str) -> float:
        """Total duration of one entry point's spans."""
        label = f"{layer}:{name}"
        return sum(end - start for _, span_label, start, end, _
                   in self.spans if span_label == label)

    def first_start(self, layer: str, name: str) -> float:
        """Start time of the first span of one entry point."""
        label = f"{layer}:{name}"
        for _, span_label, start, _, _ in self.spans:
            if span_label == label:
                return start
        raise TraceError(f"no span recorded for {label}")

    def require_calls(self) -> None:
        """Raise unless every wrapped layer recorded at least one call."""
        seen = {span[0] for span in self.spans}
        silent = [layer for layer in self._layers if layer not in seen]
        if silent:
            raise TraceError(
                "no call recorded for layer(s) " + ", ".join(silent)
                + " — an entry point was renamed or is bypassed")

    def write_chrome_trace(self, path: Path) -> None:
        """Write the spans as Chrome trace-format complete events."""
        origin = min((span[2] for span in self.spans), default=0.0)
        events = [{"name": label, "cat": layer, "ph": "X", "pid": 1,
                   "tid": 1, "ts": round((start - origin) * 1e6, 3),
                   "dur": round((end - start) * 1e6, 3)}
                  for layer, label, start, end, _ in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))
