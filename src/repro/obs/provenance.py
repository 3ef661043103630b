"""Causal cell tracing across the abstraction interface.

The paper's central claims are *temporal* — the conservative protocol
keeps the HDL simulator's local time lagging the network simulator's,
and one abstract cell event fans out into ~400 HDL clock events — yet
aggregate counters cannot show a single cell crossing that boundary.
This module adds **cell provenance**: every cell gets a cheap,
monotonically-assigned trace id at its source, and every hop of its
journey

``source`` → ``post`` (synchroniser input queue) → ``release``
(protocol delivery) → ``ingress`` (last stimulus octet clocked into
the DUT) → ``dut_out`` (capture on ``tx_port``) → ``sink`` (netsim
terminal module)

emits one ``span`` record stamped in *both* time domains where
available (``t`` netsim seconds, ``hdl_s`` HDL seconds).  Per-cell
journeys and per-hop latency histograms fall out directly; the
Chrome exporter (:mod:`repro.obs.chrome`) renders the spans as flow
events connecting the two time-domain tracks.

Overhead discipline: id assignment is one integer increment; the
``sample`` knob traces 1-in-N cells (all spans of unsampled cells are
skipped with a single modulo check), so production-scale runs keep the
tracker on at a low duty cycle while tests trace everything.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..netsim.packet import Packet
    from .metrics import MetricsRegistry
    from .trace import TraceWriter

__all__ = ["ProvenanceTracker", "HOPS", "TRACE_ID_FIELD"]

#: the canonical hop sequence of one cell journey (a sink-only DUT
#: skips ``dut_out``; a cell the tap does not forward skips ``sink``)
HOPS = ("source", "post", "release", "ingress", "dut_out", "sink")

#: packet field carrying the trace id across the network simulator
TRACE_ID_FIELD = "trace_id"


class ProvenanceTracker:
    """Assigns trace ids to cells and records their per-hop spans.

    Args:
        metrics: registry receiving the per-hop latency histograms
            (``prov.hop_s.<from>_to_<to>``); ``None`` or a disabled
            registry records no histograms.
        trace: trace writer receiving one ``span`` record per sampled
            hop; ``None`` keeps the tracker histogram-only.
        sample: trace 1 in *sample* cells (1 = every cell).  Ids are
            assigned to **all** cells either way, so sampled journeys
            stay identifiable across domains.

    One tracker serves one environment: sources call :meth:`stamp`,
    the co-simulation entity and netsim sinks call :meth:`record_hop`
    with the id recovered from the cell/packet.
    """

    def __init__(self, metrics: Optional["MetricsRegistry"] = None,
                 trace: Optional["TraceWriter"] = None,
                 sample: int = 1) -> None:
        if sample < 1:
            raise ValueError(f"sample must be >= 1, got {sample}")
        self.sample = sample
        self.trace = trace
        self._metrics = (metrics if metrics is not None
                         and metrics.enabled else None)
        self._next_id = 0
        #: cells that received a trace id
        self.cells_seen = 0
        #: cells whose journey is actually traced (1 in ``sample``)
        self.cells_sampled = 0
        #: span records emitted (histogram-only hops count too)
        self.spans_recorded = 0
        #: trace id -> {hop: (t, hdl_s)} for every recorded hop
        self._journeys: Dict[int, Dict[str, Tuple[Optional[float],
                                                  Optional[float]]]] = {}
        #: (from_hop, to_hop) -> histogram (lazily created)
        self._hop_hists: Dict[Tuple[str, str], object] = {}
        self._hop_rank = {hop: rank for rank, hop in enumerate(HOPS)}

    # ------------------------------------------------------------------
    # Id assignment (source side)
    # ------------------------------------------------------------------
    def next_id(self) -> int:
        """Assign the next monotone trace id (one integer increment)."""
        tid = self._next_id
        self._next_id += 1
        self.cells_seen += 1
        return tid

    def sampled(self, trace_id: Optional[int]) -> bool:
        """True when the journey of *trace_id* is being traced."""
        return trace_id is not None and trace_id % self.sample == 0

    def stamp(self, packet: "Packet", time: float,
              source: Optional[str] = None) -> int:
        """Assign an id to *packet* and record its ``source`` hop.

        Called by :class:`~repro.traffic.TrafficSource` at emission;
        the id rides the packet's field dict across the network
        simulator and survives the :class:`~repro.atm.AtmCell` bridge.
        """
        tid = self.next_id()
        packet[TRACE_ID_FIELD] = tid
        self.record_hop(tid, "source", t=time, src=source)
        return tid

    # ------------------------------------------------------------------
    # Hop recording
    # ------------------------------------------------------------------
    def record_hop(self, trace_id: Optional[int], hop: str,
                   t: Optional[float] = None,
                   hdl_s: Optional[float] = None, **extra) -> None:
        """Record one hop of a cell journey (no-op for unsampled ids).

        Emits a ``span`` trace record carrying both time domains where
        known, and records the latency against the cell's *canonical*
        predecessor — the nearest earlier hop of :data:`HOPS` already
        recorded — into ``prov.hop_s.<prev>_to_<hop>``.  Canonical
        (not emission) order matters because the domains interleave:
        the netsim ``sink`` arrival routinely precedes the lagging HDL
        ``ingress`` completion of the very same cell.
        """
        if trace_id is None or trace_id % self.sample:
            return
        self.spans_recorded += 1
        journey = self._journeys.get(trace_id)
        if journey is None:
            journey = self._journeys[trace_id] = {}
            self.cells_sampled += 1
        if self._metrics is not None and journey:
            prev_hop = self._predecessor(journey, hop)
            if prev_hop is not None:
                latency = self._hop_latency(journey[prev_hop],
                                            (t, hdl_s))
                if latency is not None:
                    key = (prev_hop, hop)
                    hist = self._hop_hists.get(key)
                    if hist is None:
                        hist = self._metrics.histogram(
                            f"prov.hop_s.{key[0]}_to_{key[1]}")
                        self._hop_hists[key] = hist
                    hist.record(latency)
        journey[hop] = (t, hdl_s)
        if self.trace is not None:
            fields: Dict[str, object] = {"cell": trace_id, "hop": hop}
            if t is not None:
                fields["t"] = t
            if hdl_s is not None:
                fields["hdl_s"] = hdl_s
            fields.update(extra)
            self.trace.emit("span", **fields)

    def _predecessor(self, journey: Dict[str, Tuple[Optional[float],
                                                    Optional[float]]],
                     hop: str) -> Optional[str]:
        """The nearest recorded canonical predecessor of *hop* (the
        last recorded hop for non-canonical names)."""
        rank = self._hop_rank.get(hop)
        if rank is None:
            return next(reversed(journey)) if journey else None
        best: Optional[str] = None
        best_rank = -1
        for name in journey:
            name_rank = self._hop_rank.get(name, -1)
            if best_rank < name_rank < rank:
                best, best_rank = name, name_rank
        return best

    @staticmethod
    def _hop_latency(prev: Tuple[Optional[float], Optional[float]],
                     this: Tuple[Optional[float], Optional[float]]
                     ) -> Optional[float]:
        """Non-negative seconds between two hop stamps.

        Prefers the shared HDL domain (that is where queue waits and
        clocking delays live), then shared netsim time; hops in
        different domains are differenced directly — both domains
        count seconds from the same epoch, the HDL merely lags.
        """
        prev_t, prev_hdl = prev
        t, hdl_s = this
        if hdl_s is not None and prev_hdl is not None:
            return max(0.0, hdl_s - prev_hdl)
        if t is not None and prev_t is not None:
            return max(0.0, t - prev_t)
        this_stamp = hdl_s if hdl_s is not None else t
        prev_stamp = prev_hdl if prev_hdl is not None else prev_t
        if this_stamp is None or prev_stamp is None:
            return None
        return max(0.0, this_stamp - prev_stamp)

    # ------------------------------------------------------------------
    # Convenience hooks
    # ------------------------------------------------------------------
    def sink_hook(self, name: Optional[str] = None):
        """A ``(time, packet)`` callback recording the ``sink`` hop —
        plug into :class:`~repro.netsim.SinkModule`'s ``on_packet`` or
        a tap hook."""
        def _hook(time: float, packet: "Packet") -> None:
            tid = packet.get(TRACE_ID_FIELD)
            if name is not None:
                self.record_hop(tid, "sink", t=time, dst=name)
            else:
                self.record_hop(tid, "sink", t=time)
        return _hook

    def journey(self, trace_id: int) -> Optional[Dict[str,
                                                      Tuple[Optional[float],
                                                            Optional[float]]]]:
        """The recorded ``{hop: (t, hdl_s)}`` map of *trace_id*, or
        ``None`` for an unknown/unsampled id (debug/test aid)."""
        return self._journeys.get(trace_id)

    def journeys(self) -> Dict[int, Dict[str, Tuple[Optional[float],
                                                    Optional[float]]]]:
        """Every recorded journey, ``{trace_id: {hop: (t, hdl_s)}}``,
        in recording order — the span stream distributed telemetry
        ships back from shard workers (see
        :func:`repro.obs.distributed.spans_from_tracker`)."""
        return self._journeys

    def stats_snapshot(self) -> Dict[str, int]:
        """Machine-readable tracker counters."""
        return {
            "sample": self.sample,
            "cells_seen": self.cells_seen,
            "cells_sampled": self.cells_sampled,
            "spans_recorded": self.spans_recorded,
        }
