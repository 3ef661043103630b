"""Cross-level equivalence harness (behavioural twin vs RTL).

For each swappable DUT kind the harness builds the design twice — once
at ``level="rtl"`` (HDL kernel + conservative synchroniser), once at
``level="behav"`` (zero-delta twin) — replays the *identical* seeded
cell stream through both, and diffs everything the common contract
exposes:

* **output cell streams**, per port, in order (cell equality ignores
  ``trace_id``; timestamps are *not* compared — the RTL carries a
  constant start-up offset the latency model does not reproduce);
* **charging records** (accounting unit) as the raw 6-tuples, in the
  RTL's registration/FIFO order;
* **policing decisions** (UPC policer) as ``(vpi, vci, conforming)``
  sequences — the GCRA is shift-invariant in the absolute clock, so
  verdicts must match even though the raw clock stamps differ by the
  RTL's start-up offset;
* **management-plane counters** (the ``counters()`` dict both levels
  implement with identical keys).

Stimulus is slot-aligned — cells land on whole cell-time boundaries
with gaps of at least one cell slot — which is the regime where the
fixed latency model is exact (no partial-cell interleaving exists at
cell granularity) and GCRA shift-invariance holds.  The stream mixes
known connections, unknown VPI/VCI, idle cells, random CLP/PT bits and
random payload octets; the accounting run additionally closes two
tariff intervals mid-stream and at the end.

:func:`run_equivalence` returns one machine-readable report dict
(``python -m repro equiv`` serialises it to JSON).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..atm.cell import AtmCell
from ..core.environment import CoVerificationEnvironment
from ..core.timebase import TimeBase
from .factory import DutHandle, KINDS, build_dut

__all__ = ["run_equivalence", "make_events", "run_kind"]

#: VPI/VCI pair installed at no kind — exercises the unknown paths
UNKNOWN_CONNECTION = (9, 999)

#: events per tuple: ("cell", slot, in_port, AtmCell) or
#: ("tick", slot, 0, None)
Event = Tuple[str, int, int, Optional[AtmCell]]


def _setup_port_module(design, timebase: TimeBase,
                       num_ports: int) -> List[List[Tuple[int, int]]]:
    """Install the port-module translation table; returns the known
    connections per input port."""
    for j in range(4):
        design.install(1, 100 + j, 2, 200 + j)
    return [[(1, 100 + j) for j in range(4)]]


def _setup_switch(design, timebase: TimeBase,
                  num_ports: int) -> List[List[Tuple[int, int]]]:
    """Install a ring routing table (input i → output (i+1) mod N):
    each output is fed by exactly one input, so per-output cell order
    is deterministic regardless of fabric arbitration."""
    for i in range(num_ports):
        design.install_connection(i, 1, 100 + i,
                                  (i + 1) % num_ports, 2, 200 + i)
    return [[(1, 100 + i)] for i in range(num_ports)]


def _setup_policer(design, timebase: TimeBase,
                   num_ports: int) -> List[List[Tuple[int, int]]]:
    """Install GCRA contracts in whole cell slots (T and tau as
    multiples of the 53-clock cell time — the slot-aligned regime
    where cross-level verdicts are provably identical); connection
    (1, 103) stays unpoliced."""
    cpc = timebase.clocks_per_cell
    design.install_contract(1, 100, 2 * cpc, 0)
    design.install_contract(1, 101, 3 * cpc, cpc)
    design.install_contract(1, 102, 5 * cpc, 2 * cpc)
    return [[(1, 100 + j) for j in range(4)]]


def _setup_accounting(design, timebase: TimeBase,
                      num_ports: int) -> List[List[Tuple[int, int]]]:
    """Register four connections with distinct tariffs."""
    for j in range(4):
        design.register(1, 100 + j, units_per_cell=j + 1,
                        units_per_cell_clp1=j, fixed_units=2 * j)
    return [[(1, 100 + j) for j in range(4)]]


_SETUPS = {
    "port_module": _setup_port_module,
    "switch": _setup_switch,
    "policer": _setup_policer,
    "accounting": _setup_accounting,
}


def make_events(rng: random.Random, cells: int,
                connections: Sequence[Sequence[Tuple[int, int]]],
                with_ticks: bool = False) -> List[Event]:
    """Generate one seeded, slot-aligned stimulus stream.

    Cells land on strictly increasing whole cell slots (gap 1..4
    slots); each is an idle cell (~8%), an unknown connection (~10%)
    or a random known connection of its input port, with random
    PT/CLP bits and a random payload prefix.  With *with_ticks*, a
    tariff tick is inserted mid-stream and appended at the end, each
    padded three empty slots away from the nearest cell so interval
    attribution cannot race the in-flight serialisation at either
    level.
    """
    num_ports = len(connections)
    events: List[Event] = []
    slot = 0
    half = cells // 2
    for i in range(cells):
        if with_ticks and i == half:
            events.append(("tick", slot + 3, 0, None))
            slot += 6
        slot += rng.randint(1, 4)
        port = rng.randrange(num_ports)
        roll = rng.random()
        if roll < 0.08:
            cell: AtmCell = AtmCell.idle()
        else:
            if roll < 0.18:
                vpi, vci = UNKNOWN_CONNECTION
            else:
                vpi, vci = rng.choice(list(connections[port]))
            payload = [rng.randrange(256) for _ in range(4)]
            cell = AtmCell.with_payload(vpi, vci, payload,
                                        pt=rng.randrange(8),
                                        clp=rng.randint(0, 1))
        events.append(("cell", slot, port, cell))
    if with_ticks:
        events.append(("tick", slot + 4, 0, None))
    return events


def _run_level(kind: str, level: str, events: Sequence[Event],
               num_ports: int) -> Tuple[
                   CoVerificationEnvironment, DutHandle]:
    """Build the DUT at *level* and replay *events* through it."""
    env = CoVerificationEnvironment(name=f"equiv.{kind}.{level}",
                                    observe=False, dut_level=level)
    config = {"num_ports": num_ports} if kind == "switch" else {}
    handle = build_dut(env, kind, name=f"{kind}_{level}", **config)
    _SETUPS[kind](handle.design, env.timebase, num_ports)
    cell_s = env.timebase.cell_time_seconds
    for ev, slot, port, cell in events:
        t = slot * cell_s
        if ev == "cell":
            handle.entities[port].send_cell(t, cell)
        else:
            handle.entity.send_tariff_tick(t)
        for entity in handle.entities:
            entity.advance_time(t)
    t_end = (events[-1][1] + 8) * cell_s
    for entity in handle.entities:
        entity.finish(t_end)
    if handle.level == "rtl" and kind == "accounting":
        # Stream the queued record words off the bus (RECORD_WORDS
        # per record, one word per clock).
        env.hdl.run(until=env.hdl.now
                    + 256 * env.timebase.clock_period_ticks)
    env.close()
    return env, handle


def _cell_brief(cell: AtmCell) -> Dict[str, int]:
    """Compact header view of one cell for mismatch reporting."""
    return {"vpi": cell.vpi, "vci": cell.vci, "pt": cell.pt,
            "clp": cell.clp, "gfc": cell.gfc}


def _diff_sequences(rtl: Sequence, behav: Sequence,
                    describe=repr) -> Dict[str, object]:
    """Position-wise diff of two sequences; reports counts and the
    first few mismatching positions."""
    mismatches: List[Dict[str, object]] = []
    for index, (a, b) in enumerate(zip(rtl, behav)):
        if a != b:
            mismatches.append({"index": index, "rtl": describe(a),
                               "behav": describe(b)})
            if len(mismatches) >= 5:
                break
    matched = (len(rtl) == len(behav)) and not mismatches
    return {
        "matched": matched,
        "rtl_count": len(rtl),
        "behav_count": len(behav),
        "mismatches": mismatches,
    }


def run_kind(kind: str, cells: int = 64,
             seed: int = 0) -> Dict[str, object]:
    """Replay one seeded stream through *kind* at both levels and
    diff the contract surface; returns the per-kind report entry."""
    if kind not in KINDS:
        raise ValueError(
            f"unknown DUT kind {kind!r}; known: {', '.join(KINDS)}")
    num_ports = 4 if kind == "switch" else 1
    rng = random.Random(seed)
    if kind == "switch":
        connections = [[(1, 100 + i)] for i in range(num_ports)]
    else:
        connections = [[(1, 100 + j) for j in range(4)]]
    events = make_events(rng, cells, connections,
                         with_ticks=(kind == "accounting"))
    _, rtl = _run_level(kind, "rtl", events, num_ports)
    _, behav = _run_level(kind, "behav", events, num_ports)

    streams = [
        _diff_sequences(
            [cell for _, cell in rtl.entities[port].output_cells],
            [cell for _, cell in behav.entities[port].output_cells],
            describe=_cell_brief)
        for port in range(len(rtl.entities))
    ]
    records = _diff_sequences(rtl.records(), behav.records(),
                              describe=list)
    decisions = _diff_sequences(
        [(d.vpi, d.vci, d.conforming) for d in rtl.decisions()],
        [(d.vpi, d.vci, d.conforming) for d in behav.decisions()],
        describe=list)
    counters = {
        "matched": rtl.counters() == behav.counters(),
        "rtl": rtl.counters(),
        "behav": behav.counters(),
    }
    passed = (all(s["matched"] for s in streams)
              and records["matched"] and decisions["matched"]
              and counters["matched"])
    return {
        "kind": kind,
        "cells": cells,
        "seed": seed,
        "ports": len(rtl.entities),
        "streams": streams,
        "records": records,
        "decisions": decisions,
        "counters": counters,
        "passed": passed,
    }


def run_equivalence(kinds: Sequence[str] = KINDS, cells: int = 64,
                    seed: int = 0) -> Dict[str, object]:
    """Run the cross-level equivalence suite over *kinds*.

    Each kind gets its own seeded stream (derived from *seed*);
    the returned report is machine-readable and JSON-serialisable::

        {"benchmark": "equiv", "seed": ..., "cells": ...,
         "duts": {kind: {...per-kind entry...}},
         "passed": true|false}
    """
    report: Dict[str, object] = {
        "benchmark": "equiv",
        "seed": seed,
        "cells": cells,
        "duts": {},
        "passed": True,
    }
    for offset, kind in enumerate(kinds):
        entry = run_kind(kind, cells=cells, seed=seed + 7919 * offset)
        report["duts"][kind] = entry          # type: ignore[index]
        report["passed"] = bool(report["passed"]) and entry["passed"]
    return report
