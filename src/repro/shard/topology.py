"""Sharded multi-switch topologies: spec, process fleet, driver.

:class:`TopologySpec` declares a topology the way
:class:`~repro.sweep.SweepSpec` declares a matrix (TOML/JSON loadable,
strict unknown-key validation); :class:`ShardedTopology` spawns one
worker process per shard and hands back the driving
:class:`~repro.shard.client.ShardHandle` fleet; :func:`run_topology`
is the whole workflow — seeded stimulus, windowed conservative
driving, optional chained forwarding, finish, report.

The driver is *mode-agnostic by design*: ``mode="sharded"`` drives
:class:`ShardHandle` objects (worker processes over pipes/sockets),
``mode="local"`` drives :class:`~repro.shard.client.LocalShardHandle`
objects (everything in this process) — through the identical handle
API, producing the identical op stream, replayed by the identical
:class:`~repro.shard.group.ShardGroup` code.  That is why the two
modes' output cell streams are byte-identical, which the equivalence
tests assert per port via SHA-256 digests.

Timing discipline: events are applied in *windows* of
``window_slots`` cell slots.  Within a window the coordinator queues
each shard's events (cells/ticks, each followed by a null at its
timestamp), closes the window with a null at the window-end time, and
flushes — the pipelined frames overlap shard compute with coordinator
op generation.  At the window barrier, chained topologies forward the
fresh output cells of shard *k* into shard *k+1*, re-stamped
``max(output_time, window_end)`` so the forwarded post can never land
behind the downstream shard's horizon (the distributed form of the
conservative protocol's lookahead guarantee).
"""

from __future__ import annotations

import hashlib
import json
import random
import time as _time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..behav.equiv import make_events
from ..core.timebase import TimeBase
from ..sweep.runner import start_context
from . import protocol
from .client import LocalShardHandle, ShardHandle
from .transport import (PipeTransport, accept_transport, open_listener,
                        shm_ring_pair)
from .worker import (shard_worker_main, shard_worker_shm_main,
                     shard_worker_socket_main)

try:
    import tomllib as _toml
except ImportError:  # pragma: no cover - Python < 3.11
    try:
        import tomli as _toml  # type: ignore[no-redef]
    except ImportError:
        _toml = None  # JSON specs remain available

__all__ = ["ShardSpec", "TopologySpec", "ShardSpecError",
           "ShardedTopology", "run_topology", "TRANSPORTS", "MODES"]

#: transports a topology can couple its shards over
TRANSPORTS = ("pipe", "socket", "shm")
#: run modes of :func:`run_topology`
MODES = ("sharded", "local")


class ShardSpecError(ValueError):
    """Raised on an invalid or unreadable topology specification."""


@dataclass(frozen=True)
class ShardSpec:
    """One shard of the topology: identity and DUT shape.

    Attributes:
        id: shard name (process naming, error attribution, report
            keys).
        level: DUT abstraction level ("rtl" | "behav" | "auto") — the
            per-shard knob that makes mixed-level topologies (cheap
            behavioural shards around the RTL shard under scrutiny)
            declarative.
        num_ports: switch fabric port count.
        accounting: couple an accounting unit on this shard.
    """

    id: str
    level: str = "auto"
    num_ports: int = 4
    accounting: bool = True

    def config(self) -> Dict[str, Any]:
        """The worker-process config dict for this shard."""
        return {"id": self.id, "level": self.level,
                "num_ports": self.num_ports,
                "accounting": self.accounting}


@dataclass
class TopologySpec:
    """A declarative sharded topology plus run/execution knobs.

    Attributes:
        shards: the shard list (build via ``levels``/``count`` in
            :meth:`from_mapping`, or directly).
        cells: seeded stimulus cells per shard.
        seed: stimulus RNG seed (each shard derives its own stream).
        window_slots: cell slots per driving window (the conservative
            exchange granularity).
        drain_windows: extra empty windows after the last event so
            chained forwards still in flight can surface and hop.
        chain: forward shard *k*'s output cells into shard *k+1*
            (two-switch cell flows; off = independent shards).
        transport: "pipe" | "socket" | "shm" shard coupling ("shm" is
            the same-host shared-memory ring).
        max_batch: max ops per frame (see
            :class:`~repro.shard.client.ShardHandle`).
        max_inflight: pipelined unacknowledged frames per shard.
        inject: per-shard-id failure injection (tests only), e.g.
            ``{"shard1": {"kind": "exit", "at_op": 40}}``.
        trace_dir: when set, every shard worker writes its JSONL
            decision trace to ``<trace_dir>/<shard-id>.trace.jsonl``
            with the shard id stamped on every record (local-mode
            twins write ``<shard-id>.local.trace.jsonl`` so a
            ``--mode both`` comparison keeps both sides).
        observe: enable the metrics/provenance instruments inside
            every shard.  Stimulus cells get coordinator-assigned
            trace ids stamped into the op stream, each shard records
            per-hop spans, and :func:`run_topology` collects and
            merges the per-shard telemetry into the report.
    """

    shards: List[ShardSpec] = field(default_factory=lambda: [
        ShardSpec("shard0"), ShardSpec("shard1")])
    cells: int = 48
    seed: int = 0
    window_slots: int = 64
    drain_windows: int = 2
    chain: bool = False
    transport: str = "pipe"
    max_batch: int = 512
    max_inflight: int = 4
    inject: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    trace_dir: Optional[str] = None
    observe: bool = False

    def __post_init__(self) -> None:
        """Validate the shard list and knobs; raises
        :class:`ShardSpecError`."""
        if not self.shards:
            raise ShardSpecError("a topology needs >= 1 shard")
        ids = [shard.id for shard in self.shards]
        if len(set(ids)) != len(ids):
            raise ShardSpecError(f"duplicate shard ids in {ids}")
        for shard in self.shards:
            if shard.num_ports < 2:
                raise ShardSpecError(
                    f"shard {shard.id!r}: need >= 2 ports, got "
                    f"{shard.num_ports}")
        if self.cells < 1:
            raise ShardSpecError(f"need >= 1 cell, got {self.cells}")
        if self.window_slots < 1:
            raise ShardSpecError(
                f"need >= 1 window slot, got {self.window_slots}")
        if self.drain_windows < 0:
            raise ShardSpecError(
                f"negative drain_windows {self.drain_windows}")
        if self.transport not in TRANSPORTS:
            raise ShardSpecError(
                f"unknown transport {self.transport!r}; known: "
                f"{', '.join(TRANSPORTS)}")
        if self.chain and len(self.shards) < 2:
            raise ShardSpecError("chained topologies need >= 2 shards")
        unknown = set(self.inject) - set(ids)
        if unknown:
            raise ShardSpecError(
                f"inject names unknown shard(s): "
                f"{', '.join(sorted(unknown))}")

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict view mirroring the spec-file structure."""
        return {
            "topology": {
                "shards": [{"id": s.id, "level": s.level,
                            "ports": s.num_ports,
                            "accounting": s.accounting}
                           for s in self.shards],
                "chain": self.chain,
            },
            "run": {"cells": self.cells, "seed": self.seed,
                    "window_slots": self.window_slots,
                    "drain_windows": self.drain_windows},
            "execution": {"transport": self.transport,
                          "max_batch": self.max_batch,
                          "max_inflight": self.max_inflight,
                          "observe": self.observe},
        }

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    @classmethod
    def from_mapping(cls, data: Dict[str, Any]) -> "TopologySpec":
        """Build a spec from the parsed TOML/JSON structure.

        The ``[topology]`` table takes either an explicit ``shards``
        list of tables (``id``/``level``/``ports``/``accounting``) or
        the shorthand ``count`` + shared ``level``/``ports``/
        ``accounting`` (shards named ``shard0..shardN-1``).
        """
        if not isinstance(data, dict):
            raise ShardSpecError(
                f"spec root must be a table/object, got "
                f"{type(data).__name__}")
        topology = data.get("topology", {})
        run = data.get("run", {})
        execution = data.get("execution", {})
        for section, payload in (("topology", topology), ("run", run),
                                 ("execution", execution)):
            if not isinstance(payload, dict):
                raise ShardSpecError(f"[{section}] must be a table")
        unknown = set(data) - {"topology", "run", "execution"}
        if unknown:
            raise ShardSpecError(
                f"unknown spec section(s): {', '.join(sorted(unknown))}")
        known = {"topology": {"shards", "count", "level", "ports",
                              "accounting", "chain"},
                 "run": {"cells", "seed", "window_slots",
                         "drain_windows"},
                 "execution": {"transport", "max_batch",
                               "max_inflight", "trace_dir",
                               "observe"}}
        for section, payload in (("topology", topology), ("run", run),
                                 ("execution", execution)):
            extra = set(payload) - known[section]
            if extra:
                raise ShardSpecError(
                    f"unknown key(s) in [{section}]: "
                    f"{', '.join(sorted(extra))}")

        level = str(topology.get("level", "auto"))
        ports = int(topology.get("ports", 4))
        accounting = bool(topology.get("accounting", True))
        if "shards" in topology:
            if "count" in topology:
                raise ShardSpecError(
                    "[topology] takes shards OR count, not both")
            shards = []
            for index, entry in enumerate(topology["shards"]):
                if not isinstance(entry, dict):
                    raise ShardSpecError(
                        "[topology] shards entries must be tables")
                extra = set(entry) - {"id", "level", "ports",
                                      "accounting"}
                if extra:
                    raise ShardSpecError(
                        f"unknown key(s) in shard entry: "
                        f"{', '.join(sorted(extra))}")
                shards.append(ShardSpec(
                    id=str(entry.get("id", f"shard{index}")),
                    level=str(entry.get("level", level)),
                    num_ports=int(entry.get("ports", ports)),
                    accounting=bool(entry.get("accounting",
                                              accounting))))
        else:
            count = int(topology.get("count", 2))
            if count < 1:
                raise ShardSpecError(f"need >= 1 shard, got {count}")
            shards = [ShardSpec(id=f"shard{index}", level=level,
                                num_ports=ports, accounting=accounting)
                      for index in range(count)]

        kwargs: Dict[str, Any] = {"shards": shards}
        if "chain" in topology:
            kwargs["chain"] = bool(topology["chain"])
        if "cells" in run:
            kwargs["cells"] = int(run["cells"])
        if "seed" in run:
            kwargs["seed"] = int(run["seed"])
        if "window_slots" in run:
            kwargs["window_slots"] = int(run["window_slots"])
        if "drain_windows" in run:
            kwargs["drain_windows"] = int(run["drain_windows"])
        if "transport" in execution:
            kwargs["transport"] = str(execution["transport"])
        if "max_batch" in execution:
            kwargs["max_batch"] = int(execution["max_batch"])
        if "max_inflight" in execution:
            kwargs["max_inflight"] = int(execution["max_inflight"])
        if "trace_dir" in execution:
            kwargs["trace_dir"] = str(execution["trace_dir"])
        if "observe" in execution:
            kwargs["observe"] = bool(execution["observe"])
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "TopologySpec":
        """Read a spec file; format chosen by suffix (.toml / .json)."""
        path = Path(path)
        if not path.is_file():
            raise ShardSpecError(f"no topology spec at {path}")
        if path.suffix == ".toml":
            if _toml is None:
                raise ShardSpecError(
                    "TOML specs need Python >= 3.11 (tomllib) or the "
                    "tomli backport — neither is available; use a "
                    "JSON spec instead")
            try:
                data = _toml.loads(path.read_text())
            except Exception as exc:
                raise ShardSpecError(f"invalid TOML in {path}: {exc}")
        elif path.suffix == ".json":
            try:
                data = json.loads(path.read_text())
            except json.JSONDecodeError as exc:
                raise ShardSpecError(f"invalid JSON in {path}: {exc}")
        else:
            raise ShardSpecError(
                f"unknown spec format {path.suffix!r} "
                "(expected .toml or .json)")
        return cls.from_mapping(data)


class ShardedTopology:
    """The worker-process fleet of one topology.

    Spawns one process per shard on :meth:`start` (pipe transports
    are inherited; shm workers attach to the coordinator's shared-
    memory rings via a picklable descriptor; socket transports dial
    back to an ephemeral listener and identify with a hello frame)
    and tears everything down on :meth:`close` — use as a context
    manager.
    """

    def __init__(self, spec: TopologySpec) -> None:
        self.spec = spec
        self.handles: List[ShardHandle] = []
        self._processes: List[Any] = []
        self._listener = None
        self._started = False

    def _shard_config(self, shard: ShardSpec) -> Dict[str, Any]:
        config = shard.config()
        if shard.id in self.spec.inject:
            config["inject"] = dict(self.spec.inject[shard.id])
        if self.spec.observe:
            config["observe"] = True
        if self.spec.trace_dir is not None:
            trace_dir = Path(self.spec.trace_dir)
            trace_dir.mkdir(parents=True, exist_ok=True)
            config["trace_file"] = str(
                trace_dir / f"{shard.id}.trace.jsonl")
        return config

    def start(self) -> List[ShardHandle]:
        """Spawn the fleet; returns one connected
        :class:`~repro.shard.client.ShardHandle` per shard, in spec
        order."""
        if self._started:
            return self.handles
        self._started = True
        ctx = start_context()
        spec = self.spec
        if spec.transport == "pipe":
            for shard in spec.shards:
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                process = ctx.Process(
                    target=shard_worker_main,
                    args=(child_conn, self._shard_config(shard)),
                    name=f"shard-{shard.id}", daemon=True)
                process.start()
                child_conn.close()
                self._processes.append(process)
                self.handles.append(ShardHandle(
                    shard.id, PipeTransport(parent_conn),
                    num_ports=shard.num_ports,
                    max_batch=spec.max_batch,
                    max_inflight=spec.max_inflight, process=process))
        elif spec.transport == "shm":
            for shard in spec.shards:
                transport, descriptor = shm_ring_pair(ctx)
                process = ctx.Process(
                    target=shard_worker_shm_main,
                    args=(descriptor, self._shard_config(shard)),
                    name=f"shard-{shard.id}", daemon=True)
                process.start()
                # Blocking ring waits watch the worker's liveness so
                # a hard crash mid-window surfaces as TransportClosed.
                transport.peer_alive = process.is_alive
                self._processes.append(process)
                self.handles.append(ShardHandle(
                    shard.id, transport,
                    num_ports=shard.num_ports,
                    max_batch=spec.max_batch,
                    max_inflight=spec.max_inflight, process=process))
        else:
            self._listener, address = open_listener()
            for shard in spec.shards:
                process = ctx.Process(
                    target=shard_worker_socket_main,
                    args=(address, self._shard_config(shard)),
                    name=f"shard-{shard.id}", daemon=True)
                process.start()
                self._processes.append(process)
            # Accept order is connect order, not spec order: map the
            # connections back through their hello frames.
            by_id: Dict[str, Any] = {}
            for _ in spec.shards:
                transport = accept_transport(self._listener)
                kind, shard_id = transport.recv()
                if kind != protocol.FRAME_HELLO:
                    raise protocol.ShardError(
                        "?", {"type": "ProtocolError",
                              "message": f"expected hello, got "
                                         f"{kind!r}",
                              "traceback": ""})
                by_id[shard_id] = transport
            for shard, process in zip(spec.shards, self._processes):
                self.handles.append(ShardHandle(
                    shard.id, by_id[shard.id],
                    num_ports=shard.num_ports,
                    max_batch=spec.max_batch,
                    max_inflight=spec.max_inflight, process=process))
        if spec.transport != "socket":
            # Pipe/shm couplings know their shard a priori; the hello
            # is purely the ready signal — wait for it here so group
            # construction and the worker's first-touch page faults
            # count as startup, not driving time (the accept loop
            # above already did this implicitly for sockets).
            for handle in self.handles:
                kind, shard_id = handle._recv()
                if kind != protocol.FRAME_HELLO or \
                        shard_id != handle.shard_id:
                    raise protocol.ShardError(
                        handle.shard_id,
                        {"type": "ProtocolError",
                         "message": f"expected hello from "
                                    f"{handle.shard_id!r}, got "
                                    f"{(kind, shard_id)!r}",
                         "traceback": ""})
        return self.handles

    def close(self) -> None:
        """Close every handle, reap every process (idempotent)."""
        for handle in self.handles:
            handle.close()
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - stubborn
                process.kill()
                process.join()
        self._processes = []

    def __enter__(self) -> "ShardedTopology":
        """Start the fleet on scope entry."""
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        """Tear the fleet down on scope exit, exception or not."""
        self.close()


# ----------------------------------------------------------------------
# The mode-agnostic driver
# ----------------------------------------------------------------------
def _shard_events(spec: TopologySpec) -> List[List[tuple]]:
    """Seeded per-shard stimulus, pre-encoded for the wire: each entry
    is ``("cell", slot, port, octets, tid)`` or ``("tick", slot, 0,
    None, 0)`` (octet encoding happens here, outside the timed
    region).

    When the spec observes (``observe`` or ``trace_dir``), every
    stimulus cell gets a coordinator-assigned trace id — sequential
    from 1 across the whole topology, deterministic, so the local and
    sharded replays of the same spec stamp identical ids and the
    digests stay comparable.  Unobserved specs keep tid 0
    (= unstamped): the encoder drops the all-zero column and the wire
    frames stay octet-identical to a pre-telemetry coordinator's.
    """
    observing = spec.observe or spec.trace_dir is not None
    next_tid = 1
    streams: List[List[tuple]] = []
    for index, shard in enumerate(spec.shards):
        rng = random.Random(spec.seed + 8111 * index)
        connections = [[(1, 100 + i)]
                       for i in range(shard.num_ports)]
        events = make_events(rng, spec.cells, connections,
                             with_ticks=shard.accounting)
        encoded = []
        for ev, slot, port, cell in events:
            if ev == "cell":
                tid = next_tid if observing else 0
                next_tid += 1
                encoded.append((ev, slot, port,
                                bytes(cell.to_octets()), tid))
            else:
                encoded.append((ev, slot, 0, None, 0))
        streams.append(encoded)
    return streams


def _forward(src, dst, cursors: List[int], not_before: float) -> None:
    """Forward *src*'s fresh output cells into *dst*'s matching
    ingress ports, re-stamped ``max(output_time, not_before)`` so the
    post can never land behind the downstream horizon.  The trace id
    rides along, so an observed cell hopping shards keeps one
    provenance chain."""
    for port in range(src.num_ports):
        count = src.output_count(port)
        for when, octets, tid in src.drain_outputs(port,
                                                   cursors[port]):
            dst.queue_cell(max(when, not_before), port, octets, tid)
        cursors[port] = count


def _digest(handle) -> Dict[str, str]:
    """Per-port SHA-256 digests over the raw output octet streams —
    the byte-identity witness the equivalence tests compare (one
    update over each port's contiguous blob; hashing the
    concatenation is byte-for-byte the cell-at-a-time digest)."""
    digests: Dict[str, str] = {}
    for port in range(handle.num_ports):
        digests[str(port)] = hashlib.sha256(
            handle.output_blob(port)).hexdigest()
    return digests


def run_topology(spec: TopologySpec,
                 mode: str = "sharded") -> Dict[str, Any]:
    """Run one seeded topology end to end; returns the report dict.

    ``mode="sharded"`` spawns worker processes per
    :class:`ShardedTopology`; ``mode="local"`` drives in-process
    :class:`~repro.shard.client.LocalShardHandle` twins with the
    identical op stream (the single-process reference the
    byte-identity guarantee is stated against).  The timed region
    covers driving and finishing only — stimulus generation and
    process spawning are setup.
    """
    if mode not in MODES:
        raise ShardSpecError(
            f"unknown mode {mode!r}; known: {', '.join(MODES)}")
    streams = _shard_events(spec)
    cell_s = TimeBase.for_line_rate().cell_time_seconds
    last_slot = max(events[-1][1] for events in streams)

    fleet: Optional[ShardedTopology] = None
    if mode == "sharded":
        fleet = ShardedTopology(spec)
        handles: List[Any] = fleet.start()
    else:
        handles = []
        for shard in spec.shards:
            trace = None
            if spec.trace_dir is not None:
                # Suffixed ``.local`` so a ``--mode both`` run keeps
                # the worker-written traces next to the reference's.
                trace_dir = Path(spec.trace_dir)
                trace_dir.mkdir(parents=True, exist_ok=True)
                from ..obs.trace import TraceWriter
                trace = TraceWriter(
                    trace_dir / f"{shard.id}.local.trace.jsonl",
                    defaults={"shard": shard.id})
            handles.append(LocalShardHandle(
                shard.id, num_ports=shard.num_ports,
                level=shard.level, accounting=shard.accounting,
                observe=spec.observe, trace=trace))

    started = _time.perf_counter()
    try:
        cursors = [0] * len(handles)
        fwd_cursors = [[0] * handle.num_ports for handle in handles]
        window_end = 0
        while window_end <= last_slot + spec.window_slots * \
                spec.drain_windows:
            window_end += spec.window_slots
            t_end = window_end * cell_s
            for index, handle in enumerate(handles):
                events = streams[index]
                cursor = cursors[index]
                while (cursor < len(events)
                       and events[cursor][1] < window_end):
                    ev, slot, port, octets, tid = events[cursor]
                    t = slot * cell_s
                    if ev == "cell":
                        handle.queue_cell(t, port, octets, tid)
                    else:
                        handle.queue_tick(t)
                    handle.queue_null(t)
                    cursor += 1
                cursors[index] = cursor
                handle.queue_null(t_end)
                handle.flush()
            if spec.chain:
                # Chained topologies need every shard's window outputs
                # before forwarding, so the window ends in a barrier.
                # Independent shards skip it: the pipeline window
                # (max_inflight) is the only throttle, and the op
                # stream — hence the replay — is identical either way.
                for handle in handles:
                    handle.barrier()
                for index in range(len(handles) - 1):
                    _forward(handles[index], handles[index + 1],
                             fwd_cursors[index], t_end)
                    handles[index + 1].flush()
        t_final = (window_end + 8) * cell_s
        results = []
        for index, handle in enumerate(handles):
            results.append(handle.finish(t_final))
            if spec.chain and index + 1 < len(handles):
                # Residual outputs surfaced by the drain still make
                # their final hop before the downstream shard settles.
                _forward(handles[index], handles[index + 1],
                         fwd_cursors[index], t_final)
        wall = _time.perf_counter() - started
        telemetry: Optional[Dict[str, Any]] = None
        if spec.observe or spec.trace_dir is not None:
            # Telemetry collection rides the same frames as the data
            # but *after* the timed region — observability overhead
            # inside the measured window is the instruments only, not
            # the shipping.
            from ..obs.merge import merge_telemetry
            telemetry = merge_telemetry(
                handle.telemetry() for handle in handles)
    finally:
        if fleet is not None:
            fleet.close()
        else:
            for handle in handles:
                handle.close()

    shards = []
    combined = hashlib.sha256()
    for handle, result in zip(handles, results):
        digests = _digest(handle)
        for port in sorted(digests):
            combined.update(digests[port].encode())
        shards.append({
            "id": handle.shard_id,
            "level": result["level"],
            "digests": digests,
            "exchange": handle.stats(),
            "result": result,
        })
    total_clocks = sum(r["clocks"] for r in results)
    total_frames = sum(s["exchange"]["frames_sent"]
                       + s["exchange"]["frames_received"]
                       for s in shards)
    total_bytes = sum(s["exchange"]["bytes_sent"]
                      + s["exchange"]["bytes_received"]
                      for s in shards)
    report: Dict[str, Any] = {
        "benchmark": "shard_topology",
        "mode": mode,
        "spec": spec.as_dict(),
        "shards": shards,
        "digest": combined.hexdigest(),
        "totals": {
            "cells_in": sum(r["cells_in"] for r in results),
            "output_cells": sum(r["output_cells"] for r in results),
            "records": sum(len(r["records"]) for r in results),
            "clocks": total_clocks,
            "frames": total_frames,
            "bytes": total_bytes,
            "sync": {
                key: sum(r["sync"][key] for r in results)
                for key in ("messages_posted", "null_messages",
                            "null_messages_coalesced",
                            "windows_granted")},
        },
        "wall_s": wall,
        "cycles_per_s": total_clocks / wall if wall > 0 else 0.0,
    }
    if telemetry is not None:
        report["telemetry"] = telemetry
    return report
