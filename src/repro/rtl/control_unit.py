"""RTL global control unit.

The switch-wide connection-table server: port modules request
VPI/VCI lookups over a request/grant interface; a round-robin arbiter
serialises the requests and each lookup takes a configurable number of
clock cycles (the table walk of the real hardware).  This is the block
whose "RTL representation" the paper simulates stand-alone to obtain
the ~300 clock-cycles/second baseline of experiment E1.

Per-client signal bundle (client ``i``):

* ``req[i]``      — request strobe, hold until ``done[i]``,
* ``vpi_in[i]``, ``vci_in[i]`` — the connection to look up,
* ``done[i]``     — one-clock completion pulse,
* ``found[i]``    — lookup hit,
* ``out_port[i]``, ``out_vpi[i]``, ``out_vci[i]`` — the translation.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..hdl.compiled import slot_int
from ..hdl.signal import Signal
from ..hdl.simulator import Simulator
from .component import Component

__all__ = ["GlobalControlUnitRtl", "LookupClient"]


class LookupClient:
    """The signal bundle one port module uses to query the GCU."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.name = name
        self.req = sim.signal(f"{name}.req", init="0")
        self.vpi_in = sim.signal(f"{name}.vpi_in", width=8, init=0)
        self.vci_in = sim.signal(f"{name}.vci_in", width=16, init=0)
        self.done = sim.signal(f"{name}.done", init="0")
        self.found = sim.signal(f"{name}.found", init="0")
        self.out_port = sim.signal(f"{name}.out_port", width=4, init=0)
        self.out_vpi = sim.signal(f"{name}.out_vpi", width=8, init=0)
        self.out_vci = sim.signal(f"{name}.out_vci", width=16, init=0)


class GlobalControlUnitRtl(Component):
    """Round-robin connection-lookup server.

    Args:
        sim, name, clk: as usual.
        num_clients: number of port-module request interfaces.
        lookup_latency: clock cycles each table lookup occupies.
    """

    def __init__(self, sim: Simulator, name: str, clk: Signal,
                 num_clients: int = 4, lookup_latency: int = 4) -> None:
        super().__init__(sim, name)
        if num_clients < 1:
            raise ValueError(f"need >= 1 client, got {num_clients}")
        if lookup_latency < 1:
            raise ValueError(
                f"lookup latency must be >= 1, got {lookup_latency}")
        self.num_clients = num_clients
        self.lookup_latency = lookup_latency
        self.clients = [LookupClient(sim, f"{name}.client{i}")
                        for i in range(num_clients)]
        #: (client, vpi, vci) -> (out_port, out_vpi, out_vci)
        self._table: Dict[Tuple[int, int, int],
                          Tuple[int, int, int]] = {}
        self._rr_next = 0
        self._busy_client: Optional[int] = None
        self._busy_remaining = 0
        #: client masked for one cycle after its done pulse, giving it
        #: time to deassert req (standard req/done handshake closure)
        self._cooldown: Optional[int] = None
        self.lookups_served = 0
        self.lookup_misses = 0
        self.busy_cycles = 0
        self.idle_cycles = 0
        self.clocked(clk, self._compile_seq)

    # -- management plane ---------------------------------------------------
    def install(self, client: int, vpi: int, vci: int, out_port: int,
                out_vpi: int, out_vci: int) -> None:
        """Write one connection-table entry."""
        self._table[(client, vpi, vci)] = (out_port, out_vpi, out_vci)

    def remove(self, client: int, vpi: int, vci: int) -> None:
        """Clear one connection-table entry."""
        self._table.pop((client, vpi, vci), None)

    @property
    def table_size(self) -> int:
        """Installed connection count."""
        return len(self._table)

    # -- fast path ------------------------------------------------------------
    def _compile_seq(self, ctx):
        """The clocked process: clear the last done pulse, advance the
        lookup in progress, or grant the next requester round-robin
        (skipping the one just served)."""
        reads = []      # (req, vpi_in, vci_in) slots per client
        writes = []     # (done, found, out_port, out_vpi, out_vci)
        for client in self.clients:
            reads.append((ctx.read(client.req),
                          ctx.read(client.vpi_in),
                          ctx.read(client.vci_in)))
            writes.append((ctx.write(client.done),
                           ctx.write(client.found),
                           ctx.write(client.out_port),
                           ctx.write(client.out_vpi),
                           ctx.write(client.out_vci)))
        table = self._table
        num = self.num_clients
        latency = self.lookup_latency

        def finish(index):
            _req, vpi_slot, vci_slot = reads[index]
            w_done, w_found, w_port, w_vpi, w_vci = writes[index]
            vpi = slot_int(vpi_slot.value)
            vci = slot_int(vci_slot.value)
            entry = table.get((index, vpi, vci))
            self.lookups_served += 1
            self._cooldown = index
            w_done("1")
            self._done_hot = index
            if entry is None:
                self.lookup_misses += 1
                w_found("0")
                return
            out_port, out_vpi, out_vci = entry
            w_found("1")
            w_port(out_port)
            w_vpi(out_vpi)
            w_vci(out_vci)

        done_writers = [bundle[0] for bundle in writes]
        req_slots = [bundle[0] for bundle in reads]
        #: precomputed round-robin scan order per starting client —
        #: the arbitration runs every edge, so no modulo in the loop
        orders = [tuple((start + offset) % num for offset in range(num))
                  for start in range(num)]
        # Only the client whose done is '1' (the last finished lookup)
        # needs the clear, not every done on every clock.
        self._done_hot = None

        def evaluate():
            hot = self._done_hot
            if hot is not None:
                done_writers[hot]("0")
                self._done_hot = None
            cooled = self._cooldown
            if cooled is not None:
                self._cooldown = None
            if self._busy_client is not None:
                self.busy_cycles += 1
                self._busy_remaining -= 1
                if self._busy_remaining == 0:
                    finish(self._busy_client)
                    self._busy_client = None
                return
            grant = None
            for index in orders[self._rr_next]:
                if index != cooled and req_slots[index].value == "1":
                    self._rr_next = (index + 1) % num
                    grant = index
                    break
            if grant is None:
                self.idle_cycles += 1
                return
            self.busy_cycles += 1
            self._busy_client = grant
            self._busy_remaining = latency - 1
            if self._busy_remaining == 0:
                finish(grant)
                self._busy_client = None

        return evaluate
