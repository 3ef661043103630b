"""Tests for the RTL global control unit (lookup server + arbiter)."""

import pytest

from repro.hdl import RisingEdge, Simulator
from repro.rtl import GlobalControlUnitRtl


def make_gcu(num_clients=4, lookup_latency=4):
    sim = Simulator()
    clk = sim.signal("clk", init="0")
    sim.add_clock(clk, period=10)
    gcu = GlobalControlUnitRtl(sim, "gcu", clk, num_clients=num_clients,
                               lookup_latency=lookup_latency)
    return sim, clk, gcu


def request(sim, clk, client, vpi, vci, timeout_clocks=200):
    """Issue one lookup through *client* and wait for done."""
    result = {}

    def gen():
        client.vpi_in.drive(vpi)
        client.vci_in.drive(vci)
        client.req.drive("1")
        while True:
            yield RisingEdge(clk)
            if client.done.value == "1":
                break
        client.req.drive("0")
        result["found"] = client.found.value == "1"
        if result["found"]:
            result["out"] = (client.out_port.as_int(),
                             client.out_vpi.as_int(),
                             client.out_vci.as_int())

    sim.add_generator("requester", gen())
    sim.run(until=sim.now + 10 * timeout_clocks)
    return result


def test_lookup_hit():
    sim, clk, gcu = make_gcu()
    gcu.install(0, 1, 100, 3, 2, 200)
    result = request(sim, clk, gcu.clients[0], 1, 100)
    assert result["found"]
    assert result["out"] == (3, 2, 200)
    assert gcu.lookups_served == 1


def test_lookup_miss():
    sim, clk, gcu = make_gcu()
    result = request(sim, clk, gcu.clients[0], 9, 999)
    assert result == {"found": False}
    assert gcu.lookup_misses == 1


def test_lookup_latency_respected():
    sim, clk, gcu = make_gcu(lookup_latency=6)
    gcu.install(0, 1, 1, 0, 0, 0)
    client = gcu.clients[0]
    done_at = {}

    def gen():
        client.vpi_in.drive(1)
        client.vci_in.drive(1)
        client.req.drive("1")
        start = sim.now
        while True:
            yield RisingEdge(clk)
            if client.done.value == "1":
                done_at["clocks"] = (sim.now - start) // 10
                client.req.drive("0")
                return

    sim.add_generator("req", gen())
    sim.run(until=sim.now + 10 * 100)
    assert done_at["clocks"] >= 6


def test_round_robin_serves_all_clients():
    sim, clk, gcu = make_gcu(num_clients=3, lookup_latency=2)
    for i in range(3):
        gcu.install(i, 1, i, i, 1, i)
    served = []

    def make_requester(index):
        client = gcu.clients[index]

        def gen():
            client.vpi_in.drive(1)
            client.vci_in.drive(index)
            client.req.drive("1")
            while True:
                yield RisingEdge(clk)
                if client.done.value == "1":
                    served.append(index)
                    client.req.drive("0")
                    return

        return gen

    for i in range(3):
        sim.add_generator(f"req{i}", make_requester(i)())
    sim.run(until=sim.now + 10 * 100)
    assert sorted(served) == [0, 1, 2]
    assert gcu.lookups_served == 3


def test_client_isolation():
    """The same (vpi, vci) on different clients resolves separately."""
    sim, clk, gcu = make_gcu()
    gcu.install(0, 1, 100, 5, 0, 0)
    result = request(sim, clk, gcu.clients[1], 1, 100)
    assert result == {"found": False}


def test_remove_entry():
    sim, clk, gcu = make_gcu()
    gcu.install(0, 1, 100, 3, 2, 200)
    gcu.remove(0, 1, 100)
    assert gcu.table_size == 0
    result = request(sim, clk, gcu.clients[0], 1, 100)
    assert result == {"found": False}


def test_busy_and_idle_cycles_accounted():
    sim, clk, gcu = make_gcu(lookup_latency=4)
    gcu.install(0, 1, 1, 0, 0, 0)
    request(sim, clk, gcu.clients[0], 1, 1, timeout_clocks=50)
    assert gcu.busy_cycles >= 4
    assert gcu.idle_cycles > 0


def test_invalid_configuration():
    sim = Simulator()
    clk = sim.signal("clk", init="0")
    with pytest.raises(ValueError):
        GlobalControlUnitRtl(sim, "g", clk, num_clients=0)
    with pytest.raises(ValueError):
        GlobalControlUnitRtl(sim, "g", clk, lookup_latency=0)
