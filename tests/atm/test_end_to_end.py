"""End-to-end system-level scenarios across the ATM stack.

Octet streams ride cells over the switch; the receiving side checks the
payload octets it gets against what was sent — including the failure
mode (cell loss under overload), which is why charging/policing
hardware needs to exist in the first place.
"""


from repro.atm import AtmCell, AtmSwitch, PAYLOAD_OCTETS, STM1_CELL_TIME
from repro.netsim import Network, SinkModule
from repro.traffic import MpegTraceSynthesizer


def build_switched_path(queue_capacity=None, in_rate=155.52e6):
    net = Network()
    switch = AtmSwitch(net, "switch", num_ports=2,
                       queue_capacity=queue_capacity)
    switch.install_connection(0, 1, 100, 1, 2, 200)
    tx_host = net.add_node("tx")
    rx_host = net.add_node("rx")
    sink = SinkModule("sink", keep=True)
    rx_host.add_module(sink)
    rx_host.bind_port_input(0, sink, 0)
    net.add_link(tx_host, 0, switch.node, 0, rate_bps=in_rate)
    net.add_link(switch.node, 1, rx_host, 0, rate_bps=155.52e6)
    return net, switch, tx_host, sink


def cells_for(octets):
    """Cut an octet stream into VPI/VCI 1/100 cells (last one padded)."""
    return [AtmCell.with_payload(1, 100, octets[i:i + PAYLOAD_OCTETS])
            for i in range(0, len(octets), PAYLOAD_OCTETS)]


def padded(octets):
    """*octets* as the cells built by :func:`cells_for` carry them."""
    return list(octets) + [0] * (-len(octets) % PAYLOAD_OCTETS)


def send_cells(net, host, cells, spacing=2 * STM1_CELL_TIME):
    for index, cell in enumerate(cells):
        when = index * spacing
        net.kernel.schedule(
            when, lambda c=cell, t=when: host.transmit(c.to_packet(t), 0))


def received_cells(sink):
    """The cells the sink got, each checked for the translated label."""
    cells = [AtmCell.from_packet(packet) for packet in sink.received]
    assert {(cell.vpi, cell.vci) for cell in cells} <= {(2, 200)}
    return cells


def received_octets(sink):
    return [octet for cell in received_cells(sink)
            for octet in cell.payload]


def test_payload_survives_the_switch():
    net, switch, tx_host, sink = build_switched_path()
    octets = list(range(200))
    send_cells(net, tx_host, cells_for(octets))
    net.run()
    # byte-exact and in order through VPI/VCI translation
    assert received_octets(sink) == padded(octets)


def test_mpeg_frames_over_switch():
    """A short synthetic video sequence end to end."""
    net, switch, tx_host, sink = build_switched_path()
    synthesizer = MpegTraceSynthesizer(seed=11)
    sent = []
    cells = []
    for index in range(6):
        _t, _ftype, size = synthesizer.next_frame()
        frame = [(index * 7 + i) % 256 for i in range(min(size, 800))]
        sent.extend(padded(frame))
        cells.extend(cells_for(frame))
    send_cells(net, tx_host, cells)
    net.run()
    assert received_octets(sink) == sent


def test_cell_loss_under_overload_is_detected():
    """Overflowing the output queue loses cells; a per-cell sequence
    octet at the receiver exposes the gap instead of silently passing
    it."""
    # an unthrottled ingress (e.g. a fast internal fabric feed) so the
    # burst reaches the 4-cell output queue faster than the line drains
    net, switch, tx_host, sink = build_switched_path(queue_capacity=4,
                                                     in_rate=None)
    cells = [AtmCell.with_payload(1, 100, [seq] * PAYLOAD_OCTETS)
             for seq in range(32)]
    send_cells(net, tx_host, cells, spacing=STM1_CELL_TIME / 8)
    net.run()
    drops = switch.total_queue_drops()
    assert drops > 0
    seqs = [cell.payload[0] for cell in received_cells(sink)]
    assert len(seqs) + drops == len(cells)
    assert seqs == sorted(set(seqs))  # what arrives keeps its order
    assert seqs != list(range(len(seqs)))  # ... with a visible gap


def test_two_pdus_back_to_back():
    net, switch, tx_host, sink = build_switched_path()
    pdu_a = [1] * 120
    pdu_b = [2] * 90
    send_cells(net, tx_host, cells_for(pdu_a) + cells_for(pdu_b))
    net.run()
    assert received_octets(sink) == padded(pdu_a) + padded(pdu_b)
