"""Integration: a bus interface behind the hardware test board.

Paper §3.3: "The hardware test board allows to interface
unidirectional hardware ports as well as bidirectional ports, e.g. µP
or bus interfaces.  Since bit-level data flows are generated at an
unidirectional single source, bus interfaces need to be modeled by
three bit-level signals input, output and a control signal indicating
the direction through predefined read/write flags."

Here a live RTL register is mounted behind the board: the 16-bit data
bus is one I/O port (inport wdata + outport rdata + direction
control), and open-loop stimulus vectors write the register and read
it back through the pins.
"""


from repro.board import (ConfigurationDataSet, CtrlPortMapping,
                         HardwareTestBoard, IoPortMapping, PinSegment,
                         PortMapping, RtlPinDevice)
from repro.hdl import Simulator
from repro.rtl import Register

# logical board ports
P_ADDR = 0      # inport: bus address
P_WDATA = 1     # inport: write data (I/O with P_RDATA)
P_WR = 2        # inport: write strobe
P_RD = 3        # inport: read strobe
P_RDATA = 1     # outport: read data (shares pins with P_WDATA)
P_READY = 2     # outport: slave ready
P_DIR = 0       # ctrlport: data-bus direction (1 = board drives)


def bus_pin_config():
    config = ConfigurationDataSet()
    config.add_inport(PortMapping(P_ADDR, 8, (PinSegment(0, 7, 8),)))
    config.add_inport(PortMapping(P_WDATA, 16, (PinSegment(1, 7, 8),
                                                PinSegment(2, 7, 8))))
    config.add_inport(PortMapping(P_WR, 1, (PinSegment(3, 0, 1),)))
    config.add_inport(PortMapping(P_RD, 1, (PinSegment(3, 1, 1),)))
    config.add_outport(PortMapping(P_RDATA, 16, (PinSegment(1, 7, 8),
                                                 PinSegment(2, 7, 8))))
    config.add_outport(PortMapping(P_READY, 1, (PinSegment(4, 0, 1),)))
    config.add_ctrlport(CtrlPortMapping(P_DIR, 1,
                                        (PinSegment(3, 7, 1),),
                                        write_value=1))
    config.add_io_port(IoPortMapping(P_WDATA, P_RDATA, P_DIR))
    config.validate()
    return config


def make_board_register_setup():
    """A live 16-bit :class:`repro.rtl.Register` behind the board's
    bus pins: ``wdata`` loads it while ``wr`` is high, ``rdata`` reads
    its output over the same pins, and ``ready`` is ``rd`` registered
    on the same clock.  The device has one register, so it decodes no
    address."""
    sim = Simulator()
    clk = sim.signal("clk", init="0")
    sim.add_clock(clk, period=10)
    addr = sim.signal("addr", width=8)
    wdata = sim.signal("wdata", width=16)
    wr = sim.signal("wr")
    rd = sim.signal("rd")
    data = Register(sim, "data", clk, wdata, enable=wr)
    ready = Register(sim, "ready", clk, rd)
    config = bus_pin_config()
    device = RtlPinDevice(
        sim, clk, config,
        input_signals={P_ADDR: addr, P_WDATA: wdata, P_WR: wr, P_RD: rd},
        output_signals={P_RDATA: data.q, P_READY: ready.q})
    board = HardwareTestBoard(config, memory_depth=4096)
    return board, device, data


def write_vectors(data):
    """Open-loop stimulus for one register write (strobe + settle)."""
    idle = {P_ADDR: 0, P_WDATA: 0, P_WR: 0, P_RD: 0}
    strobe = {P_ADDR: 0, P_WDATA: data, P_WR: 1, P_RD: 0}
    return [strobe, dict(strobe), idle, dict(idle)], \
           [{P_DIR: 1}] * 4


def read_vectors():
    """Open-loop stimulus for one register read."""
    idle = {P_ADDR: 0, P_WDATA: 0, P_WR: 0, P_RD: 0}
    strobe = {P_ADDR: 0, P_WDATA: 0, P_WR: 0, P_RD: 1}
    return [strobe, dict(strobe), idle, dict(idle)], \
           [{P_DIR: 0}] * 4


def run_transactions(board, device, transactions):
    """Execute a list of (vectors, ctrl) pairs; return all responses."""
    responses = []
    for vectors, ctrl in transactions:
        result = board.run_test_cycle(device, vectors, ctrl=ctrl)
        responses.extend(result.responses)
    return responses


def test_register_write_through_board_pins():
    """The write path alone: with the board driving the lane, the
    value on the data pins lands in the register, and the idle
    vectors after the strobe (``wr`` low) leave it there."""
    board, device, data = make_board_register_setup()
    run_transactions(board, device, [write_vectors(0x1234)])
    assert data.q.as_int() == 0x1234
    run_transactions(board, device, [write_vectors(0x00C3)])
    assert data.q.as_int() == 0x00C3


def test_read_back_through_bidirectional_lane():
    """A value written over the data pins is read back over the same
    pins after the board turns the lane around; the read cycle drives
    ``wdata`` to zero with ``wr`` low, so the register must hold."""
    board, device, _ = make_board_register_setup()
    run_transactions(board, device, [write_vectors(0xBEEF)])
    responses = run_transactions(board, device, [read_vectors()])
    values = [r[P_RDATA] for r in responses if r[P_READY] == 1]
    assert values, "ready never rose through the board"
    assert values == [0xBEEF] * len(values)


def test_direction_flag_is_visible_in_config():
    config = bus_pin_config()
    frame_write = config.pack_stimulus({P_ADDR: 0}, {P_DIR: 1})
    frame_read = config.pack_stimulus({P_ADDR: 0}, {P_DIR: 0})
    assert config.unpack_ctrlports(frame_write)[P_DIR] == 1
    assert config.unpack_ctrlports(frame_read)[P_DIR] == 0
