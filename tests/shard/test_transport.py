"""Transport edge cases: framing, EOF signatures, batching, shm."""

import multiprocessing
import os
import pickle
import socket
import struct
import threading
import time

import pytest

from repro.shard.codec import CodecError, OpBatch
from repro.shard.transport import (PipeTransport, ShmRingTransport,
                                   SocketTransport, TransportClosed,
                                   TransportError, accept_transport,
                                   connect_transport, open_listener,
                                   _Ring, shm_ring_pair)


def _socket_pair():
    listener, address = open_listener()
    result = {}

    def dial():
        result["client"] = connect_transport(address)

    thread = threading.Thread(target=dial)
    thread.start()
    server = accept_transport(listener, timeout=5.0)
    thread.join()
    listener.close()
    return server, result["client"]


def _null_batch(time_s):
    batch = OpBatch()
    batch.add_null(time_s)
    return batch


def test_socket_roundtrip_counts_frames_and_bytes():
    server, client = _socket_pair()
    try:
        client.send(("ops", (1, _null_batch(1e-6))))
        kind, payload = server.recv()
        assert kind == "ops"
        seq, packed = payload
        assert seq == 1
        assert packed.ops() == [("n", 1e-6)]
        server.send(("ack", (1, [])))
        kind, (seq, outputs) = client.recv()
        assert (kind, seq) == ("ack", 1)
        assert outputs.outputs() == []
        # ops frame: 8 header + 16 sub-header + 8 time + 1 code = 33;
        # empty ack frame: 8 header + 16 sub-header = 24
        assert client.stats() == {"frames_sent": 1,
                                  "frames_received": 1,
                                  "bytes_sent": 33,
                                  "bytes_received": 24}
        assert server.stats() == {"frames_sent": 1,
                                  "frames_received": 1,
                                  "bytes_sent": 24,
                                  "bytes_received": 33}
    finally:
        server.close()
        client.close()


def test_socket_eof_mid_payload_reports_partial_bytes():
    """A peer dying inside a frame (the crash-mid-window signature)
    must name exactly how much of the frame arrived."""
    listener, address = open_listener()
    raw = socket.create_connection(address)
    server = accept_transport(listener, timeout=5.0)
    listener.close()
    try:
        # a valid header claiming a 100-octet payload, 10 octets, EOF
        raw.sendall(struct.pack("<HBBI", 0xAC53, 1, 4, 100)
                    + b"x" * 10)
        raw.close()
        with pytest.raises(TransportClosed,
                           match=r"got 10/100 bytes of the payload"):
            server.recv()
    finally:
        server.close()


def test_socket_eof_before_any_frame_is_clean():
    listener, address = open_listener()
    raw = socket.create_connection(address)
    server = accept_transport(listener, timeout=5.0)
    listener.close()
    try:
        raw.close()
        with pytest.raises(TransportClosed,
                           match=r"got 0/8 bytes of the frame header"):
            server.recv()
    finally:
        server.close()


def test_socket_rejects_pickled_frame():
    """The security property of the binary wire: a crafted pickle is
    refused with CodecError before any byte is interpreted — it is
    never unpickled, so it cannot execute anything."""
    class Boom:
        def __reduce__(self):
            return (os.system, ("echo pwned > /tmp/shard-pwned",))

    listener, address = open_listener()
    raw = socket.create_connection(address)
    server = accept_transport(listener, timeout=5.0)
    listener.close()
    try:
        raw.sendall(pickle.dumps(("ops", (1, Boom()))))
        with pytest.raises(CodecError, match="refusing pickled frame"):
            server.recv()
        assert not os.path.exists("/tmp/shard-pwned")
    finally:
        raw.close()
        server.close()


def test_socket_rejects_garbage_magic():
    listener, address = open_listener()
    raw = socket.create_connection(address)
    server = accept_transport(listener, timeout=5.0)
    listener.close()
    try:
        raw.sendall(b"GET / HT")
        with pytest.raises(CodecError, match="bad frame magic"):
            server.recv()
    finally:
        raw.close()
        server.close()


def test_socket_send_after_peer_close_raises():
    server, client = _socket_pair()
    client.close()
    with pytest.raises(TransportClosed):
        # the first send may land in the kernel buffer; the second
        # must observe the reset either way
        server.send(("ops", (1, OpBatch())))
        server.send(("ops", (2, OpBatch())))
    server.close()


def test_accept_timeout_raises_transport_error():
    listener, _ = open_listener()
    try:
        with pytest.raises(TransportError, match="no shard connected"):
            accept_transport(listener, timeout=0.05)
    finally:
        listener.close()


def test_pipe_eof_raises_transport_closed():
    parent, child = multiprocessing.Pipe(duplex=True)
    transport = PipeTransport(parent)
    child.close()
    with pytest.raises(TransportClosed, match="pipe"):
        transport.recv()
    transport.close()


def test_pipe_roundtrip_in_process():
    parent, child = multiprocessing.Pipe(duplex=True)
    a, b = PipeTransport(parent), PipeTransport(child)
    a.send(("finish", 1.5e-3))
    assert b.recv() == ("finish", 1.5e-3)
    assert a.frames_sent == 1 and b.frames_received == 1
    assert a.bytes_sent == b.bytes_received > 0
    a.close()
    b.close()


def test_pipe_frame_larger_than_recv_buffer_grows():
    """A frame bigger than the preallocated receive buffer (the
    BufferTooShort path — not an OSError!) must arrive whole and grow
    the buffer for next time."""
    parent, child = multiprocessing.Pipe(duplex=True)
    a, b = PipeTransport(parent), PipeTransport(child)
    batch = OpBatch()
    for i in range(3000):  # ~160 KB of cell blob, > the 64 KB buffer
        batch.add_cell(i * 1e-6, i % 4, bytes(range(53)))

    def pump():
        a.send(("ops", (9, batch)))

    thread = threading.Thread(target=pump)
    thread.start()
    kind, (seq, packed) = b.recv()
    thread.join()
    assert (kind, seq) == ("ops", 9)
    assert packed.n_cells == 3000
    assert bytes(packed.blob[:53]) == bytes(range(53))
    assert len(b._buf) >= b.bytes_received
    a.close()
    b.close()


def test_pipe_rejects_pickled_bytes():
    """Raw pickle bytes injected into the pipe are refused, not
    unpickled."""
    parent, child = multiprocessing.Pipe(duplex=True)
    transport = PipeTransport(parent)
    child.send_bytes(pickle.dumps(("close", None)))
    with pytest.raises(CodecError, match="refusing pickled frame"):
        transport.recv()
    child.close()
    transport.close()


def test_transport_close_is_idempotent():
    server, client = _socket_pair()
    for _ in range(2):
        server.close()
        client.close()
    assert server.closed and client.closed


# ----------------------------------------------------------------------
# Shared-memory ring transport (mirrors the socket edge cases)
# ----------------------------------------------------------------------
def _shm_pair():
    coordinator, descriptor = shm_ring_pair()
    worker = ShmRingTransport.attach(descriptor)
    # in-process peers: both ends are this (live) process
    coordinator.peer_alive = None
    worker.peer_alive = None
    return coordinator, worker


def test_shm_roundtrip_counts_frames_and_bytes():
    coordinator, worker = _shm_pair()
    try:
        coordinator.send(("ops", (7, _null_batch(2e-6))))
        kind, (seq, packed) = worker.recv()
        assert (kind, seq) == ("ops", 7)
        assert packed.ops() == [("n", 2e-6)]
        worker.send(("ack", (7, [(0, 2e-6, bytes(53))])))
        kind, (seq, outputs) = coordinator.recv()
        assert (kind, seq) == ("ack", 7)
        assert outputs.outputs() == [(0, 2e-6, bytes(53))]
        assert coordinator.stats()["frames_sent"] == 1
        assert coordinator.stats()["bytes_sent"] == 33
        assert worker.stats()["bytes_received"] == 33
        assert coordinator.stats()["bytes_received"] == \
            worker.stats()["bytes_sent"] > 53
    finally:
        coordinator.close()
        worker.close()


def test_shm_poll_sees_pending_frame():
    coordinator, worker = _shm_pair()
    try:
        assert not worker.poll(0.0)
        coordinator.send(("snapshot", None))
        assert worker.poll(1.0)
        assert worker.recv() == ("snapshot", None)
        assert not worker.poll(0.0)
    finally:
        coordinator.close()
        worker.close()


def test_shm_frame_larger_than_ring_streams_through():
    """A frame bigger than the ring capacity trickles through as the
    reader drains — no deadlock, no truncation."""
    coordinator, descriptor = shm_ring_pair(capacity=256)
    worker = ShmRingTransport.attach(descriptor)
    coordinator.peer_alive = None
    worker.peer_alive = None
    batch = OpBatch()
    for i in range(64):
        batch.add_cell(i * 1e-6, i % 4, bytes(range(53)))
    received = {}

    def drain():
        received["frame"] = worker.recv()

    thread = threading.Thread(target=drain)
    thread.start()
    try:
        coordinator.send(("ops", (3, batch)))
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        kind, (seq, packed) = received["frame"]
        assert (kind, seq) == ("ops", 3)
        assert packed.ops() == batch.packed().ops()
    finally:
        coordinator.close()
        worker.close()


def test_shm_close_wakes_blocked_reader_as_eof():
    coordinator, worker = _shm_pair()
    outcome = {}

    def blocked_recv():
        try:
            worker.recv()
        except TransportClosed as exc:
            outcome["error"] = str(exc)

    thread = threading.Thread(target=blocked_recv)
    thread.start()
    time.sleep(0.05)
    coordinator.close()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert "got 0/8 bytes of the frame header" in outcome["error"]
    worker.close()


def test_shm_peer_death_mid_window_raises():
    """A peer that dies *without* closing (crash mid-window) must
    surface via the liveness probe, not hang the blocked reader."""
    coordinator, worker = _shm_pair()
    coordinator.peer_alive = lambda: False  # worker "already died"
    with pytest.raises(TransportClosed,
                       match="peer process died.*frame header"):
        coordinator.recv()
    coordinator.close()
    worker.close()


@pytest.mark.parametrize("counter", ["_head", "_tail"])
def test_shm_torn_counter_read_is_read_again(monkeypatch, counter):
    """A ring counter read while the peer stores it can come back torn
    and out of range: a stale head gives the reader a negative span, a
    tail ahead of the head gives the writer more free space than the
    ring has.  The ring reads the counter again, and the frames arrive
    intact."""
    coordinator, descriptor = shm_ring_pair(capacity=256)
    worker = ShmRingTransport.attach(descriptor)
    coordinator.peer_alive = None
    worker.peer_alive = None
    ring, torn = ((worker._in, lambda value: 0) if counter == "_head"
                  else (coordinator._out, lambda value: value + (1 << 40)))
    original = getattr(_Ring, counter)
    reads = []

    def read_counter(self):
        value = original(self)
        if self is ring:
            reads.append(value)
            if len(reads) == 1:
                return torn(value)
        return value

    small = ("finish", 1e-3)
    batch = OpBatch()
    for i in range(8):                       # about 500 octets > 256
        batch.add_cell(i * 1e-6, i % 4, bytes(range(53)))
    received = []

    def drain():
        try:
            received.append(worker.recv())
            received.append(worker.recv())
        except Exception as exc:             # reported by the asserts
            received.append(exc)

    try:
        coordinator.send(small)              # both counters move off 0
        assert worker.recv() == small
        coordinator.send(small)              # left unread in the ring
        monkeypatch.setattr(_Ring, counter, read_counter)
        thread = threading.Thread(target=drain, daemon=True)
        thread.start()
        coordinator.peer_alive = thread.is_alive    # no hang if it dies
        coordinator.send(("ops", (5, batch)))
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert len(reads) > 1                # read again after the torn one
        assert received[0] == small
        kind, (seq, packed) = received[1]
        assert (kind, seq) == ("ops", 5)
        assert packed.ops() == batch.packed().ops()
    finally:
        monkeypatch.undo()
        coordinator.close()
        worker.close()


def test_shm_rejects_pickled_bytes():
    """Pickle bytes written straight into the ring are refused."""
    coordinator, worker = _shm_pair()
    try:
        coordinator._out.write(pickle.dumps(("close", None)), None)
        with pytest.raises(CodecError, match="refusing pickled frame"):
            worker.recv()
    finally:
        coordinator.close()
        worker.close()


def _shm_echo_child(descriptor):
    transport = ShmRingTransport.attach(descriptor)
    frame = transport.recv()
    transport.send(frame)
    transport.close()


def test_shm_descriptor_crosses_a_process_boundary():
    """The descriptor must survive being shipped as a Process argument
    and attach to the same rings from the child."""
    ctx = multiprocessing.get_context()
    coordinator, descriptor = shm_ring_pair(ctx)
    process = ctx.Process(target=_shm_echo_child, args=(descriptor,),
                          daemon=True)
    process.start()
    coordinator.peer_alive = process.is_alive
    try:
        coordinator.send(("finish", 5e-3))
        assert coordinator.recv() == ("finish", 5e-3)
    finally:
        process.join(timeout=10.0)
        coordinator.close()
