"""Frame transports between the coordinator and shard processes.

The sharded co-simulation couples one coordinator process to N shard
worker processes; every coupling is a sequence of *frames* (``(kind,
payload)`` tuples, see :mod:`repro.shard.protocol`) flowing over a
:class:`Transport`.  Every transport speaks the same **binary codec**
(:mod:`repro.shard.codec`): struct-packed frame headers, columnar op
payloads, and a safe value codec for control frames — **nothing on
the wire is ever pickled or unpickled**, so a crafted byte stream can
at worst raise :class:`~repro.shard.codec.CodecError`, never execute
code.  Three concrete transports exist:

* :class:`PipeTransport` — a :func:`multiprocessing.Pipe` connection
  carrying raw codec frames (``send_bytes``/``recv_bytes_into`` on a
  reusable buffer); the default.
* :class:`SocketTransport` — codec frames over a TCP socket
  (``recv_into`` on a preallocated buffer, ``TCP_NODELAY``); the
  transport a multi-host deployment keeps.
* :class:`ShmRingTransport` — same-host shared-memory ring buffers
  (:mod:`multiprocessing.shared_memory`) with event-based wakeup: one
  single-producer/single-consumer ring per direction, frames land in
  the peer's address space without a per-frame syscall-sized copy
  chain.  Build a coupling with :func:`shm_ring_pair`; the worker
  attaches via :meth:`ShmRingTransport.attach`.

All transports raise :class:`TransportClosed` on EOF — a shard
process dying mid-exchange surfaces as a precise, catchable signal
rather than a hung ``recv`` — and count frames *and octets* both ways
(:meth:`Transport.stats`).  Decoded ``ops``/``ack`` frames alias the
transport's receive buffer: they are valid until the next ``recv``.
"""

from __future__ import annotations

import abc
import multiprocessing
import os
import select
import socket
import struct
from typing import Any, Callable, Dict, Optional, Tuple

from . import codec

__all__ = ["Transport", "PipeTransport", "SocketTransport",
           "ShmRingTransport", "shm_ring_pair",
           "TransportError", "TransportClosed", "open_listener",
           "accept_transport", "connect_transport"]

#: initial receive-buffer size; grows geometrically to the largest
#: frame seen so steady state is allocation-free
_INITIAL_BUF = 64 * 1024


class TransportError(RuntimeError):
    """Base error for transport-level failures."""


class TransportClosed(TransportError):
    """The peer end closed (EOF) — raised by ``recv``/``send`` when the
    other side of the coupling is gone.

    An EOF that lands *mid-frame* (the header or payload was cut
    short) is reported with the partial octet count, which is the
    signature of a shard process dying inside an exchange.
    """


class Transport(abc.ABC):
    """One bidirectional frame stream to a peer process.

    Counts every frame in :attr:`frames_sent` / :attr:`frames_received`
    and every wire octet in :attr:`bytes_sent` /
    :attr:`bytes_received` — the per-shard exchange metrics the
    coordinator aggregates into its report (octets measure the codec's
    framing efficiency: bytes per frame and per cell).
    """

    def __init__(self) -> None:
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self._closed = False
        self._buf = bytearray(_INITIAL_BUF)
        self._view = memoryview(self._buf)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran."""
        return self._closed

    def stats(self) -> Dict[str, int]:
        """Frame and octet counters as a plain dict (for snapshots)."""
        return {"frames_sent": self.frames_sent,
                "frames_received": self.frames_received,
                "bytes_sent": self.bytes_sent,
                "bytes_received": self.bytes_received}

    def _reserve(self, size: int) -> memoryview:
        """A view of at least *size* octets over the reusable receive
        buffer (grown geometrically, so steady state never
        allocates)."""
        if size > len(self._buf):
            grown = max(size, 2 * len(self._buf))
            self._view.release()
            self._buf = bytearray(grown)
            self._view = memoryview(self._buf)
        return self._view

    @abc.abstractmethod
    def send(self, frame: Any) -> None:
        """Encode and ship one ``(kind, payload)`` frame."""

    @abc.abstractmethod
    def recv(self) -> Any:
        """Block for the next frame; :class:`TransportClosed` on EOF.

        The returned ``ops``/``ack`` payload views alias this
        transport's receive buffer — valid until the next ``recv``.
        """

    @abc.abstractmethod
    def poll(self, timeout: float = 0.0) -> bool:
        """True when a frame is ready within *timeout* seconds."""

    @abc.abstractmethod
    def close(self) -> None:
        """Close this end (idempotent)."""


class PipeTransport(Transport):
    """Codec frames over a :func:`multiprocessing.Pipe` connection.

    The connection carries the already-encoded frame bytes
    (``send_bytes``), never pickles, and receives into the reusable
    buffer (``recv_bytes_into``) — the cheapest coupling on one host,
    and the only one whose endpoints a forked/spawned child inherits
    directly as a process argument.
    """

    def __init__(self, conn) -> None:
        super().__init__()
        self.conn = conn

    def send(self, frame: Any) -> None:
        """Encode and ship one frame; :class:`TransportClosed` on a
        broken pipe."""
        data = codec.encode_frame(frame)
        try:
            self.conn.send_bytes(data)
        except (BrokenPipeError, OSError) as exc:
            raise TransportClosed(f"pipe peer is gone: {exc}") from exc
        self.frames_sent += 1
        self.bytes_sent += len(data)

    def recv(self) -> Any:
        """Block for the next frame; :class:`TransportClosed` on EOF."""
        try:
            try:
                size = self.conn.recv_bytes_into(self._buf)
                view = self._view[:size]
            except multiprocessing.BufferTooShort as exc:
                # The exception delivers the whole message — grow the
                # buffer for next time and decode this one from it.
                data = exc.args[0]
                self._reserve(len(data))
                self._buf[:len(data)] = data
                view = self._view[:len(data)]
        except EOFError as exc:
            raise TransportClosed("pipe closed by peer (EOF)") from exc
        except OSError as exc:
            raise TransportClosed(f"pipe error: {exc}") from exc
        frame = codec.decode_frame(view)
        self.frames_received += 1
        self.bytes_received += len(view)
        return frame

    def poll(self, timeout: float = 0.0) -> bool:
        """True when a frame is ready within *timeout* seconds."""
        return self.conn.poll(timeout)

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        if not self._closed:
            self._closed = True
            self.conn.close()


class SocketTransport(Transport):
    """Codec frames over a connected TCP socket.

    Wire format: the codec's 8-octet header followed by the payload —
    the classic transaction-pipe framing, now self-describing.
    ``recv`` reads the header, validates it (anything that is not a
    codec frame — a pickle, noise — raises
    :class:`~repro.shard.codec.CodecError` before a single payload
    octet is interpreted), then ``recv_into``\\ s the payload directly
    into the reusable buffer; an EOF inside either part raises
    :class:`TransportClosed` naming how many octets arrived.
    """

    def __init__(self, sock: socket.socket) -> None:
        super().__init__()
        self.sock = sock
        self._header = bytearray(codec.HEADER_OCTETS)
        self._header_view = memoryview(self._header)
        # Latency matters more than throughput for sync exchanges.
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - non-TCP sockets
            pass

    def send(self, frame: Any) -> None:
        """Encode and ship one frame; :class:`TransportClosed` on a
        dead socket."""
        data = codec.encode_frame(frame)
        try:
            self.sock.sendall(data)
        except (BrokenPipeError, ConnectionError, OSError) as exc:
            raise TransportClosed(f"socket peer is gone: {exc}") from exc
        self.frames_sent += 1
        self.bytes_sent += len(data)

    def _recv_into_exact(self, view: memoryview, context: str) -> None:
        """Fill *view* exactly or raise :class:`TransportClosed`
        reporting the partial read (*context* names the frame part)."""
        need = len(view)
        got = 0
        while got < need:
            try:
                count = self.sock.recv_into(view[got:])
            except (ConnectionError, OSError) as exc:
                raise TransportClosed(
                    f"socket error reading {context}: {exc}") from exc
            if count == 0:
                raise TransportClosed(
                    f"socket EOF mid-frame: got {got}/{need} bytes of "
                    f"the {context}")
            got += count

    def recv(self) -> Any:
        """Block for one whole frame; :class:`TransportClosed` on EOF
        (including an EOF that truncates the frame),
        :class:`~repro.shard.codec.CodecError` on a non-codec byte
        stream."""
        self._recv_into_exact(self._header_view, "frame header")
        kind_code, payload_len = codec.parse_header(self._header_view)
        view = self._reserve(payload_len)[:payload_len]
        if payload_len:
            self._recv_into_exact(view, "payload")
        frame = codec.decode_payload(kind_code, view)
        self.frames_received += 1
        self.bytes_received += codec.HEADER_OCTETS + payload_len
        return frame

    def poll(self, timeout: float = 0.0) -> bool:
        """True when at least part of a frame is readable."""
        ready, _, _ = select.select([self.sock], [], [], timeout)
        return bool(ready)

    def close(self) -> None:
        """Shut down and close the socket (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


# ----------------------------------------------------------------------
# Shared-memory ring transport
# ----------------------------------------------------------------------
#: per-ring control block: u64 write total, u64 read total, u8 closed
_RING_HEAD = 0
_RING_TAIL = 8
_RING_CLOSED = 16
_RING_DATA = 32  # data area start (keeps counters on their own line)
_COUNTER = struct.Struct("<Q")

#: default ring capacity per direction
DEFAULT_RING_CAPACITY = 1 << 20

#: event-wait slice while also watching for peer death
_WAIT_SLICE_S = 0.1


class _Ring:
    """One single-producer/single-consumer byte ring in shared memory.

    The writer owns the head counter, the reader owns the tail; both
    are monotonically increasing totals, so ``head - tail`` is the
    unread span and wraparound is plain modulo arithmetic.  Two events
    carry the wakeups: the writer sets *data_event* after publishing,
    the reader sets *space_event* after consuming.  A ``closed`` octet
    lets either side turn the peer's next blocking wait into a clean
    :class:`TransportClosed`.
    """

    __slots__ = ("shm", "buf", "capacity", "data_event", "space_event")

    def __init__(self, shm, capacity: int, data_event,
                 space_event) -> None:
        self.shm = shm
        self.buf = shm.buf
        self.capacity = capacity
        self.data_event = data_event
        self.space_event = space_event

    # counters -------------------------------------------------------
    def _head(self) -> int:
        return _COUNTER.unpack_from(self.buf, _RING_HEAD)[0]

    def _tail(self) -> int:
        return _COUNTER.unpack_from(self.buf, _RING_TAIL)[0]

    @property
    def readable(self) -> int:
        """Unread octets currently in the ring."""
        return self._head() - self._tail()

    @property
    def peer_closed(self) -> bool:
        """True once the other side marked the ring closed."""
        return self.buf[_RING_CLOSED] != 0

    def mark_closed(self) -> None:
        """Mark this ring closed and wake both directions."""
        try:
            self.buf[_RING_CLOSED] = 1
        except ValueError:  # pragma: no cover - shm already unmapped
            return
        self.data_event.set()
        self.space_event.set()

    # blocking byte I/O ----------------------------------------------
    def write(self, data, peer_alive: Optional[Callable[[], bool]]
              ) -> None:
        """Append *data* (streaming: frames larger than the ring
        trickle through as the reader drains)."""
        view = data if isinstance(data, memoryview) else memoryview(data)
        capacity = self.capacity
        sent = 0
        while sent < len(view):
            head = self._head()
            free = capacity - (head - self._tail())
            if not 0 <= free <= capacity:
                continue                # a torn counter read: re-read
            if free == 0:
                if self.peer_closed:
                    raise TransportClosed(
                        "shm ring closed by peer while a frame was "
                        "being written")
                self.space_event.clear()
                if capacity - (head - self._tail()) == 0:
                    if peer_alive is not None and not peer_alive():
                        raise TransportClosed(
                            "shm peer process died while a frame was "
                            "being written")
                    self.space_event.wait(_WAIT_SLICE_S)
                continue
            chunk = min(free, len(view) - sent)
            at = head % capacity
            first = min(chunk, capacity - at)
            data_at = _RING_DATA + at
            self.buf[data_at:data_at + first] = view[sent:sent + first]
            if chunk > first:
                self.buf[_RING_DATA:_RING_DATA + chunk - first] = \
                    view[sent + first:sent + chunk]
            sent += chunk
            _COUNTER.pack_into(self.buf, _RING_HEAD, head + chunk)
            self.data_event.set()

    def read_into(self, view: memoryview,
                  peer_alive: Optional[Callable[[], bool]],
                  context: str) -> None:
        """Fill *view* exactly; :class:`TransportClosed` when the peer
        closed (or died) before enough octets arrived."""
        capacity = self.capacity
        need = len(view)
        got = 0
        while got < need:
            tail = self._tail()
            avail = self._head() - tail
            if not 0 <= avail <= capacity:
                continue                # a torn counter read: re-read
            if avail == 0:
                if self.peer_closed and self._head() == tail:
                    raise TransportClosed(
                        f"shm ring closed by peer: got {got}/{need} "
                        f"bytes of the {context}")
                self.data_event.clear()
                if self._head() == tail:
                    if not self.peer_closed and peer_alive is not None \
                            and not peer_alive():
                        raise TransportClosed(
                            f"shm peer process died: got {got}/{need} "
                            f"bytes of the {context}")
                    self.data_event.wait(_WAIT_SLICE_S)
                continue
            chunk = min(avail, need - got)
            at = tail % capacity
            first = min(chunk, capacity - at)
            data_at = _RING_DATA + at
            view[got:got + first] = self.buf[data_at:data_at + first]
            if chunk > first:
                view[got + first:got + chunk] = \
                    self.buf[_RING_DATA:_RING_DATA + chunk - first]
            got += chunk
            _COUNTER.pack_into(self.buf, _RING_TAIL, tail + chunk)
            self.space_event.set()

    def release(self) -> None:
        """Drop the buffer references so the mapping can be closed."""
        self.buf = None
        try:
            self.shm.close()
        except (OSError, BufferError):  # pragma: no cover
            pass


def _attach_shm(name: str):
    """Attach an existing shared-memory block without letting this
    process's resource tracker claim (and later double-unlink) it —
    the creator owns the lifetime.

    Registration is suppressed for the duration of the attach (rather
    than unregistered afterwards) because a forked worker shares the
    parent's tracker process: an unregister from here would strip the
    *creator's* registration and turn its eventual ``unlink`` into a
    tracker error.
    """
    from multiprocessing import resource_tracker, shared_memory
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class ShmRingTransport(Transport):
    """Codec frames over a pair of shared-memory rings (same host).

    One ring per direction, event-based wakeup, streaming writes (a
    frame larger than the ring capacity trickles through) — the
    same-host transport with no per-frame socket syscalls.  The
    coordinator side is built by :func:`shm_ring_pair`, which also
    returns the picklable descriptor a worker process turns back into
    its end with :meth:`attach`.

    *peer_alive* (optional) is polled while blocked so a peer that
    died without closing (crash mid-window) surfaces as
    :class:`TransportClosed` instead of a hang; worker sides default
    to watching for coordinator death via the parent pid.
    """

    def __init__(self, out_ring: _Ring, in_ring: _Ring,
                 peer_alive: Optional[Callable[[], bool]] = None,
                 owner: bool = False) -> None:
        super().__init__()
        self._out = out_ring
        self._in = in_ring
        self._peer_alive = peer_alive
        self._owner = owner
        self._header = bytearray(codec.HEADER_OCTETS)
        self._header_view = memoryview(self._header)

    @property
    def peer_alive(self) -> Optional[Callable[[], bool]]:
        """The liveness probe polled while blocked (settable once the
        owning process handle exists)."""
        return self._peer_alive

    @peer_alive.setter
    def peer_alive(self, probe: Optional[Callable[[], bool]]) -> None:
        self._peer_alive = probe

    @classmethod
    def attach(cls, descriptor: Dict[str, Any]) -> "ShmRingTransport":
        """The worker end of a :func:`shm_ring_pair` coupling.

        Directions swap (the coordinator's out-ring is the worker's
        in-ring); the default liveness probe watches for coordinator
        death via the parent pid re-parenting to init.
        """
        capacity = descriptor["capacity"]
        c2w = _Ring(_attach_shm(descriptor["c2w"]), capacity,
                    descriptor["c2w_data"], descriptor["c2w_space"])
        w2c = _Ring(_attach_shm(descriptor["w2c"]), capacity,
                    descriptor["w2c_data"], descriptor["w2c_space"])
        parent = os.getppid()

        def coordinator_alive() -> bool:
            return os.getppid() == parent

        return cls(out_ring=w2c, in_ring=c2w,
                   peer_alive=coordinator_alive)

    def send(self, frame: Any) -> None:
        """Encode and ship one frame through the outbound ring."""
        if self._closed:
            raise TransportClosed("shm transport already closed")
        data = codec.encode_frame(frame)
        self._out.write(data, self._peer_alive)
        self.frames_sent += 1
        self.bytes_sent += len(data)

    def recv(self) -> Any:
        """Block for one whole frame from the inbound ring;
        :class:`TransportClosed` when the peer closed or died."""
        if self._closed:
            raise TransportClosed("shm transport already closed")
        self._in.read_into(self._header_view, self._peer_alive,
                           "frame header")
        kind_code, payload_len = codec.parse_header(self._header_view)
        view = self._reserve(payload_len)[:payload_len]
        if payload_len:
            self._in.read_into(view, self._peer_alive, "payload")
        frame = codec.decode_payload(kind_code, view)
        self.frames_received += 1
        self.bytes_received += codec.HEADER_OCTETS + payload_len
        return frame

    def poll(self, timeout: float = 0.0) -> bool:
        """True when inbound octets are ready within *timeout*
        seconds."""
        if self._in.readable:
            return True
        if timeout <= 0:
            return False
        self._in.data_event.clear()
        if self._in.readable:
            return True
        self._in.data_event.wait(timeout)
        return self._in.readable > 0

    def close(self) -> None:
        """Mark both rings closed, wake the peer, release the
        mappings; the creating side also unlinks the segments
        (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for ring in (self._out, self._in):
            ring.mark_closed()
        for ring in (self._out, self._in):
            shm = ring.shm
            ring.release()
            if self._owner:
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass


def shm_ring_pair(ctx=None,
                  capacity: int = DEFAULT_RING_CAPACITY
                  ) -> Tuple[ShmRingTransport, Dict[str, Any]]:
    """Create one coordinator⇄worker shared-memory coupling.

    Returns ``(coordinator_transport, descriptor)``: the transport is
    the coordinator end; the *descriptor* (shared-memory names,
    capacity, and the four wakeup events) is picklable as a worker
    :class:`multiprocessing.Process` argument and becomes the worker
    end via :meth:`ShmRingTransport.attach`.  Set
    ``transport.peer_alive`` to the worker's liveness probe once the
    process handle exists.
    """
    import multiprocessing
    from multiprocessing import shared_memory
    if capacity < 1:
        raise ValueError(f"ring capacity must be positive, "
                         f"got {capacity}")
    if ctx is None:
        ctx = multiprocessing
    size = _RING_DATA + capacity
    shm_c2w = shared_memory.SharedMemory(create=True, size=size)
    shm_w2c = shared_memory.SharedMemory(create=True, size=size)
    for shm in (shm_c2w, shm_w2c):
        shm.buf[:_RING_DATA] = bytes(_RING_DATA)
    events = {key: ctx.Event() for key in
              ("c2w_data", "c2w_space", "w2c_data", "w2c_space")}
    descriptor = {"c2w": shm_c2w.name, "w2c": shm_w2c.name,
                  "capacity": capacity, **events}
    c2w = _Ring(shm_c2w, capacity, events["c2w_data"],
                events["c2w_space"])
    w2c = _Ring(shm_w2c, capacity, events["w2c_data"],
                events["w2c_space"])
    transport = ShmRingTransport(out_ring=c2w, in_ring=w2c,
                                 owner=True)
    return transport, descriptor


def open_listener(host: str = "127.0.0.1",
                  port: int = 0) -> Tuple[socket.socket,
                                          Tuple[str, int]]:
    """Open a listening TCP socket; returns ``(listener, address)``.

    ``port=0`` binds an ephemeral port — the returned address is what
    shard workers connect to.
    """
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((host, port))
    listener.listen()
    return listener, listener.getsockname()[:2]


def accept_transport(listener: socket.socket,
                     timeout: Optional[float] = 30.0) -> SocketTransport:
    """Accept one peer connection as a :class:`SocketTransport`."""
    listener.settimeout(timeout)
    try:
        sock, _ = listener.accept()
    except socket.timeout as exc:
        raise TransportError(
            f"no shard connected within {timeout} s") from exc
    sock.settimeout(None)
    return SocketTransport(sock)


def connect_transport(address: Tuple[str, int],
                      timeout: Optional[float] = 30.0) -> SocketTransport:
    """Connect to *address* and wrap the socket as a transport."""
    try:
        sock = socket.create_connection(address, timeout=timeout)
    except OSError as exc:
        raise TransportError(
            f"cannot reach coordinator at {address}: {exc}") from exc
    sock.settimeout(None)
    return SocketTransport(sock)
