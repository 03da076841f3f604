"""Transports: in-process channels (rendezvous and buffered) and framed TCP.

A session talks over one link per directed role pair, and both kinds of link
carry ``(label name, payload)`` messages in FIFO order through ``send`` and
``receive``.  In process the link is a :class:`Channel`, which implements
both the synchronous rendezvous discipline (capacity 0: a send completes only
when a matching receive is pending) and bounded FIFO buffering.  Over TCP it
is a :class:`FramedLink`, one direction of the pair's connection, whose
frames are headed by the label name.  A frame that is not a UTF-8 JSON
object of a header and a payload, or whose header is not a string, is
refused with ``TransportError``.

A channel keeps the values it has accepted as plain values in one deque, at
most ``capacity`` of them.  Only a thread that must wait gets a record: its
value, a ``done`` flag and a *wake* lock, a ``threading.Lock`` it acquired
itself and acquires a second time to park.  A sender that finds neither a
parked receiver nor room (at capacity 0 there never is) queues its record
behind the buffer; a receive pops the buffer and moves the first blocked
sender into the freed slot (at capacity 0 it takes that sender's value
directly).  A receive that finds nothing parks its record, and the next send
fills it.  The serving thread sets the record's value and ``done`` under the
channel lock and then releases its wake lock; a thread whose wait times out
re-checks ``done`` under that lock, and if it was served meanwhile the
handoff completes as if the wait had not timed out.

A channel has one receiving role, so it has one receiver slot, an operation
takes no lock but its channel's, and a second concurrent receive raises
``TransportError``.  A receive is one call of the module function
``select``, which waits on the one channel it is given and returns its next
value.  An endpoint's receive calls it itself; ``Channel.receive`` calls it
for direct callers and the bare loop.  ``Channel.send`` and ``select`` take
the channel lock with ``acquire`` and release it in a ``finally``, not in a
``with`` block, whose enter and exit calls cost about as much as the lock
itself; only the re-checks after a timed-out wait use ``with``.
"""

from __future__ import annotations

import contextlib
import json
import socket
import struct
import threading
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ErrorKind, SessionRuntimeError


@dataclass(frozen=True)
class SyncRendezvous:
    """Capacity 0: a send completes only when the matching receive is pending."""

    capacity = 0  # a class constant, not a field: every rendezvous is alike


@dataclass(frozen=True)
class AsyncBuffered:
    """At most ``capacity`` messages in flight from one role to another."""

    capacity: int = 1

    def __post_init__(self) -> None:
        if type(self.capacity) is not int or self.capacity < 0:  # type(), for a bool is an int
            raise ValueError(f"buffer capacity must be an int >= 0, not {self.capacity!r}")


@dataclass(frozen=True)
class FramedSocket:
    host: str = "127.0.0.1"


Transport = SyncRendezvous | AsyncBuffered | FramedSocket


def _timeout_error(what: str) -> SessionRuntimeError:
    return SessionRuntimeError(ErrorKind.TIMEOUT, what)


def _wait(wake: threading.Lock, timeout: Optional[float]) -> bool:
    """Acquire ``wake``: forever when ``timeout`` is None, not at all when it
    is zero or negative."""
    if timeout is None:
        return wake.acquire()
    if timeout <= 0:
        return wake.acquire(False)
    return wake.acquire(True, timeout)


def _wake_lock() -> threading.Lock:
    """A lock held already, so that the next ``acquire`` parks until the
    thread that hands over the message releases it."""
    wake = threading.Lock()
    wake.acquire()
    return wake


class _Parked:
    """A thread parked on a channel: a blocked sender with its value, or the
    receiver, whose value the serving send puts here.  ``value`` and ``done``
    are set under the channel lock before ``wake`` is released."""

    __slots__ = ("value", "wake", "done")

    def __init__(self, value: object = None) -> None:
        self.value = value
        self.wake = _wake_lock()
        self.done = False


class Channel:
    """A link with one receiving role: rendezvous when ``capacity`` is 0,
    FIFO otherwise.  At most one receive may be pending; a second concurrent
    receive raises ``TransportError``.  ``runtime.open_session`` builds a
    session's links slot by slot as ``__init__`` does, without calling it."""

    __slots__ = ("capacity", "_lock", "_buf", "_blocked", "_receiver")

    def __init__(self, capacity: int = 0) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._buf: deque[object] = deque()
        self._blocked: list[_Parked] = []  # FIFO; a session link's one linear sender blocks at most once
        self._receiver: Optional[_Parked] = None

    def send(self, value: object, timeout: Optional[float] = None) -> None:
        """Deliver ``value``."""
        lock = self._lock
        lock.acquire()
        try:
            r = self._receiver
            if r is not None:  # the receiver is parked, so the channel is empty
                self._receiver = None
                r.value = value
                r.done = True
                r.wake.release()
                return
            if len(self._buf) < self.capacity:
                self._buf.append(value)
                return
            b = _Parked(value)
            self._blocked.append(b)
        finally:
            lock.release()
        if not _wait(b.wake, timeout):
            with self._lock:
                if not b.done:
                    self._blocked.remove(b)
                    raise _timeout_error("send timed out with no matching receive")
            # served while we were timing out: the send completed

    def receive(self, timeout: Optional[float] = None) -> object:
        return select(self, timeout)


def select(ch: Channel, timeout: Optional[float] = None) -> object:
    """Wait for the next value on ``ch`` and return it.
    :meth:`Channel.receive` calls it through this module."""
    lock = ch._lock
    lock.acquire()
    try:
        # The first blocked sender's value joins the back of the buffer, which
        # is full (capacity 0: empty), so FIFO order holds.
        blocked = ch._blocked
        if blocked:
            b = blocked.pop(0)
            ch._buf.append(b.value)
            b.done = True
            b.wake.release()
        if ch._buf:
            return ch._buf.popleft()
        if ch._receiver is not None:
            raise SessionRuntimeError(ErrorKind.TRANSPORT_ERROR, "a receive is already pending")
        r = ch._receiver = _Parked()
    finally:
        lock.release()
    if not _wait(r.wake, timeout):
        with ch._lock:
            if not r.done:
                ch._receiver = None
                raise _timeout_error("receive timed out with no pending send")
        # served while we were timing out: the value is ours
    return r.value


# --- framed TCP transport ----------------------------------------------------

_LEN = struct.Struct(">I")
_MAX_FRAME = 16 * 1024 * 1024


def encode_frame(ch: object, payload: object) -> bytes:
    """Wire format: 4-byte big-endian length, then UTF-8 JSON of the header
    ``ch`` (a session's frames carry the label name) and the payload."""
    body = json.dumps({"ch": ch, "payload": payload}, sort_keys=True).encode("utf-8")
    if len(body) > _MAX_FRAME:  # the reader would refuse it and lose the stream
        raise SessionRuntimeError(ErrorKind.TRANSPORT_ERROR, f"oversized frame: {len(body)}")
    return _LEN.pack(len(body)) + body


def _fill(sock: socket.socket, buf: bytearray, n: int) -> None:
    """Read until ``buf`` holds ``n`` bytes, keeping what a timeout cut short."""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise SessionRuntimeError(ErrorKind.TRANSPORT_ERROR, "peer closed the connection")
        buf += chunk


def read_frame(sock: socket.socket, buf: bytearray) -> tuple[object, object]:
    """Read one frame, resuming the partial frame held in ``buf``.  A body
    that is not a UTF-8 JSON object of exactly ``ch`` and ``payload`` is
    refused with ``TransportError``; the frame is consumed either way."""
    _fill(sock, buf, _LEN.size)
    (length,) = _LEN.unpack_from(buf)
    if length > _MAX_FRAME:
        raise SessionRuntimeError(ErrorKind.TRANSPORT_ERROR, f"oversized frame: {length}")
    _fill(sock, buf, _LEN.size + length)
    raw = buf[_LEN.size:]
    del buf[:]
    try:
        body = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as e:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise SessionRuntimeError(ErrorKind.TRANSPORT_ERROR, f"undecodable frame: {e}") from None
    if body.__class__ is not dict or body.keys() != {"ch", "payload"}:
        raise SessionRuntimeError(ErrorKind.TRANSPORT_ERROR, "frame is not an object of ch and payload")
    return body["ch"], body["payload"]


class FramedLink:
    """One direction of a role pair's TCP connection: the sender writes
    frames on its end, and the receiver reads them from the other end.

    Both operations wait at most their ``timeout``.  A receive that times
    out keeps the part of a frame it has read, and the next receive resumes
    that frame.  A send that times out may have written part of its frame,
    so it shuts its end for writing: the peer's receive and every later send
    raise ``TransportError``, and the reverse direction, which shares the
    socket, keeps working."""

    def __init__(self, out_sock: socket.socket, in_sock: socket.socket) -> None:
        self.out_sock = out_sock
        self.in_sock = in_sock
        self.write_lock = threading.Lock()
        self.read_lock = threading.Lock()
        self.partial = bytearray()  # a frame's bytes read before a receive timed out

    def send(self, message: tuple[str, object], timeout: Optional[float] = None) -> None:
        frame = encode_frame(*message)
        with self.write_lock:
            try:
                self.out_sock.settimeout(timeout)  # also the reverse link's in_sock, set alike
                self.out_sock.sendall(frame)
            except socket.timeout:
                with contextlib.suppress(OSError):
                    self.out_sock.shutdown(socket.SHUT_WR)
                raise _timeout_error("send timed out on socket") from None
            except OSError as e:
                raise SessionRuntimeError(ErrorKind.TRANSPORT_ERROR, f"send failed: {e}") from None

    def receive(self, timeout: Optional[float] = None) -> tuple[object, object]:
        with self.read_lock:
            self.in_sock.settimeout(timeout)
            try:
                ch, payload = read_frame(self.in_sock, self.partial)
            except socket.timeout:
                raise _timeout_error("receive timed out on socket") from None
        if ch.__class__ is not str:  # a session's frames are headed by the label name
            raise SessionRuntimeError(ErrorKind.TRANSPORT_ERROR, f"frame header is not a label name: {ch!r}")
        return ch, payload

    def close(self) -> None:
        for s in (self.out_sock, self.in_sock):
            with contextlib.suppress(OSError):
                s.close()


def connect_pairs(host: str, pairs: Sequence[tuple[str, str]]) -> list[FramedLink]:
    """Open one localhost TCP connection per unordered role pair among the
    directed ``pairs``, and return each directed pair's link, in order.
    Both ends live in this process: each pair connects, then accepts, and
    refuses an accepted socket that is not the one it connected."""
    ends: dict[tuple[str, str], socket.socket] = {}  # (a, b): a's end of the a-b connection
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, 0))
        listener.listen(1)
        for a, b in sorted({tuple(sorted(p)) for p in pairs}):
            ends[(a, b)] = c = socket.create_connection(listener.getsockname())
            ends[(b, a)], peer = listener.accept()
            if peer != c.getsockname():
                raise SessionRuntimeError(ErrorKind.TRANSPORT_ERROR, f"stray connection from {peer}")
            for end in (c, ends[(b, a)]):
                end.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except BaseException:
        for end in ends.values():  # no link owns them yet
            end.close()
        raise
    finally:
        listener.close()
    return [FramedLink(ends[(s, r)], ends[(r, s)]) for s, r in pairs]
