"""Transports: in-process channels (rendezvous and buffered) and framed TCP.

A session talks over one link per directed role pair, and both kinds of link
carry ``(label name, payload)`` messages in FIFO order through ``send`` and
``receive``.  In process the link is a :class:`Channel`, which implements
both the synchronous rendezvous discipline (capacity 0: a send completes only
when a matching receive is pending) and bounded FIFO buffering.  Over TCP it
is a :class:`FramedLink`, one direction of the pair's connection, whose
frames are headed by the label name.

A channel keeps the values it has accepted as plain values in one deque, at
most ``capacity`` of them.  Only a sender that finds no waiting receiver and
no room (at capacity 0 there never is) gets a record: its value and a *wake*
lock, a ``threading.Lock`` it acquired itself and acquires a second time to
park, queued in FIFO order behind the buffer.  A receive pops the buffer and
moves the first blocked sender into the freed slot (at capacity 0 it takes
the blocked sender's value directly), marks it done and releases its wake
lock.  A receive that finds nothing parks a waiter, which the first sender
to claim it serves.  A thread whose wait times out re-checks whether it was
served meanwhile (a send by its ``done`` flag under the channel lock, a
receive by trying to claim its own waiter), and if so the handoff completes
as if the wait had not timed out.

The multi-channel :func:`select` serves bare channels.  It takes its channel
locks in ``id()`` order (the ids of live objects are distinct); a sender
holds one channel lock and claims a waiter with a non-blocking ``acquire``,
so no thread waits for a lock out of order.  Wake locks are released under a
channel lock and waited on under none.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class AsyncBuffered:
    capacity: int = 1


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


class _Waiter:
    """One pending receive, on one channel or several.  ``claim`` is a
    once-flag: whoever takes it with ``acquire(False)`` first serves the
    waiter (a sender) or withdraws it (the waiter itself, on timeout)."""

    __slots__ = ("claim", "wake", "result")

    def __init__(self) -> None:
        self.claim = threading.Lock()
        self.wake = _wake_lock()
        self.result: Optional[tuple["Channel", object]] = None


class _Blocked:
    """A sender that found no room; ``done`` is set, under the channel lock,
    once its value is in the buffer or taken."""

    __slots__ = ("value", "wake", "done")

    def __init__(self, value: object) -> None:
        self.value = value
        self.wake = _wake_lock()
        self.done = False


class Channel:
    """A binary channel: rendezvous when ``capacity`` is 0, FIFO otherwise."""

    def __init__(self, capacity: int = 0) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._buf: deque[object] = deque()
        self._blocked: deque[_Blocked] = deque()
        self._waiters: list[_Waiter] = []

    def send(self, value: object, timeout: Optional[float] = None) -> None:
        """Deliver ``value``."""
        with self._lock:
            # an unclaimed waiter means the channel is empty; drop claimed ones
            while self._waiters:
                w = self._waiters.pop(0)
                if w.claim.acquire(False):
                    w.result = (self, value)
                    w.wake.release()
                    return
            if len(self._buf) < self.capacity:
                self._buf.append(value)
                return
            b = _Blocked(value)
            self._blocked.append(b)
        if not _wait(b.wake, timeout):
            with self._lock:
                if not b.done:
                    self._blocked.remove(b)
                    raise _timeout_error("send timed out with no matching receive")
            # served while we were timing out: the send completed

    def _take_locked(self) -> object:
        """The next value.  The first blocked sender's value joins the back of
        the buffer, which is full (capacity 0: empty), so FIFO order holds."""
        if self._blocked:
            b = self._blocked.popleft()
            self._buf.append(b.value)
            b.done = True
            b.wake.release()
        return self._buf.popleft()

    def receive(self, timeout: Optional[float] = None) -> object:
        _, value = select([self], timeout)
        return value


def select(channels: Sequence[Channel], timeout: Optional[float] = None) -> tuple[int, object]:
    """Wait for a value on any of ``channels``; of several ready arms, the
    first in list order is taken.  Returns (index into channels, value)."""
    locked = channels if len(channels) == 1 else sorted(set(channels), key=id)
    for ch in locked:
        ch._lock.acquire()
    try:
        for i, ch in enumerate(channels):
            if ch._buf or ch._blocked:
                return i, ch._take_locked()
        w = _Waiter()
        for ch in locked:
            if ch._waiters:  # drop waiters already claimed elsewhere
                ch._waiters[:] = [x for x in ch._waiters if not x.claim.locked()]
            ch._waiters.append(w)
    finally:
        for ch in reversed(locked):
            ch._lock.release()

    if not _wait(w.wake, timeout):
        if w.claim.acquire(False):
            raise _timeout_error("receive timed out with no pending send")
        w.wake.acquire()  # a sender won the race; the value is ours
    got_ch, value = w.result  # type: ignore[misc]
    for i, ch in enumerate(channels):
        if ch is got_ch:
            return i, value
    raise AssertionError("select delivered on an unknown channel")


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


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise SessionRuntimeError(ErrorKind.TRANSPORT_ERROR, "peer closed the connection")
        buf += chunk
    return buf


def read_frame(sock: socket.socket) -> tuple[object, object]:
    raw = _recv_exact(sock, _LEN.size)
    (length,) = _LEN.unpack(raw)
    if length > _MAX_FRAME:
        raise SessionRuntimeError(ErrorKind.TRANSPORT_ERROR, f"oversized frame: {length}")
    body = json.loads(_recv_exact(sock, length).decode("utf-8"))
    return body["ch"], body["payload"]


class FramedLink:
    """One direction of a role pair's TCP connection: the sender writes
    frames on its end, and the receiver reads them from the other end.

    Both operations wait at most their ``timeout``.  A send that times out
    may have written part of its frame, and the link is unusable after it."""

    def __init__(self, out_sock: socket.socket, in_sock: socket.socket) -> None:
        self.out_sock = out_sock
        self.in_sock = in_sock
        self.write_lock = threading.Lock()
        self.read_lock = threading.Lock()

    def send(self, message: tuple[str, object], timeout: Optional[float] = None) -> None:
        frame = encode_frame(*message)
        with self.write_lock:
            try:
                self.out_sock.settimeout(timeout)  # also the reverse link's in_sock, set alike
                self.out_sock.sendall(frame)
            except socket.timeout:
                raise _timeout_error("send timed out on socket") from None
            except OSError as e:
                raise SessionRuntimeError(ErrorKind.TRANSPORT_ERROR, f"send failed: {e}") from None

    def receive(self, timeout: Optional[float] = None) -> tuple[object, object]:
        with self.read_lock:
            self.in_sock.settimeout(timeout)
            try:
                return read_frame(self.in_sock)
            except socket.timeout:
                raise _timeout_error("receive timed out on socket") from None

    def close(self) -> None:
        for s in (self.out_sock, self.in_sock):
            try:
                s.close()
            except OSError:
                pass


def connect_pairs(host: str, pairs: Sequence[tuple[str, str]]) -> list[FramedLink]:
    """Open one localhost TCP connection per unordered role pair among the
    directed ``pairs``, and return each directed pair's link, in order.

    Both endpoints live in this process; a small hello frame names the pair
    so the accepting side can route the socket.
    """
    unordered = sorted({tuple(sorted(p)) for p in pairs})
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((host, 0))
    listener.listen(len(unordered) or 1)
    addr = listener.getsockname()

    ends: dict[tuple[str, str], socket.socket] = {}  # (a, b): a's end of the a-b connection
    accepted: dict[tuple[str, str], socket.socket] = {}

    def accept_all() -> None:
        for _ in unordered:
            conn, _peer = listener.accept()
            (a, b), _ = read_frame(conn)
            accepted[(b, a)] = conn

    t = threading.Thread(target=accept_all, daemon=True)
    t.start()
    for a, b in unordered:
        c = socket.create_connection(addr)
        c.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        c.sendall(encode_frame([a, b], None))
        ends[(a, b)] = c
    t.join(timeout=10)
    if t.is_alive():
        raise SessionRuntimeError(ErrorKind.TRANSPORT_ERROR, "pair handshake did not finish")
    listener.close()
    for end in accepted.values():
        end.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    ends.update(accepted)
    return [FramedLink(ends[(s, r)], ends[(r, s)]) for s, r in pairs]
