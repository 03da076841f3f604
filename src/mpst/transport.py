"""Transports: in-process channels (rendezvous and buffered) and framed TCP.

A session talks over one link per directed role pair, and both kinds of link
carry ``(label name, payload)`` messages in FIFO order through ``send`` and
``receive``.  In process the link is a :class:`Channel`, which implements
both the synchronous rendezvous discipline (capacity 0: a send completes only
when a matching receive is pending) and bounded FIFO buffering.  Over TCP it
is a :class:`FramedLink`, one direction of the pair's connection, whose
frames are headed by the label name.

The multi-channel :func:`select` serves bare channels; the claim protocol
below makes the rendezvous between one of many senders and one
multi-channel waiter atomic.

Wake protocol: a message costs one deque operation under the channel lock,
and a wakeup primitive exists only for a thread that really blocks.  Such a
thread parks on a ``threading.Lock`` it acquired itself (its *wake* lock) and
acquires it a second time; whoever hands the message over releases it,
exactly once.  A send into a buffer with room queues a handoff that is
already accepted and builds no lock.  A send that must block (a rendezvous
with no waiting receiver, or a full buffer) queues its handoff with a wake
lock, which the receive that takes it, or the receive that frees it a buffer
slot, releases.  A receive that finds nothing queues a waiter with a wake
lock, which the one sender that claims the waiter releases.  A thread whose
wait times out re-checks whether it was served meanwhile (a send under the
channel lock, a receive by trying to claim its own waiter), and if so the
handoff completes as if the wait had not timed out.

Lock order: a sender holds its channel lock and then the waiter's claim lock;
a selecting receiver holds all arm locks (in a canonical order) and then no
claim lock.  The claim lock is always innermost, so there is no cycle.  Wake
locks are only released under a channel lock and waited on under none.
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
    kind: str = "sync"


@dataclass(frozen=True)
class AsyncBuffered:
    capacity: int = 1
    kind: str = "async"


@dataclass(frozen=True)
class FramedSocket:
    host: str = "127.0.0.1"
    kind: str = "framed"


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
    """One pending multi-channel receive.  First claimant wins."""

    __slots__ = ("lock", "wake", "claimed", "result")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.wake = _wake_lock()
        self.claimed = False
        self.result: Optional[tuple["Channel", object]] = None

    def try_claim(self) -> bool:
        with self.lock:
            if self.claimed:
                return False
            self.claimed = True
            return True

    def deliver(self, ch: "Channel", value: object) -> None:
        """Hand ``value`` to the waiter; only its claimant calls this."""
        self.result = (ch, value)
        self.wake.release()


class _Handoff:
    """A queued message.  ``wake`` is the blocked sender's wake lock, or None
    when the message went into a buffer with room and nobody waits on it."""

    __slots__ = ("value", "accepted", "taken", "wake")

    def __init__(self, value: object) -> None:
        self.value = value
        self.accepted = False
        self.taken = False
        self.wake: Optional[threading.Lock] = None


class Channel:
    """A binary channel: rendezvous when ``capacity`` is 0, FIFO otherwise."""

    _ids = 0
    _ids_lock = threading.Lock()

    def __init__(self, capacity: int = 0) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._q: deque[_Handoff] = deque()
        self._waiters: list[_Waiter] = []
        with Channel._ids_lock:
            Channel._ids += 1
            self._order = Channel._ids  # canonical lock order for select

    def send(self, value: object, timeout: Optional[float] = None) -> None:
        """Deliver ``value``."""
        h = _Handoff(value)
        with self._lock:
            if not self._q:
                for w in list(self._waiters):
                    if w.try_claim():
                        self._waiters.remove(w)
                        w.deliver(self, value)
                        return
                self._waiters.clear()
            if len(self._q) < self.capacity:
                h.accepted = True
                self._q.append(h)
                return
            h.wake = _wake_lock()
            self._q.append(h)
        if not _wait(h.wake, timeout):
            with self._lock:
                if not (h.taken or h.accepted):
                    self._q.remove(h)
                    raise _timeout_error("send timed out with no matching receive")
            # taken or accepted while we were timing out: the send completed

    def _pop_locked(self) -> object:
        h = self._q.popleft()
        h.taken = True
        if not h.accepted:  # its sender still waits on its wake lock
            h.wake.release()
        # Accepted handoffs are always the first min(capacity, len) entries,
        # so the sender that now fits the buffer is the one at capacity - 1.
        if len(self._q) >= self.capacity > 0:
            pending = self._q[self.capacity - 1]
            if not pending.accepted:
                pending.accepted = True
                pending.wake.release()
        return h.value

    def receive(self, timeout: Optional[float] = None) -> object:
        _, value = select([self], timeout)
        return value


def select(channels: Sequence[Channel], timeout: Optional[float] = None) -> tuple[int, object]:
    """Wait for a value on any of ``channels``; of several ready arms, the
    first in list order is taken.  Returns (index into channels, value)."""
    if len(channels) == 1:
        locked = channels
    else:
        locked = sorted(set(channels), key=lambda c: c._order)
    w: Optional[_Waiter] = None

    for ch in locked:
        ch._lock.acquire()
    try:
        for i, ch in enumerate(channels):
            if ch._q:
                return i, ch._pop_locked()
        w = _Waiter()
        for ch in locked:
            if ch._waiters:  # drop waiters already claimed elsewhere
                ch._waiters[:] = [x for x in ch._waiters if not x.claimed]
            ch._waiters.append(w)
    finally:
        for ch in reversed(locked):
            ch._lock.release()

    if not _wait(w.wake, timeout):
        if w.try_claim():
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
    frames on its end, and the receiver reads them from the other end."""

    def __init__(self, out_sock: socket.socket, in_sock: socket.socket) -> None:
        self.out_sock = out_sock
        self.in_sock = in_sock
        self.write_lock = threading.Lock()
        self.read_lock = threading.Lock()

    def send(self, message: tuple[str, object], timeout: Optional[float] = None) -> None:
        label, payload = message
        with self.write_lock:
            self.out_sock.sendall(encode_frame(label, payload))

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
