"""Transports: in-process channels (rendezvous and buffered) and framed TCP.

The in-process :class:`Channel` implements both the synchronous rendezvous
discipline (capacity 0: a send completes only when a matching receive is
pending) and bounded FIFO buffering.  A receive may select across several
channels at once; the claim protocol below makes the rendezvous between one
of many senders and one multi-channel waiter atomic.

Lock order: a sender holds its channel lock and then the waiter lock; a
selecting receiver holds all arm locks (in a canonical order) and then no
waiter lock.  The waiter lock is always innermost, so there is no cycle.
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


class _Waiter:
    """One pending multi-channel receive.  First claimant wins."""

    __slots__ = ("lock", "event", "claimed", "result")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.event = threading.Event()
        self.claimed = False
        self.result: Optional[tuple["Channel", object]] = None

    def try_claim(self) -> bool:
        with self.lock:
            if self.claimed:
                return False
            self.claimed = True
            return True

    def deliver(self, ch: "Channel", value: object) -> None:
        self.result = (ch, value)
        self.event.set()


class _Handoff:
    __slots__ = ("value", "stamp", "accepted", "taken", "event")

    def __init__(self, value: object, stamp: int) -> None:
        self.value = value
        self.stamp = stamp
        self.accepted = False
        self.taken = False
        self.event = threading.Event()


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

    def send(self, value: object, timeout: Optional[float] = None, stamp: int = 0) -> None:
        """Deliver ``value``.  ``stamp`` is a per-sender sequence number used
        by multi-channel receives to take same-pair messages in send order."""
        h = _Handoff(value, stamp)
        with self._lock:
            if not self._q:
                for w in list(self._waiters):
                    if w.try_claim():
                        self._waiters.remove(w)
                        w.deliver(self, value)
                        return
                self._waiters.clear()
            self._q.append(h)
            if len(self._q) <= self.capacity:
                h.accepted = True
                return
        if not h.event.wait(timeout):
            with self._lock:
                if h in self._q and not h.taken and not h.accepted:
                    self._q.remove(h)
                    raise _timeout_error("send timed out with no matching receive")
            # taken/accepted while we were timing out
            if not (h.taken or h.accepted):
                raise _timeout_error("send timed out with no matching receive")

    def _pop_locked(self) -> object:
        h = self._q.popleft()
        h.taken = True
        h.event.set()
        # Accepted handoffs are always the first min(capacity, len) entries,
        # so the sender that now fits the buffer is the one at capacity - 1.
        if len(self._q) >= self.capacity > 0:
            pending = self._q[self.capacity - 1]
            if not pending.accepted:
                pending.accepted = True
                pending.event.set()
        return h.value

    def receive(self, timeout: Optional[float] = None) -> object:
        _, value = select([self], timeout)
        return value


def select(
    channels: Sequence[Channel],
    timeout: Optional[float] = None,
    start: int = 0,
) -> tuple[int, object]:
    """Wait for a value on any of ``channels``.

    Pending values are polled in rotating order starting at ``start`` so no
    arm starves.  Returns (index into channels, value).
    """
    n = len(channels)
    order = [(start + k) % n for k in range(n)]
    locked = sorted(set(channels), key=lambda c: c._order)
    w: Optional[_Waiter] = None

    for ch in locked:
        ch._lock.acquire()
    try:
        # among ready arms, take the message sent first (lowest stamp)
        best = None
        for i in order:
            ch = channels[i]
            if ch._q and (best is None or ch._q[0].stamp < channels[best]._q[0].stamp):
                best = i
        if best is not None:
            return best, channels[best]._pop_locked()
        w = _Waiter()
        for ch in locked:
            if ch._waiters:  # drop waiters already claimed elsewhere
                ch._waiters[:] = [x for x in ch._waiters if not x.claimed]
            ch._waiters.append(w)
    finally:
        for ch in reversed(locked):
            ch._lock.release()

    if not w.event.wait(timeout):
        if w.try_claim():
            raise _timeout_error("receive timed out with no pending send")
        w.event.wait()  # a sender won the race; the value is ours
    got_ch, value = w.result  # type: ignore[misc]
    for i in order:
        if channels[i] is got_ch:
            return i, value
    raise AssertionError("select delivered on an unknown channel")


# --- framed TCP transport ----------------------------------------------------

_LEN = struct.Struct(">I")
_MAX_FRAME = 16 * 1024 * 1024


def encode_frame(ch: dict, payload: object) -> bytes:
    """Wire format: 4-byte big-endian length, then UTF-8 JSON."""
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


def read_frame(sock: socket.socket) -> tuple[dict, object]:
    raw = _recv_exact(sock, _LEN.size)
    (length,) = _LEN.unpack(raw)
    if length > _MAX_FRAME:
        raise SessionRuntimeError(ErrorKind.TRANSPORT_ERROR, f"oversized frame: {length}")
    body = json.loads(_recv_exact(sock, length).decode("utf-8"))
    return body["ch"], body["payload"]


class FramedPair:
    """Both ends of one role pair's socket, with per-end read locks."""

    def __init__(self, left_sock: socket.socket, right_sock: socket.socket) -> None:
        self.socks = {0: left_sock, 1: right_sock}
        self.read_locks = {0: threading.Lock(), 1: threading.Lock()}
        self.write_locks = {0: threading.Lock(), 1: threading.Lock()}

    def send(self, side: int, ch: dict, payload: object) -> None:
        with self.write_locks[side]:
            self.socks[side].sendall(encode_frame(ch, payload))

    def read(self, side: int, timeout: Optional[float]) -> tuple[dict, object]:
        with self.read_locks[side]:
            self.socks[side].settimeout(timeout)
            try:
                return read_frame(self.socks[side])
            except socket.timeout:
                raise _timeout_error("receive timed out on socket") from None

    def close(self) -> None:
        for s in self.socks.values():
            try:
                s.close()
            except OSError:
                pass


def connect_pairs(host: str, pairs: Sequence[tuple[str, str]]) -> dict[tuple[str, str], FramedPair]:
    """Open one localhost TCP connection per role pair.

    Both endpoints live in this process; a small hello frame names the pair
    so the accepting side can route the socket.
    """
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((host, 0))
    listener.listen(len(pairs) or 1)
    addr = listener.getsockname()

    out: dict[tuple[str, str], FramedPair] = {}
    accepted: dict[tuple[str, str], socket.socket] = {}

    def accept_all() -> None:
        for _ in pairs:
            conn, _peer = listener.accept()
            ch, _ = read_frame(conn)
            accepted[(ch["from"], ch["to"])] = conn

    t = threading.Thread(target=accept_all, daemon=True)
    t.start()
    client_side: dict[tuple[str, str], socket.socket] = {}
    for a, b in pairs:
        c = socket.create_connection(addr)
        c.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        c.sendall(encode_frame({"from": a, "to": b, "label": "@hello", "idx": 0}, None))
        client_side[(a, b)] = c
    t.join(timeout=10)
    if t.is_alive():
        raise SessionRuntimeError(ErrorKind.TRANSPORT_ERROR, "pair handshake did not finish")
    listener.close()
    for a, b in pairs:
        server = accepted[(a, b)]
        server.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        out[(a, b)] = FramedPair(client_side[(a, b)], server)
    return out
