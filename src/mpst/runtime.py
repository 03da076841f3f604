"""Session runtime: affine endpoints over channel vectors.

An :class:`Endpoint` is one role's live handle into a session.  Every
protocol stage carries a fresh :class:`LinearityCell`; the first operation
(send, receive, close, or being delegated away) consumes the cell, and any
further use raises ``InvalidEndpoint``.  Consuming the cell covers all
sibling labels of the stage: choosing one output among alternatives uses the
stage exactly once.
"""

from __future__ import annotations

import itertools
import random
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .chanvec import (
    ChannelName,
    ChannelTable,
    ChannelVector,
    OutRec,
    WrappedInp,
    eval_global,
    typecheck_cv,
    unfold_cv,
)
from .errors import ErrorKind, SessionRuntimeError, ShapeError
from .protocol import (
    BOOL,
    GlobalProtocol,
    INT,
    Label,
    PayloadSort,
    Role,
    SessionSort,
    STRING,
    UNIT,
    roles_of,
    validate_shape,
)
from .transport import (
    AsyncBuffered,
    Channel,
    FramedPair,
    FramedSocket,
    SyncRendezvous,
    Transport,
    connect_pairs,
    select,
)
from .types import Branch, EndT, LocalType, Select, subtype, unfold_type

DEFAULT_TIMEOUT = 5.0


class EventKind(str, Enum):
    SEND = "send"
    RECEIVE = "receive"
    CLOSE = "close"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class TraceEvent:
    seq: int
    kind: EventKind
    role: Role
    peer: Optional[Role]
    label: Optional[Label]

    def signature(self) -> tuple[str, str, str, str]:
        return (
            self.role.name,
            self.kind.value,
            self.peer.name if self.peer else "",
            self.label.name if self.label else "",
        )


class SessionMonitor:
    """Append-only event log checked against projected local types."""

    def __init__(self, expected: dict[Role, LocalType]) -> None:
        self.expected = {r.name: t for r, t in expected.items()}
        self._events: list[TraceEvent] = []
        self._lock = threading.Lock()
        self._seq = itertools.count()

    def record(self, kind: EventKind, role: Role, peer: Optional[Role], label: Optional[Label]) -> None:
        with self._lock:  # seq is taken under the lock, so list order is seq order
            self._events.append(TraceEvent(next(self._seq), kind, role, peer, label))

    @property
    def events(self) -> list[TraceEvent]:
        with self._lock:
            return list(self._events)

    def verdict(self) -> tuple[bool, str]:
        """Conformant iff every role's event subsequence walks its local type
        from the start to End, finishing with a close."""
        events = self.events
        for role_name, t in self.expected.items():
            cursor = unfold_type(t)
            closed = False
            for ev in events:
                if ev.role.name != role_name:
                    continue
                if closed:
                    return False, f"{role_name} acted after close"
                if ev.kind is EventKind.CLOSE:
                    if not isinstance(cursor, EndT):
                        return False, f"{role_name} closed before finishing its protocol"
                    closed = True
                    continue
                want = Select if ev.kind is EventKind.SEND else Branch
                if not isinstance(cursor, want):
                    return False, f"{role_name} performed {ev.kind} at a {type(cursor).__name__} stage"
                if ev.peer is None or cursor.peer.name != ev.peer.name:
                    return False, f"{role_name} talked to {ev.peer} instead of {cursor.peer}"
                nxt = None
                for l, c in cursor.branches:
                    if ev.label is not None and l.name == ev.label.name:
                        nxt = c
                        break
                if nxt is None:
                    return False, f"{role_name} used unknown label {ev.label}"
                cursor = unfold_type(nxt)
            if not isinstance(cursor, EndT):
                return False, f"{role_name} stopped before finishing its protocol"
            if not closed:
                return False, f"{role_name} never closed its endpoint"
        return True, "conformant"


class LinearityCell:
    """A once-settable flag; the false-to-true transition is atomic."""

    __slots__ = ("_used", "_lock")

    def __init__(self) -> None:
        self._used = False
        self._lock = threading.Lock()

    def use(self) -> bool:
        with self._lock:
            if self._used:
                return False
            self._used = True
            return True

    @property
    def used(self) -> bool:
        return self._used


class SessionChannels:
    """Transport bindings for one session: one handle per channel class."""

    def __init__(self, transport: Transport, table: ChannelTable, roles: tuple[Role, ...]) -> None:
        self.transport = transport
        self.table = table
        self.roles = roles
        self.channels: dict = {}
        self.pairs: dict[tuple[str, str], FramedPair] = {}
        self._stamps: dict[tuple[str, str], itertools.count] = {}
        self._stamps_lock = threading.Lock()
        if isinstance(transport, (SyncRendezvous, AsyncBuffered)):
            cap = transport.capacity if isinstance(transport, AsyncBuffered) else 0
            for name in table.classes():
                self.channels[name.key] = Channel(cap)
        elif isinstance(transport, FramedSocket):
            pair_names = sorted(
                {
                    tuple(sorted((n.from_role.name, n.to_role.name)))
                    for n in table.classes()
                }
            )
            self.pairs.update(connect_pairs(transport.host, pair_names))
        else:
            raise SessionRuntimeError(ErrorKind.TRANSPORT_ERROR, f"unknown transport {transport!r}")

    @property
    def in_process(self) -> bool:
        return not isinstance(self.transport, FramedSocket)

    def channel_for(self, name: ChannelName) -> Channel:
        return self.channels[self.table.find(name.key)]

    def next_stamp(self, frm: Role, to: Role) -> int:
        with self._stamps_lock:
            counter = self._stamps.setdefault((frm.name, to.name), itertools.count())
        return next(counter)

    def pair_for(self, me: Role, peer: Role) -> tuple[FramedPair, int]:
        a, b = sorted((me.name, peer.name))
        pair = self.pairs[(a, b)]
        side = 0 if me.name == a else 1
        return pair, side

    def close(self) -> None:
        for pair in self.pairs.values():
            pair.close()


def _frame_header(name: ChannelName) -> dict:
    return {
        "from": name.from_role.name,
        "to": name.to_role.name,
        "label": name.label.name,
        "idx": name.index,
    }


def _payload_matches(sort: PayloadSort, value: object) -> bool:
    if sort == UNIT:
        return value is None
    if sort == BOOL:
        return isinstance(value, bool)
    if sort == INT:
        return isinstance(value, int) and not isinstance(value, bool)
    if sort == STRING:
        return isinstance(value, str)
    if isinstance(sort, SessionSort):
        return isinstance(value, Endpoint)
    return False


class Endpoint:
    """A role's affine handle at one protocol stage."""

    __slots__ = ("role", "vector", "cell", "session", "monitor", "timeout", "_rotor")

    def __init__(
        self,
        role: Role,
        vector: ChannelVector,
        session: SessionChannels,
        monitor: Optional[SessionMonitor],
        timeout: float,
        rotor: int = 0,
    ) -> None:
        self.role = role
        self.vector = unfold_cv(vector)
        self.cell = LinearityCell()
        self.session = session
        self.monitor = monitor
        self.timeout = timeout
        self._rotor = rotor

    def _next(self, vector: ChannelVector) -> "Endpoint":
        return Endpoint(self.role, vector, self.session, self.monitor, self.timeout, self._rotor + 1)

    def _consume(self) -> None:
        if not self.cell.use():
            raise SessionRuntimeError(
                ErrorKind.INVALID_ENDPOINT, f"endpoint of {self.role} was already used"
            )

    def remaining_type(self) -> LocalType:
        return typecheck_cv(self.vector, self.session.table.payload_env(), self.session.table)

    def send(self, peer: Role, label: Label | str, payload: object = None) -> "Endpoint":
        head = self.vector
        if self.cell.used:
            self._consume()  # raises InvalidEndpoint
        if not isinstance(head, OutRec):
            raise SessionRuntimeError(
                ErrorKind.WRONG_PEER,
                f"{self.role} tried to send but the protocol expects "
                f"{'a receive' if isinstance(head, WrappedInp) else 'close'} here",
            )
        if head.peer.name != (peer.name if isinstance(peer, Role) else peer):
            raise SessionRuntimeError(
                ErrorKind.WRONG_PEER, f"{self.role} must talk to {head.peer} here, not {peer}"
            )
        label_name = label.name if isinstance(label, Label) else label
        entry = None
        for l, s, cont in head.branches:
            if l.name == label_name:
                entry = (l, s, cont)
                break
        if entry is None:
            raise SessionRuntimeError(
                ErrorKind.UNKNOWN_LABEL,
                f"label {label_name} is not offered here (have {head.labels()})",
            )
        l, name, cont = entry
        wire = payload
        if isinstance(l.payload, SessionSort):
            wire = self._prepare_delegation(l.payload, payload)
        elif not _payload_matches(l.payload, payload):
            raise SessionRuntimeError(
                ErrorKind.PAYLOAD_SORT_MISMATCH,
                f"label {l} expects {l.payload.sort_name()}, got {type(payload).__name__}",
            )
        self._consume()
        if self.monitor:
            self.monitor.record(EventKind.SEND, self.role, head.peer, l)
        if self.session.in_process:
            stamp = self.session.next_stamp(self.role, head.peer)
            self.session.channel_for(name).send(wire, self.timeout, stamp)
        else:
            canon = self.session.table.canonical(name)
            pair, side = self.session.pair_for(self.role, head.peer)
            pair.send(side, _frame_header(canon), wire)
        return self._next(cont)

    def _prepare_delegation(self, sort: SessionSort, payload: object) -> "Endpoint":
        if not isinstance(payload, Endpoint):
            raise SessionRuntimeError(
                ErrorKind.PAYLOAD_SORT_MISMATCH, "delegation payload must be an endpoint"
            )
        if not self.session.in_process:
            raise SessionRuntimeError(
                ErrorKind.DELEGATION_UNSUPPORTED,
                "endpoints cannot be delegated across a framed socket",
            )
        if not subtype(payload.remaining_type(), sort.local):
            raise SessionRuntimeError(
                ErrorKind.PAYLOAD_SORT_MISMATCH,
                "delegated endpoint does not implement the declared session type",
            )
        payload._consume()  # the sender's handle dies; raises if already used
        return payload._next(payload.vector)

    def receive(self, peer: Role) -> tuple[Label, object, "Endpoint"]:
        head = self.vector
        if self.cell.used:
            self._consume()
        if not isinstance(head, WrappedInp):
            raise SessionRuntimeError(
                ErrorKind.WRONG_PEER,
                f"{self.role} tried to receive but the protocol expects "
                f"{'a send' if isinstance(head, OutRec) else 'close'} here",
            )
        if head.peer.name != (peer.name if isinstance(peer, Role) else peer):
            raise SessionRuntimeError(
                ErrorKind.WRONG_PEER, f"{self.role} must listen to {head.peer} here, not {peer}"
            )
        self._consume()
        if self.session.in_process:
            chans = [self.session.channel_for(s) for _, s, _ in head.branches]
            i, value = select(chans, self.timeout, start=self._rotor % len(chans))
            label, _, cont = head.branches[i]
        else:
            pair, side = self.session.pair_for(self.role, head.peer)
            ch, value = pair.read(side, self.timeout)
            match = None
            for l, s, cont_ in head.branches:
                canon = self.session.table.canonical(s)
                if _frame_header(canon) == ch:
                    match = (l, cont_)
                    break
            if match is None:
                raise SessionRuntimeError(
                    ErrorKind.TRANSPORT_ERROR, f"frame for unexpected channel {ch}"
                )
            label, cont = match
        if self.monitor:
            self.monitor.record(EventKind.RECEIVE, self.role, head.peer, label)
        return label, value, self._next(cont)

    def close(self) -> None:
        if self.cell.used:
            self._consume()
        if not isinstance(self.vector, EndT):
            raise SessionRuntimeError(
                ErrorKind.PROTOCOL_NOT_FINISHED,
                f"{self.role} closed with protocol steps remaining",
            )
        self._consume()
        if self.monitor:
            self.monitor.record(EventKind.CLOSE, self.role, None, None)


@dataclass
class Session:
    """A live session: endpoints plus the shared monitor and transports."""

    roles: tuple[Role, ...]
    endpoints: dict[Role, Endpoint]
    monitor: Optional[SessionMonitor]
    channels: SessionChannels
    local_types: dict[Role, LocalType] = field(default_factory=dict)

    def close_transport(self) -> None:
        self.channels.close()


_session_ids = itertools.count()


def open_session(
    g: GlobalProtocol,
    transport: Transport = SyncRendezvous(),
    monitored: bool = False,
    roles: Optional[tuple[Role, ...]] = None,
    timeout: float = DEFAULT_TIMEOUT,
) -> Session:
    """Check a protocol, compile it, bind a transport, and hand out endpoints.

    The protocol is compiled once: the local types (for the monitor and
    ``Session.local_types``) are the channel-erased vectors.  Shape and
    typing failures are raised before any transport is bound.
    """
    report = validate_shape(g)
    if not report.ok:
        raise ShapeError(report.findings)
    tuple_roles = roles if roles is not None else roles_of(g)
    sid = f"s{next(_session_ids)}"
    vectors, table = eval_global(g, sid, tuple_roles)
    env = table.payload_env()
    local = {r: typecheck_cv(v, env, table) for r, v in zip(tuple_roles, vectors)}
    channels = SessionChannels(transport, table, tuple_roles)
    monitor = SessionMonitor(local) if monitored else None
    rng = seeded_rng()  # MPST_SEED fixes the select rotation
    endpoints = {
        r: Endpoint(r, v, channels, monitor, timeout, rotor=rng.randrange(997) + i)
        for i, (r, v) in enumerate(zip(tuple_roles, vectors))
    }
    return Session(tuple_roles, endpoints, monitor, channels, local)


def seeded_rng(seed: Optional[int] = None) -> random.Random:
    """RNG honouring the MPST_SEED environment variable."""
    import os

    if seed is None:
        seed = int(os.environ.get("MPST_SEED", "0"))
    return random.Random(seed)
