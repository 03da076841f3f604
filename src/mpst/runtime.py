"""Session runtime: affine endpoints that walk compiled local types.

A protocol is compiled once per protocol object and role tuple, to one local
type per role and the directed role pairs that carry messages; its channel
vectors are not kept.  A session binds one link per directed role pair, a
FIFO of ``(label name, payload)`` messages on every transport: a send puts
its label and payload on the link to the peer, and a receive takes the head
of the link from the peer and picks its branch by the label name.

An :class:`Endpoint` is one role's live handle into a session at one
protocol stage: the role's seat (role, links, monitor and timeout, built
once per session), the stage's local type, and a fresh
:class:`LinearityCell`.  The cell is one ``threading.Lock`` taken with a
non-blocking ``acquire`` and never released, so exactly one caller wins it.
The first operation (send, receive, close, or being delegated away) consumes
the cell, and any further use raises ``InvalidEndpoint``.  Consuming the
cell covers all sibling labels of the stage: choosing one output among
alternatives uses the stage exactly once.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .chanvec import eval_global, typecheck_cv, unfold_cv
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
    FramedLink,
    FramedSocket,
    SyncRendezvous,
    Transport,
    connect_pairs,
    select,  # not called here; re-exported for callers that look up runtime.select
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
                name = ev.label.name if ev.label is not None else None
                nxt = next((c for l, c in cursor.branches if l.name == name), None)
                if nxt is None:
                    return False, f"{role_name} used unknown label {ev.label}"
                cursor = unfold_type(nxt)
            if not isinstance(cursor, EndT):
                return False, f"{role_name} stopped before finishing its protocol"
            if not closed:
                return False, f"{role_name} never closed its endpoint"
        return True, "conformant"


class LinearityCell:
    """A once-settable flag: ``use`` returns True to exactly one caller."""

    __slots__ = ("_lock",)

    def __init__(self) -> None:
        self._lock = threading.Lock()

    def use(self) -> bool:
        return self._lock.acquire(False)

    @property
    def used(self) -> bool:
        return self._lock.locked()


@dataclass(frozen=True)
class CompiledProtocol:
    """One protocol compiled for one role tuple, shared by all its sessions.
    ``pairs`` are the directed (sender, receiver) role-name pairs that carry
    messages."""

    roles: tuple[Role, ...]
    local_types: dict[Role, LocalType]
    pairs: tuple[tuple[str, str], ...]


def _compile(g: GlobalProtocol, roles: Optional[tuple[Role, ...]]) -> CompiledProtocol:
    report = validate_shape(g)
    if not report.ok:
        raise ShapeError(report.findings)
    tuple_roles = roles if roles is not None else roles_of(g)
    vectors, table = eval_global(g, None, tuple_roles)
    env = table.payload_env()
    local = {r: typecheck_cv(v, env) for r, v in zip(tuple_roles, vectors)}
    pairs = dict.fromkeys((n.from_role.name, n.to_role.name) for n in table.names)
    return CompiledProtocol(tuple_roles, local, tuple(pairs))


def _compiled_for(g: GlobalProtocol, roles: Optional[tuple[Role, ...]]) -> CompiledProtocol:
    """The compiled form of ``g`` for ``roles`` (``None``: the discovered
    roles), kept on ``g`` like the unfolding kept on a ``RecT``.  Failures are
    raised, not kept; two threads compiling at once both compile."""
    cache = g.__dict__.setdefault("_compiled", {})
    if roles not in cache:
        cache[roles] = _compile(g, roles)
    return cache[roles]


class SessionChannels:
    """One session's links, one per directed role pair: a :class:`Channel`
    in process or a :class:`FramedLink` over TCP."""

    def __init__(self, transport: Transport, compiled: CompiledProtocol) -> None:
        if isinstance(transport, (SyncRendezvous, AsyncBuffered)):
            cap = transport.capacity if isinstance(transport, AsyncBuffered) else 0
            self.links = [Channel(cap) for _ in compiled.pairs]
        elif isinstance(transport, FramedSocket):
            self.links = connect_pairs(transport.host, compiled.pairs)
        else:
            raise SessionRuntimeError(ErrorKind.TRANSPORT_ERROR, f"unknown transport {transport!r}")
        self._to: dict[str, dict[str, object]] = {}  # sender -> receiver -> link
        for (sender, receiver), link in zip(compiled.pairs, self.links):
            self._to.setdefault(sender, {})[receiver] = link

    def channel_for(self, sender: str, receiver: str):
        return self._to[sender][receiver]

    def close(self) -> None:
        for link in self.links:
            if isinstance(link, FramedLink):
                link.close()


def _payload_matches(sort: PayloadSort, value: object) -> bool:
    if sort == UNIT:
        return value is None
    if sort == BOOL:
        return isinstance(value, bool)
    if sort == INT:
        return isinstance(value, int) and not isinstance(value, bool)
    if sort == STRING:
        return isinstance(value, str)
    return False


@dataclass(slots=True)
class _Seat:
    """What a role's endpoints share across the stages of one session."""

    role: Role
    links: SessionChannels
    monitor: Optional[SessionMonitor]
    timeout: float


class Endpoint:
    """A role's affine handle at one protocol stage."""

    __slots__ = ("seat", "stage", "cell")

    def __init__(self, seat: _Seat, stage: LocalType) -> None:
        self.seat = seat
        self.stage = unfold_cv(stage)
        self.cell = LinearityCell()

    def _consume(self) -> None:
        if not self.cell.use():
            raise SessionRuntimeError(
                ErrorKind.INVALID_ENDPOINT, f"endpoint of {self.seat.role} was already used"
            )

    def send(self, peer: Role, label: Label | str, payload: object = None) -> "Endpoint":
        seat = self.seat
        head = self.stage
        if self.cell.used:
            self._consume()  # raises InvalidEndpoint
        if not isinstance(head, Select):
            raise SessionRuntimeError(
                ErrorKind.WRONG_PEER,
                f"{seat.role} tried to send but the protocol expects "
                f"{'a receive' if isinstance(head, Branch) else 'close'} here",
            )
        if head.peer.name != (peer.name if isinstance(peer, Role) else peer):
            raise SessionRuntimeError(
                ErrorKind.WRONG_PEER, f"{seat.role} must talk to {head.peer} here, not {peer}"
            )
        label_name = label.name if isinstance(label, Label) else label
        for l, cont in head.branches:
            if l.name == label_name:
                break
        else:
            raise SessionRuntimeError(
                ErrorKind.UNKNOWN_LABEL,
                f"label {label_name} is not offered here (have {head.labels()})",
            )
        link = seat.links.channel_for(seat.role.name, head.peer.name)
        wire = payload
        if isinstance(l.payload, SessionSort):
            wire = self._prepare_delegation(l.payload, payload, link)
        elif not _payload_matches(l.payload, payload):
            raise SessionRuntimeError(
                ErrorKind.PAYLOAD_SORT_MISMATCH,
                f"label {l} expects {l.payload.sort_name()}, got {type(payload).__name__}",
            )
        self._consume()
        link.send((l.name, wire), seat.timeout)
        if seat.monitor:  # only a send that happened is traced
            seat.monitor.record(EventKind.SEND, seat.role, head.peer, l)
        return Endpoint(seat, cont)

    def _prepare_delegation(self, sort: SessionSort, payload: object, link) -> "Endpoint":
        if not isinstance(payload, Endpoint):
            raise SessionRuntimeError(
                ErrorKind.PAYLOAD_SORT_MISMATCH, "delegation payload must be an endpoint"
            )
        if isinstance(link, FramedLink):
            raise SessionRuntimeError(
                ErrorKind.DELEGATION_UNSUPPORTED,
                "endpoints cannot be delegated across a framed socket",
            )
        if not subtype(payload.stage, sort.local):
            raise SessionRuntimeError(
                ErrorKind.PAYLOAD_SORT_MISMATCH,
                "delegated endpoint does not implement the declared session type",
            )
        payload._consume()  # the sender's handle dies; raises if already used
        return Endpoint(payload.seat, payload.stage)

    def receive(self, peer: Role) -> tuple[Label, object, "Endpoint"]:
        seat = self.seat
        head = self.stage
        if self.cell.used:
            self._consume()
        if not isinstance(head, Branch):
            raise SessionRuntimeError(
                ErrorKind.WRONG_PEER,
                f"{seat.role} tried to receive but the protocol expects "
                f"{'a send' if isinstance(head, Select) else 'close'} here",
            )
        if head.peer.name != (peer.name if isinstance(peer, Role) else peer):
            raise SessionRuntimeError(
                ErrorKind.WRONG_PEER, f"{seat.role} must listen to {head.peer} here, not {peer}"
            )
        self._consume()
        link = seat.links.channel_for(head.peer.name, seat.role.name)
        label_name, value = link.receive(seat.timeout)
        for label, cont in head.branches:  # labels are unique within one receive
            if label.name == label_name:
                break
        else:
            raise SessionRuntimeError(
                ErrorKind.TRANSPORT_ERROR, f"message with unexpected label {label_name}"
            )
        if seat.monitor:
            seat.monitor.record(EventKind.RECEIVE, seat.role, head.peer, label)
        return label, value, Endpoint(seat, cont)

    def close(self) -> None:
        seat = self.seat
        if self.cell.used:
            self._consume()
        if not isinstance(self.stage, EndT):
            raise SessionRuntimeError(
                ErrorKind.PROTOCOL_NOT_FINISHED,
                f"{seat.role} closed with protocol steps remaining",
            )
        self._consume()
        if seat.monitor:
            seat.monitor.record(EventKind.CLOSE, seat.role, None, None)


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


def open_session(
    g: GlobalProtocol,
    transport: Transport = SyncRendezvous(),
    monitored: bool = False,
    roles: Optional[tuple[Role, ...]] = None,
    timeout: float = DEFAULT_TIMEOUT,
) -> Session:
    """Check a protocol, compile it, bind a transport, and hand out endpoints.

    ``g`` is compiled on its first open with these ``roles``; shape and
    typing failures are raised before any transport is bound.  Each
    endpoint starts at its role's local type, the one the monitor and
    ``Session.local_types`` hold.
    """
    compiled = _compiled_for(g, tuple(roles) if roles is not None else None)
    channels = SessionChannels(transport, compiled)
    local = dict(compiled.local_types)
    monitor = SessionMonitor(local) if monitored else None
    endpoints = {
        r: Endpoint(_Seat(r, channels, monitor, timeout), t) for r, t in local.items()
    }
    return Session(compiled.roles, endpoints, monitor, channels, local)
