"""Session runtime: affine endpoints that step compiled state tables.

A protocol is compiled once per protocol object and role tuple, to one local
type per role, the directed role pairs that carry messages, and each role's
state table, the finite automaton of its local type (Deniélou & Yoshida,
ESOP 2012); its channel vectors are not kept.  A session binds one link per
directed role pair, a FIFO of ``(label name, payload)`` messages on every
transport: a send puts its label and payload on the link to the peer, and a
receive takes the head of the link from the peer and picks its branch by
the label name.

An :class:`Endpoint` is one role's live handle into a session at one state:
the role's seat (role, links, monitor and timeout, built once per session),
the state, and a fresh :class:`LinearityCell`.  The cell is one
``threading.Lock`` taken with a non-blocking ``acquire`` and never released,
so exactly one caller wins it.  The first operation (send, receive, close,
or being delegated away) consumes the cell, and any further use raises
``InvalidEndpoint``.  Consuming the cell covers all sibling labels of the
stage: choosing one output among alternatives uses the stage exactly once.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .chanvec import eval_global, typecheck_cv
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
from .types import Branch, DirectedChoice, EndT, LocalType, RecT, Select, VarT, subtype, unfold_type

DEFAULT_TIMEOUT = 5.0


class EventKind(str, Enum):
    SEND = "send"
    RECEIVE = "receive"
    CLOSE = "close"

    def __str__(self) -> str:
        return self.value


_SEND, _RECEIVE, _CLOSE = EventKind.SEND, EventKind.RECEIVE, EventKind.CLOSE


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


# The payload check of each base sort; a label gets its check at compile time.
_CHECKS = {
    UNIT: lambda v: v is None,
    BOOL: lambda v: isinstance(v, bool),
    INT: lambda v: isinstance(v, int) and not isinstance(v, bool),
    STRING: lambda v: isinstance(v, str),
}


def _check(sort: PayloadSort):
    """A label's payload check, chosen at compile time; a delegation has none."""
    return None if isinstance(sort, SessionSort) else _CHECKS.get(sort, lambda v: False)


@dataclass(slots=True, eq=False)
class _State:
    """A stage of a role's state table: the event it admits, its peer, its
    link's index in ``SessionChannels.links``, ``(label, payload check, next
    state)`` per label name, and its closed local type.  ``subtypes`` caches
    delegation's ``subtype`` result per declared type: it maps a frozen type
    to a pure check, so threads that race only compute it twice."""

    stage: LocalType
    kind: EventKind = _CLOSE
    peer: Optional[Role] = None
    link: int = -1
    steps: dict = field(default_factory=dict)
    subtypes: dict = field(default_factory=dict)


def _state_table(t: LocalType, role: str, pairs: tuple[tuple[str, str], ...]) -> list[_State]:
    """A role's states, the start first: one per Select, Branch or End
    position of its closed local type ``t``, a loop variable being an edge to
    its binder's state.  A stage is ``t`` unfolded along the path to it;
    ``t`` is closed, so unfolding renames no binder and keeps the shape."""
    table: list[_State] = []

    def build(pos: LocalType, stage: LocalType, env: dict[str, _State]) -> _State:
        binders = []
        while isinstance(pos, RecT):
            binders.append(pos.var)
            pos = pos.body
        if isinstance(pos, VarT):
            return env[pos.var]
        state = _State(unfold_type(stage))
        table.append(state)
        if isinstance(pos, DirectedChoice):
            env = {**env, **dict.fromkeys(binders, state)}
            state.kind, state.peer = (_SEND if pos.output else _RECEIVE), pos.peer
            state.link = pairs.index((role, pos.peer.name) if pos.output else (pos.peer.name, role))
            state.steps = {
                l.name: (l, _check(l.payload), build(cont, stage_cont, env))
                for (l, cont), (_, stage_cont) in zip(pos.branches, state.stage.branches)
            }
        return state

    build(t, t, {})
    return table


@dataclass(frozen=True)
class CompiledProtocol:
    """One protocol compiled for one role tuple, shared by all its sessions.
    ``pairs`` are the directed (sender, receiver) role-name pairs that carry
    messages; ``tables`` hold each role's states, its start state first."""

    roles: tuple[Role, ...]
    local_types: dict[Role, LocalType]
    pairs: tuple[tuple[str, str], ...]
    tables: dict[Role, list[_State]]


def _compile(g: GlobalProtocol, roles: Optional[tuple[Role, ...]]) -> CompiledProtocol:
    report = validate_shape(g)
    if not report.ok:
        raise ShapeError(report.findings)
    tuple_roles = roles if roles is not None else roles_of(g)
    vectors, table = eval_global(g, None, tuple_roles)
    env = table.payload_env()
    local = {r: typecheck_cv(v, env) for r, v in zip(tuple_roles, vectors)}
    pairs = tuple(dict.fromkeys((n.from_role.name, n.to_role.name) for n in table.names))
    tables = {r: _state_table(t, r.name, pairs) for r, t in local.items()}
    return CompiledProtocol(tuple_roles, local, pairs, tables)


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
        self.pairs = compiled.pairs

    def channel_for(self, sender: str, receiver: str):  # endpoints index links by state
        return self.links[self.pairs.index((sender, receiver))]

    def close(self) -> None:
        for link in self.links:
            if isinstance(link, FramedLink):
                link.close()


@dataclass(slots=True)
class _Seat:
    """What a role's endpoints share across the stages of one session."""

    role: Role
    links: list  # SessionChannels.links, indexed by _State.link
    monitor: Optional[SessionMonitor]
    timeout: float


class Endpoint:
    """A role's affine handle at one state of its table."""

    __slots__ = ("seat", "state", "cell")

    def __init__(self, seat: _Seat, state: _State) -> None:
        self.seat = seat
        self.state = state
        self.cell = LinearityCell()

    @property
    def stage(self) -> LocalType:
        """The local type that remains at this endpoint's state."""
        return self.state.stage

    def _consume(self) -> None:
        if not self.cell.use():
            raise SessionRuntimeError(
                ErrorKind.INVALID_ENDPOINT, f"endpoint of {self.seat.role} was already used"
            )

    def send(self, peer: Role, label: Label | str, payload: object = None) -> "Endpoint":
        seat = self.seat
        state = self.state
        if self.cell.used:
            self._consume()  # raises InvalidEndpoint
        if state.kind is not _SEND:
            raise SessionRuntimeError(
                ErrorKind.WRONG_PEER,
                f"{seat.role} tried to send but the protocol expects "
                f"{'a receive' if state.kind is _RECEIVE else 'close'} here",
            )
        if state.peer.name != (peer.name if isinstance(peer, Role) else peer):
            raise SessionRuntimeError(
                ErrorKind.WRONG_PEER, f"{seat.role} must talk to {state.peer} here, not {peer}"
            )
        label_name = label.name if isinstance(label, Label) else label
        step = state.steps.get(label_name)
        if step is None:
            raise SessionRuntimeError(
                ErrorKind.UNKNOWN_LABEL,
                f"label {label_name} is not offered here (have {list(state.steps)})",
            )
        l, check, nxt = step
        link = seat.links[state.link]
        wire = payload
        if check is None:
            wire = self._prepare_delegation(l.payload, payload, link)
        elif not check(payload):
            raise SessionRuntimeError(
                ErrorKind.PAYLOAD_SORT_MISMATCH,
                f"label {l} expects {l.payload.sort_name()}, got {type(payload).__name__}",
            )
        self._consume()
        link.send((l.name, wire), seat.timeout)
        if seat.monitor:  # only a send that happened is traced
            seat.monitor.record(_SEND, seat.role, state.peer, l)
        return Endpoint(seat, nxt)

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
        state = payload.state
        ok = state.subtypes.get(sort.local)
        if ok is None:
            ok = state.subtypes[sort.local] = subtype(state.stage, sort.local)
        if not ok:
            raise SessionRuntimeError(
                ErrorKind.PAYLOAD_SORT_MISMATCH,
                "delegated endpoint does not implement the declared session type",
            )
        payload._consume()  # the sender's handle dies; raises if already used
        return Endpoint(payload.seat, state)

    def receive(self, peer: Role) -> tuple[Label, object, "Endpoint"]:
        seat = self.seat
        state = self.state
        if self.cell.used:
            self._consume()
        if state.kind is not _RECEIVE:
            raise SessionRuntimeError(
                ErrorKind.WRONG_PEER,
                f"{seat.role} tried to receive but the protocol expects "
                f"{'a send' if state.kind is _SEND else 'close'} here",
            )
        if state.peer.name != (peer.name if isinstance(peer, Role) else peer):
            raise SessionRuntimeError(
                ErrorKind.WRONG_PEER, f"{seat.role} must listen to {state.peer} here, not {peer}"
            )
        self._consume()
        label_name, value = seat.links[state.link].receive(seat.timeout)
        step = state.steps.get(label_name)
        if step is None:
            raise SessionRuntimeError(
                ErrorKind.TRANSPORT_ERROR, f"message with unexpected label {label_name}"
            )
        label, _, nxt = step
        if seat.monitor:
            seat.monitor.record(_RECEIVE, seat.role, state.peer, label)
        return label, value, Endpoint(seat, nxt)

    def close(self) -> None:
        seat = self.seat
        if self.cell.used:
            self._consume()
        if self.state.kind is not _CLOSE:
            raise SessionRuntimeError(
                ErrorKind.PROTOCOL_NOT_FINISHED,
                f"{seat.role} closed with protocol steps remaining",
            )
        self._consume()
        if seat.monitor:
            seat.monitor.record(_CLOSE, seat.role, None, None)


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
    endpoint starts at its role's start state, whose stage is the unfolded
    local type that the monitor and ``Session.local_types`` hold.
    """
    compiled = _compiled_for(g, tuple(roles) if roles is not None else None)
    channels = SessionChannels(transport, compiled)
    local = dict(compiled.local_types)
    monitor = SessionMonitor(local) if monitored else None
    endpoints = {
        r: Endpoint(_Seat(r, channels.links, monitor, timeout), compiled.tables[r][0])
        for r in local
    }
    return Session(compiled.roles, endpoints, monitor, channels, local)
