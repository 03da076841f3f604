"""Session runtime: affine endpoints that step compiled state tables.

A protocol is compiled once per protocol object and role tuple by
``types.type_global`` to one local type per role, then to each role's state
table, the finite automaton of its local type (Deniélou & Yoshida, ESOP
2012), whose states number each role pair they name as a link.  A session
binds one link per directed role pair, a FIFO of ``(label name, payload)``
messages on every transport: a send puts its label and payload on the link
to the peer, and a receive takes the head of the link from the peer and
picks its branch by the label name.

An :class:`Endpoint` is one role's live handle into a session at one state:
the role's seat (role, links, monitor and timeout, built once per session),
the state, and a fresh :class:`LinearityCell`.  The cell is one
``threading.Lock`` taken with a non-blocking ``acquire`` and never released,
so exactly one caller wins it.  The first operation (send, receive, close,
or being delegated away) consumes the cell, and any further use raises
``InvalidEndpoint``.  Consuming the cell covers all sibling labels of the
stage: choosing one output among alternatives uses the stage exactly once.
An operation makes its checks first and then takes the cell with one
``use`` call, before it touches the link.  A used endpoint is refused with
``InvalidEndpoint`` before any other error (wrong kind, peer, label or
payload).  A delegating send checks that the sender is unused before it
consumes the endpoint it carries, so a used sender never destroys it.

A monitored session's :class:`SessionMonitor` checks each event as it is
recorded: it keeps one cursor per role on the same state tables, so a
violation is found at the event that made it and the verdict costs O(roles).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .errors import ErrorKind, SessionRuntimeError
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
from .types import END_T, DirectedChoice, LocalType, RecT, VarT, subtype, type_global, unfold_type

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


def _state_table(t: LocalType, role: str, links: dict[tuple[str, str], int]) -> list[_State]:
    """A role's states, the start first: one per Select, Branch or End
    position of its closed local type ``t``, a loop variable being an edge to
    its binder's state.  A stage is ``t`` unfolded along the path to it;
    ``t`` is closed, so unfolding renames no binder and keeps the shape.
    ``links`` numbers each (sender, receiver) pair the first time a state
    names it, across all the roles that share it."""
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
            pair = (role, pos.peer.name) if pos.output else (pos.peer.name, role)
            state.link = links.setdefault(pair, len(links))
            state.steps = {
                l.name: (l, _check(l.payload), build(cont, stage_cont, env))
                for (l, cont), (_, stage_cont) in zip(pos.branches, state.stage.branches)
            }
        return state

    build(t, t, {})
    return table


_CLOSED = _State(END_T, kind=None)  # a role's cursor after its close; admits no event


def _advance(name: str, state: _State, kind: EventKind, peer, label) -> _State | str:
    """The state after role ``name`` at ``state`` performs the event, or the
    reason it may not: the checks of a walk of its local type, in order."""
    if state is _CLOSED:
        return f"{name} acted after close"
    if kind is _CLOSE:
        return _CLOSED if state.kind is _CLOSE else f"{name} closed before finishing its protocol"
    if state.kind is not (_SEND if kind is _SEND else _RECEIVE):
        return f"{name} performed {kind} at a {type(state.stage).__name__} stage"
    if peer is None or state.peer.name != peer.name:
        return f"{name} talked to {peer} instead of {state.peer}"
    step = state.steps.get(label.name if label is not None else None)
    if step is None:
        return f"{name} used unknown label {label}"
    return step[2]


class SessionMonitor:
    """Online conformance monitor: one cursor per role on its state table
    (Bocchi et al., *Monitoring Networks through Multiparty Session Types*,
    FORTE 2013).

    ``record`` appends the event to the log and steps the role's cursor; a
    role's first violation is kept with its event's seq and stops its
    cursor.  ``verdict`` reads the cursors, so it costs O(roles) however
    long the trace.  ``events`` builds each :class:`TraceEvent` on read.
    ``starts`` maps each role name to its start state; a monitor built
    without it compiles the state tables of ``expected``'s closed types.
    """

    def __init__(self, expected: dict[Role, LocalType], starts: Optional[dict[str, _State]] = None) -> None:
        self.expected = {r.name: t for r, t in expected.items()}
        if starts is None:
            starts = {r.name: _state_table(t, r.name, {})[0] for r, t in expected.items()}
        self._cursors: dict[str, Optional[_State]] = dict(starts)  # None: stopped
        self._stops: dict[str, tuple[int, str, str]] = {}
        self._log: list[tuple] = []
        self._lock = threading.Lock()

    def record(self, kind: EventKind, role: Role, peer: Optional[Role], label: Optional[Label]) -> None:
        lock = self._lock
        lock.acquire()  # log order is seq order, and a role's cursor steps in that order
        try:  # not ``with``: its enter and exit calls cost twice the lock itself
            self._log.append((kind, role, peer, label))
            name = role.name
            state = self._cursors.get(name)
            if state is None:  # a role with no local type here, or one already stopped
                return
            nxt = None
            if kind is state.kind and peer is state.peer:  # the expected event, as an endpoint records it
                if kind is _CLOSE:
                    nxt = _CLOSED
                elif label is not None and (step := state.steps.get(label.name)) is not None:
                    nxt = step[2]
            if nxt is None:
                nxt = _advance(name, state, kind, peer, label)
                if nxt.__class__ is str:
                    self._stops[name] = (len(self._log) - 1, name, nxt)
                    nxt = None
            self._cursors[name] = nxt
        finally:
            lock.release()

    @property
    def events(self) -> list[TraceEvent]:
        with self._lock:
            log = self._log[:]
        return [TraceEvent(seq, *event) for seq, event in enumerate(log)]

    @property
    def violation(self) -> Optional[tuple[int, str, str]]:
        """The earliest event at which a role left its local type, as
        ``(seq, role name, message)``, or None.  A role that only stopped
        short of the end shows in ``verdict`` alone."""
        with self._lock:
            return min(self._stops.values(), default=None)

    def verdict(self) -> tuple[bool, str]:
        """Conformant iff every role's events walk its local type from the
        start to End, finishing with a close; otherwise the first role, in
        ``expected`` order, that did not, and why."""
        with self._lock:
            for name, state in self._cursors.items():
                if state is None:
                    return False, self._stops[name][2]
                if state is not _CLOSED:
                    if state.kind is _CLOSE:
                        return False, f"{name} never closed its endpoint"
                    return False, f"{name} stopped before finishing its protocol"
        return True, "conformant"


@dataclass(frozen=True)
class CompiledProtocol:
    """One protocol compiled for one role tuple, shared by all its sessions.
    ``pairs`` are the directed (sender, receiver) role-name pairs that carry
    messages, indexed by ``_State.link``; ``tables`` hold each role's states,
    its start state first, and ``starts`` map each role name to its start
    state, the cursors a session's monitor starts from."""

    roles: tuple[Role, ...]
    local_types: dict[Role, LocalType]
    pairs: tuple[tuple[str, str], ...]
    tables: dict[Role, list[_State]]
    starts: dict[str, _State]


def _compile(g: GlobalProtocol, roles: Optional[tuple[Role, ...]]) -> CompiledProtocol:
    local = type_global(g, roles)
    links: dict[tuple[str, str], int] = {}
    tables = {r: _state_table(t, r.name, links) for r, t in local.items()}
    starts = {r.name: table[0] for r, table in tables.items()}
    return CompiledProtocol(tuple(local), local, tuple(links), tables, starts)


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
    """A role's affine handle at one state of its table, built by
    :func:`_endpoint`."""

    __slots__ = ("seat", "state", "cell")

    @property
    def stage(self) -> LocalType:
        """The local type that remains at this endpoint's state."""
        return self.state.stage

    def _refusal(self, kind: ErrorKind, detail: str) -> SessionRuntimeError:
        """The error for a refused operation: ``InvalidEndpoint`` when this
        handle is used already, whatever else is wrong with the call."""
        if self.cell.used:
            return _already_used(self.seat.role)
        return SessionRuntimeError(kind, detail)

    def send(self, peer: Role | str, label: Label | str, payload: object = None) -> "Endpoint":
        seat = self.seat
        state = self.state
        if state.kind is not _SEND:
            raise self._refusal(
                ErrorKind.WRONG_PEER,
                f"{seat.role} tried to send but the protocol expects "
                f"{'a receive' if state.kind is _RECEIVE else 'close'} here",
            )
        if peer is not state.peer and state.peer.name != (peer.name if isinstance(peer, Role) else peer):
            raise self._refusal(
                ErrorKind.WRONG_PEER, f"{seat.role} must talk to {state.peer} here, not {peer}"
            )
        label_name = label.name if label.__class__ is Label or isinstance(label, Label) else label
        step = state.steps.get(label_name)
        if step is None:
            raise self._refusal(
                ErrorKind.UNKNOWN_LABEL,
                f"label {label_name} is not offered here (have {list(state.steps)})",
            )
        l, check, nxt = step
        link = seat.links[state.link]
        wire = payload
        if check is None:
            if self.cell.used:  # before the payload is consumed: a used sender must not destroy it
                raise _already_used(seat.role)
            wire = _prepare_delegation(l.payload, payload, link)
        elif not check(payload):
            raise self._refusal(
                ErrorKind.PAYLOAD_SORT_MISMATCH,
                f"label {l} expects {l.payload.sort_name()}, got {type(payload).__name__}",
            )
        if not self.cell.use():
            raise _already_used(seat.role)
        link.send((l.name, wire), seat.timeout)
        if seat.monitor:  # only a send that happened is traced
            seat.monitor.record(_SEND, seat.role, state.peer, l)
        return _endpoint(seat, nxt)

    def receive(self, peer: Role | str) -> tuple[Label, object, "Endpoint"]:
        seat = self.seat
        state = self.state
        if state.kind is not _RECEIVE:
            raise self._refusal(
                ErrorKind.WRONG_PEER,
                f"{seat.role} tried to receive but the protocol expects "
                f"{'a send' if state.kind is _SEND else 'close'} here",
            )
        if peer is not state.peer and state.peer.name != (peer.name if isinstance(peer, Role) else peer):
            raise self._refusal(
                ErrorKind.WRONG_PEER, f"{seat.role} must listen to {state.peer} here, not {peer}"
            )
        if not self.cell.use():
            raise _already_used(seat.role)
        label_name, value = seat.links[state.link].receive(seat.timeout)
        step = state.steps.get(label_name)
        if step is None:
            raise SessionRuntimeError(
                ErrorKind.TRANSPORT_ERROR, f"message with unexpected label {label_name}"
            )
        label, _, nxt = step
        if seat.monitor:
            seat.monitor.record(_RECEIVE, seat.role, state.peer, label)
        return label, value, _endpoint(seat, nxt)

    def close(self) -> None:
        seat = self.seat
        if self.state.kind is not _CLOSE:
            raise self._refusal(
                ErrorKind.PROTOCOL_NOT_FINISHED, f"{seat.role} closed with protocol steps remaining"
            )
        if not self.cell.use():
            raise _already_used(seat.role)
        if seat.monitor:
            seat.monitor.record(_CLOSE, seat.role, None, None)


_new = object.__new__  # bound once: a global name is cheaper than an attribute lookup
_Lock = threading.Lock


def _endpoint(seat: _Seat, state: _State) -> Endpoint:
    """A fresh handle at ``state``, with a fresh cell, built without the two
    ``__init__`` calls: this runs once per endpoint operation."""
    ep = _new(Endpoint)
    ep.seat = seat
    ep.state = state
    cell = ep.cell = _new(LinearityCell)
    cell._lock = _Lock()  # what LinearityCell.__init__ does
    return ep


def _already_used(role: Role) -> SessionRuntimeError:
    return SessionRuntimeError(ErrorKind.INVALID_ENDPOINT, f"endpoint of {role} was already used")


def _prepare_delegation(sort: SessionSort, payload: object, link) -> Endpoint:
    """The handle a delegating send carries: ``payload``, checked against
    ``sort`` and then consumed, moved to a fresh handle at its state."""
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
    if not payload.cell.use():  # the sender's handle dies
        raise _already_used(payload.seat.role)
    return _endpoint(payload.seat, state)


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
    monitor = SessionMonitor(local, compiled.starts) if monitored else None
    endpoints = {
        r: _endpoint(_Seat(r, channels.links, monitor, timeout), compiled.tables[r][0])
        for r in local
    }
    return Session(compiled.roles, endpoints, monitor, channels, local)
