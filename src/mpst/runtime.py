"""Session runtime: affine endpoints that step compiled state tables.

A protocol is compiled once per protocol object and role tuple by
``types.type_global`` to one local type per role, then to each role's state
table, the finite automaton of its local type (Deniélou & Yoshida, ESOP
2012), whose states number each role pair they name as a link.  The
compiled form is the template of all the protocol's sessions: its tables,
start states and local types are shared and never change.  An open builds
only the session's own: one link per directed role pair, a FIFO of ``(label
name, payload)`` messages on every transport; one seat and one start
endpoint per role; a copy of the local types; and, when monitored, a
monitor on copies of the local types and start cursors.  A send puts its
label and payload on the link to the peer, and a receive takes the head of
the link from the peer and picks its branch by the label name.

An :class:`Endpoint` is one role's live handle into a session at one state:
the role's seat (role, links, monitor and timeout, built once per session),
the state, and its own flag, for an endpoint is a :class:`LinearityCell`.
The flag is a one-item list, and taking it is one ``pop``, so exactly one
caller wins it; only a refused delegating send puts a flag back, the one it
took from the endpoint it carries, and no public call can.
The first operation (send, receive, close, or being delegated away)
consumes the endpoint, and any further use raises ``InvalidEndpoint``;
``Endpoint.used`` reads the flag.  Consuming the flag covers all sibling
labels of the stage: choosing one output among alternatives uses the stage
exactly once.
An operation makes its checks first and then takes the flag with one
``use`` call, before it touches the link.  A used endpoint is refused with
``InvalidEndpoint`` before any other error (wrong kind, peer, label or
payload).  A delegating send from a used sender is refused before it
touches the endpoint it carries.  Otherwise it takes the carried endpoint's
flag and then its own; if a racing use of the sender won its own in
between, it gives the carried endpoint's flag back and is refused.  So a
refused sender never destroys the endpoint it carries.

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
        return self.role, str(self.kind), self.peer or "", self.label.name if self.label else ""


class LinearityCell:
    """A once-settable flag: ``use`` returns True to exactly one caller.

    Every :class:`Endpoint` is one.  The flag is a one-item list, ``[True]``.
    ``use`` pops it without looking first: ``list.pop`` is one C call, made
    atomic by the GIL and, on free-threaded builds, by the list's own lock,
    so of any number of racing callers one gets the item and every other
    gets ``IndexError``.  The only re-arm is internal: a delegating send
    whose sender a racer won appends the item it popped from the carried
    endpoint's flag, so the list never holds more than one.
    """

    __slots__ = ("_flag",)

    def __init__(self) -> None:
        self._flag = [True]

    def use(self) -> bool:
        try:
            self._flag.pop()
        except IndexError:
            return False
        return True

    @property
    def used(self) -> bool:
        """Whether the flag is taken; an endpoint's by an operation or a delegation."""
        return not self._flag


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


def _state_table(t: LocalType, role: Role, links: dict[tuple[Role, Role], int]) -> list[_State]:
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
            pair = (role, pos.peer) if pos.output else (pos.peer, role)
            state.link = links.setdefault(pair, len(links))
            state.steps = {
                l.name: (l, _check(l.payload), build(cont, stage_cont, env))
                for (l, cont), (_, stage_cont) in zip(pos.branches, state.stage.branches)
            }
        return state

    build(t, t, {})
    return table


_CLOSED = _State(END_T, kind=None)  # a role's cursor after its close; admits no event


def _advance(role: Role, state: _State, kind: EventKind, peer, label) -> _State | str:
    """The state after ``role`` at ``state`` performs the event, or the
    reason it may not: the checks of a walk of its local type, in order.
    Kind, peer and label name compare by equality, so an event given as
    plain strings, as a ``--trace`` line holds it, is checked alike."""
    if state is _CLOSED:
        return f"{role} acted after close"
    if kind == _CLOSE:
        return _CLOSED if state.kind is _CLOSE else f"{role} closed before finishing its protocol"
    if state.kind != kind:
        return f"{role} performed {kind} at a {type(state.stage).__name__} stage"
    if peer is None or peer != state.peer:
        return f"{role} talked to {peer} instead of {state.peer}"
    step = state.steps.get(label.name if label is not None else None)
    if step is None:
        return f"{role} used unknown label {label}"
    return step[2]


class SessionMonitor:
    """Online conformance monitor: one cursor per role on its state table
    (Bocchi et al., *Monitoring Networks through Multiparty Session Types*,
    FORTE 2013).

    ``record`` appends the event to the log and steps the role's cursor; a
    role's first violation is kept with its event's seq and stops its
    cursor.  ``verdict`` reads the cursors, so it costs O(roles) however
    long the trace.  ``events`` builds each :class:`TraceEvent` on read.
    A session's monitor starts from its compiled protocol's template; one
    built here compiles the state tables of ``expected``'s closed types.
    """

    __slots__ = ("expected", "_cursors", "_stops", "_log", "_lock")

    def __init__(self, expected: dict[Role, LocalType]) -> None:
        _start_monitor(self, expected, {r: _state_table(t, r, {})[0] for r, t in expected.items()})

    def record(self, kind: EventKind, role: Role, peer: Optional[Role], label: Optional[Label]) -> None:
        lock = self._lock
        lock.acquire()  # log order is seq order, and a role's cursor steps in that order
        try:  # not ``with``: its enter and exit calls cost twice the lock itself
            self._log.append((kind, role, peer, label))
            state = self._cursors.get(role)
            if state is None:  # a role with no local type here, or one already stopped
                return
            nxt = None
            if kind is state.kind and peer is state.peer:  # the expected event, as an endpoint records it
                if kind is _CLOSE:
                    nxt = _CLOSED
                elif label is not None and (step := state.steps.get(label.name)) is not None:
                    nxt = step[2]
            if nxt is None:
                nxt = _advance(role, state, kind, peer, label)
                if nxt.__class__ is str:
                    self._stops[role] = (len(self._log) - 1, role, nxt)
                    nxt = None
            self._cursors[role] = nxt
        finally:
            lock.release()

    @property
    def events(self) -> list[TraceEvent]:
        with self._lock:
            log = self._log[:]
        return [TraceEvent(seq, *event) for seq, event in enumerate(log)]

    @property
    def violation(self) -> Optional[tuple[int, Role, str]]:
        """The earliest event at which a role left its local type, as
        ``(seq, role, message)``, or None.  A role that only stopped
        short of the end shows in ``verdict`` alone."""
        with self._lock:
            return min(self._stops.values(), default=None)

    def verdict(self) -> tuple[bool, str]:
        """Conformant iff every role's events walk its local type from the
        start to End, finishing with a close; otherwise the first role, in
        ``expected`` order, that did not, and why."""
        with self._lock:
            for role, state in self._cursors.items():
                if state is None:
                    return False, self._stops[role][2]
                if state is not _CLOSED:
                    if state.kind is _CLOSE:
                        return False, f"{role} never closed its endpoint"
                    return False, f"{role} stopped before finishing its protocol"
        return True, "conformant"


def _start_monitor(monitor: SessionMonitor, expected: dict[Role, LocalType],
                   starts: dict[Role, _State]) -> SessionMonitor:
    """Set ``monitor`` at the start: its own copies of ``expected`` and of the
    start cursors, an empty log and no stops."""
    monitor.expected = expected.copy()
    monitor._cursors = starts.copy()  # None: stopped
    monitor._stops = {}
    monitor._log = []
    monitor._lock = threading.Lock()
    return monitor


@dataclass(frozen=True)
class CompiledProtocol:
    """One protocol compiled for one role tuple, the template of all its
    sessions.  ``pairs`` are the directed (sender, receiver) role pairs that
    carry messages, indexed by ``_State.link``; ``tables`` hold each role's
    states, its start state first; ``starts`` maps each role, in ``roles``
    order, to its start state.  A session's monitor copies ``starts`` and
    ``local_types``."""

    roles: tuple[Role, ...]
    local_types: dict[Role, LocalType]
    pairs: tuple[tuple[Role, Role], ...]
    tables: dict[Role, list[_State]]
    starts: dict[Role, _State]


def _compile(g: GlobalProtocol, roles: Optional[tuple[Role, ...]]) -> CompiledProtocol:
    local = type_global(g, roles)
    links: dict[tuple[Role, Role], int] = {}
    tables = {r: _state_table(t, r, links) for r, t in local.items()}
    starts = {r: table[0] for r, table in tables.items()}
    return CompiledProtocol(tuple(local), local, tuple(links), tables, starts)


def _compiled_for(g: GlobalProtocol, roles: Optional[tuple[Role, ...]]) -> CompiledProtocol:
    """The compiled form of ``g`` for ``roles`` (``None``: the discovered
    roles), kept on ``g`` like the unfolding kept on a ``RecT``.  Failures are
    raised, not kept; two threads compiling at once both compile."""
    try:
        return g._compiled[roles]
    except (AttributeError, KeyError):  # the first open of g, or of g with these roles
        pass
    compiled = g.__dict__.setdefault("_compiled", {})[roles] = _compile(g, roles)
    return compiled


class SessionChannels:
    """One session's links, one per directed role pair: a :class:`Channel`
    in process or a :class:`FramedLink` over TCP."""

    __slots__ = ("links", "pairs")

    def __init__(self, transport: Transport, compiled: CompiledProtocol) -> None:
        if isinstance(transport, AsyncBuffered):
            self.links = [Channel(transport.capacity) for _ in compiled.pairs]
        elif isinstance(transport, SyncRendezvous):
            self.links = [Channel(0) for _ in compiled.pairs]
        elif isinstance(transport, FramedSocket):
            self.links = connect_pairs(transport.host, compiled.pairs)
        else:
            raise SessionRuntimeError(ErrorKind.TRANSPORT_ERROR, f"unknown transport {transport!r}")
        self.pairs = compiled.pairs

    def channel_for(self, sender: Role, receiver: Role):  # endpoints index links by state
        return self.links[self.pairs.index((sender, receiver))]

    def close(self) -> None:
        for link in self.links:
            if isinstance(link, FramedLink):
                link.close()


class _Seat:
    """What a role's endpoints share across the stages of one session: its
    role, the session's links (indexed by ``_State.link``), its monitor and
    its timeout.  :func:`open_session` sets them."""

    __slots__ = ("role", "links", "monitor", "timeout")


class Endpoint(LinearityCell):
    """A role's affine handle at one state of its table, built by
    :func:`_endpoint`.  It is its own linearity flag: the public ``use()``
    only consumes it, which drops the stage unperformed (an affine drop)."""

    __slots__ = ("seat", "state")

    @property
    def stage(self) -> LocalType:
        """The local type that remains at this endpoint's state."""
        return self.state.stage

    @property
    def cell(self) -> "Endpoint":
        """The endpoint itself, kept only while ``layerbench/workloads.py`` (the
        benchmark, changed only on its own) reads ``cell.used``; read ``used``."""
        return self

    def _refusal(self, kind: ErrorKind, detail: str) -> SessionRuntimeError:
        """The error for a refused operation: ``InvalidEndpoint`` when this
        handle is used already, whatever else is wrong with the call."""
        if not self._flag:
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
        if peer is not state.peer and peer != state.peer:
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
            if not self._flag:  # refused as invalid before the payload's own errors
                raise _already_used(seat.role)
            wire = _prepare_delegation(l.payload, payload, link)
        elif not check(payload):
            raise self._refusal(
                ErrorKind.PAYLOAD_SORT_MISMATCH,
                f"label {l} expects {l.payload.sort_name()}, got {type(payload).__name__}",
            )
        if not self.use():
            if check is None:  # a racer took the sender after the payload: the payload stays whole
                payload._flag.append(True)
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
        if peer is not state.peer and peer != state.peer:
            raise self._refusal(
                ErrorKind.WRONG_PEER, f"{seat.role} must listen to {state.peer} here, not {peer}"
            )
        if not self.use():
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
        if not self.use():
            raise _already_used(seat.role)
        if seat.monitor:
            seat.monitor.record(_CLOSE, seat.role, None, None)


_new = object.__new__  # bound once: a global name is cheaper than an attribute lookup


def _endpoint(seat: _Seat, state: _State) -> Endpoint:
    """A fresh handle at ``state``, with a fresh flag, built without
    ``__init__``: this runs once per endpoint operation."""
    ep = _new(Endpoint)
    ep.seat = seat
    ep.state = state
    ep._flag = [True]  # what LinearityCell.__init__ does
    return ep


def _already_used(role: Role) -> SessionRuntimeError:
    return SessionRuntimeError(ErrorKind.INVALID_ENDPOINT, f"endpoint of {role} was already used")


def _prepare_delegation(sort: SessionSort, payload: object, link) -> Endpoint:
    """The handle a delegating send carries: ``payload``, checked against
    ``sort`` and then consumed, moved to a fresh handle at its state.

    The caller takes its own flag next, and gives ``payload``'s flag back if
    that fails.  In the window between the two steps a concurrent use of
    ``payload`` is refused with ``InvalidEndpoint``, even though ``payload``
    stays live when the send is refused."""
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
    if not payload.use():  # the sender's handle dies
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
    typing failures are raised before any transport is bound.  An open then
    builds only what is the session's own from the compiled template: its
    links, one seat and start endpoint per role, a copy of the local types,
    and, when monitored, a monitor on copies of the template's local types
    and start cursors.  Each endpoint starts at its role's start
    state, whose stage is the unfolded local type that the monitor and
    ``Session.local_types`` hold.
    """
    compiled = _compiled_for(g, tuple(roles) if roles is not None else None)
    channels = SessionChannels(transport, compiled)
    monitor = _start_monitor(_new(SessionMonitor), compiled.local_types, compiled.starts) if monitored else None
    links = channels.links
    endpoints = {}
    for r, start in compiled.starts.items():  # as _endpoint does, without calls
        seat = _new(_Seat)
        seat.role, seat.links, seat.monitor, seat.timeout = r, links, monitor, timeout
        ep = endpoints[r] = _new(Endpoint)
        ep.seat, ep.state, ep._flag = seat, start, [True]
    session = _new(Session)  # the dataclass __init__ would only set the five fields
    session.roles, session.endpoints, session.monitor = compiled.roles, endpoints, monitor
    session.channels, session.local_types = channels, compiled.local_types.copy()
    return session
