"""Session runtime: affine endpoints that step compiled state tables.

A protocol is compiled once per protocol object and role tuple by
``types.type_global`` to one local type per role, then to each role's state
table, the finite automaton of its local type (Deniélou & Yoshida, ESOP
2012): one state per distinct stage, the unfolded type that remains there.
Its states each belong to that role and number each role pair they name as
a link.  The compiled form is the template of all the protocol's sessions:
its tables, start states and local types are shared and never change.  An
open reads the template off the protocol and builds only the session's own:
one link per directed role pair, a FIFO of ``(label name, payload)``
messages on every transport; one seat; one start endpoint per role; a copy
of the local types; and, when monitored, a monitor on a copy of the start
cursors.  It builds all of these inline, an in-process link as
``Channel.__init__`` does and a monitor as ``SessionMonitor.__init__``
does, so a warm in-process open makes no Python call into the library
besides its own.  A send puts its label and payload on the link to the
peer, and a receive takes the head of the link from the peer and picks its
branch by the label name.

An :class:`Endpoint` is one role's live handle into a session at one state:
the session's seat (its one :class:`SessionChannels`: links, monitor and
timeout), the state, which names the role, and its own linearity flag.  The
first operation (send, receive, close, or being delegated away) consumes
the endpoint, and any further use raises ``InvalidEndpoint``;
``Endpoint.used`` reads the flag.  Consuming the flag covers all sibling
labels of the stage: choosing one output among alternatives uses the stage
exactly once.  An operation makes its checks first and then pops the flag
inline, before it touches the link.  A used endpoint is refused with
``InvalidEndpoint`` before any other error (wrong kind, peer, label or
payload).  A delegating send from a used sender is refused before it
touches the endpoint it carries.  Otherwise it takes the carried endpoint's
flag and then its own; if a racing use of the sender won its own in
between, it gives the carried endpoint's flag back and is refused.  So a
refused sender never destroys the endpoint it carries.

A monitored session's :class:`SessionMonitor` checks each event as it is
recorded: it keeps one cursor per role on the same state tables, which an
endpoint's own step moves by identity, so a violation is found at the event
that made it and the verdict costs O(roles).

Thread-safety ledger: each mutable that threads share, who writes it, its
guarantee, and the gate in ``tests/`` that forces its race in every run.

======================  ====================  ===============================  ====
shared mutable          written by            guarantee                        gate
======================  ====================  ===============================  ====
an endpoint's flag      each operation's      one ``list.pop``: one winner     [1]
                        inline pop, a
                        delegation's pop of
                        its payload, and the
                        public ``use()``
a carried flag          a refused delegation  the item it popped is put back   [2]
a parked record         the serving peer      the channel lock; a timed-out    [3]
                                              wait re-checks ``done`` under it
``g._compiled``         a first open          benign: each racer compiles a    [4]
                                              self-consistent template, and
                                              the last store wins
``_log``, ``_cursors``  every ``record``      the lock spans append and step   [5]
``_State.subtypes``     a first delegation    benign: racers store one answer  [6]
``g._front``            a first walk of g     benign: racers store equal       [7]
                                              reports and role tuples, and
                                              the last store wins; readers
                                              compare roles by value, so only
                                              ``is`` between calls that
                                              straddle the race can differ
``RecT._unfolded``      a first unfolding     benign: racers store equal       [8]
                                              trees, and the last store wins;
                                              merge's memo, subtype's assumed
                                              set and a state's stage compare
                                              and hash by value, so nothing
                                              depends on which tree stands
``_hash`` of a type     a first hash of a     benign: racers store equal ints  [9]
                        compound node         of the node's structural hash,
                                              and nothing depends on which
                                              store wins
``FramedLink.partial``  every framed receive  its link's ``read_lock``       [10]
======================  ====================  ===============================  ====

[1] ``test_runtime.py::test_concurrent_sends_have_one_winner_when_the_cell_check_is_slow``
[2] ``test_runtime.py::test_a_sender_lost_to_a_racer_does_not_consume_the_endpoint_it_delegates``
[3] ``test_transport.py::test_wait_that_times_out_after_being_served_completes``
[4] ``test_runtime.py::test_racing_first_opens_each_build_a_self_consistent_template``
[5] ``test_monitor.py::test_a_record_forced_into_another_roles_step_keeps_its_seq``
[6] ``test_runtime.py::test_two_first_delegations_meeting_inside_subtype_both_compute``
[7] ``test_front_end.py::test_two_first_walks_meeting_inside_front_both_walk``
[8] ``test_types.py::test_two_first_unfoldings_meeting_inside_subst_both_substitute``
[9] ``test_types.py::test_two_first_hashes_meeting_inside_the_structural_hash_both_compute``
[10] ``test_transport.py::test_two_receives_meeting_inside_fill_each_take_one_whole_frame``
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .errors import ErrorKind, SessionRuntimeError
from .protocol import GlobalProtocol, Label, PayloadSort, Role, SessionSort
from .transport import (
    AsyncBuffered,
    Channel,
    FramedLink,
    FramedSocket,
    SyncRendezvous,
    Transport,
    connect_pairs,
    select,  # looked up here at each receive, so a wrapper set on runtime.select sees it
)
from .types import END_T, DirectedChoice, LocalType, VarT, subtype, type_global, unfold_type

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


def _payload_class(sort: PayloadSort):
    """A label's payload class, chosen at compile time; a delegation has none,
    and a sort that is neither base nor session has ``()``, of which nothing is one."""
    return None if isinstance(sort, SessionSort) else getattr(sort, "payload_class", ())


@dataclass(slots=True, eq=False)
class _State:
    """A stage of a role's state table: the role, the event it admits, its
    peer, its link's index in ``SessionChannels.links``, ``(label, payload
    class, next state)`` per label name, and its closed local type.
    ``subtypes`` caches delegation's ``subtype`` result per declared type: it
    maps a frozen type to a pure check, so threads that race only compute it
    twice, and store one answer (ledger row [6])."""

    stage: LocalType
    role: Optional[Role] = None
    kind: EventKind = _CLOSE
    peer: Optional[Role] = None
    link: int = -1
    steps: dict = field(default_factory=dict)
    subtypes: dict = field(default_factory=dict)


def _state_table(t: LocalType, role: Role, links: dict[tuple[Role, Role], int]) -> list[_State]:
    """A role's states, the start first: one per stage of its closed local
    type ``t``, the unfolded type that remains there.  States are keyed by
    stage, by value, so equal stages share one state and a loop's
    continuation, its binder's ``RecT``, unfolds to its binder's stage.
    ``links`` numbers each (sender, receiver) pair the first time a state
    names it, across all the roles that share it."""
    states: dict[LocalType, _State] = {}

    def build(stage: LocalType) -> _State:
        stage = unfold_type(stage)
        state = states.get(stage)
        if state is None:
            if isinstance(stage, VarT):  # a loop variable that no binder closes
                raise ValueError(f"local types must be closed: {role}'s type reaches free variable {stage.var}")
            state = states[stage] = _State(stage, role)
            if isinstance(stage, DirectedChoice):
                state.kind, state.peer = (_SEND if stage.output else _RECEIVE), stage.peer
                pair = (role, stage.peer) if stage.output else (stage.peer, role)
                state.link = links.setdefault(pair, len(links))
                state.steps = {
                    l.name: (l, _payload_class(l.payload), build(cont)) for l, cont in stage.branches
                }
        return state

    build(t)
    return list(states.values())


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

    ``record`` appends the event to the log and steps the role's cursor: to
    ``to`` if it is at ``at`` (an endpoint's own step), else by ``_advance``.
    A role's first violation is kept with its event's seq and stops its
    cursor.  ``verdict`` reads the cursors, so it costs O(roles) however
    long the trace.  ``events`` builds each :class:`TraceEvent` on read.
    A session's monitor is started by its open, on a copy of its compiled
    protocol's start states; one built here compiles the state tables of
    ``expected``'s closed types, and refuses an open one with ``ValueError``.
    """

    __slots__ = ("_cursors", "_stops", "_log", "_lock")

    def __init__(self, expected: dict[Role, LocalType]) -> None:
        self._cursors = {r: _state_table(t, r, {})[0] for r, t in expected.items()}  # None: stopped
        self._stops, self._log, self._lock = {}, [], threading.Lock()

    def record(self, kind: EventKind, role: Role, peer: Optional[Role], label: Optional[Label],
               at: Optional[_State] = None, to: Optional[_State] = None) -> None:
        lock, cursors = self._lock, self._cursors
        lock.acquire()  # log order is seq order, and a role's cursor steps in that order
        try:  # not ``with``: its enter and exit calls cost twice the lock itself
            self._log.append((kind, role, peer, label))
            state = cursors.get(role)
            if state is None:  # a role with no local type here, or one already stopped
                return
            if state is not at:  # a direct record, or an endpoint whose cursor one moved
                to = _advance(role, state, kind, peer, label)
                if to.__class__ is str:
                    self._stops[role] = (len(self._log) - 1, role, to)
                    to = None
            cursors[role] = to
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
        role order, that did not, and why."""
        lock = self._lock
        lock.acquire()  # as in ``record``
        try:
            for role, state in self._cursors.items():
                if state is None:
                    return False, self._stops[role][2]
                if state is not _CLOSED:
                    if state.kind is _CLOSE:
                        return False, f"{role} never closed its endpoint"
                    return False, f"{role} stopped before finishing its protocol"
        finally:
            lock.release()
        return True, "conformant"


@dataclass(frozen=True)
class CompiledProtocol:
    """One protocol compiled for one role tuple, the template of all its
    sessions.  ``pairs`` are the directed (sender, receiver) role pairs that
    carry messages, indexed by ``_State.link``; ``tables`` hold each role's
    states, its start state first; ``starts`` maps each role, in ``roles``
    order, to its start state.  A session's monitor copies ``starts``."""

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
    """``g`` compiled for ``roles`` (``None``: the discovered roles) and kept on
    ``g``, like a ``RecT``'s unfolding, for later opens; failures are not kept."""
    compiled = g.__dict__.setdefault("_compiled", {})[roles] = _compile(g, roles)
    return compiled


class SessionChannels:
    """One session's seat, which all its endpoints share, built by the open,
    which sets its slots: its links (a :class:`Channel` or a
    :class:`FramedLink` per ``pairs`` entry, indexed by ``_State.link``), its
    monitor and its timeout."""

    __slots__ = ("links", "pairs", "monitor", "timeout")

    def channel_for(self, sender: Role, receiver: Role):  # endpoints index links by state
        return self.links[self.pairs.index((sender, receiver))]


class Endpoint:
    """A role's affine handle at one state of its table, built by the
    operation or open that reaches the state.  It is its own linearity flag,
    a one-item list, ``[True]``, that an operation pops without looking
    first: ``list.pop`` is one C call, atomic under the GIL and, on
    free-threaded builds, under the list's own lock, so of racing callers one
    gets the item and every other ``IndexError``.  The only re-arm is a
    delegating send whose sender a racer won: it puts back the item it
    popped from the carried endpoint's flag, so a flag never holds two."""

    __slots__ = ("seat", "state", "_flag")

    def use(self) -> bool:
        """Consume the endpoint unperformed, an affine drop of its stage:
        True to exactly one of any callers that race, False to the rest."""
        try:
            self._flag.pop()
        except IndexError:
            return False
        return True

    @property
    def used(self) -> bool:
        """Whether the flag is taken: by an operation, a delegation or ``use``."""
        return not self._flag

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
            return _already_used(self.state.role)
        return SessionRuntimeError(kind, detail)

    def send(self, peer: Role | str, label: Label | str, payload: object = None) -> "Endpoint":
        seat = self.seat
        state = self.state
        if state.kind is not _SEND:
            raise self._refusal(
                ErrorKind.WRONG_PEER,
                f"{state.role} tried to send but the protocol expects "
                f"{'a receive' if state.kind is _RECEIVE else 'close'} here",
            )
        if peer is not state.peer and peer != state.peer:
            raise self._refusal(
                ErrorKind.WRONG_PEER, f"{state.role} must talk to {state.peer} here, not {peer}"
            )
        label_name = label.name if label.__class__ is Label or isinstance(label, Label) else label
        try:
            step = state.steps.get(label_name)
        except TypeError:  # an unhashable label names no branch
            step = None
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
                raise _already_used(state.role)
            wire = _prepare_delegation(l.payload, payload, link)
        elif payload.__class__ is not check and (  # the exact class first, the general rule on a miss
            not isinstance(payload, check) or check is int and payload.__class__ is bool
        ):
            raise self._refusal(
                ErrorKind.PAYLOAD_SORT_MISMATCH,
                f"label {l} expects {l.payload.sort_name()}, got {type(payload).__name__}",
            )
        try:
            self._flag.pop()
        except IndexError:
            if check is None:  # a racer took the sender after the payload: the payload stays whole
                payload._flag.append(True)
            raise _already_used(state.role) from None
        link.send((label_name, wire), seat.timeout)
        if seat.monitor:  # only a send that happened is traced
            seat.monitor.record(_SEND, state.role, state.peer, l, state, nxt)
        ep = Endpoint()  # the next state's handle, with a fresh flag
        ep.seat, ep.state, ep._flag = seat, nxt, [True]
        return ep

    def receive(self, peer: Role | str) -> tuple[Label, object, "Endpoint"]:
        seat = self.seat
        state = self.state
        if state.kind is not _RECEIVE:
            raise self._refusal(
                ErrorKind.WRONG_PEER,
                f"{state.role} tried to receive but the protocol expects "
                f"{'a send' if state.kind is _SEND else 'close'} here",
            )
        if peer is not state.peer and peer != state.peer:
            raise self._refusal(
                ErrorKind.WRONG_PEER, f"{state.role} must listen to {state.peer} here, not {peer}"
            )
        try:
            self._flag.pop()
        except IndexError:
            raise _already_used(state.role) from None
        link = seat.links[state.link]
        label_name, value = (  # an in-process link is served by ``select`` without a method call
            select(link, seat.timeout) if link.__class__ is Channel else link.receive(seat.timeout))
        step = state.steps.get(label_name)
        if step is None:
            raise SessionRuntimeError(
                ErrorKind.TRANSPORT_ERROR, f"message with unexpected label {label_name}"
            )
        label, _, nxt = step
        if seat.monitor:
            seat.monitor.record(_RECEIVE, state.role, state.peer, label, state, nxt)
        ep = Endpoint()
        ep.seat, ep.state, ep._flag = seat, nxt, [True]
        return label, value, ep

    def close(self) -> None:
        state = self.state
        if state.kind is not _CLOSE:
            raise self._refusal(
                ErrorKind.PROTOCOL_NOT_FINISHED, f"{state.role} closed with protocol steps remaining"
            )
        try:
            self._flag.pop()
        except IndexError:
            raise _already_used(state.role) from None
        if self.seat.monitor:
            self.seat.monitor.record(_CLOSE, state.role, None, None, state, _CLOSED)


# Kept only while layerbench/tracer.py (the benchmark, changed only on its own) names LinearityCell.use.
LinearityCell = Endpoint
_new = object.__new__  # bound once: a global name is cheaper than an attribute lookup
_Lock = threading.Lock


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
    try:
        payload._flag.pop()  # the sender's handle dies
    except IndexError:
        raise _already_used(state.role) from None
    ep = Endpoint()
    ep.seat, ep.state, ep._flag = payload.seat, state, [True]
    return ep


@dataclass
class Session:
    """A live session: its endpoints, and ``channels``, the seat they share."""

    roles: tuple[Role, ...]
    endpoints: dict[Role, Endpoint]
    monitor: Optional[SessionMonitor]
    channels: SessionChannels
    local_types: dict[Role, LocalType] = field(default_factory=dict)

    def close_transport(self) -> None:
        for link in self.channels.links:
            if isinstance(link, FramedLink):
                link.close()


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
    reads the template off ``g`` and builds only what is the session's own:
    its links, bound for the transport, one seat (``Session.channels``), one
    start endpoint per role, a copy of the local types, and, when monitored,
    a monitor on a copy of the template's start cursors.  An in-process
    link is built here slot by slot as ``Channel.__init__`` builds one, and
    the monitor as ``SessionMonitor.__init__`` starts one, with no call per
    link; ``tests/test_runtime.py`` holds both to their constructors.  Each
    endpoint starts at its role's start state, whose stage is the unfolded
    local type that ``Session.local_types`` holds.
    """
    key = tuple(roles) if roles is not None else None
    try:
        compiled = g._compiled[key]
    except (AttributeError, KeyError):  # the first open of g, or of g with these roles
        compiled = _compiled_for(g, key)
    pairs = compiled.pairs
    if isinstance(transport, (AsyncBuffered, SyncRendezvous)):
        capacity, links = transport.capacity, []
        for _ in pairs:  # each as Channel.__init__ builds it, without a call per link
            link = _new(Channel)
            link.capacity, link._lock, link._buf, link._blocked, link._receiver = (
                capacity, _Lock(), deque(), [], None)
            links.append(link)
    elif isinstance(transport, FramedSocket):
        links = connect_pairs(transport.host, pairs)
    else:
        raise SessionRuntimeError(ErrorKind.TRANSPORT_ERROR, f"unknown transport {transport!r}")
    monitor = None
    if monitored:  # as SessionMonitor.__init__ starts one, on a copy of the template's starts
        monitor = _new(SessionMonitor)
        monitor._cursors, monitor._stops, monitor._log, monitor._lock = (
            compiled.starts.copy(), {}, [], _Lock())
    seat = SessionChannels()
    seat.links, seat.pairs, seat.monitor, seat.timeout = links, pairs, monitor, timeout
    endpoints = {}
    for r, start in compiled.starts.items():  # as an operation builds its next endpoint
        ep = endpoints[r] = Endpoint()
        ep.seat, ep.state, ep._flag = seat, start, [True]
    session = _new(Session)  # the dataclass __init__ would only set the five fields
    session.roles, session.endpoints, session.monitor = compiled.roles, endpoints, monitor
    session.channels, session.local_types = seat, compiled.local_types.copy()
    return session
