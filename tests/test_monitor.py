"""The online monitor against the tree walk it replaced.

``tree_verdict`` is the monitor's former ``verdict``: it walks each role's
local type over the role's events with ``unfold_type``.  The online monitor
steps state tables as events arrive and must give the identical
``(ok, why)`` on every trace, conformant or not.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from corpus import C, P, Q, S, calc, finite_corpus, oauth2, well_typed_corpus
from mpst import INT, Label, comm, end_, open_session
from mpst.gen import random_protocols
from mpst.protocol import Choice, ClosedAt, Comm, End, Rec, Var, roles_of
from mpst.runtime import EventKind, SessionMonitor, TraceEvent
from mpst.scripts import RoleOutcome, _run_role, compliant_scripts, global_trace
from mpst.transport import AsyncBuffered, SyncRendezvous
from mpst.types import Branch, EndT, Select, unfold_type

SEND, RECEIVE, CLOSE = EventKind.SEND, EventKind.RECEIVE, EventKind.CLOSE


def tree_verdict(expected, events) -> tuple[bool, str]:
    """Conformant iff every role's event subsequence walks its local type
    from the start to End, finishing with a close."""
    for role_name, t in expected.items():
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


def _prefix(g, comms: int) -> list:
    """The first ``comms`` messages of a protocol, taking each first branch."""
    out, node, env = [], g, {}
    while len(out) < comms and not isinstance(node, End):
        if isinstance(node, Comm):
            out.append((node.from_role, node.to_role, node.label))
            node = node.cont
        elif isinstance(node, Choice):
            node = node.branches[0]
        elif isinstance(node, Rec):
            env = {**env, node.var: (node, env)}
            node = node.body
        elif isinstance(node, Var):
            node, env = env[node.var]
        else:
            assert isinstance(node, ClosedAt)
            node = node.cont
    return out


def _events(messages, roles, closes=True) -> list[tuple]:
    """A trace of ``(kind, role, peer, label)``: each message sent and then
    received, and, if ``closes``, every role closing at the end."""
    trace = []
    for frm, to, label in messages:
        trace += [(SEND, frm, to, label), (RECEIVE, to, frm, label)]
    return trace + ([(CLOSE, r, None, None) for r in roles] if closes else [])


def _traces() -> list[tuple[str, object, list[tuple]]]:
    """One trace per well-typed protocol: a conformant run of each finite
    one (corpus and generated), and a first-branch prefix of each loop that
    never ends, where only the roles done by then close."""
    rng = random.Random(7)
    finite = finite_corpus()
    out = []
    for name, g in well_typed_corpus().items():
        if name in finite:
            out.append((name, g, _events(global_trace(g, rng, budget=12), roles_of(g))))
        else:
            messages = _prefix(g, 6)
            busy = {r.name for m in messages[2:] for r in m[:2]}
            done = [r for r in roles_of(g) if r.name not in busy]
            out.append((name, g, _events(messages, []) + _events([], done)))
    for i, g in enumerate(random_protocols(24, seed=1010, max_depth=4)):
        out.append((f"random{i}", g, _events(global_trace(g, rng, budget=12), roles_of(g))))
    return out


_TRACES = _traces()


def _check(g, trace) -> tuple[bool, str]:
    """Feed ``trace`` to a session's monitor and to a monitor built on its
    own; both must agree with the tree walk.  Returns the verdict."""
    sess = open_session(g, AsyncBuffered(1), monitored=True)
    monitors = [sess.monitor, SessionMonitor(sess.local_types)]
    for monitor in monitors:
        for kind, role, peer, label in trace:
            monitor.record(kind, role, peer, label)
    want = tree_verdict(sess.local_types, sess.monitor.events)
    for monitor in monitors:
        assert monitor.verdict() == want, trace
        assert [(e.seq, e.kind, e.role, e.peer, e.label) for e in monitor.events] == [
            (i, *event) for i, event in enumerate(trace)
        ]
    return want


def _mutations(trace, roles, rng) -> list[list[tuple]]:
    """Broken copies of a conformant trace, one fault each unless noted."""
    bogus = Label("bogus")
    out = [trace[:n] for n in range(len(trace))]  # truncated
    for i, (kind, role, peer, label) in enumerate(trace):
        if kind is CLOSE:
            out.append(trace[:i] + trace[i + 1 :])  # dropped close
            after = next((e for e in trace if e[1] == role and e[0] is not CLOSE), (SEND, role, role, bogus))
            out.append(trace + [after])  # acted after close
            for act in (SEND, RECEIVE):  # an action at End
                out.append(trace[:i] + [(act, role, roles[0], bogus)] + trace[i:])
            continue
        flipped = RECEIVE if kind is SEND else SEND
        others = [r for r in roles if r.name != peer.name]
        out.append(trace[:i] + [(flipped, role, peer, label)] + trace[i + 1 :])  # wrong kind
        out.append(trace[:i] + [(CLOSE, role, None, None)] + trace[i + 1 :])  # closed early
        out.append(trace[:i] + [(kind, role, rng.choice(others), label)] + trace[i + 1 :])  # wrong peer
        out.append(trace[:i] + [(kind, role, None, label)] + trace[i + 1 :])  # no peer
        out.append(trace[:i] + [(kind, role, peer, bogus)] + trace[i + 1 :])  # unknown label
        out.append(trace[:i] + [(kind, role, peer, None)] + trace[i + 1 :])  # no label
    for _ in range(12):  # two roles violate, in either order of seq and of roles
        i, j = sorted(rng.sample(range(len(trace)), 2))
        if trace[i][1] == trace[j][1]:
            continue
        two = list(trace)
        for k in (i, j):
            kind, role, peer, label = two[k]
            two[k] = (SEND, role, peer or role, bogus) if kind is CLOSE else (kind, role, peer, bogus)
        out.append(two)
    return out


@pytest.mark.parametrize("name,g,trace", _TRACES, ids=[t[0] for t in _TRACES])
def test_online_verdict_equals_tree_walk(name, g, trace):
    ok, why = _check(g, trace)
    if name in finite_corpus() or name.startswith("random"):
        assert (ok, why) == (True, "conformant")
    else:
        assert not ok and why.endswith("stopped before finishing its protocol")
    for broken in _mutations(trace, roles_of(g), random.Random(name)):
        assert not _check(g, broken)[0]


def test_mutations_reach_every_message():
    """The mutated traces give every message of the walk, so the test above
    compares each of them."""
    rng = random.Random(3)
    templates = {
        "acted after close",
        "closed before finishing its protocol",
        "talked to",
        "used unknown label",
        "stopped before finishing its protocol",
        "never closed its endpoint",
    }
    templates |= {f"performed send at a {s} stage" for s in ("Branch", "EndT")}
    templates |= {f"performed receive at a {s} stage" for s in ("Select", "EndT")}
    seen = set()
    for name, g, trace in _TRACES:
        expected = {r.name: t for r, t in open_session(g, AsyncBuffered(1)).local_types.items()}
        for broken in _mutations(trace, roles_of(g), rng):
            why = tree_verdict(expected, [TraceEvent(i, *e) for i, e in enumerate(broken)])[1]
            seen |= {t for t in templates if t in why}
    assert seen == templates


def _first_violation(expected, trace):
    """The tree walk's answer to ``violation``: the first event after which
    its role's walk fails at an event, not at the end of the trace."""
    events = [TraceEvent(i, *e) for i, e in enumerate(trace)]
    for n, event in enumerate(events):
        name = event.role.name
        if name not in expected:
            continue
        ok, why = tree_verdict({name: expected[name]}, events[: n + 1])
        if not ok and not why.endswith(("stopped before finishing its protocol", "never closed its endpoint")):
            return n, name, why
    return None


def test_violation_is_the_earliest_offending_event():
    rng = random.Random(5)
    for name, g, trace in _TRACES:
        expected = open_session(g, AsyncBuffered(1), monitored=True).local_types
        for broken in [trace] + _mutations(trace, roles_of(g), rng)[-12:]:
            monitor = open_session(g, AsyncBuffered(1), monitored=True).monitor
            for event in broken:
                monitor.record(*event)
            assert monitor.violation == _first_violation(expected, broken), (name, broken)
    monitor = SessionMonitor(open_session(calc(), AsyncBuffered(1)).local_types)
    monitor.record(SEND, C, S, Label("loop"))
    monitor.record(SEND, S, C, Label("bye"))
    monitor.record(SEND, C, S, Label("bogus"))
    assert monitor.violation == (1, "s", "s performed send at a Branch stage")
    assert monitor.verdict() == (False, "c used unknown label bogus(unit)")


def _run_threads(sess, scripts, extra=None) -> dict[str, RoleOutcome]:
    """Each role's script in its own thread, plus ``extra`` if given."""
    outcomes = {r.name: RoleOutcome(r.name, False) for r in sess.roles}
    threads = [
        threading.Thread(target=_run_role, args=(sess.endpoints[r], scripts[r.name], outcomes[r.name]), daemon=True)
        for r in sess.roles
    ]
    threads += [threading.Thread(target=extra, daemon=True)] if extra else []
    for t in threads:
        t.start()
    for t in threads:
        t.join(20)
    assert not any(t.is_alive() for t in threads)
    return outcomes


@pytest.mark.parametrize(
    "g,transport", [(calc(), SyncRendezvous()), (oauth2(), AsyncBuffered(1))], ids=["calc", "oauth2"]
)
def test_threaded_session_is_monitored_online(g, transport):
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(4):
            scripts = compliant_scripts(g, random.Random(seed), budget=80)
            sess = open_session(g, transport, monitored=True, timeout=10)
            outcomes = _run_threads(sess, scripts)
            assert all(o.ok for o in outcomes.values()), outcomes
            events = sess.monitor.events
            assert [e.seq for e in events] == list(range(len(events)))
            assert sess.monitor.verdict() == (True, "conformant") == tree_verdict(sess.local_types, events)
            assert sess.monitor.violation is None

            # one role's wrong label, recorded directly while the roles run
            sess = open_session(g, transport, monitored=True, timeout=10)
            first = sess.roles[0]
            peer = next(r for r in sess.roles if r != first)
            _run_threads(sess, scripts, lambda: sess.monitor.record(SEND, first, peer, Label("bogus")))
            events = sess.monitor.events
            ok, why = sess.monitor.verdict()
            assert not ok and (ok, why) == tree_verdict(sess.local_types, events)
            assert sess.monitor.violation[1:] == (first.name, why)
            assert [e.seq for e in events] == list(range(len(events)))
    finally:
        sys.setswitchinterval(old)


def _logged(monitor) -> list[tuple]:
    return [(e.kind, e.role, e.peer, e.label) for e in monitor.events]


PING_PONG = comm(P, Q, Label("ping", INT), comm(Q, P, Label("pong", INT), end_()))


def _ping_pong(sess) -> None:
    """Both roles of a ``PING_PONG`` session run to their close through
    their endpoints, in this thread."""
    p = sess.endpoints[P].send(Q, "ping", 1)
    _, got, q = sess.endpoints[Q].receive(P)
    q.send(P, "pong", got).close()
    p.receive(Q)[2].close()


def test_an_endpoint_whose_cursor_a_direct_record_moved_is_judged_by_equality():
    """The monitor steps a role's cursor to the state its endpoint reached
    only if the cursor is the state the endpoint acted at.  A direct
    ``record`` that moved the cursor elsewhere leaves the endpoint's events
    to the equality rule, so the verdict and the violation are the tree
    walk's on the log; a loop that brings the cursor back to the endpoint's
    state is judged alike either way."""
    sess = open_session(PING_PONG, AsyncBuffered(1), monitored=True)
    sess.monitor.record(SEND, P, Q, Label("ping", INT))  # p's cursor is now past its endpoint
    _ping_pong(sess)
    log = _logged(sess.monitor)
    assert sess.monitor.verdict() == tree_verdict(sess.local_types, sess.monitor.events)
    assert sess.monitor.verdict() == (False, "p performed send at a Branch stage")
    assert sess.monitor.violation == _first_violation(sess.local_types, log) == (
        1, "p", "p performed send at a Branch stage")

    sess = open_session(calc(), AsyncBuffered(1), monitored=True)
    sess.monitor.record(SEND, C, S, Label("loop"))  # c's loop returns its cursor to the start
    client = sess.endpoints[C].send(S, "stop")
    _, _, server = sess.endpoints[S].receive(C)
    server.send(C, "bye").close()
    client.receive(S)[2].close()
    assert sess.monitor.verdict() == tree_verdict(sess.local_types, sess.monitor.events) == (
        True, "conformant")
    assert sess.monitor.violation is None


def test_a_role_stopped_by_a_direct_event_stays_stopped_when_its_endpoint_acts():
    sess = open_session(PING_PONG, AsyncBuffered(1), monitored=True)
    sess.monitor.record(SEND, P, Q, Label("bogus"))
    _ping_pong(sess)
    why = "p used unknown label bogus(unit)"
    assert sess.monitor._cursors[P] is None
    assert sess.monitor.violation == _first_violation(sess.local_types, _logged(sess.monitor)) == (0, "p", why)
    assert sess.monitor.verdict() == tree_verdict(sess.local_types, sess.monitor.events) == (False, why)


def test_a_delegated_endpoint_steps_the_cursor_of_its_own_session(monkeypatch):
    """As in a chameleons pairing: the carried endpoint's events move its
    own p2p session's cursor to the state it reached, with no ``_advance``,
    and the assignment session's cursors do not move."""
    from mpst import runtime
    from mpst.bench import BROKER, BYE, CHAT, L, PEER_ROLE, R, assignment_protocol, p2p_protocol

    assign = open_session(assignment_protocol(), AsyncBuffered(1), monitored=True, timeout=1.0)
    p2p = open_session(p2p_protocol(), AsyncBuffered(1), monitored=True, timeout=1.0)

    def advanced(*args):
        raise AssertionError("an endpoint's own step went to the equality rule")

    monkeypatch.setattr(runtime, "_advance", advanced)
    assign.endpoints[BROKER].send(PEER_ROLE, "left", p2p.endpoints[L]).close()
    _, carried, ep = assign.endpoints[PEER_ROLE].receive(BROKER)
    ep.close()
    assigned = dict(assign.monitor._cursors)
    left = carried.send(R, CHAT, 7)
    assert p2p.monitor._cursors[L] is left.state and p2p.monitor._cursors[R] is p2p.endpoints[R].state
    _, got, right = p2p.endpoints[R].receive(L)
    right = right.send(L, BYE, None)
    left.receive(R)[2].close()
    right.close()
    assert assign.monitor._cursors == assigned and len(assign.monitor.events) == 4
    assert [e.role for e in p2p.monitor.events] == [L, R, R, L, L, R]
    assert got == 7 and p2p.monitor.verdict() == assign.monitor.verdict() == (True, "conformant")


class _MeetingLog(list):
    """A monitor's log whose first append, once its event is in, starts
    ``second`` in a new thread and waits up to ``wait`` seconds for that
    thread's own append.  A ``record`` that holds its lock from the append
    to the cursor step keeps the second event out of that window until the
    wait has passed; one that does not lets it in every time."""

    def __init__(self, second, wait: float) -> None:
        super().__init__()
        self.second, self.wait = second, wait
        self.appended = threading.Event()

    def append(self, event) -> None:
        super().append(event)
        second, self.second = self.second, None
        if second is None:
            self.appended.set()
            return
        self.thread = threading.Thread(target=second, daemon=True)
        self.thread.start()
        self.appended.wait(self.wait)


def test_a_record_forced_into_another_roles_step_keeps_its_seq():
    """Ledger row [5] of ``mpst.runtime``, forced: q's ``record`` starts in
    the window between the append of p's event and the step of p's cursor.
    The monitor's lock holds it off, so p's stop keeps its own event's seq
    and q's event follows it; without the lock q's event would be appended
    first, and p's stop would name q's seq."""
    bogus = Label("bogus")
    for _ in range(20):
        sess = open_session(PING_PONG, AsyncBuffered(1), monitored=True)
        monitor = sess.monitor
        log = monitor._log = _MeetingLog(lambda: monitor.record(SEND, Q, P, bogus), wait=0.1)
        monitor.record(SEND, P, Q, bogus)
        log.thread.join(5)
        assert not log.thread.is_alive()
        assert [(e.seq, e.role) for e in monitor.events] == [(0, "p"), (1, "q")]
        assert monitor._stops == {
            "p": (0, "p", "p used unknown label bogus(unit)"),
            "q": (1, "q", "q performed send at a Branch stage"),
        }
        assert monitor.violation == _first_violation(sess.local_types, _logged(monitor))
        assert monitor.verdict() == tree_verdict(sess.local_types, monitor.events)


@pytest.mark.parametrize("transport", [
    pytest.param(lambda: AsyncBuffered(1), id="buffered"),
    pytest.param(lambda: SyncRendezvous(), id="rendezvous", marks=pytest.mark.xfail(
        strict=True, reason="Endpoint.send records after link.send returns, and a blocked "
        "sender wakes after the receiver has recorded the receive that took its message")),
])
def test_a_send_is_logged_before_the_receive_that_takes_its_message(transport):
    """The trace comes in true order: p's ping is sent before q receives it,
    so p's send precedes q's receive in the log.  Here q arrives 1 ms after
    p has started its send.  On a rendezvous p is blocked in ``link.send``
    by then, and records its send only once q has taken the message and
    recorded its receive.  Recording before the send would not do either:
    a send that times out would then be traced."""
    ping = comm(P, Q, Label("ping", INT), end_())
    for _ in range(20):
        sess = open_session(ping, transport(), monitored=True, timeout=5)

        def late_receiver():
            time.sleep(0.001)
            sess.endpoints[Q].receive(P)[2].close()

        q = threading.Thread(target=late_receiver, daemon=True)
        q.start()
        sess.endpoints[P].send(Q, "ping", 1).close()
        q.join(5)
        assert not q.is_alive()
        logged = [(e.kind, e.role) for e in sess.monitor.events]
        assert logged.index((SEND, P)) < logged.index((RECEIVE, Q)), logged
