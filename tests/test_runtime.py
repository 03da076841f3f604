"""Endpoint operations, linearity, delegation, and the monitor."""

from __future__ import annotations

import copy
import pickle
import sys
import threading
import time
from collections import deque

import pytest

from corpus import A, C, P, Q, R, S, calc, g_auth, oauth, oauth2
from mpst import (
    ErrorKind,
    Label,
    Role,
    SessionSort,
    comm,
    end_,
    open_session,
    project,
    roles_of,
)
from mpst import runtime
from mpst.errors import SessionRuntimeError, ShapeError
from mpst.protocol import BOOL, INT, STRING, UNIT, PayloadSort
from mpst.runtime import EventKind
from mpst.transport import AsyncBuffered, FramedSocket, SyncRendezvous


def run_threads(*fns):
    errors = []

    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException as e:  # surfaced to the test
                errors.append(e)

        return run

    threads = [threading.Thread(target=wrap(f), daemon=True) for f in fns]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
    if errors:
        raise errors[0]
    return errors


def test_open_session_returns_per_role_endpoints():
    sess = open_session(oauth(), SyncRendezvous(), monitored=True)
    assert [r.name for r in sess.roles] == ["s", "c", "a"]
    assert set(sess.endpoints) == set(sess.roles)
    sess.close_transport()


def test_a_role_is_its_name_in_a_session():
    g = oauth()
    sess = open_session(g, AsyncBuffered(1), monitored=True)
    assert sess.roles == roles_of(g) and all(r is own for r, own in zip(sess.roles, (S, C, A)))
    assert sess.endpoints["s"] is sess.endpoints[S]
    sess.endpoints["s"].send("c", "login", "u")
    _, got, _ = sess.endpoints["c"].receive("s")
    named = open_session(g, AsyncBuffered(1), monitored=True, roles=("s", "c", "a"))
    assert named.roles == (S, C, A) and all(type(r) is Role for r in named.roles)
    assert set(named.endpoints) == {"s", "c", "a"} and named.local_types == sess.local_types
    named.endpoints["s"].send(C, "login", Role("u"))  # a role passes as a string payload
    _, user, _ = named.endpoints[C].receive(S)
    assert got == "u" and user == "u"
    assert named.monitor.events[0].signature() == ("s", "send", "c", "login")


def test_open_session_rejects_unguarded_before_allocation():
    from mpst import rec, var_

    with pytest.raises(ShapeError) as e:
        open_session(rec("X", var_("X")))
    assert e.value.kind is ErrorKind.UNGUARDED_RECURSION


def test_end_only_protocol_admits_close_only():
    sess = open_session(end_(), SyncRendezvous(), roles=(P, Q), monitored=True)
    for r in (P, Q):
        sess.endpoints[r].close()
    ok, _ = sess.monitor.verdict()
    assert ok


def test_oauth_full_run_with_api():
    sess = open_session(oauth(), SyncRendezvous(), monitored=True)

    def client():
        ep = sess.endpoints[C]
        label, payload, ep = ep.receive(S)
        assert (label.name, payload) == ("login", "Hi")
        ep = ep.send(A, "pwd", "pass")
        ep.close()

    def service():
        ep = sess.endpoints[S]
        ep = ep.send(C, "login", "Hi")
        label, ok, ep = ep.receive(A)
        assert (label.name, ok) == ("auth", True)
        ep.close()

    def authenticator():
        ep = sess.endpoints[A]
        label, pwd, ep = ep.receive(C)
        assert (label.name, pwd) == ("pwd", "pass")
        ep = ep.send(S, "auth", True)
        ep.close()

    run_threads(client, service, authenticator)
    ok, why = sess.monitor.verdict()
    assert ok, why
    assert len(sess.monitor.events) == 9


def test_monitor_flags_missing_close():
    sess = open_session(comm(P, Q, Label("m"), end_()), SyncRendezvous(), monitored=True)

    def p():
        sess.endpoints[P].send(Q, "m", None)  # never closes

    def q():
        _, _, ep = sess.endpoints[Q].receive(P)
        ep.close()

    run_threads(p, q)
    ok, why = sess.monitor.verdict()
    assert not ok and "p" in why


def test_send_error_taxonomy():
    sess = open_session(oauth(), AsyncBuffered(2))
    ep_s = sess.endpoints[S]
    with pytest.raises(SessionRuntimeError) as e:
        ep_s.send(A, "login", "Hi")  # protocol says talk to c
    assert e.value.kind is ErrorKind.WRONG_PEER
    with pytest.raises(SessionRuntimeError) as e:
        ep_s.send(C, "nope", "Hi")
    assert e.value.kind is ErrorKind.UNKNOWN_LABEL
    with pytest.raises(SessionRuntimeError) as e:
        ep_s.send(C, "login", 42)
    assert e.value.kind is ErrorKind.PAYLOAD_SORT_MISMATCH
    # misuse probes above did not consume the endpoint
    ep2 = ep_s.send(C, "login", "Hi")
    with pytest.raises(SessionRuntimeError) as e:
        ep_s.send(C, "login", "again")
    assert e.value.kind is ErrorKind.INVALID_ENDPOINT
    # receive on an output stage
    with pytest.raises(SessionRuntimeError) as e:
        sess.endpoints[C].send(S, "login", "x")  # c must receive here
    assert e.value.kind is ErrorKind.WRONG_PEER
    del ep2


def test_receive_error_taxonomy():
    sess = open_session(oauth(), AsyncBuffered(2))
    ep_c = sess.endpoints[C]
    with pytest.raises(SessionRuntimeError) as e:
        ep_c.receive(A)  # protocol says listen to s
    assert e.value.kind is ErrorKind.WRONG_PEER
    sess.endpoints[S].send(C, "login", "Hi")
    _, _, ep2 = ep_c.receive(S)
    with pytest.raises(SessionRuntimeError) as e:
        ep_c.receive(S)
    assert e.value.kind is ErrorKind.INVALID_ENDPOINT
    with pytest.raises(SessionRuntimeError) as e:
        ep2.receive(S)  # now it is c's turn to send
    assert e.value.kind is ErrorKind.WRONG_PEER


def test_close_error_taxonomy():
    sess = open_session(oauth(), AsyncBuffered(2))
    with pytest.raises(SessionRuntimeError) as e:
        sess.endpoints[C].close()  # fresh endpoint still owes the protocol
    assert e.value.kind is ErrorKind.PROTOCOL_NOT_FINISHED
    sess2 = open_session(end_(), SyncRendezvous(), roles=(P, Q))
    ep = sess2.endpoints[P]
    ep.close()
    with pytest.raises(SessionRuntimeError) as e:
        ep.close()
    assert e.value.kind is ErrorKind.INVALID_ENDPOINT


def test_receive_timeout_reports_deadlock_kind():
    sess = open_session(oauth(), SyncRendezvous(), timeout=0.05)
    with pytest.raises(SessionRuntimeError) as e:
        sess.endpoints[C].receive(S)
    assert e.value.kind is ErrorKind.TIMEOUT


def test_a_message_with_an_unexpected_label_is_a_transport_error():
    sess = open_session(comm(P, Q, Label("m", INT), end_()), AsyncBuffered(1), timeout=1.0)
    (link,) = sess.channels.links
    link.send(("zz", 1))  # raw, past the sender's endpoint
    ep = sess.endpoints[Q]
    with pytest.raises(SessionRuntimeError) as e:
        ep.receive(P)
    assert e.value.kind is ErrorKind.TRANSPORT_ERROR
    assert e.value.detail == "message with unexpected label zz"
    assert ep.used
    with pytest.raises(SessionRuntimeError) as e:
        ep.receive(P)
    assert e.value.kind is ErrorKind.INVALID_ENDPOINT


def test_concurrent_sends_on_one_stage_have_one_winner():
    # A buffer of 8 has room for every racer, so only the linearity cell's
    # flag stands between them and the link.  Real threads under a 1 us
    # switch interval catch a check-then-pop flag only by chance; the
    # slow-check gate below forces that race in every round.
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(1000):
            sess = open_session(comm(P, Q, Label("m", INT), end_()), AsyncBuffered(8))
            ep = sess.endpoints[P]
            start = threading.Barrier(8)
            sent, refused, other = [], [], []

            def racer(k):
                start.wait()
                try:
                    ep.send(Q, "m", k)
                    sent.append(k)
                except SessionRuntimeError as e:
                    (refused if e.kind is ErrorKind.INVALID_ENDPOINT else other).append(e)

            threads = [threading.Thread(target=racer, args=(k,), daemon=True) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10)
            assert other == [] and len(sent) == 1 and len(refused) == 7
            (link,) = sess.channels.links
            assert link.receive(timeout=0) == ("m", sent[0])
            with pytest.raises(SessionRuntimeError) as e:
                link.receive(timeout=0)  # exactly one message reached the link
            assert e.value.kind is ErrorKind.TIMEOUT
    finally:
        sys.setswitchinterval(old)


class _SlowCheckFlag(list):
    """An endpoint's flag whose truth test sleeps after it reads, so a ``use``
    that checks the flag and then pops it lets a second racer through the
    check before the first one pops.  ``list.pop`` does not call ``__len__``."""

    def __len__(self) -> int:
        n = super().__len__()
        time.sleep(0.005)
        return n


def test_concurrent_sends_have_one_winner_when_the_cell_check_is_slow():
    # Deterministic companion of the 8-racer gate above: every truth test of
    # the endpoint's flag is held open long enough for the other racer to run.
    for _ in range(20):
        sess = open_session(comm(P, Q, Label("m", INT), end_()), AsyncBuffered(2))
        ep = sess.endpoints[P]
        ep._flag = _SlowCheckFlag([True])
        start = threading.Barrier(2)
        sent, refused, other = [], [], []

        def racer(k):
            start.wait()
            try:
                ep.send(Q, "m", k)
                sent.append(k)
            except SessionRuntimeError as e:
                (refused if e.kind is ErrorKind.INVALID_ENDPOINT else other).append(e)

        threads = [threading.Thread(target=racer, args=(k,), daemon=True) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert other == [] and len(sent) == 1 and len(refused) == 1
        (link,) = sess.channels.links
        assert link.receive(timeout=0) == ("m", sent[0])
        with pytest.raises(SessionRuntimeError) as e:
            link.receive(timeout=0)  # exactly one message reached the link
        assert e.value.kind is ErrorKind.TIMEOUT


def _race(op, rounds: int = 500):
    """Race 8 threads, released together, on one stage, ``rounds`` times.
    ``op`` returns a fresh ``(attempt, check)`` per round: every racer calls
    ``attempt``, exactly one may succeed and the other 7 must get
    ``InvalidEndpoint``, and ``check`` gets the winner's result."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(rounds):
            attempt, check = op()
            start = threading.Barrier(8)
            won, refused, other = [], [], []

            def racer():
                start.wait()
                try:
                    won.append(attempt())
                except SessionRuntimeError as e:
                    (refused if e.kind is ErrorKind.INVALID_ENDPOINT else other).append(e)

            threads = [threading.Thread(target=racer, daemon=True) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10)
            assert not any(t.is_alive() for t in threads)
            assert other == [] and len(won) == 1 and len(refused) == 7
            check(won[0])
    finally:
        sys.setswitchinterval(old)


def test_concurrent_receives_on_one_stage_have_one_winner():
    def op():
        sess = open_session(comm(P, Q, Label("m", INT), end_()), AsyncBuffered(8), timeout=1.0)
        sess.endpoints[P].send(Q, "m", 7)
        ep = sess.endpoints[Q]

        def check(result):
            label, value, _ = result
            assert (label.name, value) == ("m", 7)
            (link,) = sess.channels.links
            with pytest.raises(SessionRuntimeError) as e:
                link.receive(timeout=0)  # the one message was taken once, and no loser parked
            assert e.value.kind is ErrorKind.TIMEOUT

        return (lambda: ep.receive(P)), check

    _race(op)


def test_concurrent_closes_on_one_stage_have_one_winner():
    def op():
        sess = open_session(end_(), AsyncBuffered(1), monitored=True, roles=(P, Q))
        ep = sess.endpoints[P]

        def check(_):
            closes = [e for e in sess.monitor.events if e.kind is EventKind.CLOSE]
            assert [e.role for e in closes] == [P]

        return ep.close, check

    _race(op)


def _raises_kind(fn, kind: ErrorKind) -> None:
    with pytest.raises(SessionRuntimeError) as e:
        fn()
    assert e.value.kind is kind, (e.value.kind, kind)


def test_a_used_endpoint_is_refused_as_invalid_before_any_other_check():
    """Each misuse raises its own kind on a fresh endpoint, and
    ``InvalidEndpoint`` once the same endpoint has been used."""
    inner_g = comm(P, Q, Label("bye", UNIT), end_())
    owner, taker = Role("owner"), Role("taker")
    handoff = comm(owner, taker, Label("hand", SessionSort(project(inner_g, Q))), end_())

    def login_sender():  # s at its send stage, and a use of it
        ep = open_session(oauth(), AsyncBuffered(2)).endpoints[S]
        return ep, lambda: ep.send(C, "login", "Hi")

    def login_receiver():  # c at its receive stage, and a use of it
        sess = open_session(oauth(), AsyncBuffered(2))
        sess.endpoints[S].send(C, "login", "Hi")
        ep = sess.endpoints[C]
        return ep, lambda: ep.receive(S)

    def delegator():  # owner at its delegating stage, and a use of it
        ep = open_session(handoff, AsyncBuffered(1)).endpoints[owner]
        payload = open_session(inner_g, AsyncBuffered(1)).endpoints[Q]
        return ep, lambda: ep.send(taker, "hand", payload)

    misuses = [
        (login_receiver, lambda ep: ep.send(S, "login", "x"), ErrorKind.WRONG_PEER),  # send: wrong kind
        (login_sender, lambda ep: ep.send(A, "login", "Hi"), ErrorKind.WRONG_PEER),
        (login_sender, lambda ep: ep.send(C, "nope", "Hi"), ErrorKind.UNKNOWN_LABEL),
        (login_sender, lambda ep: ep.send(C, ["login"], "Hi"), ErrorKind.UNKNOWN_LABEL),  # unhashable
        (login_sender, lambda ep: ep.send(C, {"login"}, "Hi"), ErrorKind.UNKNOWN_LABEL),
        (login_sender, lambda ep: ep.send(C, "login", 42), ErrorKind.PAYLOAD_SORT_MISMATCH),
        (delegator, lambda ep: ep.send(taker, "hand", "not an endpoint"), ErrorKind.PAYLOAD_SORT_MISMATCH),
        (login_sender, lambda ep: ep.receive(C), ErrorKind.WRONG_PEER),  # receive: wrong kind
        (login_receiver, lambda ep: ep.receive(A), ErrorKind.WRONG_PEER),
        (login_sender, lambda ep: ep.close(), ErrorKind.PROTOCOL_NOT_FINISHED),
    ]
    for stage, misuse, kind in misuses:
        fresh, _ = stage()
        _raises_kind(lambda: misuse(fresh), kind)
        used, use = stage()
        use()
        _raises_kind(lambda: misuse(used), ErrorKind.INVALID_ENDPOINT)


class _Opaque(PayloadSort):
    """A sort that is not a base sort: no value is of it."""

    __slots__ = ()

    def sort_name(self) -> str:
        return "opaque"


class _Int(int):
    pass


@pytest.mark.parametrize(
    "sort, value, admitted",
    [
        (INT, 3, True), (INT, _Int(3), True), (INT, True, False), (INT, 3.0, False), (INT, "3", False),
        (BOOL, True, True), (BOOL, 1, False),
        (UNIT, None, True), (UNIT, 0, False), (UNIT, "", False),
        (STRING, "x", True), (STRING, Role("x"), True), (STRING, b"x", False), (STRING, None, False),
        *((_Opaque(), v, False) for v in (3, True, None, "x", b"x", object())),
    ],
)
def test_a_send_admits_exactly_the_payloads_of_its_sort(sort, value, admitted):
    """A payload of the sort's class or a subclass of it is sent as it is, a
    bool is no int, and a sort that is not a base sort admits nothing.  A
    refusal is a ``PayloadSortMismatch`` that leaves the endpoint live, and a
    used endpoint is refused as invalid first."""
    g = comm(P, Q, Label("m", sort), end_())
    sess = open_session(g, AsyncBuffered(1))
    ep = sess.endpoints[P]
    if admitted:
        ep.send(Q, "m", value)
        assert sess.endpoints[Q].receive(P)[1] is value
    else:
        _raises_kind(lambda: ep.send(Q, "m", value), ErrorKind.PAYLOAD_SORT_MISMATCH)
        assert not ep.used
    used = open_session(g, AsyncBuffered(1)).endpoints[P]
    used.use()
    _raises_kind(lambda: used.send(Q, "m", value), ErrorKind.INVALID_ENDPOINT)


def test_a_used_sender_does_not_consume_the_endpoint_it_delegates():
    inner_g = comm(P, Q, Label("bye", UNIT), end_())
    owner, taker = Role("owner"), Role("taker")
    handoff = comm(owner, taker, Label("hand", SessionSort(project(inner_g, Q))), end_())
    inner = open_session(inner_g, AsyncBuffered(1))
    sender = open_session(handoff, AsyncBuffered(1)).endpoints[owner]
    sender.send(taker, "hand", open_session(inner_g, AsyncBuffered(1)).endpoints[Q])
    payload = inner.endpoints[Q]
    _raises_kind(lambda: sender.send(taker, "hand", payload), ErrorKind.INVALID_ENDPOINT)
    assert not payload.used
    outer = open_session(handoff, AsyncBuffered(1))
    outer.endpoints[owner].send(taker, "hand", payload).close()  # still whole, so still sendable
    _, live, ep = outer.endpoints[taker].receive(owner)
    ep.close()
    inner.endpoints[P].send(Q, "bye", None).close()
    label, _, live = live.receive(P)
    assert label.name == "bye"
    live.close()


class _MeetingFlag(list):
    """A payload's flag whose first ``pop`` waits, after it takes the item,
    until the other racer has taken its own payload's item: both delegations
    then hold their payloads before either reaches the sender's flag."""

    def __init__(self, meet: threading.Barrier) -> None:
        super().__init__([True])
        self.meet = meet

    def pop(self, *args):
        item = super().pop(*args)
        meet, self.meet = self.meet, None
        if meet is not None:
            meet.wait(5)
        return item


def test_a_sender_lost_to_a_racer_does_not_consume_the_endpoint_it_delegates():
    inner_g = comm(P, Q, Label("bye", UNIT), end_())
    owner, taker = Role("owner"), Role("taker")
    handoff = comm(owner, taker, Label("hand", SessionSort(project(inner_g, Q))), end_())
    for _ in range(20):
        outer = open_session(handoff, AsyncBuffered(2))
        sender = outer.endpoints[owner]
        inners = [open_session(inner_g, AsyncBuffered(1)) for _ in range(2)]
        meet = threading.Barrier(2)
        payloads = [inner.endpoints[Q] for inner in inners]
        for payload in payloads:
            payload._flag = _MeetingFlag(meet)
        sent, refused, other = [], [], []

        def racer(k):
            try:
                sender.send(taker, "hand", payloads[k]).close()
                sent.append(k)
            except SessionRuntimeError as e:
                (refused if e.kind is ErrorKind.INVALID_ENDPOINT else other).append(k)

        threads = [threading.Thread(target=racer, args=(k,), daemon=True) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert not any(t.is_alive() for t in threads)
        assert other == [] and len(sent) == 1 and len(refused) == 1
        (won,), (lost,) = sent, refused
        assert payloads[won].used
        assert not payloads[lost].used  # refused, yet whole
        _, live, ep = outer.endpoints[taker].receive(owner)
        ep.close()
        inners[won].endpoints[P].send(Q, "bye", None).close()
        live.receive(P)[2].close()
        again = open_session(handoff, AsyncBuffered(1))  # the loser's payload is still sendable
        again.endpoints[owner].send(taker, "hand", payloads[lost]).close()
        _, live, ep = again.endpoints[taker].receive(owner)
        ep.close()
        inners[lost].endpoints[P].send(Q, "bye", None).close()
        label, _, live = live.receive(P)
        assert label.name == "bye"
        live.close()


def test_a_used_endpoint_has_no_public_re_arm():
    """An endpoint is its own flag.  Once used, none of its public names
    revives it; a public ``use()`` on a live endpoint only consumes it, an
    affine drop of its stage."""
    g = comm(P, Q, Label("m", INT), end_())
    ep = open_session(g, AsyncBuffered(1)).endpoints[P]
    ep.send(Q, "m", 1)
    assert ep.cell is ep and ep.used
    assert [n for n in dir(ep) if not n.startswith("_")] == [
        "cell", "close", "receive", "seat", "send", "stage", "state", "use", "used",
    ]
    _raises_kind(lambda: ep.send(Q, "m", 2), ErrorKind.INVALID_ENDPOINT)
    _raises_kind(lambda: ep.receive(Q), ErrorKind.INVALID_ENDPOINT)
    _raises_kind(ep.close, ErrorKind.INVALID_ENDPOINT)
    assert not ep.use() and ep.used
    assert ep.stage is ep.state.stage and ep.state.role == P
    assert ep.used
    dropped = open_session(g, AsyncBuffered(1)).endpoints[P]
    assert dropped.use() and dropped.used
    _raises_kind(lambda: dropped.send(Q, "m", 1), ErrorKind.INVALID_ENDPOINT)


def test_a_linearity_cell_admits_one_use_and_no_public_re_arm():
    """The linearity flag lives in the endpoint: a fresh endpoint is not
    used, its first ``use()`` returns True, every later one False, and a
    refused operation does not re-arm it."""
    g = comm(P, Q, Label("m", INT), end_())
    cell = open_session(g, AsyncBuffered(1)).endpoints[P].cell
    assert not cell.used
    assert cell.use() and cell.used
    assert not cell.use() and cell.used
    _raises_kind(lambda: cell.send(Q, "m", 1), ErrorKind.INVALID_ENDPOINT)
    assert not cell.use() and cell.used


def test_every_handle_gets_a_one_item_flag_of_its_own():
    """Drift gate: an open, a send, a receive and a delegation each build
    their handle with a plain ``Endpoint()`` call and set its slots, so
    each must hand out a fresh ``[True]`` that no other handle holds; a
    shared flag would let one handle's use consume another.  ``Endpoint``
    defines no ``__init__`` for that call to run, and has no ``__dict__``
    to catch a misspelt slot."""
    from mpst.bench import A, B, pingpong_protocol
    from mpst.runtime import Endpoint

    assert "__init__" not in Endpoint.__dict__
    handles = []

    def fresh(ep):
        assert type(ep._flag) is list and ep._flag == [True] and not hasattr(ep, "__dict__")
        assert all(ep._flag is not other._flag for other in handles)  # all alive, so no id is reused
        handles.append(ep)
        return ep

    sess = open_session(pingpong_protocol(), AsyncBuffered(1), timeout=1.0)
    a, b = fresh(sess.endpoints[A]), fresh(sess.endpoints[B])
    for k in range(3):
        a = fresh(a.send(B, "more"))
        b = fresh(b.receive(A)[2])
        a = fresh(a.send(B, "ping", k))
        _, got, b = b.receive(A)
        b = fresh(fresh(b).send(A, "pong", got))
        a = fresh(a.receive(B)[2])
    inner_g = comm(P, Q, Label("bye", UNIT), end_())
    owner, taker = Role("owner"), Role("taker")
    handoff = comm(owner, taker, Label("hand", SessionSort(project(inner_g, Q))), end_())
    outer = open_session(handoff, AsyncBuffered(1))
    outer.endpoints[owner].send(taker, "hand", open_session(inner_g, AsyncBuffered(1)).endpoints[Q])
    fresh(outer.endpoints[taker].receive(owner)[1])  # the delegated handle


def test_peers_and_labels_may_be_given_as_names_or_equal_objects():
    """The protocol's own ``Role`` and ``Label`` objects, equal ones built
    apart and bare names all select the same peer and branch."""
    m = Label("m", INT)
    g = comm(P, Q, m, end_())
    peers_of = {"sender": (Q, Role("q"), "q"), "receiver": (P, Role("p"), "p")}
    labels = (m, Label("m", INT), "m")
    for to_q, from_p in zip(peers_of["sender"], peers_of["receiver"]):
        for label in labels:
            sess = open_session(g, AsyncBuffered(1))
            ep_p, ep_q = sess.endpoints[P], sess.endpoints[Q]
            assert ep_p.state.peer is Q and ep_q.state.peer is P  # so Q and P take the identity test
            ep_p.send(to_q, label, 5).close()
            got, value, ep_q = ep_q.receive(from_p)
            assert (got, value) == (m, 5)
            ep_q.close()
    sess = open_session(g, AsyncBuffered(1))
    for other in (Role("r"), "r"):
        _raises_kind(lambda: sess.endpoints[P].send(other, m, 5), ErrorKind.WRONG_PEER)
        _raises_kind(lambda: sess.endpoints[Q].receive(other), ErrorKind.WRONG_PEER)


def test_sibling_stage_exclusivity():
    sess = open_session(g_auth(), AsyncBuffered(2))

    def client():
        ep = sess.endpoints[C]
        ep = ep.send(S, "auth", "tok")
        label, _, ep = ep.receive(S)
        ep.close()

    def server():
        ep = sess.endpoints[S]
        _, _, ep = ep.receive(C)
        ep.send(C, "ok", "fine")
        with pytest.raises(SessionRuntimeError) as e:
            ep.send(C, "cancel", "no")  # sibling label of the same stage
        assert e.value.kind is ErrorKind.INVALID_ENDPOINT

    run_threads(client, server)


def test_recursive_protocol_runs_iterations():
    sess = open_session(calc(), AsyncBuffered(1), monitored=True)

    def client():
        ep = sess.endpoints[C]
        for _ in range(3):
            ep = ep.send(S, "loop", None)
        ep = ep.send(S, "stop", None)
        label, _, ep = ep.receive(S)
        assert label.name == "bye"
        ep.close()

    def server():
        ep = sess.endpoints[S]
        while True:
            label, _, ep = ep.receive(C)
            if label.name == "stop":
                ep = ep.send(C, "bye", None)
                ep.close()
                return

    run_threads(client, server)
    ok, why = sess.monitor.verdict()
    assert ok, why


def test_delegation_roundtrip():
    bye = Label("bye", UNIT)
    inner_g = comm(P, Q, bye, end_())
    handoff = comm(
        Role("owner"), Role("taker"), Label("hand", SessionSort(project(inner_g, Q))), end_()
    )
    inner = open_session(inner_g, SyncRendezvous())
    outer = open_session(handoff, SyncRendezvous())
    owner, taker = Role("owner"), Role("taker")

    def deleg():
        ep = outer.endpoints[owner].send(taker, "hand", inner.endpoints[Q])
        ep.close()

    def take():
        label, live, ep = outer.endpoints[taker].receive(owner)
        ep.close()
        lbl, _, live2 = live.receive(P)
        assert lbl.name == "bye"
        live2.close()

    def inner_p():
        inner.endpoints[P].send(Q, "bye", None).close()

    run_threads(deleg, take, inner_p)


def test_warm_delegation_re_types_nothing(monkeypatch):
    from mpst import chanvec

    bye = Label("bye", UNIT)
    inner_g = comm(P, Q, bye, end_())
    handoff = comm(
        Role("owner"), Role("taker"), Label("hand", SessionSort(project(inner_g, Q))), end_()
    )
    inner = open_session(inner_g, AsyncBuffered(1))
    outer = open_session(handoff, AsyncBuffered(1))

    def retyped(*args):
        raise AssertionError("a delegation re-typed its endpoint")

    monkeypatch.setattr(chanvec, "typecheck_cv", retyped)
    owner, taker = Role("owner"), Role("taker")
    delegated = inner.endpoints[Q]
    outer.endpoints[owner].send(taker, "hand", delegated).close()
    _, live, ep = outer.endpoints[taker].receive(owner)
    ep.close()
    assert live.stage is delegated.stage
    inner.endpoints[P].send(Q, "bye", None).close()
    label, _, live = live.receive(P)
    assert label.name == "bye"
    live.close()


def test_delegation_subtype_enforced():
    wrong = comm(P, Q, Label("other", UNIT), end_())
    expected = comm(P, Q, Label("bye", UNIT), end_())
    handoff = comm(
        Role("owner"), Role("taker"), Label("hand", SessionSort(project(expected, Q))), end_()
    )
    inner = open_session(wrong, SyncRendezvous())
    outer = open_session(handoff, SyncRendezvous())
    with pytest.raises(SessionRuntimeError) as e:
        outer.endpoints[Role("owner")].send(Role("taker"), "hand", inner.endpoints[Q])
    assert e.value.kind is ErrorKind.PAYLOAD_SORT_MISMATCH


def test_delegating_consumed_endpoint_is_invalid():
    bye = Label("bye", UNIT)
    inner_g = comm(Q, P, bye, end_())
    handoff = comm(
        Role("owner"), Role("taker"), Label("hand", SessionSort(project(inner_g, Q))), end_()
    )
    inner = open_session(inner_g, AsyncBuffered(1))
    outer = open_session(handoff, SyncRendezvous())
    consumed = inner.endpoints[Q].send(P, "bye", None)  # old handle is dead
    with pytest.raises(SessionRuntimeError) as e:
        outer.endpoints[Role("owner")].send(Role("taker"), "hand", inner.endpoints[Q])
    assert e.value.kind is ErrorKind.INVALID_ENDPOINT
    del consumed


def test_delegation_unsupported_on_framed():
    bye = Label("bye", UNIT)
    inner_g = comm(P, Q, bye, end_())
    handoff = comm(
        Role("owner"), Role("taker"), Label("hand", SessionSort(project(inner_g, Q))), end_()
    )
    inner = open_session(inner_g, SyncRendezvous())
    outer = open_session(handoff, FramedSocket())
    try:
        with pytest.raises(SessionRuntimeError) as e:
            outer.endpoints[Role("owner")].send(Role("taker"), "hand", inner.endpoints[Q])
        assert e.value.kind is ErrorKind.DELEGATION_UNSUPPORTED
    finally:
        outer.close_transport()


def test_reuse_after_delegation_is_invalid():
    bye = Label("bye", UNIT)
    inner_g = comm(Q, P, bye, end_())
    handoff = comm(
        Role("owner"), Role("taker"), Label("hand", SessionSort(project(inner_g, Q))), end_()
    )
    inner = open_session(inner_g, AsyncBuffered(1))
    outer = open_session(handoff, AsyncBuffered(1))
    owner, taker = Role("owner"), Role("taker")
    delegated = inner.endpoints[Q]
    outer.endpoints[owner].send(taker, "hand", delegated)
    with pytest.raises(SessionRuntimeError) as e:
        delegated.send(P, "bye", None)  # the sender's old handle is dead
    assert e.value.kind is ErrorKind.INVALID_ENDPOINT


def test_a_delegated_endpoint_keeps_its_own_role_and_monitor():
    """As in a chameleons pairing, a broker delegates one endpoint of a
    monitored p2p session through a monitored assignment session.  The
    carried endpoint is refused under its own role, and its events go to its
    own session's monitor under that role."""
    from mpst.bench import BROKER, BYE, CHAT, L, PEER_ROLE, R, assignment_protocol, p2p_protocol

    assign = open_session(assignment_protocol(), AsyncBuffered(1), monitored=True, timeout=1.0)
    p2p = open_session(p2p_protocol(), AsyncBuffered(1), monitored=True, timeout=1.0)
    assign.endpoints[BROKER].send(PEER_ROLE, "left", p2p.endpoints[L]).close()
    label, carried, ep = assign.endpoints[PEER_ROLE].receive(BROKER)
    ep.close()
    assert label.name == "left" and carried.seat is p2p.endpoints[R].seat
    assert carried.state is p2p.endpoints[L].state and carried.state.role == L
    with pytest.raises(SessionRuntimeError) as e:
        carried.receive(R)
    assert (e.value.kind, e.value.detail) == (
        ErrorKind.WRONG_PEER, "left tried to receive but the protocol expects a send here")
    left = carried.send(R, CHAT, 7)
    with pytest.raises(SessionRuntimeError) as e:
        carried.send(R, CHAT, 8)
    assert (e.value.kind, e.value.detail) == (ErrorKind.INVALID_ENDPOINT, "endpoint of left was already used")
    assert p2p.monitor.events == [runtime.TraceEvent(0, EventKind.SEND, L, R, CHAT)]
    assert [ev.signature() for ev in assign.monitor.events] == [
        ("broker", "send", "peer", "left"), ("broker", "close", "", ""),
        ("peer", "receive", "broker", "left"), ("peer", "close", "", ""),
    ]
    _, got, right = p2p.endpoints[R].receive(L)
    right.send(L, BYE, None).close()
    left.receive(R)[2].close()
    assert got == 7
    assert p2p.monitor.verdict() == assign.monitor.verdict() == (True, "conformant")


def test_framed_transport_full_protocol():
    sess = open_session(g_auth(), FramedSocket(), monitored=True)
    try:
        def client():
            ep = sess.endpoints[C]
            ep = ep.send(S, "auth", "tok")
            label, _, ep = ep.receive(S)
            assert label.name in ("ok", "cancel")
            ep.close()

        def server():
            ep = sess.endpoints[S]
            _, _, ep = ep.receive(C)
            ep = ep.send(C, "ok", "fine")
            ep.close()

        run_threads(client, server)
        ok, why = sess.monitor.verdict()
        assert ok, why
    finally:
        sess.close_transport()


def test_framed_send_times_out_with_the_session_timeout():
    from mpst.protocol import STRING

    sess = open_session(comm(P, Q, Label("m", STRING), end_()), FramedSocket(), timeout=0.2)
    errors = []

    def send():  # nobody receives, so the frame outgrows the socket buffers
        try:
            sess.endpoints[P].send(Q, "m", "x" * (15 << 20))
        except SessionRuntimeError as e:
            errors.append(e.kind)

    t = threading.Thread(target=send, daemon=True)
    try:
        t.start()
        t.join(5)
        assert not t.is_alive(), "the framed send outlived the session timeout"
        assert errors == [ErrorKind.TIMEOUT]
    finally:
        sess.close_transport()


def test_monitor_event_signatures():
    sess = open_session(comm(P, Q, Label("m"), end_()), SyncRendezvous(), monitored=True)

    def p():
        sess.endpoints[P].send(Q, "m", None).close()

    def q():
        _, _, ep = sess.endpoints[Q].receive(P)
        ep.close()

    run_threads(p, q)
    sigs = {e.signature() for e in sess.monitor.events}
    assert ("p", "send", "q", "m") in sigs
    assert ("q", "receive", "p", "m") in sigs
    assert ("p", "close", "", "") in sigs
    assert {e.kind for e in sess.monitor.events} == {
        EventKind.SEND,
        EventKind.RECEIVE,
        EventKind.CLOSE,
    }


def test_monitor_records_concurrently_in_seq_order():
    import sys

    from mpst.runtime import SessionMonitor

    monitor = SessionMonitor({})
    roles = [Role(f"r{i}") for i in range(6)]
    label = Label("m")

    def recorder(role):
        def run():
            for _ in range(2000):
                monitor.record(EventKind.SEND, role, P, label)

        return run

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=recorder(r), daemon=True) for r in roles]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    seqs = [e.seq for e in monitor.events]
    assert seqs == list(range(len(roles) * 2000))


def _count_compiles(monkeypatch) -> list:
    from mpst import chanvec

    calls = []
    eval_global = chanvec.eval_global

    def counted(*args):
        calls.append(args)
        return eval_global(*args)

    monkeypatch.setattr(chanvec, "eval_global", counted)
    return calls


def test_sessions_of_one_compiled_protocol_stay_separate(monkeypatch):
    compiles = _count_compiles(monkeypatch)
    ping, pong = Label("ping", INT), Label("pong", INT)
    g = comm(P, Q, ping, comm(Q, P, pong, end_()))
    one = open_session(g, AsyncBuffered(1), monitored=True, timeout=1.0)
    two = open_session(g, AsyncBuffered(1), monitored=True, timeout=1.0)
    assert len(compiles) == 1
    # interleaved in one thread: a shared channel would hand 1 to session two
    p1 = one.endpoints[P].send(Q, ping, 1)
    p2 = two.endpoints[P].send(Q, ping, 2)
    _, got2, q2 = two.endpoints[Q].receive(P)
    _, got1, q1 = one.endpoints[Q].receive(P)
    q2 = q2.send(P, pong, 20)
    q1 = q1.send(P, pong, 10)
    _, back1, p1 = p1.receive(Q)
    _, back2, p2 = p2.receive(Q)
    assert (got1, got2, back1, back2) == (1, 2, 10, 20)
    for ep in (p1, q1, p2, q2):
        ep.close()
    for sess in (one, two):
        assert sess.monitor.verdict() == (True, "conformant")
        assert len(sess.monitor.events) == 6


def test_each_role_order_gets_its_own_compiled_form(monkeypatch):
    compiles = _count_compiles(monkeypatch)
    m = Label("m", INT)
    g = comm(P, Q, m, end_())
    open_session(g, AsyncBuffered(1))
    open_session(g, AsyncBuffered(1))
    assert len(compiles) == 1
    swapped = open_session(g, AsyncBuffered(1), roles=(Q, P), monitored=True, timeout=1.0)
    assert len(compiles) == 2
    assert swapped.roles == (Q, P)
    assert swapped.local_types == {P: project(g, P), Q: project(g, Q)}
    swapped.endpoints[P].send(Q, m, 7).close()
    _, got, ep = swapped.endpoints[Q].receive(P)
    ep.close()
    assert got == 7 and swapped.monitor.verdict() == (True, "conformant")
    open_session(g, AsyncBuffered(1), roles=(Q, P))
    assert len(compiles) == 2


def _assert_self_consistent(compiled) -> None:
    """Each state is its table's role's, its link names that role and its
    peer in the direction of its event, and the links are exactly the pairs
    the states name, numbered in the order the tables first name them."""
    named = []
    for r, table in compiled.tables.items():
        assert compiled.starts[r] is table[0]
        for state in table:
            assert state.role == r
            if state.kind is EventKind.CLOSE:
                assert state.link == -1
                continue
            pair = (r, state.peer) if state.kind is EventKind.SEND else (state.peer, r)
            assert compiled.pairs[state.link] == pair
            if pair not in named:
                named.append(pair)
    assert compiled.pairs == tuple(named)


def test_racing_first_opens_each_build_a_self_consistent_template(monkeypatch):
    """The compile cache's race, forced: eight first opens of one protocol
    meet at a barrier inside ``_compile``, so each misses the cache and
    compiles.  Every open works, every template is self-consistent, and the
    cache keeps one of them."""
    compile_ = runtime._compile
    built = []
    x, y = Label("x", INT), Label("y", INT)
    three = comm(Q, R, x, comm(P, Q, y, comm(R, P, x, end_())))
    for g in (comm(P, Q, x, comm(Q, P, y, end_())), comm(Q, P, x, comm(P, Q, y, end_())), three):
        meet = threading.Barrier(8)
        built.clear()

        def racing(g, roles):
            meet.wait(10)  # every racer has missed the cache before any stores
            compiled = compile_(g, roles)
            built.append(compiled)
            return compiled

        monkeypatch.setattr(runtime, "_compile", racing)
        verdicts = []

        def open_and_run():
            sess = open_session(g, AsyncBuffered(1), monitored=True, timeout=1.0)
            eps = dict(sess.endpoints)
            while ready := [r for r, ep in eps.items()  # a sender whose peer waits for it
                            if ep.state.kind is EventKind.SEND and eps[ep.state.peer].state.peer == r]:
                ep = eps[ready[0]]
                (name,) = ep.state.steps
                sent = ep.send(ep.state.peer, name, 1)
                _, got, eps[ep.state.peer] = eps[ep.state.peer].receive(ready[0])
                eps[ready[0]] = sent
                assert got == 1
            for ep in eps.values():
                ep.close()
            verdicts.append(sess.monitor.verdict())

        run_threads(*[open_and_run] * 8)
        monkeypatch.setattr(runtime, "_compile", compile_)
        assert verdicts == [(True, "conformant")] * 8
        assert len(built) == 8
        for compiled in built:
            _assert_self_consistent(compiled)
        assert any(g._compiled[None] is compiled for compiled in built)


def test_links_are_numbered_by_sender_and_receiver():
    """Each compiled link is one directed role pair that carries messages,
    and every state's link is its own (sender, receiver) pair."""
    from corpus import generated_candidates, hand_written
    from mpst.chanvec import eval_global
    from mpst.errors import MpstError
    from mpst.runtime import _compiled_for

    corpus = hand_written()
    generated = 0
    for i, g in enumerate(corpus + generated_candidates(6100)):
        try:
            compiled = _compiled_for(g, None)
        except MpstError:
            continue
        generated += i >= len(corpus)
        _, table = eval_global(g, None)
        assert set(compiled.pairs) == {(n.from_role.name, n.to_role.name) for n in table.names}, repr(g)
        _assert_self_consistent(compiled)
    assert generated >= 2000


def test_no_two_states_of_a_table_have_equal_stages():
    """A state is keyed by its stage: in each role's table of the corpus that
    ``test_links_are_numbered_by_sender_and_receiver`` compiles, no two
    states hold equal stages, so both ends of the chameleons assignment
    protocol's choice meet at one End state per role."""
    from corpus import generated_candidates, hand_written
    from mpst.bench import assignment_protocol
    from mpst.errors import MpstError
    from mpst.runtime import _compiled_for

    compiled_count = 0
    for g in [assignment_protocol(), *hand_written(), *generated_candidates(6100)]:
        try:
            compiled = _compiled_for(g, None)
        except MpstError:
            continue
        compiled_count += 1
        for r, table in compiled.tables.items():
            assert len({state.stage for state in table}) == len(table), (r, repr(g))
    assert compiled_count >= 2000
    assert all(len(table) == 2 for table in _compiled_for(assignment_protocol(), None).tables.values())


def test_two_senders_to_one_receiver_use_two_links():
    r = Role("r")
    a, b = Label("a", INT), Label("b", INT)
    sess = open_session(comm(Q, r, b, comm(P, r, a, end_())), AsyncBuffered(1), monitored=True)
    sess.endpoints[P].send(r, a, 1).close()  # sent first, though r takes it second
    sess.endpoints[Q].send(r, b, 2).close()
    got_b, two, ep = sess.endpoints[r].receive(Q)
    got_a, one, ep = ep.receive(P)
    ep.close()
    assert (got_b.name, two, got_a.name, one) == ("b", 2, "a", 1)
    assert sess.monitor.verdict() == (True, "conformant")


def test_chameleons_compiles_its_two_protocols_once_for_any_pairs(monkeypatch):
    from mpst import runtime
    from mpst.bench import run_chameleons

    compiled = []
    compile_ = runtime._compile

    def counted(g, roles):
        compiled.append(g)
        return compile_(g, roles)

    monkeypatch.setattr(runtime, "_compile", counted)
    for pairs in (1, 4, 12):
        compiled.clear()
        assert len(run_chameleons(pairs, AsyncBuffered(1), monitored=True, seed=pairs)) == pairs
        assert len(compiled) == 2, pairs  # the assignment protocol and the p2p one


def test_chameleons_keeps_one_pairing_of_peer_threads_alive(monkeypatch):
    from mpst import bench

    started, most_alive = [], []
    in_thread = bench._in_thread

    def counted(fn):
        started.append(in_thread(fn))
        most_alive.append(sum(t.is_alive() for t in started))
        return started[-1]

    monkeypatch.setattr(bench, "_in_thread", counted)
    assert len(bench.run_chameleons(12, AsyncBuffered(1), monitored=True)) == 12
    assert len(started) == 24
    assert max(most_alive) <= 2
    assert not any(t.is_alive() for t in started)


def test_bench_refuses_a_framed_transport_before_it_starts_a_thread(monkeypatch):
    from mpst import bench

    started = []
    in_thread = bench._in_thread
    monkeypatch.setattr(bench, "_in_thread", lambda fn: started.append(fn) or in_thread(fn))
    for suite in (bench.bench_chameleons, bench.bench_pingpong, bench.bench_nping):
        with pytest.raises(ValueError, match="in-process transports"):
            suite(3, FramedSocket())
    assert started == []


def test_compile_failures_are_raised_on_every_open():
    from corpus import oauth4
    from mpst import rec, var_
    from mpst.errors import ProtocolTypeError

    ill_typed, unguarded = oauth4(), rec("X", var_("X"))
    for _ in range(2):
        with pytest.raises(ProtocolTypeError) as e:
            open_session(ill_typed)
        assert e.value.kind is ErrorKind.ACTIVE_ROLE_MISMATCH
        with pytest.raises(ShapeError) as e2:
            open_session(unguarded)
        assert e2.value.kind is ErrorKind.UNGUARDED_RECURSION


def test_a_pickled_protocol_leaves_its_compile_caches_behind():
    """``_front`` and ``_compiled`` are caches kept on a protocol, not part of
    it: a protocol pickles to as many bytes after an open as before, and a
    loaded or copied one holds neither cache, equals the original and opens."""
    g = oauth2()
    fresh = pickle.dumps(g)
    open_session(g, AsyncBuffered(1), monitored=True)
    assert {"_front", "_compiled"} <= set(vars(g))
    assert len(pickle.dumps(g)) == len(fresh)
    for again in (pickle.loads(pickle.dumps(g)), copy.copy(g)):
        assert not {"_front", "_compiled"} & set(vars(again))
        assert again == g
        sess = open_session(again, AsyncBuffered(1), monitored=True)
        assert set(sess.endpoints) == set(roles_of(g))


def test_local_types_are_per_session():
    g = oauth()
    first = open_session(g, SyncRendezvous())
    want = dict(first.local_types)
    first.local_types.clear()
    second = open_session(g, SyncRendezvous(), monitored=True)
    assert second.local_types == want


def test_sessions_of_one_template_share_no_mutable_state():
    """Two monitored opens of one compiled protocol share its states and
    nothing a session changes: links, seats, local types, cursors and logs
    are each session's own.  All endpoints of one session,
    at its start and later, share its one seat."""
    ping, pong = Label("ping", INT), Label("pong", INT)
    g = comm(P, Q, ping, comm(Q, P, pong, end_()))
    s1 = open_session(g, AsyncBuffered(1), monitored=True, timeout=1.0)
    s2 = open_session(g, AsyncBuffered(1), monitored=True, timeout=1.0)
    assert not {id(link) for link in s1.channels.links} & {id(link) for link in s2.channels.links}
    for r in (P, Q):
        one, two = s1.endpoints[r], s2.endpoints[r]
        assert one.seat is s1.channels and two.seat is s2.channels  # one object per session
        assert one.seat is not two.seat and one.state is two.state
        assert (one.seat.links, one.seat.monitor) == (s1.channels.links, s1.monitor)
        assert (two.seat.links, two.seat.monitor) == (s2.channels.links, s2.monitor)
    seat1, seat2 = s1.endpoints[P].seat, s2.endpoints[P].seat
    assert s1.endpoints[Q].seat is seat1 and s2.endpoints[Q].seat is seat2
    local = dict(s2.local_types)
    s1.local_types[P] = s1.local_types[Q]
    assert s2.local_types == local
    s3 = open_session(g, AsyncBuffered(1), monitored=True)
    assert s3.local_types == local  # the template is untouched
    s1.monitor.record(EventKind.SEND, Q, P, pong)  # q sends before it has received
    assert s1.monitor.violation == (0, "q", "q performed send at a Branch stage")
    assert s1.monitor._cursors["q"] is None and s1.monitor._cursors["p"] is s1.endpoints[P].state
    assert s2.monitor.events == [] and s2.monitor.violation is None
    assert s2.monitor._cursors == {"p": s2.endpoints[P].state, "q": s2.endpoints[Q].state}
    p = s2.endpoints[P].send(Q, ping, 1)
    _, got, q = s2.endpoints[Q].receive(P)
    q2 = q.send(P, pong, got + 1)
    _, back, p2 = p.receive(Q)
    assert all(ep.seat is seat2 for ep in (p, q, q2, p2))
    q2.close()
    p2.close()
    assert back == 2 and s2.monitor.verdict() == (True, "conformant")
    assert s1.monitor.verdict() == (False, "p stopped before finishing its protocol")
    assert len(s1.monitor.events) == 1 and len(s2.monitor.events) == 6


def _alike_and_own(built: list, fresh: object, slots: tuple[str, ...]) -> None:
    """Each object in ``built`` holds in every slot what ``fresh`` holds: a
    value of the same type, equal to it, or for a lock an unlocked one; and
    no lock or container is shared with ``fresh`` or with another of them."""
    lock = type(threading.Lock())
    mutable = (lock, deque, list, dict)
    seen = {id(getattr(fresh, slot)) for slot in slots if type(getattr(fresh, slot)) in mutable}
    for obj in built:
        for slot in slots:
            mine, theirs = getattr(obj, slot), getattr(fresh, slot)
            assert type(mine) is type(theirs), slot
            assert not mine.locked() if type(mine) is lock else mine == theirs, slot
            if type(mine) in mutable:
                assert id(mine) not in seen, slot
                seen.add(id(mine))


@pytest.mark.parametrize("transport", [SyncRendezvous(), AsyncBuffered(1), AsyncBuffered(4)], ids=repr)
def test_an_open_builds_its_links_and_monitor_as_their_constructors_do(transport):
    """Drift gate: an open builds each in-process link and starts its
    monitor inline, so each must match what ``Channel(capacity)`` and a
    stand-alone ``SessionMonitor`` build, slot by slot, except that the
    monitor's cursors are the template's start states.  A slot that either
    constructor gains, and the open does not set, fails here."""
    from mpst.runtime import SessionMonitor
    from mpst.transport import Channel

    g = oauth()
    opened = [open_session(g, transport, monitored=True) for _ in range(2)]
    links = [link for s in opened for link in s.channels.links]
    assert len(links) == 2 * len(g._compiled[None].pairs) > 2
    assert all(type(link) is Channel for link in links)
    _alike_and_own(links, Channel(transport.capacity), Channel.__slots__)
    fresh = SessionMonitor(opened[0].local_types)
    fresh._cursors = g._compiled[None].starts
    _alike_and_own([s.monitor for s in opened], fresh, SessionMonitor.__slots__)


def test_an_unknown_transport_is_refused_and_subclasses_keep_their_capacity():
    m = Label("m", INT)
    g = comm(P, Q, m, end_())
    with pytest.raises(SessionRuntimeError) as e:
        open_session(g, object())
    assert e.value.kind is ErrorKind.TRANSPORT_ERROR

    class Roomy(AsyncBuffered):
        pass

    class Strict(SyncRendezvous):
        pass

    sess = open_session(g, Roomy(3), timeout=1.0)
    assert [link.capacity for link in sess.channels.links] == [3]
    sess.endpoints[P].send(Q, m, 5).close()  # buffered: completes before any receive
    _, got, ep = sess.endpoints[Q].receive(P)
    ep.close()
    assert got == 5
    assert [link.capacity for link in open_session(g, Strict()).channels.links] == [0]


def test_used_reads_whether_the_handle_was_consumed():
    """``used`` is False on a fresh handle and True once a send, a receive,
    a close or a delegation has consumed it; it cannot be set."""
    inner_g = comm(P, Q, Label("bye", UNIT), end_())
    owner, taker = Role("owner"), Role("taker")
    handoff = comm(owner, taker, Label("hand", SessionSort(project(inner_g, Q))), end_())
    inner = open_session(inner_g, AsyncBuffered(1))
    outer = open_session(handoff, AsyncBuffered(1))
    sender, payload, receiver = outer.endpoints[owner], inner.endpoints[Q], outer.endpoints[taker]
    assert not (sender.used or payload.used or receiver.used)
    sent = sender.send(taker, "hand", payload)
    assert sender.used and payload.used and not sent.used  # a send, and a delegation
    _, live, received = receiver.receive(owner)
    assert receiver.used and not live.used and not received.used  # a receive
    for ep in (sent, received):
        ep.close()
        assert ep.used  # a close
    inner.endpoints[P].send(Q, "bye", None).close()
    _, _, live = live.receive(P)
    live.close()
    assert live.used
    with pytest.raises(AttributeError):
        live.used = False


def test_timed_out_send_is_not_traced():
    sess = open_session(comm(P, Q, Label("m"), end_()), SyncRendezvous(), monitored=True, timeout=0.2)
    with pytest.raises(SessionRuntimeError) as e:
        sess.endpoints[P].send(Q, "m", None)  # no receiver
    assert e.value.kind is ErrorKind.TIMEOUT
    assert sess.monitor.events == []


@pytest.mark.parametrize("capacity", [1, 2])
def test_buffer_capacity_bounds_each_role_pair(capacity):
    a, b = Label("a", INT), Label("b", INT)
    sess = open_session(comm(P, Q, a, comm(P, Q, b, end_())), AsyncBuffered(capacity))
    first = sess.endpoints[P].send(Q, a, 1)
    sent = threading.Event()

    def second():
        first.send(Q, b, 2).close()
        sent.set()

    t = threading.Thread(target=second, daemon=True)
    t.start()
    if capacity == 1:
        assert not sent.wait(0.2)  # one buffer slot for the pair: b waits until a is taken
    else:
        assert sent.wait(5)  # both labels fit before q receives
    la, x, ep = sess.endpoints[Q].receive(P)
    assert sent.wait(5)
    lb, y, ep = ep.receive(P)
    ep.close()
    t.join(5)
    assert not t.is_alive()
    assert (la.name, x, lb.name, y) == ("a", 1, "b", 2)


def _positions(t) -> int:
    """Select, Branch and End positions of a local type's syntax tree."""
    from mpst.types import DirectedChoice, EndT, RecT

    if isinstance(t, RecT):
        return _positions(t.body)
    if isinstance(t, DirectedChoice):
        return 1 + sum(_positions(c) for _, c in t.branches)
    return int(isinstance(t, EndT))


def test_endpoints_loop_through_shadowed_recursion():
    from test_projection import _shadowed_rec_protocol

    sess = open_session(_shadowed_rec_protocol("Y", stop=True), AsyncBuffered(32), monitored=True)
    path = ["l0", "l1", "l2", "l1", "l3", "l3", "l2", "l4"]
    path += ["l0", "l1", "l3", "l2", "l4", "l0", "stop"]
    p, q = sess.endpoints[P], sess.endpoints[Q]
    seen = []
    for name in path:
        p = p.send(Q, name)
        seen.append(p.state)
    p.close()
    for name in path:
        label, _, q = q.receive(P)
        assert label.name == name
    q.close()
    assert sess.monitor.verdict() == (True, "conformant")
    # each loop's head is one state, however often the loop is entered
    assert seen[0] is seen[2] is seen[6] is seen[11]  # X, after l0 and after l2
    assert seen[1] is seen[4] is seen[5] is seen[10]  # the inner loop
    assert seen[7] is not seen[0] and seen[8] is seen[0]


def test_state_table_has_one_state_per_position_at_most():
    from corpus import well_typed_corpus
    from test_projection import _shadowed_rec_protocol

    from mpst.runtime import _compiled_for

    protocols = [_shadowed_rec_protocol("Y"), _shadowed_rec_protocol("Z", stop=True)]
    protocols += list(well_typed_corpus().values())
    for g in protocols:
        compiled = _compiled_for(g, None)
        for r, t in compiled.local_types.items():
            table = compiled.tables[r]
            assert 1 <= len(table) <= _positions(t), r
            states = set(map(id, table))
            for state in table:
                assert all(id(nxt) in states for _, _, nxt in state.steps.values())


def _reachable(start) -> list:
    """Every state reachable from ``start`` along its steps."""
    seen, todo = {}, [start]
    while todo:
        state = todo.pop()
        if id(state) not in seen:
            seen[id(state)] = state
            todo.extend(nxt for _, _, nxt in state.steps.values())
    return list(seen.values())


def test_every_state_belongs_to_the_role_of_its_table():
    """A state is one role's: every state of ``tables[r]`` has role r, and
    so does every state that a stand-alone monitor's cursor for r reaches."""
    from corpus import generated_candidates, hand_written, well_typed_corpus
    from mpst.errors import MpstError
    from mpst.runtime import SessionMonitor, _compiled_for

    accepted = 0
    for g in [*hand_written(), *well_typed_corpus().values(), *generated_candidates(2000)]:
        try:
            compiled = _compiled_for(g, None)
        except MpstError:
            continue
        accepted += 1
        for r, table in compiled.tables.items():
            assert {state.role for state in table} == {r}, repr(g)
        monitor = SessionMonitor(compiled.local_types)
        for r, cursor in monitor._cursors.items():
            assert {state.role for state in _reachable(cursor)} == {r}, repr(g)
    assert accepted >= 500


def test_warm_delegation_checks_its_subtype_once(monkeypatch):
    from mpst import runtime

    calls = []
    subtype = runtime.subtype

    def counted(*args):
        calls.append(args)
        return subtype(*args)

    monkeypatch.setattr(runtime, "subtype", counted)
    inner_g = comm(P, Q, Label("bye", UNIT), end_())
    other_g = comm(P, Q, Label("other", UNIT), end_())
    owner, taker = Role("owner"), Role("taker")

    def handoff(g):
        return comm(owner, taker, Label("hand", SessionSort(project(g, Q))), end_())

    right, wrong = handoff(inner_g), handoff(other_g)
    for _ in range(20):
        inner = open_session(inner_g, AsyncBuffered(1))
        outer = open_session(right, AsyncBuffered(1))
        outer.endpoints[owner].send(taker, "hand", inner.endpoints[Q]).close()
    assert len(calls) == 1
    # the same state against another declared type: checked once, refused every time
    delegated = open_session(inner_g, AsyncBuffered(1)).endpoints[Q]
    for _ in range(5):
        with pytest.raises(SessionRuntimeError) as e:
            open_session(wrong, AsyncBuffered(1)).endpoints[owner].send(taker, "hand", delegated)
        assert e.value.kind is ErrorKind.PAYLOAD_SORT_MISMATCH
        assert not delegated.used
    assert len(calls) == 2


def test_racing_delegations_share_one_subtype_answer(monkeypatch):
    from mpst import runtime

    calls = []
    subtype = runtime.subtype

    def counted(*args):
        calls.append(args)
        return subtype(*args)

    monkeypatch.setattr(runtime, "subtype", counted)
    inner_g = comm(P, Q, Label("bye", UNIT), end_())
    handoff = comm(
        Role("owner"), Role("taker"), Label("hand", SessionSort(project(inner_g, Q))), end_()
    )
    owner, taker = Role("owner"), Role("taker")
    for g in (inner_g, handoff):  # compile before the race, so every thread shares one table
        open_session(g, AsyncBuffered(1))
    sent = []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)

    def delegate():
        for _ in range(50):
            inner = open_session(inner_g, AsyncBuffered(1))
            outer = open_session(handoff, AsyncBuffered(1))
            outer.endpoints[owner].send(taker, "hand", inner.endpoints[Q]).close()
            sent.append(1)

    try:
        run_threads(*[delegate] * 8)
    finally:
        sys.setswitchinterval(old)
    assert len(sent) == 400
    assert 1 <= len(calls) <= 8  # a thread misses the cache at most once


def test_two_first_delegations_meeting_inside_subtype_both_compute(monkeypatch):
    """Ledger row [6] of ``mpst.runtime``, forced: the second of two first
    delegations of one state and declared type starts once the first is
    inside ``subtype``, and the two meet at a barrier there.  Both missed
    the cache, so both compute and both are admitted, and the cache ends
    with the answer.  A racer that stored a placeholder before computing
    would refuse the second delegation, which would never reach the
    barrier."""
    from mpst import runtime

    subtype = runtime.subtype
    owner, taker = Role("owner"), Role("taker")
    for _ in range(20):
        inner_g = comm(P, Q, Label("bye", UNIT), end_())  # a fresh template: an empty cache
        declared = project(inner_g, Q)
        handoff = comm(owner, taker, Label("hand", SessionSort(declared)), end_())
        meet, inside, calls = threading.Barrier(2), threading.Event(), []

        def meeting(*args):
            calls.append(args)
            inside.set()
            meet.wait(2)
            return subtype(*args)

        monkeypatch.setattr(runtime, "subtype", meeting)
        inners = [open_session(inner_g, AsyncBuffered(1)) for _ in range(2)]
        outers = [open_session(handoff, AsyncBuffered(1)) for _ in range(2)]
        sent = []

        def delegate(k):
            def run():
                if k:
                    assert inside.wait(2)  # the first delegation is computing
                outers[k].endpoints[owner].send(taker, "hand", inners[k].endpoints[Q]).close()
                sent.append(k)

            return run

        run_threads(delegate(0), delegate(1))
        monkeypatch.setattr(runtime, "subtype", subtype)
        assert sorted(sent) == [0, 1] and len(calls) == 2
        state = inners[0].endpoints[Q].state
        assert state is inners[1].endpoints[Q].state and state.subtypes == {declared: True}
