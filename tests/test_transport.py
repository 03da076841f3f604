"""Channel semantics, framed links and the wire framing."""

from __future__ import annotations

import contextlib
import random
import socket
import struct
import sys
import threading
import time

import pytest

from mpst import transport
from mpst.errors import ErrorKind, SessionRuntimeError
from mpst.transport import Channel, encode_frame, read_frame


def test_rendezvous_send_blocks_until_receive():
    ch = Channel(0)
    done = threading.Event()

    def sender():
        ch.send("v", timeout=5)
        done.set()

    t = threading.Thread(target=sender, daemon=True)
    t.start()
    time.sleep(0.05)
    assert not done.is_set()  # no receiver yet: the send is still pending
    assert ch.receive(timeout=5) == "v"
    t.join(5)
    assert done.is_set()


def test_rendezvous_receive_blocks_until_send():
    ch = Channel(0)
    got = []

    def receiver():
        got.append(ch.receive(timeout=5))

    t = threading.Thread(target=receiver, daemon=True)
    t.start()
    time.sleep(0.05)
    assert got == []
    ch.send("x", timeout=5)
    t.join(5)
    assert got == ["x"]


def test_buffered_send_does_not_block_until_full():
    ch = Channel(2)
    ch.send(1, timeout=0.5)
    ch.send(2, timeout=0.5)  # fits the buffer, returns immediately
    blocked = threading.Event()

    def third():
        ch.send(3, timeout=5)
        blocked.set()

    t = threading.Thread(target=third, daemon=True)
    t.start()
    time.sleep(0.05)
    assert not blocked.is_set()  # full: the third send waits
    assert ch.receive(timeout=1) == 1
    t.join(5)
    assert blocked.is_set()
    assert ch.receive(timeout=1) == 2
    assert ch.receive(timeout=1) == 3


@pytest.mark.parametrize("capacity", [-1, -2, "2", 1.0, None, True, False])
def test_a_buffer_capacity_that_is_not_an_int_of_at_least_0_is_refused(capacity):
    with pytest.raises(ValueError, match="capacity"):
        transport.AsyncBuffered(capacity)


def test_a_buffer_capacity_of_0_is_allowed():
    assert transport.AsyncBuffered(0).capacity == 0


def test_a_rendezvous_has_capacity_0_as_a_constant_not_a_field():
    """A rendezvous binds its links with its ``capacity`` as a buffered
    transport does; the class constant adds no field to its equality or
    ``repr``."""
    r = transport.SyncRendezvous()
    assert r.capacity == 0
    assert r == transport.SyncRendezvous() and r != transport.AsyncBuffered(0)
    assert repr(r) == "SyncRendezvous()"


def test_buffered_fifo_order():
    ch = Channel(16)
    for i in range(10):
        ch.send(i, timeout=1)
    assert [ch.receive(timeout=1) for _ in range(10)] == list(range(10))


def test_blocked_senders_take_freed_slots_in_fifo_order():
    ch = Channel(2)
    ch.send(0, timeout=1)
    ch.send(1, timeout=1)
    done = [threading.Event() for _ in range(3)]
    threads = []
    for k in range(3):
        def sender(k=k):
            ch.send(2 + k, timeout=5)
            done[k].set()

        threads.append(threading.Thread(target=sender, daemon=True))
        threads[-1].start()
        deadline = time.monotonic() + 5
        while len(ch._blocked) < 1 + k and time.monotonic() < deadline:  # queued in order
            time.sleep(0.001)
        assert list(ch._buf) == [0, 1]
        assert [b.value for b in ch._blocked] == list(range(2, 3 + k))
    assert not any(d.is_set() for d in done)
    got = []
    for k in range(3):
        got.append(ch.receive(timeout=1))
        assert done[k].wait(5)  # the sender that now fits the buffer returns
        assert not any(d.is_set() for d in done[k + 1:])  # the ones behind it wait
    got += [ch.receive(timeout=1) for _ in range(2)]
    assert got == [0, 1, 2, 3, 4]
    for t in threads:
        t.join(5)
        assert not t.is_alive()


def test_send_into_a_buffer_with_room_builds_no_wake_lock():
    ch = Channel(2)
    ch.send(0, timeout=1)
    ch.send(1, timeout=1)
    assert list(ch._buf) == [0, 1] and not ch._blocked  # plain values, no record
    done = threading.Event()

    def third():
        ch.send(2, timeout=5)
        done.set()

    t = threading.Thread(target=third, daemon=True)
    t.start()
    deadline = time.monotonic() + 5
    while not ch._blocked and time.monotonic() < deadline:
        time.sleep(0.001)
    blocked = ch._blocked[0]
    assert blocked.wake.locked()  # the full buffer blocks it
    assert not done.is_set()
    assert ch.receive(timeout=1) == 0  # frees a slot: the blocked send is accepted
    assert done.wait(5)
    t.join(5)
    assert not t.is_alive()
    assert blocked.done and not ch._blocked
    assert [ch.receive(timeout=1) for _ in range(2)] == [1, 2]


@pytest.mark.parametrize("call", [
    lambda: Channel(0).send("v", timeout=0),
    lambda: Channel(0).send("v", timeout=-1),
    lambda: Channel(0).send("v", timeout=-0.5),
    lambda: Channel(1).receive(timeout=0),
    lambda: Channel(1).receive(timeout=-1),
], ids=["send-0", "send-neg1", "send-neg", "receive-0", "receive-neg1"])
def test_non_positive_timeout_times_out_at_once(call):
    outcome = []

    def run():
        try:
            call()
            outcome.append("returned")
        except SessionRuntimeError as e:
            outcome.append(e.kind)
        except Exception as e:  # e.g. ValueError from a lock given a negative timeout
            outcome.append(e)

    t = threading.Thread(target=run, daemon=True)
    start = time.monotonic()
    t.start()
    t.join(5)
    assert not t.is_alive(), "a non-positive timeout blocked"
    assert outcome == [ErrorKind.TIMEOUT]
    assert time.monotonic() - start < 1


def _timeout_race(chans, receive, rounds=600):
    """One sender thread per channel and one receiver race with short
    timeouts.  Returns (values whose send returned, values whose send timed
    out, values received, unexpected exceptions on any thread)."""
    rng = random.Random(7)
    timeouts = [0, 0.0001, 0.0003, 0.001, 0.002]
    sent, timed_out, got, errors = [], [], [], []
    senders_done = threading.Event()

    def sender(k, ch):
        for i in range(rounds):
            try:
                ch.send((k, i), timeout=rng.choice(timeouts))
                sent.append((k, i))
            except SessionRuntimeError as e:
                if e.kind is not ErrorKind.TIMEOUT:
                    errors.append(e)
                timed_out.append((k, i))
            except Exception as e:
                errors.append(e)

    def receiver():
        while True:
            finished = senders_done.is_set()  # read before the receive that may drain the rest
            try:
                got.append(receive(0.05 if finished else rng.choice(timeouts)))
            except SessionRuntimeError as e:
                if e.kind is not ErrorKind.TIMEOUT:
                    errors.append(e)
                elif finished:
                    return
            except Exception as e:
                errors.append(e)
                return

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        senders = [threading.Thread(target=sender, args=(k, ch), daemon=True)
                   for k, ch in enumerate(chans)]
        recv = threading.Thread(target=receiver, daemon=True)
        for t in senders + [recv]:
            t.start()
        for t in senders:
            t.join(60)
            assert not t.is_alive()
        senders_done.set()
        recv.join(60)
        assert not recv.is_alive()
    finally:
        sys.setswitchinterval(old)
    return sent, timed_out, got, errors


@pytest.mark.parametrize("case", ["rendezvous", "buffered-blocked-sender"])
def test_handoff_is_exactly_once_under_timeouts(case):
    if case == "rendezvous":
        ch = Channel(0)
        chans = [ch]
    else:
        ch = Channel(1)
        chans = [ch, ch]  # the second sender blocks on the full buffer
    sent, timed_out, got, errors = _timeout_race(chans, ch.receive)
    assert errors == []  # no release of an unlocked lock, on any thread
    assert sorted(got) == sorted(sent)  # every completed send is received exactly once
    assert not set(got) & set(timed_out)  # no timed-out send is ever received
    assert sent and timed_out  # both outcomes were exercised


@pytest.mark.parametrize("case", ["rendezvous-send", "promoted-send", "receive"])
def test_wait_that_times_out_after_being_served_completes(monkeypatch, case):
    # The other side acts just as this side's wait times out: the re-check
    # under the channel lock sees that it was served.
    ch = Channel(1 if case == "promoted-send" else 0)
    if case == "promoted-send":
        ch.send("first", timeout=1)  # fills the buffer, so "v" blocks
    got = []

    def served_as_the_timeout_fires(wake, timeout):
        if case == "receive":
            ch.send("v", timeout=1)
        else:
            got.append(ch.receive(timeout=1))
        return False

    monkeypatch.setattr(transport, "_wait", served_as_the_timeout_fires)
    if case == "receive":
        got.append(ch.receive(timeout=1))
    else:
        ch.send("v", timeout=1)  # no Timeout: the value was taken or accepted
    monkeypatch.undo()
    if case == "promoted-send":
        got.append(ch.receive(timeout=1))
    assert got == (["first", "v"] if case == "promoted-send" else ["v"])
    assert not ch._buf and not ch._blocked and ch._receiver is None


def test_send_timeout_is_timeout_kind():
    ch = Channel(0)
    with pytest.raises(SessionRuntimeError) as e:
        ch.send("v", timeout=0.05)
    assert e.value.kind is ErrorKind.TIMEOUT


def test_receive_timeout_is_timeout_kind():
    ch = Channel(0)
    with pytest.raises(SessionRuntimeError) as e:
        ch.receive(timeout=0.05)
    assert e.value.kind is ErrorKind.TIMEOUT


def test_second_concurrent_receive_is_refused():
    ch = Channel(0)
    got = []
    first = threading.Thread(target=lambda: got.append(ch.receive(timeout=5)), daemon=True)
    first.start()
    deadline = time.monotonic() + 5
    while ch._receiver is None and time.monotonic() < deadline:
        time.sleep(0.001)
    with pytest.raises(SessionRuntimeError) as e:
        ch.receive(timeout=5)
    assert e.value.kind is ErrorKind.TRANSPORT_ERROR
    ch.send("v", timeout=1)  # the pending receive still gets it
    first.join(5)
    assert got == ["v"]


def test_receive_that_times_out_frees_the_receiver_slot():
    ch = Channel(0)
    with pytest.raises(SessionRuntimeError) as e:
        ch.receive(timeout=0.01)
    assert e.value.kind is ErrorKind.TIMEOUT
    assert ch._receiver is None
    sender = threading.Thread(target=lambda: ch.send("v", timeout=5), daemon=True)
    sender.start()
    assert ch.receive(timeout=5) == "v"
    sender.join(5)


def test_frame_encoding_is_bit_exact():
    ch = {"from": "a", "to": "b", "label": "ping", "idx": 0}
    frame = encode_frame(ch, 7)
    body = b'{"ch": {"from": "a", "idx": 0, "label": "ping", "to": "b"}, "payload": 7}'
    assert frame == struct.pack(">I", len(body)) + body


def test_frame_roundtrip_over_socketpair():
    left, right = socket.socketpair()
    try:
        ch = {"from": "p", "to": "q", "label": "m", "idx": 3}
        left.sendall(encode_frame(ch, "payload"))
        got_ch, got_payload = read_frame(right, bytearray())
        assert got_ch == ch and got_payload == "payload"
    finally:
        left.close()
        right.close()


def test_oversized_frame_is_refused_before_it_is_written(monkeypatch):
    monkeypatch.setattr(transport, "_MAX_FRAME", 64)
    left, right = socket.socketpair()
    link = transport.FramedLink(left, right)
    try:
        with pytest.raises(SessionRuntimeError) as e:
            link.send(("m", "x" * 100))
        assert e.value.kind is ErrorKind.TRANSPORT_ERROR
        link.send(("m", 1))
        assert link.receive(timeout=1) == ("m", 1)  # the stream is still in step
    finally:
        link.close()


@pytest.mark.parametrize("case", ["closed", "full"])
def test_framed_send_failure_has_an_error_kind(case):
    left, right = socket.socketpair()
    link = transport.FramedLink(left, right)
    if case == "closed":
        left.close()
        message, kind = ("m", 1), ErrorKind.TRANSPORT_ERROR
    else:  # nobody reads, so a frame larger than the socket buffers blocks
        message, kind = ("m", "x" * (4 << 20)), ErrorKind.TIMEOUT
    try:
        with pytest.raises(SessionRuntimeError) as e:
            link.send(message, timeout=0.05)
        assert e.value.kind is kind
    finally:
        link.close()


def test_frame_rejects_short_stream():
    left, right = socket.socketpair()
    try:
        left.sendall(struct.pack(">I", 100) + b"short")
        left.close()
        with pytest.raises(SessionRuntimeError) as e:
            read_frame(right, bytearray())
        assert e.value.kind is ErrorKind.TRANSPORT_ERROR
    finally:
        right.close()


def test_frame_with_an_oversized_header_is_refused_before_its_body():
    left, right = socket.socketpair()
    try:
        left.sendall(struct.pack(">I", transport._MAX_FRAME + 1) + b"body")
        with pytest.raises(SessionRuntimeError) as e:
            read_frame(right, bytearray())
        assert e.value.kind is ErrorKind.TRANSPORT_ERROR and "oversized frame" in e.value.detail
        right.settimeout(1)
        assert right.recv(16) == b"body"  # the reader stopped at the header
    finally:
        left.close()
        right.close()


@pytest.mark.parametrize("body", [
    b"\xff\xfe",  # not UTF-8
    b"not json",
    b"[" * 100_000 + b"]" * 100_000,  # JSON nested past the decoder's recursion limit
    b'["m", 1]',  # JSON, not an object
    b'{"ch": "m"}',  # a missing key
    b'{"ch": "m", "payload": 1, "more": 2}',  # an extra key
    b'{"ch": ["m"], "payload": 1}',  # a header that is not a label name
], ids=["utf8", "json", "deep", "list", "missing", "extra", "header"])
def test_a_frame_that_does_not_decode_is_refused_and_consumed(body):
    left, right = socket.socketpair()
    link = transport.FramedLink(left, right)
    try:
        left.sendall(struct.pack(">I", len(body)) + body + encode_frame("m", 1))
        with pytest.raises(SessionRuntimeError) as e:
            link.receive(timeout=1)
        assert e.value.kind is ErrorKind.TRANSPORT_ERROR
        assert link.receive(timeout=1) == ("m", 1)  # the stream is still in step
    finally:
        link.close()


def test_framed_send_that_times_out_breaks_its_direction_only():
    left, right = socket.socketpair()
    link, back = transport.FramedLink(left, right), transport.FramedLink(right, left)
    try:
        with pytest.raises(SessionRuntimeError) as e:  # nobody reads: the frame stops part-way
            link.send(("m", "x" * (4 << 20)), timeout=0.05)
        assert e.value.kind is ErrorKind.TIMEOUT
        start = time.monotonic()
        with pytest.raises(SessionRuntimeError) as e:
            link.receive(timeout=1)
        assert e.value.kind is ErrorKind.TRANSPORT_ERROR
        assert time.monotonic() - start < 0.5  # a broken link, not a wait for the rest of the frame
        with pytest.raises(SessionRuntimeError) as e:
            link.send(("m", 1), timeout=1)
        assert e.value.kind is ErrorKind.TRANSPORT_ERROR
        back.send(("m", 2), timeout=1)
        assert back.receive(timeout=1) == ("m", 2)
    finally:
        link.close()


def test_connect_pairs_refuses_a_connection_it_did_not_make(monkeypatch):
    strangers = []
    connect = socket.create_connection

    def stranger_first(addr, *args, **kwargs):
        strangers.append(connect(addr))  # queued at the listener before the real one
        return connect(addr, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", stranger_first)
    try:
        with pytest.raises(SessionRuntimeError) as e:
            transport.connect_pairs("127.0.0.1", [("a", "b"), ("b", "a")])
        assert e.value.kind is ErrorKind.TRANSPORT_ERROR
    finally:
        for s in strangers:
            s.close()


def test_connect_pairs_closes_its_sockets_when_it_refuses(monkeypatch):
    strangers, made = [], []
    connect, accept = socket.create_connection, socket.socket.accept

    def stranger_first(addr, *args, **kwargs):
        strangers.append(connect(addr))
        made.append(connect(addr, *args, **kwargs))
        return made[-1]

    def recorded_accept(listener):
        conn, peer = accept(listener)
        made.append(conn)
        return conn, peer

    monkeypatch.setattr(socket, "create_connection", stranger_first)
    monkeypatch.setattr(socket.socket, "accept", recorded_accept)
    try:
        with pytest.raises(SessionRuntimeError) as e:
            transport.connect_pairs("127.0.0.1", [("a", "b"), ("b", "a")])
        assert e.value.kind is ErrorKind.TRANSPORT_ERROR
        assert len(made) == 2  # the pair's connected end and the stray's accepted end
        assert [s.fileno() for s in made] == [-1, -1]
    finally:
        for s in strangers + made:
            s.close()


def test_framed_receive_that_times_out_mid_frame_resumes_it():
    left, right = socket.socketpair()
    link = transport.FramedLink(left, right)
    try:
        first, second = encode_frame("m", "x" * 70), encode_frame("n", 2)
        assert len(first) == 100
        left.sendall(first[:10])
        with pytest.raises(SessionRuntimeError) as e:
            link.receive(timeout=0.05)
        assert e.value.kind is ErrorKind.TIMEOUT
        left.sendall(first[10:] + second)
        assert link.receive(timeout=0.5) == ("m", "x" * 70)
        assert link.receive(timeout=0.5) == ("n", 2)
    finally:
        link.close()


def test_two_receives_meeting_inside_fill_each_take_one_whole_frame(monkeypatch):
    """Ledger row [10] of ``mpst.runtime``, forced: a second receive on a
    link is started once the first waits at a barrier inside
    ``transport._fill``, where a receive reads into the link's ``partial``.
    The link's ``read_lock`` holds the second off, so the first waits out
    the barrier's window and takes the first frame whole, and the second
    then takes the second.  Without the lock the two would meet there and
    read one stream into one buffer: both would parse the first frame's
    header, and the frames are of different lengths, so neither reads both."""
    left, right = socket.socketpair()
    link = transport.FramedLink(left, right)
    meet = threading.Barrier(2, timeout=0.1)
    fill = transport._fill

    def fill_after_meeting(sock, buf, n):
        with contextlib.suppress(threading.BrokenBarrierError):  # broken: the window passed
            meet.wait()
        fill(sock, buf, n)

    got = {}

    def receive(i):
        try:
            got[i] = link.receive(timeout=1)
        except Exception as e:  # a frame read in pieces may not parse
            got[i] = e

    monkeypatch.setattr(transport, "_fill", fill_after_meeting)
    try:
        link.send(("m", 1), timeout=1)
        link.send(("n", "x" * 40), timeout=1)
        first = threading.Thread(target=receive, args=(0,), daemon=True)
        first.start()
        while meet.n_waiting == 0 and first.is_alive():  # the first holds the lock inside _fill
            time.sleep(0.001)
        second = threading.Thread(target=receive, args=(1,), daemon=True)
        second.start()
        for t in (first, second):
            t.join(5)
            assert not t.is_alive()
    finally:
        link.close()
    assert got == {0: ("m", 1), 1: ("n", "x" * 40)}
