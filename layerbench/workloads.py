"""The four benchmark workloads, each a closed loop driven from one process.

Every workload calls the library through its public modules at call time
(``runtime.open_session``, ``types.type_global``, ...), so the tracer in
``tracer.py`` can wrap a function where its caller looks it up.  Inputs are
derived from the seed only; the library itself sees just the generated
protocols and payloads.

A workload offers:

- ``setup()``: input generation plus any up-front compile and open;
- ``available()``: how many items can run before untimed work is needed;
- ``item()``: one timed item, returning False when its output is wrong;
- ``refill()``: untimed work between blocks (output checks, new inputs);
- ``finish()``: untimed teardown and final checks, returning the number of
  items found wrong after the fact;
- ``bare_item()`` where the paper defines a bare-channel baseline.
"""

from __future__ import annotations

import random
import threading
import zlib

from mpst import chanvec, protocol, runtime, types
from mpst.errors import MpstError
from mpst.gen import ProtocolGenerator
from mpst.protocol import INT, UNIT, Label, Role, SessionSort
from mpst.transport import AsyncBuffered, Channel, SyncRendezvous

FOREVER = 1 << 62
# Long enough that a blocked role never times out between blocks.
TIMEOUT = 120.0

A, B = Role("a"), Role("b")
PING, PONG = Label("ping", INT), Label("pong", INT)
MORE, STOP = Label("more", UNIT), Label("stop", UNIT)

LEFT, RIGHT = Role("left"), Role("right")
PEER, BROKER = Role("peer"), Role("broker")
CHAT, BYE = Label("chat", INT), Label("bye", UNIT)


def pingpong_protocol():
    """The paper's ping-pong: rec X. choice at a {more.ping.pong.X, stop.end}."""
    return protocol.rec(
        "X",
        protocol.choice_at(
            A,
            [
                protocol.comm(A, B, MORE, protocol.comm(A, B, PING, protocol.comm(B, A, PONG, protocol.var_("X")))),
                protocol.comm(A, B, STOP, protocol.end_()),
            ],
        ),
    )


def p2p_protocol():
    return protocol.comm(LEFT, RIGHT, CHAT, protocol.comm(RIGHT, LEFT, BYE, protocol.end_()))


def assignment_protocol():
    """The broker tells one peer which side of a fresh p2p session it plays."""
    g = p2p_protocol()
    return protocol.choice_at(
        BROKER,
        [
            protocol.comm(BROKER, PEER, Label("left", SessionSort(types.project(g, LEFT))), protocol.end_()),
            protocol.comm(BROKER, PEER, Label("right", SessionSort(types.project(g, RIGHT))), protocol.end_()),
        ],
    )


def _values(seed: int, n: int = 4096) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1 << 30) for _ in range(n)]


class Workload:
    name = ""
    single_thread = True
    has_bare = False

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def available(self) -> int:
        return FOREVER

    def refill(self) -> int:
        return 0

    def finish(self) -> int:
        return 0


class PingPong(Workload):
    """One long unmonitored session on AsyncBuffered(1); one thread plays both
    roles alternately.  An item is one round: 3 messages, 6 endpoint ops."""

    name = "pingpong"
    has_bare = True

    def setup(self) -> None:
        self.values = _values(self.seed)
        self.k = 0
        self.session = runtime.open_session(pingpong_protocol(), AsyncBuffered(1), timeout=TIMEOUT)
        self.a = self.session.endpoints[A]
        self.b = self.session.endpoints[B]
        self.ctrl, self.ab, self.ba = Channel(1), Channel(1), Channel(1)

    def item(self) -> bool:
        v = self.values[self.k & 4095]
        self.k += 1
        a = self.a.send(B, MORE)
        _, _, b = self.b.receive(A)
        a = a.send(B, PING, v)
        _, w, b = b.receive(A)
        self.b = b.send(A, PONG, w)
        _, echo, self.a = a.receive(B)
        return echo == v

    def bare_item(self) -> bool:
        v = self.values[self.k & 4095]
        self.k += 1
        self.ctrl.send("more")
        self.ctrl.receive()
        self.ab.send(v)
        self.ba.send(self.ab.receive())
        return self.ba.receive() == v

    def finish(self) -> int:
        try:
            a = self.a.send(B, STOP)
            label, _, b = self.b.receive(A)
            a.close()
            b.close()
        except MpstError:
            return 1
        return 0 if label.name == "stop" else 1


class PingPongThreaded(Workload):
    """The same protocol on SyncRendezvous(), role b in its own thread.  An
    item is one round, timed in role a's thread."""

    name = "pingpong-threaded"
    single_thread = False
    has_bare = True

    def setup(self) -> None:
        self.values = _values(self.seed)
        self.k = 0
        self.session = runtime.open_session(pingpong_protocol(), SyncRendezvous(), timeout=TIMEOUT)
        self.a = self.session.endpoints[A]
        self.errors: list[BaseException] = []
        self.peer = threading.Thread(target=self._role_b, daemon=True)
        self.peer.start()
        self.ctrl, self.ab, self.ba = Channel(0), Channel(0), Channel(0)
        self.bare_peer = threading.Thread(target=self._bare_b, daemon=True)

    def _role_b(self) -> None:
        ep = self.session.endpoints[B]
        try:
            while True:
                label, _, ep = ep.receive(A)
                if label.name == "stop":
                    ep.close()
                    return
                _, v, ep = ep.receive(A)
                ep = ep.send(A, PONG, v)
        except MpstError as e:
            self.errors.append(e)

    def _bare_b(self) -> None:
        while self.ctrl.receive(TIMEOUT) == "more":
            self.ba.send(self.ab.receive(TIMEOUT), TIMEOUT)

    def item(self) -> bool:
        v = self.values[self.k & 4095]
        self.k += 1
        a = self.a.send(B, MORE)
        a = a.send(B, PING, v)
        _, echo, self.a = a.receive(B)
        return echo == v

    def bare_item(self) -> bool:
        if self.bare_peer.ident is None:
            self.bare_peer.start()
        v = self.values[self.k & 4095]
        self.k += 1
        self.ctrl.send("more", TIMEOUT)
        self.ab.send(v, TIMEOUT)
        return self.ba.receive(TIMEOUT) == v

    def finish(self) -> int:
        failed = 0
        try:
            self.a.send(B, STOP).close()
        except MpstError:
            failed = 1
        threads = [self.peer]
        if self.bare_peer.ident is not None:
            self.ctrl.send("stop", TIMEOUT)
            threads.append(self.bare_peer)
        for t in threads:
            t.join(TIMEOUT)
            if t.is_alive():
                failed = 1
        return failed + len(self.errors)


class Chameleons(Workload):
    """One thread plays the broker and all peers, monitored, on
    AsyncBuffered(1).  An item is one pairing: two assignment sessions and
    one p2p session opened, both p2p endpoints delegated, chat/bye run,
    everything closed and all three verdicts taken."""

    name = "chameleons"

    def setup(self) -> None:
        self.values = _values(self.seed)
        rng = random.Random(self.seed ^ 0x5EED)
        self.flips = [rng.random() < 0.5 for _ in range(4096)]
        self.k = 0
        self.assign = assignment_protocol()
        self.p2p = p2p_protocol()
        self.transport = AsyncBuffered(1)

    def item(self) -> bool:
        v = self.values[self.k & 4095]
        flip = self.flips[self.k & 4095]
        self.k += 1
        open_session = runtime.open_session
        r1 = open_session(self.assign, self.transport, monitored=True, timeout=TIMEOUT)
        r2 = open_session(self.assign, self.transport, monitored=True, timeout=TIMEOUT)
        if flip:
            r1, r2 = r2, r1
        p2p = open_session(self.p2p, self.transport, monitored=True, timeout=TIMEOUT)
        left, right = p2p.endpoints[LEFT], p2p.endpoints[RIGHT]
        r1.endpoints[BROKER].send(PEER, "left", left).close()
        r2.endpoints[BROKER].send(PEER, "right", right).close()
        side1, mine1, ep1 = r1.endpoints[PEER].receive(BROKER)
        ep1.close()
        side2, mine2, ep2 = r2.endpoints[PEER].receive(BROKER)
        ep2.close()
        mine1 = mine1.send(RIGHT, CHAT, v)
        _, got, mine2 = mine2.receive(LEFT)
        mine2 = mine2.send(LEFT, BYE)
        _, _, mine1 = mine1.receive(RIGHT)
        mine1.close()
        mine2.close()
        verdicts = [s.monitor.verdict() for s in (r1, r2, p2p)]
        return (
            side1.name == "left"
            and side2.name == "right"
            and got == v
            and left.cell.used
            and right.cell.used
            and all(x == (True, "conformant") for x in verdicts)
        )


CHUNK = 200


class Check(Workload):
    """A seeded corpus of distinct generated candidates.  An item is
    validate_shape plus type_global on one protocol, plus eval_global when it
    is accepted.  Nothing runs at runtime."""

    name = "check"

    def setup(self) -> None:
        self.gen = ProtocolGenerator(random.Random(self.seed), max_roles=4, max_labels=4, max_depth=7)
        # A fixed-size filter on the printed form keeps the corpus free of
        # repeats without memory that grows with throughput.
        self.seen = bytearray(b"\x00") * (1 << 21)
        self.done: list[tuple] = []
        self.sid = 0
        self.chunk: list = []
        self.next = 0
        self._generate()

    def _generate(self) -> None:
        chunk = []
        while len(chunk) < CHUNK:
            g = self.gen.candidate()
            h = zlib.crc32(repr(g).encode())
            byte, bit = (h >> 3) & ((1 << 21) - 1), 1 << (h & 7)
            if self.seen[byte] & bit:
                continue
            self.seen[byte] |= bit
            chunk.append(g)
        self.chunk, self.next = chunk, 0

    def available(self) -> int:
        return len(self.chunk) - self.next

    def item(self) -> bool:
        g = self.chunk[self.next]
        self.next += 1
        local = compiled = None
        if protocol.validate_shape(g).ok:
            try:
                local = types.type_global(g)
            except MpstError:
                pass
            if local is not None:
                self.sid += 1
                try:
                    compiled = chanvec.eval_global(g, self.sid)
                except MpstError:
                    compiled = None
        self.done.append((g, local, compiled))
        return True

    def refill(self) -> int:
        wrong = self._verify()
        if self.available() == 0:
            self._generate()
        return wrong

    def finish(self) -> int:
        return self._verify()

    def _verify(self) -> int:
        """Oracle-check the items run since the last call."""
        wrong = sum(not agrees_with_oracle(*x) for x in self.done)
        self.done.clear()
        return wrong


def agrees_with_oracle(g, local, compiled) -> bool:
    """``type_global`` accepts exactly when ``project`` accepts every role,
    accepted types are ``type_equiv`` to the projections, and the compiled
    vectors re-type to the same local types."""
    roles = protocol.roles_of(g)
    projected = {}
    for r in roles:
        try:
            projected[r] = types.project(g, r)
        except MpstError:
            return local is None
    if local is None or compiled is None:
        return False
    vectors, table = compiled
    env = table.payload_env()
    for r, v in zip(roles, vectors):
        if not types.type_equiv(local[r], projected[r]):
            return False
        if not types.type_equiv(chanvec.typecheck_cv(v, env, table), local[r]):
            return False
    return True


WORKLOADS = {w.name: w for w in (PingPong, PingPongThreaded, Chameleons, Check)}
