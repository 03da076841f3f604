"""Micro-benchmarks: session runtime against a bare-channel baseline.

Both variants run the same message pattern over the same transport
machinery, item for item, with every thread started outside the clock; the
session rows therefore isolate the cost of walking local types, linearity
cells, and endpoint bookkeeping.  Absolute numbers are machine noise; the
interesting column is the ratio.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass
from typing import Callable

from .protocol import INT, Label, Role, SessionSort, UNIT, choice_at, comm, end_, rec, var_
from .runtime import open_session
from .transport import AsyncBuffered, Channel, FramedSocket, Transport
from .types import type_global

CSV_HEADER = "suite,transport,variant,iters,median_ns,p95_ns,ratio"

A, B = Role("a"), Role("b")
PING, PONG = Label("ping", INT), Label("pong", INT)
MORE, STOP = Label("more", UNIT), Label("stop", UNIT)


@dataclass
class BenchRow:
    suite: str
    transport: str
    variant: str
    iters: int
    median_ns: int
    p95_ns: int
    ratio: float

    def csv(self) -> str:
        return (
            f"{self.suite},{self.transport},{self.variant},{self.iters},"
            f"{self.median_ns},{self.p95_ns},{self.ratio:.3f}"
        )


def _percentiles(samples: list[int]) -> tuple[int, int]:
    samples = sorted(samples)
    median = int(statistics.median(samples))
    p95 = samples[min(len(samples) - 1, int(0.95 * len(samples)))]
    return median, p95


def _compare(suite: str, transport: Transport, iters: int,
             bare: list[int], session: list[int]) -> list[BenchRow]:
    """The bare and session rows of one suite; the session row's ratio is its
    median over the bare median."""
    bm, bp = _percentiles(bare)
    sm, sp = _percentiles(session)
    name = f"async:{transport.capacity}" if isinstance(transport, AsyncBuffered) else "sync"
    return [
        BenchRow(suite, name, "bare", iters, bm, bp, 1.0),
        BenchRow(suite, name, "session", iters, sm, sp, sm / max(bm, 1)),
    ]


def _bare_capacity(transport: Transport) -> int:
    """The capacity of a bare baseline's channels on ``transport``: 0 for a
    rendezvous, the buffer's for a buffered one.  Framed TCP has no bare
    baseline, and a chameleons session cannot delegate across it, so every
    suite refuses it here, before any thread starts."""
    if isinstance(transport, FramedSocket):
        raise ValueError("bench baselines are defined for in-process transports")
    return transport.capacity if isinstance(transport, AsyncBuffered) else 0


def _in_thread(fn: Callable[[], None]) -> threading.Thread:
    t = threading.Thread(target=fn, daemon=True)
    t.start()
    return t


def pingpong_protocol(n: int = 1):
    """n ping/pong exchanges per loop iteration, then a continue/stop choice."""
    loop_body: object = var_("X")
    stop_body: object = end_()
    for _ in range(n):
        loop_body = comm(A, B, PING, comm(B, A, PONG, loop_body))
    return rec(
        "X",
        choice_at(
            A,
            [
                comm(A, B, MORE, loop_body),
                comm(A, B, STOP, stop_body),
            ],
        ),
    )


def _bench_session_pingpong(n: int, iters: int, transport: Transport) -> list[int]:
    g = pingpong_protocol(n)
    session = open_session(g, transport, monitored=False, timeout=30.0)
    samples: list[int] = []

    def side_b() -> None:
        ep = session.endpoints[B]
        while True:
            label, _, ep = ep.receive(A)
            if label.name == "stop":
                ep.close()
                return
            for _ in range(n):
                label, v, ep = ep.receive(A)
                ep = ep.send(A, PONG, v)

    worker = _in_thread(side_b)
    ep = session.endpoints[A]
    for _ in range(iters):
        t0 = time.perf_counter_ns()
        ep = ep.send(B, MORE, None)
        for _ in range(n):
            ep = ep.send(B, PING, 1)
            _, _, ep = ep.receive(B)
        samples.append(time.perf_counter_ns() - t0)
    ep = ep.send(B, STOP, None)
    ep.close()
    worker.join(30.0)
    session.close_transport()
    return samples


def _bench_bare_pingpong(n: int, iters: int, cap: int) -> list[int]:
    ctrl, ab, ba = Channel(cap), Channel(cap), Channel(cap)
    samples: list[int] = []

    def side_b() -> None:
        while True:
            if ctrl.receive() == "stop":
                return
            for _ in range(n):
                ba.send(ab.receive(), 30.0)

    worker = _in_thread(side_b)
    for _ in range(iters):
        t0 = time.perf_counter_ns()
        ctrl.send("more", 30.0)
        for _ in range(n):
            ab.send(1, 30.0)
            ba.receive()
        samples.append(time.perf_counter_ns() - t0)
    ctrl.send("stop", 30.0)
    worker.join(30.0)
    return samples


def bench_pingpong(iters: int, transport: Transport, n: int = 1, suite: str = "pingpong") -> list[BenchRow]:
    bare = _bench_bare_pingpong(n, iters, _bare_capacity(transport))
    return _compare(suite, transport, iters, bare, _bench_session_pingpong(n, iters, transport))


def bench_nping(iters: int, transport: Transport, sizes: tuple[int, ...] = (1, 5, 10, 20)) -> list[BenchRow]:
    rows: list[BenchRow] = []
    for n in sizes:
        rows.extend(bench_pingpong(iters, transport, n=n, suite=f"nping:{n}"))
    return rows


# --- chameleons: delegation through a broker ---------------------------------

L, R = Role("left"), Role("right")
CHAT, BYE = Label("chat", INT), Label("bye", UNIT)
PEER_ROLE, BROKER = Role("peer"), Role("broker")


def p2p_protocol():
    return comm(L, R, CHAT, comm(R, L, BYE, end_()))


def assignment_protocol():
    """Broker tells one peer which side of a fresh p2p session it plays."""
    local = type_global(p2p_protocol())
    left_t, right_t = SessionSort(local[L]), SessionSort(local[R])
    return choice_at(
        BROKER,
        [
            comm(BROKER, PEER_ROLE, Label("left", left_t), end_()),
            comm(BROKER, PEER_ROLE, Label("right", right_t), end_()),
        ],
    )


def run_chameleons(pairs: int, transport: Transport, monitored: bool = False,
                   timeout: float = 30.0, seed: int = 0) -> list[int]:
    """One broker pairs up 2*pairs peers, one pairing at a time.  Each
    pairing registers two peers, each through its own assignment session,
    and starts their threads; the seeded rng picks which of the two plays
    left of a fresh p2p session, whose two endpoints the broker delegates
    away.

    Returns per-pairing times, from the p2p open to both peers' joins, so no
    thread start is timed.  Raises on any protocol error, so a clean return
    means every delegated endpoint was used exactly once.
    """
    import random

    rng = random.Random(seed)
    samples: list[int] = []
    assign, pairing = assignment_protocol(), p2p_protocol()  # each compiled once, on first open

    def peer(session) -> Callable[[], None]:
        def run() -> None:
            ep = session.endpoints[PEER_ROLE]
            label, inner, ep = ep.receive(BROKER)
            ep.close()
            if label.name == "left":
                inner = inner.send(R, CHAT, 7)
                _, _, inner = inner.receive(R)
                inner.close()
            else:
                _, v, inner = inner.receive(L)
                inner = inner.send(L, BYE, None)
                inner.close()

        return run

    for _ in range(pairs):
        sides = [open_session(assign, transport, monitored=monitored, timeout=timeout) for _ in range(2)]
        workers = [_in_thread(peer(s)) for s in sides]
        rng.shuffle(sides)
        t0 = time.perf_counter_ns()
        p2p = open_session(pairing, transport, monitored=monitored, timeout=timeout)
        left_ep, right_ep = p2p.endpoints[L], p2p.endpoints[R]
        sides[0].endpoints[BROKER].send(PEER_ROLE, "left", left_ep).close()
        sides[1].endpoints[BROKER].send(PEER_ROLE, "right", right_ep).close()
        for w in workers:
            w.join(timeout)
        samples.append(time.perf_counter_ns() - t0)
        if any(w.is_alive() for w in workers):
            raise TimeoutError("chameleons pairing did not finish")
        if not (left_ep.used and right_ep.used):
            raise AssertionError("a delegated endpoint was never consumed")
        if monitored:
            for s in (p2p, *sides):
                ok, why = s.monitor.verdict()
                if not ok:
                    raise AssertionError(f"chameleons session not conformant: {why}")
    return samples


def _bench_bare_chameleons(pairs: int, cap: int) -> list[int]:
    """The chameleons pairing on bare channels: two assignment channels and
    their peers' threads before the clock, then the chat/bye channels, both
    assignments and both joins inside it, as a session pairing is timed."""
    samples: list[int] = []
    for _ in range(pairs):
        assign_a, assign_b = Channel(cap), Channel(cap)

        def left() -> None:
            chat, bye = assign_a.receive()
            chat.send(7, 30.0)
            bye.receive()

        def right() -> None:
            chat, bye = assign_b.receive()
            chat.receive()
            bye.send(None, 30.0)

        ws = [_in_thread(left), _in_thread(right)]
        t0 = time.perf_counter_ns()
        p2p = Channel(cap), Channel(cap)
        assign_a.send(p2p, 30.0)
        assign_b.send(p2p, 30.0)
        for w in ws:
            w.join(30.0)
        samples.append(time.perf_counter_ns() - t0)
    return samples


def bench_chameleons(pairs: int, transport: Transport) -> list[BenchRow]:
    bare = _bench_bare_chameleons(pairs, _bare_capacity(transport))
    return _compare("chameleons", transport, pairs, bare, run_chameleons(pairs, transport))


def run_suite(suite: str, iters: int, transport: Transport) -> list[BenchRow]:
    if suite == "pingpong":
        return bench_pingpong(iters, transport)
    if suite == "nping":
        return bench_nping(max(1, iters // 10), transport)
    if suite == "chameleons":
        return bench_chameleons(iters, transport)
    raise ValueError(f"unknown suite {suite!r}")


def rows_to_csv(rows: list[BenchRow]) -> str:
    return "\n".join([CSV_HEADER] + [r.csv() for r in rows]) + "\n"
