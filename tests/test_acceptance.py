"""Acceptance suite: one test per criterion, each printing a PASS line.

Run it alone with timing output:

    pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import random
import time
from collections import Counter
from pathlib import Path

import pytest

from corpus import A, C, S, finite_corpus, g_auth, oauth4, well_typed_corpus
from helpers import channel_classes, error_kinds
from universe import build_universe, oracle_conclusive, state_count, subtype_bounded
from mpst import Label, Role, STRING, roles_of
from mpst.bench import bench_nping, bench_pingpong, rows_to_csv, run_chameleons
from mpst.chanvec import dump_channel_vectors, eval_global, typecheck_cv
from mpst.errors import ErrorKind, ProtocolTypeError, SessionRuntimeError
from mpst.gen import random_protocols
from mpst.scripts import compliant_scripts, run_scripted
from mpst.transport import AsyncBuffered, FramedSocket, SyncRendezvous
from mpst.types import (
    Branch,
    END_T,
    Select,
    merge,
    project,
    subtype,
    type_equiv,
    type_global,
)

REPORTS = Path(__file__).resolve().parent.parent / "reports"


def _ok(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE {criterion:02d} PASS: {message}")


def test_criterion_01_typing_golden_g_auth():
    auth, ok, cancel = Label("auth", STRING), Label("ok", STRING), Label("cancel", STRING)
    want_c = Select(S, ((auth, Branch(S, ((ok, END_T), (cancel, END_T)))),))
    want_s = Branch(C, ((auth, Select(C, ((ok, END_T), (cancel, END_T)))),))
    g = g_auth()
    best = min(_timed(lambda: type_global(g)) for _ in range(5))
    ts = type_global(g)
    assert ts[C] == want_c and ts[S] == want_s  # exact, post-canonicalization
    assert type_equiv(ts[C], want_c) and type_equiv(ts[S], want_s)
    assert best < 1e-3, f"type_global took {best * 1e3:.3f} ms"
    _ok(1, f"G_Auth types match the golden pair ({best * 1e6:.0f} us)")


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_02_ill_formed_golden():
    with pytest.raises(ProtocolTypeError) as e:
        type_global(oauth4())
    assert e.value.kind is ErrorKind.ACTIVE_ROLE_MISMATCH
    assert "c" in e.value.detail and "a" in e.value.detail
    _ok(2, f"oAuth4 rejected with {e.value.kind} naming roles c and a")


def _criterion_corpus():
    protos = random_protocols(200, seed=1207, max_roles=4, max_labels=3, max_depth=5)
    return protos + list(well_typed_corpus().values())


def test_criterion_03_realisability():
    t0 = time.perf_counter()
    corpus = _criterion_corpus()
    checked = 0
    for g in corpus:
        ts = type_global(g)
        vectors, table = eval_global(g, "acc3")
        env = table.payload_env()
        for r, v in zip(roles_of(g), vectors):
            assert type_equiv(typecheck_cv(v, env, table), ts[r])
            checked += 1
    took = time.perf_counter() - t0
    assert took < 10.0, f"realisability suite took {took:.1f} s"
    _ok(3, f"{len(corpus)} protocols / {checked} role vectors re-type to the "
           f"derived local types ({took:.2f} s)")


def test_criterion_04_oracle_equivalence():
    corpus = _criterion_corpus()
    for g in corpus:
        ts = type_global(g)
        for r in roles_of(g):
            assert type_equiv(ts[r], project(g, r))
    # failing inputs fail on both routes
    from corpus import oauth3, unclosed_loop

    failures = 0
    for g in (oauth4(), oauth3(), unclosed_loop()):
        with pytest.raises(ProtocolTypeError):
            type_global(g)
        with pytest.raises(ProtocolTypeError):
            for r in roles_of(g):
                project(g, r)
        failures += 1
    _ok(4, f"type_global and classical projection agree on {len(corpus)} protocols "
           f"and co-reject {failures} ill-formed ones")


def test_criterion_05_subtype_merge_property_suite():
    t0 = time.perf_counter()
    rng = random.Random(55)
    universe = build_universe(rng)
    sample = rng.sample(universe, 170)

    for t in universe:  # reflexivity, everywhere
        assert subtype(t, t)

    rel = {id(a): {id(b) for b in sample if subtype(a, b)} for a in sample}
    for a in sample:  # transitivity
        for b in sample:
            if id(b) in rel[id(a)]:
                assert rel[id(b)] <= rel[id(a)]

    # agreement with the depth-8 simulation oracle; the cut is conclusive
    # only while the state-count product stays within the unroll depth, so
    # the enumeration targets small-state types
    small = [t for t in universe if state_count(t) <= 4]
    ssample = rng.sample(small, min(250, len(small)))
    conclusive = 0
    for a in ssample:
        for b in ssample:
            if not oracle_conclusive(a, b, 8):
                continue
            conclusive += 1
            assert subtype(a, b) == subtype_bounded(a, b, 8)
    for a in sample[:80]:  # and one-sided soundness holds unconditionally
        for b in sample[:80]:
            if subtype(a, b):
                assert subtype_bounded(a, b, 8)
    assert conclusive > 2000  # the conclusiveness gate must not be vacuous

    merges = []
    for a in sample[:120]:
        for b in sample[:120]:
            try:
                merges.append((a, b, merge(a, b)))
            except ProtocolTypeError:
                continue
    assert len(merges) > 100
    for a, b, m in merges:  # least upper bound + commutativity
        assert subtype(a, m) and subtype(b, m)
        assert type_equiv(m, merge(b, a))
    for t in sample:  # idempotence
        assert type_equiv(merge(t, t), t)
    candidates = sample[:150]
    for a, b, m in merges[: 400]:  # minimality against enumerated candidates
        for v in candidates:
            if subtype(a, v) and subtype(b, v) and subtype(v, m):
                assert type_equiv(v, m)
    took = time.perf_counter() - t0
    assert took < 60.0, f"property suite took {took:.1f} s"
    _ok(5, f"universe of {len(universe)} types: preorder and LUB laws hold, "
           f"{conclusive} conclusive oracle pairs agree ({took:.1f} s)")


def test_criterion_06_evaluation_golden():
    g = g_auth()
    vectors, table = eval_global(g, "s0")
    assert channel_classes(table) == {
        (frozenset({"s", "c"}), "auth", 0),
        (frozenset({"c", "s"}), "ok", 0),
        (frozenset({"c", "s"}), "cancel", 0),
    }
    dump = dump_channel_vectors(vectors, table, roles_of(g))
    golden = (
        "c: out(s){auth<c,s,auth,0> -> "
        "inp(s)[cancel<s,c,cancel,0> -> unit; ok<s,c,ok,0> -> unit]}\n"
        "s: inp(c)[auth<c,s,auth,0> -> "
        "out(c){cancel<s,c,cancel,0> -> unit; ok<s,c,ok,0> -> unit}]"
    )
    assert dump == golden
    _ok(6, "G_Auth compiles to the three golden channel classes and dump")


def test_criterion_07_linearity_matrix():
    import threading

    from corpus import oauth
    from mpst import SessionSort, comm, end_, open_session
    from mpst.protocol import UNIT

    P, Q = Role("p"), Role("q")
    hits: list[str] = []

    def expect_invalid(fn, what: str) -> None:
        with pytest.raises(SessionRuntimeError) as e:
            fn()
        assert e.value.kind is ErrorKind.INVALID_ENDPOINT, what
        hits.append(what)

    # double send
    sess = open_session(oauth(), AsyncBuffered(2))
    ep = sess.endpoints[S]
    ep.send(C, "login", "Hi")
    expect_invalid(lambda: ep.send(C, "login", "again"), "double-send")

    # double receive
    sess = open_session(oauth(), AsyncBuffered(2))
    sess.endpoints[S].send(C, "login", "Hi")
    epc = sess.endpoints[C]
    epc.receive(S)
    expect_invalid(lambda: epc.receive(S), "double-receive")

    # double close
    sess = open_session(end_(), SyncRendezvous(), roles=(P, Q))
    epp = sess.endpoints[P]
    epp.close()
    expect_invalid(lambda: epp.close(), "double-close")

    # sibling-stage reuse: one output stage, two labels, one use
    sess = open_session(g_auth(), AsyncBuffered(2))
    done = []

    def run_c():
        e = sess.endpoints[C].send(S, "auth", "tok")
        done.append(e.receive(S))

    t = threading.Thread(target=run_c, daemon=True)
    t.start()
    _, _, eps = sess.endpoints[S].receive(C)
    eps.send(C, "ok", "fine")
    expect_invalid(lambda: eps.send(C, "cancel", "no"), "sibling-stage-reuse")
    t.join(5)

    # reuse after delegation
    bye = Label("bye", UNIT)
    inner_g = comm(Q, P, bye, end_())
    hand = Label("hand", SessionSort(project(inner_g, Q)))
    outer_g = comm(Role("owner"), Role("taker"), hand, end_())
    inner = open_session(inner_g, AsyncBuffered(1))
    outer = open_session(outer_g, AsyncBuffered(1))
    victim = inner.endpoints[Q]
    outer.endpoints[Role("owner")].send(Role("taker"), "hand", victim)
    expect_invalid(lambda: victim.send(P, "bye", None), "reuse-after-delegation")

    assert len(hits) == 5

    # zero false positives: compliant runs never see InvalidEndpoint
    rng = random.Random(77)
    clean = 0
    for g in random_protocols(100, seed=501) + list(finite_corpus().values()):
        scripts = compliant_scripts(g, rng, budget=30)
        report = run_scripted(g, scripts, SyncRendezvous())
        assert ErrorKind.INVALID_ENDPOINT not in error_kinds(report)
        assert report.verdict == "conformant"
        clean += 1
    _ok(7, f"all 5 misuse patterns raise InvalidEndpoint; {clean} compliant runs "
           f"show zero false positives")


def test_criterion_08_deadlock_freedom_at_desk_scale():
    protos = random_protocols(1000, seed=88, max_roles=4, max_labels=3, max_depth=5)
    rng = random.Random(88)
    worst = 0.0
    for i, g in enumerate(protos):
        scripts = compliant_scripts(g, rng, budget=30)
        for transport in (SyncRendezvous(), AsyncBuffered(1)):
            t0 = time.perf_counter()
            report = run_scripted(g, scripts, transport, timeout=5.0)
            took = time.perf_counter() - t0
            worst = max(worst, took)
            assert report.verdict == "conformant", (i, transport, report.detail)
            assert took < 5.0
    _ok(8, f"1000 generated protocols completed conformant on both transports "
           f"(worst single run {worst * 1e3:.0f} ms)")


def test_criterion_09_transport_equivalence():
    protos = random_protocols(50, seed=99, max_roles=4, max_labels=3, max_depth=5,
                              allow_choice=False, allow_rec=False)
    rng = random.Random(99)
    for i, g in enumerate(protos):
        scripts = compliant_scripts(g, rng, budget=40)
        traces = []
        for transport in (SyncRendezvous(), AsyncBuffered(4), FramedSocket()):
            report = run_scripted(g, scripts, transport, timeout=10.0)
            assert report.verdict == "conformant", (i, transport, report.detail)
            traces.append(Counter(ev.signature() for ev in report.trace))
        assert traces[0] == traces[1] == traces[2], f"protocol {i}"
    _ok(9, "50 choice-free protocols leave identical trace multisets on "
           "sync, async(4), and framed TCP")


def test_criterion_10_benchmark_sanity():
    rows = bench_pingpong(10_000, SyncRendezvous())
    ratio = rows[1].ratio
    nping_rows = bench_nping(300, SyncRendezvous(), sizes=(1, 5, 10, 20))
    nping_ratios = {r.suite: r.ratio for r in nping_rows if r.variant == "session"}
    csv = rows_to_csv(rows + nping_rows)
    REPORTS.mkdir(exist_ok=True)
    (REPORTS / "acceptance_bench.csv").write_text(csv, newline="\n")
    print("\n" + csv.rstrip())
    assert ratio <= 3.0, f"ping-pong session/bare ratio {ratio:.2f}"
    assert all(r <= 5.0 for r in nping_ratios.values()), nping_ratios
    _ok(10, f"ping-pong ratio {ratio:.2f} <= 3.0; n-ping ratios "
            f"{', '.join(f'{k.split(chr(58))[1]}: {v:.2f}' for k, v in sorted(nping_ratios.items(), key=lambda kv: int(kv[0].split(chr(58))[1])))} all <= 5.0")


def test_criterion_11_chameleons_delegation():
    for seed in range(20):
        samples = run_chameleons(10, AsyncBuffered(1), monitored=True, seed=seed)
        assert len(samples) == 10
    _ok(11, "20 seeded chameleons runs (broker + 20 peers, 10 pairings) "
            "all conformant with each delegated endpoint used exactly once")
