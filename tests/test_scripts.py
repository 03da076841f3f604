"""The scripted harness: verdicts, fault injection, derived scripts."""

from __future__ import annotations

import hashlib
import random
from collections import Counter

import pytest

from corpus import P, Q, calc, finite_corpus, g_auth, oauth, oauth2, well_typed_corpus
from helpers import error_kinds
from mpst import INT, STRING, ErrorKind, Label, Role, choice_at, comm, end_, open_session, rec, roles_of, var_
from mpst.gen import random_protocols
from mpst.scripts import (
    CloseStep,
    ReceiveStep,
    ReuseStep,
    SendStep,
    compliant_scripts,
    global_trace,
    run_scripted,
    scripts_for_trace,
)
from mpst.transport import AsyncBuffered, FramedSocket, SyncRendezvous

OAUTH_SCRIPTS = {
    "c": (ReceiveStep("s", (("login", (SendStep("a", "pwd", "pass"), CloseStep())),)),),
    "s": (SendStep("c", "login", "Hi"), ReceiveStep("a", (("auth", (CloseStep(),)),))),
    "a": (ReceiveStep("c", (("pwd", (SendStep("s", "auth", True), CloseStep())),)),),
}


def test_oauth_compliant_run():
    report = run_scripted(oauth(), OAUTH_SCRIPTS)
    assert report.verdict == "conformant"
    kinds = [e.kind.value for e in report.trace]
    assert kinds.count("send") == 3 and kinds.count("receive") == 3 and kinds.count("close") == 3


def test_missing_send_deadlocks():
    crippled = dict(OAUTH_SCRIPTS)
    crippled["c"] = (ReceiveStep("s", (("login", (CloseStep(),)),)),)  # omits the pwd send
    report = run_scripted(oauth(), crippled, timeout=0.3)
    assert report.verdict == "deadlocked"
    assert ErrorKind.TIMEOUT in error_kinds(report)
    timed_out = {n for n, o in report.outcomes.items() if o.error_kind is ErrorKind.TIMEOUT}
    assert "a" in timed_out and "s" in timed_out


def test_end_protocol_close_only():
    report = run_scripted(end_(), {"p": (CloseStep(),), "q": (CloseStep(),)}, roles=(P, Q))
    assert report.verdict == "conformant"
    assert all(e.kind.value == "close" for e in report.trace)


def test_reuse_directive_surfaces_invalid_endpoint():
    scripts = dict(OAUTH_SCRIPTS)
    scripts["s"] = (
        ReuseStep(SendStep("c", "login", "Hi")),
        ReceiveStep("a", (("auth", (CloseStep(),)),)),
    )
    report = run_scripted(oauth(), scripts)
    assert report.outcomes["s"].error_kind is ErrorKind.INVALID_ENDPOINT


def test_wrong_label_is_reported_not_raised():
    scripts = dict(OAUTH_SCRIPTS)
    scripts["s"] = (SendStep("c", "bogus", "Hi"), ReceiveStep("a", (("auth", (CloseStep(),)),)))
    report = run_scripted(oauth(), scripts, timeout=0.3)
    assert report.verdict in ("error", "deadlocked")
    assert report.outcomes["s"].error_kind is ErrorKind.UNKNOWN_LABEL


def test_wrong_peer_mutation_fails_at_divergence():
    scripts = dict(OAUTH_SCRIPTS)
    scripts["s"] = (SendStep("a", "login", "Hi"), ReceiveStep("a", (("auth", (CloseStep(),)),)))
    report = run_scripted(oauth(), scripts, timeout=0.3)
    assert report.outcomes["s"].error_kind is ErrorKind.WRONG_PEER


def test_script_missing_role_is_error():
    report = run_scripted(oauth(), {"s": (CloseStep(),)})
    assert report.verdict == "error"
    assert report.detail == "missing scripts for ['c', 'a']" and set(report.outcomes) == {"c", "a"}


def test_a_script_for_an_undeclared_role_is_error():
    scripts = {**OAUTH_SCRIPTS, "zz": (SendStep("s", "bogus"), CloseStep())}
    report = run_scripted(oauth(), scripts)
    assert report.verdict == "error" and report.trace == []
    assert report.detail == "scripts for undeclared roles ['zz']" and set(report.outcomes) == {"zz"}
    assert report.outcomes["zz"].detail == "no such role in the protocol"
    report = run_scripted(oauth(), {"s": OAUTH_SCRIPTS["s"], "zz": (CloseStep(),)})
    assert report.detail == "missing scripts for ['c', 'a']; scripts for undeclared roles ['zz']"
    assert set(report.outcomes) == {"c", "a", "zz"}


def test_a_scripted_run_opens_from_the_template_an_open_made():
    """``run_scripted`` opens with its own ``roles``, so after ``open_session(g)``
    a run with no roles adds no second template to ``g``."""
    from mpst.bench import pingpong_protocol

    g = pingpong_protocol()
    open_session(g, AsyncBuffered(1))
    scripts = compliant_scripts(g, random.Random(3))
    assert run_scripted(g, scripts).verdict == "conformant"
    assert len(g._compiled) == 1


def test_receive_branch_choice_dispatch():
    scripts = {
        "c": (SendStep("s", "auth", "tok"),
              ReceiveStep("s", (("ok", (CloseStep(),)), ("cancel", (CloseStep(),)))),),
        "s": (ReceiveStep("c", (("auth", (SendStep("c", "cancel", "no"), CloseStep())),)),),
    }
    report = run_scripted(g_auth(), scripts)
    assert report.verdict == "conformant"
    assert any(e.label and e.label.name == "cancel" for e in report.trace)


def test_oauth2_client_dispatches_both_sender_choices():
    # the same client script handles whichever branch s picks
    client = (
        ReceiveStep("s", (
            ("login", (SendStep("a", "pwd", "pass"), CloseStep())),
            ("cancel", (SendStep("a", "quit", None), CloseStep())),
        )),
    )
    via_login = {
        "c": client,
        "s": (SendStep("c", "login", "Hi"), ReceiveStep("a", (("auth", (CloseStep(),)),))),
        "a": (ReceiveStep("c", (
            ("pwd", (SendStep("s", "auth", True), CloseStep())),
            ("quit", (CloseStep(),)),
        )),),
    }
    via_cancel = dict(via_login)
    via_cancel["s"] = (SendStep("c", "cancel", "bye"), CloseStep())
    for scripts, label in ((via_login, "login"), (via_cancel, "cancel")):
        report = run_scripted(oauth2(), scripts)
        assert report.verdict == "conformant", report.detail
        assert any(e.label and e.label.name == label for e in report.trace)


def test_global_trace_respects_budget_and_terminates():
    rng = random.Random(0)
    events = global_trace(calc(), rng, budget=25)
    assert events[-1][2].name == "bye"
    assert len(events) <= 26
    labels = [l.name for _, _, l in events]
    assert "stop" in labels


def test_scripts_for_trace_cover_roles():
    rng = random.Random(1)
    events = global_trace(oauth2(), rng, budget=20)
    scripts = scripts_for_trace(roles_of(oauth2()), events)
    assert set(scripts) == {"s", "c", "a"}
    for sc in scripts.values():
        assert isinstance(sc[-1], (CloseStep, ReceiveStep))


def test_compliant_scripts_run_on_corpus_all_transports():
    rng = random.Random(5)
    for name, g in finite_corpus().items():
        scripts = compliant_scripts(g, rng, budget=30)
        for transport in (SyncRendezvous(), AsyncBuffered(1)):
            report = run_scripted(g, scripts, transport)
            assert report.verdict == "conformant", (name, transport, report.detail)


def test_compliant_scripts_run_on_framed():
    rng = random.Random(6)
    g = oauth2()
    report = run_scripted(g, compliant_scripts(g, rng), FramedSocket())
    assert report.verdict == "conformant"


def test_infinite_loop_has_no_finite_run():
    from corpus import infinite_loop

    with pytest.raises(ValueError):
        global_trace(infinite_loop(), random.Random(0), budget=10)


def trace_digest(protocols) -> str:
    """sha256 over seeded ``global_trace`` draws: for each protocol, seeds 0
    to 4 and budgets 5, 30 and 200, the trace's events, or the name of the
    ``ValueError`` raised when there is no finite run."""
    h = hashlib.sha256()
    for g in protocols:
        for seed in range(5):
            for budget in (5, 30, 200):
                try:
                    events = global_trace(g, random.Random(seed), budget)
                    out = " ".join(f"{a.name}>{b.name}:{l.name}" for a, b, l in events)
                except ValueError as e:
                    out = type(e).__name__
                h.update(out.encode())
                h.update(b"\n")
    return h.hexdigest()


# trace_digest over the well-typed corpus and the generated protocols below,
# at the commit before global_trace carried its scope as it walked.  It was
# re-taken when closed_exit_loop joined the corpus, with the global_trace of
# the commit before that; the old value still holds without that entry.
PINNED_TRACE_DIGEST = "7f900e943cad032460c5aae45bf7b4a4bdfdfaec4c1e0b9319d44190077067f1"


def test_global_trace_draws_match_the_pinned_digest():
    generated = [
        g
        for seed, (roles, depth) in enumerate(((4, 6), (3, 5), (2, 4), (4, 7)))
        for g in random_protocols(300, seed=seed, max_roles=roles, max_labels=4, max_depth=depth)
    ]
    assert trace_digest(list(well_typed_corpus().values()) + generated) == PINNED_TRACE_DIGEST


def test_a_shared_sub_protocol_continues_in_its_own_scope():
    """One ``body`` object sits under an outer and an inner ``rec X``; after
    ``l1 . m`` the trace must go round the outer loop, whose choice offers
    ``l1`` and ``l2``, not the inner one's ``l3`` and ``l4``."""
    a, b = Role("a"), Role("b")
    body = comm(a, b, Label("m"), var_("X"))
    g = rec("X", choice_at(a, [
        comm(a, b, Label("l1"), body),
        comm(a, b, Label("l2"), rec("X", choice_at(a, [
            comm(a, b, Label("l3"), body),
            comm(a, b, Label("l4"), end_()),
        ]))),
    ]))
    rng = random.Random(15)
    for _ in range(20):
        scripts = compliant_scripts(g, rng, budget=30)
        for transport in (SyncRendezvous(), AsyncBuffered(1)):
            report = run_scripted(g, scripts, transport, timeout=2.0)
            assert report.verdict == "conformant", (transport, report.detail, report.outcomes)


def _has_choice_or_loop(g) -> bool:
    from mpst.protocol import Choice, Rec

    return isinstance(g, (Choice, Rec)) or any(_has_choice_or_loop(c) for _, c in g.children())


def _merged_channel_protocols():
    """Choices where a role not told of the choice uses one label in several
    branches, so one channel class holds several slots."""
    a, b, c = Role("a"), Role("b"), Role("c")
    go, w, fwd = Label("go"), Label("w", INT), Label("fwd", STRING)
    loop = rec("X", choice_at(a, [
        comm(a, b, Label("l1"), comm(a, c, go, comm(b, c, w, var_("X")))),
        comm(a, b, Label("l2"), comm(a, c, go, comm(b, c, w, var_("X")))),
        comm(a, b, Label("l3"), comm(a, c, Label("halt"), end_())),
    ]))
    forward = choice_at(a, [
        comm(a, b, Label("ok"), comm(a, c, fwd, end_())),
        comm(a, b, Label("no"), comm(a, c, fwd, end_())),
    ])
    return [loop, forward]


def test_transport_equivalence_with_choices_and_loops():
    generated = [g for g in random_protocols(400, seed=909, max_depth=6) if _has_choice_or_loop(g)]
    assert len(generated) > 50
    # generated protocols almost never merge channels, so each hand-written
    # one runs under several scripts to take every branch
    protos = generated + [g for g in _merged_channel_protocols() for _ in range(8)]
    rng = random.Random(909)
    for i, g in enumerate(protos):
        scripts = compliant_scripts(g, rng, budget=40)
        traces = []
        for transport in (SyncRendezvous(), AsyncBuffered(4), FramedSocket()):
            report = run_scripted(g, scripts, transport, timeout=10.0)
            assert report.verdict == "conformant", (i, transport, report.detail)
            traces.append(Counter(ev.signature() for ev in report.trace))
        assert traces[0] == traces[1] == traces[2], f"protocol {i}"
