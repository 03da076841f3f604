"""Protocols shared across the test suite: hand-written ones, and seeded
generated candidates with and without shape faults."""

from __future__ import annotations

import random

from mpst import (
    BOOL,
    STRING,
    UNIT,
    Label,
    Role,
    SessionSort,
    choice_at,
    closed_at,
    comm,
    end_,
    project,
    rec,
    var_,
)
from mpst.gen import ProtocolGenerator
from mpst.protocol import Choice, ClosedAt, Comm, GlobalProtocol, Rec, Var

S, C, A = Role("s"), Role("c"), Role("a")
P, Q, R, T = Role("p"), Role("q"), Role("r"), Role("t")

LOGIN = Label("login", STRING)
PWD = Label("pwd", STRING)
AUTH_B = Label("auth", BOOL)
AUTH_S = Label("auth", STRING)
OK = Label("ok", STRING)
CANCEL = Label("cancel", STRING)
QUIT = Label("quit", UNIT)
RETRY = Label("retry", UNIT)
LOOP = Label("loop", UNIT)
STOP = Label("stop", UNIT)


def g_auth():
    """c asks s to authenticate; s answers ok or cancel."""
    return comm(
        C,
        S,
        AUTH_S,
        choice_at(S, [comm(S, C, OK, end_()), comm(S, C, CANCEL, end_())]),
    )


def oauth():
    return comm(S, C, LOGIN, comm(C, A, PWD, comm(A, S, AUTH_B, end_())))


def oauth_cancel_branch():
    return comm(S, C, Label("cancel", STRING), comm(C, A, QUIT, end_()))


def oauth2():
    return choice_at(S, [oauth(), oauth_cancel_branch()])


def oauth3():
    """oauth2 wrapped in a retry loop.

    The retry branch leaves role a untouched, so a's behaviours across the
    branches (an input vs the bare loop variable) admit no merge; the
    checker rejects this protocol.
    """
    return rec("repeat", choice_at(S, [oauth2(), comm(S, C, RETRY, var_("repeat"))]))


def oauth4():
    """Ill-formed: the two branches decide toward different receivers."""
    return choice_at(
        S,
        [
            comm(S, C, LOGIN, comm(C, A, PWD, end_())),
            comm(S, A, Label("cancel", UNIT), end_()),
        ],
    )


def calc():
    """Client-driven loop: loop again or stop and get a final answer."""
    return rec(
        "X",
        choice_at(
            C,
            [
                comm(C, S, LOOP, var_("X")),
                comm(C, S, STOP, comm(S, C, Label("bye", UNIT), end_())),
            ],
        ),
    )


def nonparticipant_choice():
    """s decides; both c and a hear about it under different labels."""
    ok_u, cancel_u = Label("ok", UNIT), Label("cancel", UNIT)
    return choice_at(
        S,
        [
            comm(S, C, ok_u, comm(S, A, ok_u, end_())),
            comm(S, C, cancel_u, comm(S, A, cancel_u, end_())),
        ],
    )


def closed_loop():
    """c participates only before the loop; closed_at discharges it."""
    return comm(C, P, Label("init", UNIT), closed_at(C, rec("X", comm(P, Q, LOOP, var_("X")))))


def closed_exit():
    """Like :func:`closed_loop`, but finite: p tells c to start or quit,
    c is discharged in either branch, and p then tells q."""
    return choice_at(P, [
        comm(P, C, Label("init", UNIT), closed_at(C, comm(P, Q, LOOP, end_()))),
        comm(P, C, Label("quit", UNIT), closed_at(C, comm(P, Q, STOP, end_()))),
    ])


def unclosed_loop():
    """Same protocol without the annotation: rejected with UnclosedRole."""
    return comm(C, P, Label("init", UNIT), rec("X", comm(P, Q, LOOP, var_("X"))))


def infinite_loop():
    return rec("X", comm(P, Q, LOOP, var_("X")))


def rec_merge():
    """Branches with their own recursions at the non-decider get merged."""
    go, halt = Label("go", UNIT), Label("halt", UNIT)
    m, n = Label("m", UNIT), Label("n", UNIT)
    return choice_at(
        P,
        [
            comm(P, Q, go, rec("X", comm(P, Q, m, var_("X")))),
            comm(P, Q, halt, comm(P, Q, n, end_())),
        ],
    )


def delegation_protocol():
    """p sends q a live endpoint that still owes a bye(unit) receive."""
    inner = project(comm(P, Q, Label("bye", UNIT), end_()), Q)
    return comm(P, Q, Label("hand", SessionSort(inner)), end_())


def well_typed_corpus():
    return {
        "g_auth": g_auth(),
        "oauth": oauth(),
        "oauth2": oauth2(),
        "oauth4_fixed": choice_at(
            S, [comm(S, C, LOGIN, comm(C, A, PWD, end_())), comm(S, C, Label("cancel", UNIT), comm(C, A, QUIT, end_()))]
        ),
        "calc": calc(),
        "nonparticipant_choice": nonparticipant_choice(),
        "closed_loop": closed_loop(),
        "closed_exit": closed_exit(),
        "infinite_loop": infinite_loop(),
        "rec_merge": rec_merge(),
    }


def finite_corpus():
    """Well-typed protocols that admit finite compliant runs."""
    out = well_typed_corpus()
    del out["infinite_loop"]
    del out["closed_loop"]  # p and q loop forever; only c is discharged
    return out


def shape_mutant(g: GlobalProtocol, rng: random.Random) -> GlobalProtocol:
    """``g`` with one node, reached by a random descent of up to 9 steps,
    given a shape fault or a scope change: an unbound or unguarded variable,
    a self-send, an empty choice, a binder that shadows an outer one of the
    same name, or a closed_at."""

    def rebuild(node: GlobalProtocol, depth: int) -> GlobalProtocol:
        if depth and isinstance(node, Comm):
            return Comm(node.from_role, node.to_role, node.label, rebuild(node.cont, depth - 1))
        if depth and isinstance(node, Choice) and node.branches:
            branches = list(node.branches)
            k = rng.randrange(len(branches))
            branches[k] = rebuild(branches[k], depth - 1)
            return Choice(node.at, tuple(branches))
        if depth and isinstance(node, Rec):
            return Rec(node.var, rebuild(node.body, depth - 1))
        who = rng.choice((P, Q, S))
        return rng.choice((
            lambda: Var(rng.choice(("X", "Y"))),
            lambda: Rec("X", node),
            lambda: Rec("X", Var("X")),
            lambda: Rec(rng.choice(("X", "Y")), Choice(who, (node, Var("X")))),
            lambda: Comm(who, who, Label("self"), node),
            lambda: Choice(who, ()),
            lambda: ClosedAt(who, node),
        ))()

    return rebuild(g, rng.randrange(10))


def hand_written() -> list[GlobalProtocol]:
    """Every hand-written protocol above, well-typed or not, by name."""
    return [
        calc(), closed_loop(), delegation_protocol(), g_auth(), infinite_loop(),
        nonparticipant_choice(), oauth(), oauth2(), oauth3(), oauth4(), oauth_cancel_branch(),
        rec_merge(), unclosed_loop(),
    ]


def generated_candidates(n: int = 10_000) -> list[GlobalProtocol]:
    """``n`` seeded generated candidates over four generator settings, about
    a third of them with one mutation from :func:`shape_mutant`."""
    rng = random.Random(11)
    gens = [
        ProtocolGenerator(random.Random(s), max_roles=r, max_labels=4, max_depth=d)
        for s, (r, d) in enumerate(((4, 6), (3, 5), (2, 4), (4, 5)))
    ]
    out = []
    for i in range(n):
        g = gens[i % len(gens)].candidate()
        out.append(shape_mutant(g, rng) if rng.random() < 0.35 else g)
    return out
