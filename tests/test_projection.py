"""Projection and whole-protocol typing: goldens and cross-oracle agreement."""

from __future__ import annotations

import pytest

from corpus import (
    A,
    C,
    P,
    Q,
    S,
    calc,
    LOOP,
    STOP,
    closed_exit_loop,
    closed_loop,
    g_auth,
    infinite_loop,
    oauth,
    oauth2,
    oauth3,
    oauth4,
    unclosed_loop,
    well_typed_corpus,
)
from mpst import (
    BOOL,
    Label,
    Role,
    STRING,
    UNIT,
    choice_at,
    closed_at,
    comm,
    end_,
    rec,
    roles_of,
    var_,
)
from mpst.errors import ErrorKind, ProtocolTypeError
from mpst.protocol import Choice
from mpst.types import (
    Branch,
    END_T,
    RecT,
    Select,
    VarT,
    project,
    type_equiv,
    type_global,
)

AUTH = Label("auth", STRING)
OK = Label("ok", STRING)
CANCEL = Label("cancel", STRING)


def test_g_auth_types_match_golden():
    ts = type_global(g_auth())
    want_c = Select(S, ((AUTH, Branch(S, ((OK, END_T), (CANCEL, END_T)))),))
    want_s = Branch(C, ((AUTH, Select(C, ((OK, END_T), (CANCEL, END_T)))),))
    assert ts[C] == want_c  # canonical structural equality
    assert ts[S] == want_s


def test_g_auth_projection_matches_golden():
    assert project(g_auth(), C) == Select(S, ((AUTH, Branch(S, ((OK, END_T), (CANCEL, END_T)))),))
    assert project(g_auth(), S) == Branch(C, ((AUTH, Select(C, ((OK, END_T), (CANCEL, END_T)))),))


def test_project_trivia():
    assert project(end_(), Role("z")) is END_T
    # a role entirely outside the protocol projects to End, loops included
    assert project(infinite_loop(), Role("z")) is END_T


def test_oauth4_active_role_mismatch():
    with pytest.raises(ProtocolTypeError) as e:
        type_global(oauth4())
    assert e.value.kind is ErrorKind.ACTIVE_ROLE_MISMATCH
    assert "c" in e.value.detail and "a" in e.value.detail
    with pytest.raises(ProtocolTypeError) as e2:
        project(oauth4(), S)
    assert e2.value.kind is ErrorKind.ACTIVE_ROLE_MISMATCH


def test_branch_not_starting_with_decider_output():
    g = choice_at(S, [comm(C, S, Label("x", UNIT), end_()), comm(S, C, Label("y", UNIT), end_())])
    with pytest.raises(ProtocolTypeError) as e:
        type_global(g)
    assert e.value.kind is ErrorKind.ACTIVE_ROLE_MISMATCH


def test_duplicate_choice_label():
    g = choice_at(S, [comm(S, C, OK, end_()), comm(S, C, Label("ok", STRING), comm(C, S, AUTH, end_()))])
    with pytest.raises(ProtocolTypeError) as e:
        type_global(g)
    assert e.value.kind is ErrorKind.DUPLICATE_CHOICE_LABEL


def test_same_name_different_payload_across_branches_is_duplicate():
    g = choice_at(S, [comm(S, C, Label("m", UNIT), end_()), comm(S, C, Label("m", BOOL), end_())])
    with pytest.raises(ProtocolTypeError) as e:
        type_global(g)
    assert e.value.kind is ErrorKind.DUPLICATE_CHOICE_LABEL


def test_oauth2_types():
    ts = type_global(oauth2())
    login, cancel = Label("login", STRING), Label("cancel", STRING)
    pwd, quit_, auth = Label("pwd", STRING), Label("quit", UNIT), Label("auth", BOOL)
    assert ts[S] == Select(
        C, ((login, Branch(A, ((auth, END_T),))), (cancel, END_T))
    )
    assert ts[C] == Branch(
        S, ((login, Select(A, ((pwd, END_T),))), (cancel, Select(A, ((quit_, END_T),))))
    )
    assert ts[A] == Branch(C, ((pwd, Select(S, ((auth, END_T),))), (quit_, END_T)))


def test_calc_recursive_types():
    ts = type_global(calc())
    loop, stop, bye = Label("loop", UNIT), Label("stop", UNIT), Label("bye", UNIT)
    want_c = RecT("X@0", Select(S, ((loop, VarT("X@0")), (stop, Branch(S, ((bye, END_T),))))))
    want_s = RecT("X@1", Branch(C, ((loop, VarT("X@1")), (stop, Select(C, ((bye, END_T),))))))
    assert ts[C] == want_c
    assert ts[S] == want_s
    assert type_equiv(project(calc(), C), want_c)
    assert type_equiv(project(calc(), S), want_s)


def test_loop_not_touching_role_projects_to_end_for_outsider():
    g = rec("X", comm(P, Role("r"), Label("ok", UNIT), var_("X")))
    assert project(g, Q) is END_T


def test_closed_at_forces_end():
    ts = type_global(closed_loop())
    assert ts[C] == Select(P, ((Label("init", UNIT), END_T),))
    assert project(closed_loop(), C) == ts[C]


def test_closed_at_discharges_a_role_before_a_loop_with_an_exit():
    g = closed_exit_loop()
    ts = type_global(g)
    init = Label("init", UNIT)
    loop = RecT("X", Select(Q, ((LOOP, VarT("X")), (STOP, END_T))))
    assert ts[C] == Select(P, ((init, END_T),))
    assert type_equiv(ts[P], Branch(C, ((init, loop),)))
    assert type_equiv(ts[Q], RecT("X", Branch(P, ((LOOP, VarT("X")), (STOP, END_T)))))
    for r in (C, P, Q):
        assert type_equiv(project(g, r), ts[r])


def test_a_role_that_acts_in_one_branch_below_its_closed_at_is_unclosed():
    ping = Label("ping", UNIT)
    for speaks in (comm(C, Q, ping, var_("X")), comm(P, C, ping, var_("X"))):  # c sends, c receives
        g = comm(C, P, Label("init", UNIT), closed_at(C, rec("X", choice_at(P, [
            comm(P, Q, LOOP, speaks),
            comm(P, Q, STOP, end_()),
        ]))))
        with pytest.raises(ProtocolTypeError) as e:
            type_global(g)
        want = (ErrorKind.UNCLOSED_ROLE, "closed_at c contradicts the role's remaining behaviour", ("cont",))
        assert (e.value.kind, e.value.detail, e.value.path) == want
        with pytest.raises(ProtocolTypeError) as e2:
            project(g, C)
        assert (e2.value.kind, e2.value.detail, e2.value.path) == want


def test_a_closed_at_that_re_enters_a_loop_the_role_acts_in_is_unclosed():
    # closed_at(c) below the binder of X, in a loop where c acts: after X, c
    # would have to act again, so c is not closed there; with a choice below
    # the closed_at, and with the variable directly below it
    m, a, b = Label("m", UNIT), Label("a", UNIT), Label("b", UNIT)
    cases = {
        "choice": (rec("X", comm(C, P, m, closed_at(C, choice_at(P, [
            comm(P, Q, a, var_("X")),
            comm(P, Q, b, end_()),
        ])))), C, ("body", "cont")),
        "bare": (rec("X", comm(P, Q, a, closed_at(Q, var_("X")))), Q, ("body", "cont")),
        "nested": (rec("X", comm(C, P, m, rec("Y", comm(P, Q, a, closed_at(C, choice_at(P, [
            comm(P, Q, a, var_("X")),
            comm(P, Q, b, var_("Y")),
        ])))))), C, ("body", "cont", "body", "cont")),
        # the second branch's own X shadows the loop the first one re-enters
        "shadowed": (rec("X", choice_at(C, [
            comm(C, Q, a, comm(Q, P, Label("n0", UNIT), closed_at(C, var_("X")))),
            comm(C, Q, b, comm(Q, P, Label("n1", UNIT), closed_at(C, rec("X", comm(Q, P, m, var_("X")))))),
        ])), C, ("body", "branch[0]", "cont", "cont")),
    }
    for name, (g, r, path) in cases.items():
        want = (ErrorKind.UNCLOSED_ROLE, f"closed_at {r} contradicts the role's remaining behaviour", path)
        for entry in (lambda: type_global(g), lambda: project(g, r)):
            with pytest.raises(ProtocolTypeError) as e:
                entry()
            assert (e.value.kind, e.value.detail, e.value.path) == want, name


def test_a_closed_at_may_re_enter_a_loop_the_role_takes_no_part_in():
    # c acts only before the loop, so re-entering X below closed_at(c) is End
    # for c; so is an inner binder's variable, shadowing an outer one
    m, a, b = Label("m", UNIT), Label("a", UNIT), Label("b", UNIT)
    for g in (
        comm(C, P, m, rec("X", comm(P, Q, a, closed_at(C, var_("X"))))),
        rec("X", comm(C, P, m, closed_at(C, rec("X", choice_at(P, [
            comm(P, Q, a, var_("X")),
            comm(P, Q, b, end_()),
        ]))))),
    ):
        ts = type_global(g)
        assert ts[C] == Select(P, ((m, END_T),))
        for r in (C, P, Q):
            assert type_equiv(project(g, r), ts[r])


def test_missing_closed_at_is_unclosed_role():
    with pytest.raises(ProtocolTypeError) as e:
        type_global(unclosed_loop())
    assert e.value.kind is ErrorKind.UNCLOSED_ROLE
    with pytest.raises(ProtocolTypeError) as e2:
        project(unclosed_loop(), C)
    assert e2.value.kind is ErrorKind.UNCLOSED_ROLE


def test_lying_closed_at_rejected():
    g = closed_at(S, oauth())
    with pytest.raises(ProtocolTypeError) as e:
        type_global(g)
    assert e.value.kind is ErrorKind.UNCLOSED_ROLE


def test_oauth3_rejected_by_both_oracles():
    # The retry loop never touches role a, so a's behaviours across the
    # branches (input vs loop variable) have no merge.
    with pytest.raises(ProtocolTypeError):
        type_global(oauth3())
    with pytest.raises(ProtocolTypeError):
        project(oauth3(), A)


def test_type_global_explicit_roles_allow_idle_roles():
    g = rec("X", comm(P, Role("r"), Label("ok", UNIT), var_("X")))
    ts = type_global(g, (P, Q, Role("r")))
    assert ts[Q] is END_T  # declared but idle: the finished session


def test_type_global_end_is_empty():
    assert type_global(end_()) == {}


def test_unbound_type_var_reported():
    from mpst.chanvec import eval_global
    from mpst.errors import ShapeError
    from mpst.protocol import Var

    for derive in (type_global, lambda g: eval_global(g, None), lambda g: project(g, P)):
        with pytest.raises(ShapeError) as e:
            derive(Var("Z"))
        assert e.value.kind is ErrorKind.UNBOUND_VAR
        assert [(f.kind, f.path) for f in e.value.findings] == [(ErrorKind.UNBOUND_VAR, ())]


def test_corpus_oracle_agreement():
    for name, g in well_typed_corpus().items():
        ts = type_global(g)
        for r in roles_of(g):
            assert type_equiv(ts[r], project(g, r)), name


def test_corpus_failure_agreement():
    for g in (oauth3(), oauth4(), unclosed_loop()):
        with pytest.raises(ProtocolTypeError) as e1:
            type_global(g)
        failed_at = []
        for r in roles_of(g):
            try:
                project(g, r)
            except ProtocolTypeError as e2:
                failed_at.append(e2.kind)
        assert e1.value.kind in failed_at


def _shadowed_rec_protocol(inner_name: str, stop: bool = False):
    # outer loop Y; loop X in the middle; the innermost rec reuses Y's name
    # in the clashing variant, so unfolding X inserts a free outer variable
    # beside a binder of the same name; ``stop`` adds a way out of X
    l = {k: Label(k, UNIT) for k in ("l0", "l1", "l2", "l3", "l4", "stop")}
    exits = [comm(P, Q, l["stop"], end_())] if stop else []
    return rec(
        "Y",
        comm(
            P,
            Q,
            l["l0"],
            rec(
                "X",
                choice_at(
                    P,
                    [
                        comm(
                            P,
                            Q,
                            l["l1"],
                            rec(
                                inner_name,
                                choice_at(
                                    P,
                                    [
                                        comm(P, Q, l["l2"], var_("X")),
                                        comm(P, Q, l["l3"], var_(inner_name)),
                                    ],
                                ),
                            ),
                        ),
                        comm(P, Q, l["l4"], var_("Y")),
                        *exits,
                    ],
                ),
            ),
        ),
    )


def test_shadowed_recursion_names_do_not_capture():
    from mpst.chanvec import eval_global, typecheck_cv

    clashing = _shadowed_rec_protocol("Y")
    renamed = _shadowed_rec_protocol("Z")  # the same protocol, alpha-varied
    ts1, ts2 = type_global(clashing), type_global(renamed)
    for r in roles_of(clashing):
        assert type_equiv(ts1[r], ts2[r]), r
        assert type_equiv(ts1[r], project(clashing, r))
    vs, table = eval_global(clashing, "sx")
    env = table.payload_env()
    for r, v in zip(roles_of(clashing), vs):
        assert type_equiv(typecheck_cv(v, env, table), ts1[r])


def test_branch_reorder_invariance():
    for name, g in well_typed_corpus().items():
        if not isinstance(g, Choice):
            continue
        flipped = Choice(g.at, tuple(reversed(g.branches)))
        ts, ts2 = type_global(g), type_global(flipped)
        for r in roles_of(g):
            assert type_equiv(ts[r], ts2[r]), name
