"""Channel-vector evaluation, merging, and re-typing."""

from __future__ import annotations

import pytest

from corpus import (
    A,
    C,
    P,
    Q,
    R,
    S,
    T,
    calc,
    g_auth,
    nonparticipant_choice,
    oauth2,
    oauth4,
    unclosed_loop,
    well_typed_corpus,
)
from helpers import alloc, channel_classes
from mpst import (
    Label,
    Role,
    UNIT,
    choice_at,
    closed_at,
    comm,
    end_,
    open_session,
    rec,
    roles_of,
    var_,
)
from mpst.chanvec import (
    ChannelName,
    ChannelTable,
    OutRec,
    WrappedInp,
    dump_channel_vectors,
    eval_global,
    fixv,
    typecheck_cv,
    unfold_cv,
)
from mpst.errors import ErrorKind, ProtocolTypeError
from mpst.types import END_T, LocalType, RecT, VarT, merge, project, type_equiv, type_global


def test_eval_g_auth_structure():
    g = g_auth()
    vs, table = eval_global(g, "s0")
    c_vec, s_vec = vs
    assert isinstance(c_vec, OutRec) and c_vec.peer == S
    (label, slot, cont) = c_vec.branches[0]
    name = table.names[slot]
    assert label.name == "auth" and name.index == 0
    assert (name.from_role, name.to_role) == (C, S)
    assert isinstance(cont, WrappedInp) and cont.peer == S
    assert sorted(cont.labels()) == ["cancel", "ok"]
    assert isinstance(s_vec, WrappedInp) and s_vec.peer == C
    inner = s_vec.branches[0][2]
    assert isinstance(inner, OutRec) and sorted(inner.labels()) == ["cancel", "ok"]


def test_eval_g_auth_channel_classes():
    _, table = eval_global(g_auth(), "s0")
    assert channel_classes(table) == {
        (frozenset({"c", "s"}), "auth", 0),
        (frozenset({"c", "s"}), "ok", 0),
        (frozenset({"c", "s"}), "cancel", 0),
    }


def test_eval_end_all_unit():
    g = comm(P, Q, Label("m"), end_())
    vs, _ = eval_global(end_(), "s0", roles_of(g))
    assert vs == (END_T, END_T)


def test_eval_nonparticipant_choice_merges_arms():
    g = nonparticipant_choice()
    vs, table = eval_global(g, "s0")
    a_vec = vs[list(r.name for r in roles_of(g)).index("a")]
    assert isinstance(a_vec, WrappedInp) and a_vec.peer == S
    assert sorted(a_vec.labels()) == ["cancel", "ok"]
    names = {(n.from_role.name, n.to_role.name, n.label.name, n.index)
             for n in (table.names[s] for _, s, _ in a_vec.branches)}
    assert names == {("s", "a", "ok", 0), ("s", "a", "cancel", 0)}


def _nodes(v, out):
    """Every OutRec and WrappedInp of a vector, in walk order."""
    if isinstance(v, RecT):
        _nodes(v.body, out)
    elif isinstance(v, (OutRec, WrappedInp)):
        out.append(v)
        for e in v.branches:
            _nodes(e[-1], out)
    return out


def test_evaluated_nodes_keep_the_public_constructors_contract():
    """Vector nodes are made without their constructors, and must still be
    frozen, equal to and hash like the constructors' nodes, and print as
    before; so must the channel names that the table builds for their slots."""
    vs, table = eval_global(g_auth(), "s0")
    slot = vs[0].branches[0][1]
    name = table.names[slot]
    assert repr(name) == ("ChannelName(from_role=Role(name='c'), to_role=Role(name='s'), "
                          "label=Label(name='auth', payload=string), index=0, key=2)")
    assert str(name) == "<c,s,auth,0>"
    assert repr(OutRec(S, ((Label("m"), slot, END_T),))) == (
        f"OutRec(peer=Role(name='s'), branches=((Label(name='m', payload=unit), {slot!r}, EndT()),))")
    for g in well_typed_corpus().values():
        vs, table = eval_global(g, "s0")
        for name in table.names:
            built = ChannelName(name.from_role, name.to_role, name.label, name.index, name.key)
            assert type(name) is ChannelName and name == built and hash(name) == hash(built)
            with pytest.raises(AttributeError):
                name.index = 1
        for v in vs:
            for node in _nodes(v, []):
                built = type(node)(node.peer, node.branches)
                assert node == built and built == node and hash(node) == hash(built)
                with pytest.raises(AttributeError):
                    node.peer = P
                with pytest.raises(AttributeError):
                    node.branches = ()


def test_eval_index_allocation_increments():
    ping, pong = Label("ping"), Label("pong")
    g = comm(P, Q, ping, comm(Q, P, pong, comm(P, Q, ping, comm(Q, P, pong, end_()))))
    _, table = eval_global(g, "s0")
    assert channel_classes(table) == {
        (frozenset({"p", "q"}), "ping", 0),
        (frozenset({"p", "q"}), "ping", 1),
        (frozenset({"p", "q"}), "pong", 0),
        (frozenset({"p", "q"}), "pong", 1),
    }


def test_eval_errors_mirror_typing():
    with pytest.raises(ProtocolTypeError) as e:
        eval_global(oauth4(), "s0")
    assert e.value.kind is ErrorKind.ACTIVE_ROLE_MISMATCH
    with pytest.raises(ProtocolTypeError) as e2:
        eval_global(unclosed_loop(), "s0")
    assert e2.value.kind is ErrorKind.UNCLOSED_ROLE


def test_output_menus_differing_across_branches_rejected_by_every_route():
    # only b learns a's choice, yet c offers b {x, y} in one branch and {x}
    # in the other: c's outputs cannot be merged
    a, b, c = Role("a"), Role("b"), Role("c")
    x, y = Label("x"), Label("y")
    g = choice_at(a, [
        comm(a, b, Label("go"), choice_at(c, [comm(c, b, x, end_()), comm(c, b, y, end_())])),
        comm(a, b, Label("st"), comm(c, b, x, end_())),
    ])
    routes = [
        lambda: eval_global(g, "s0"),
        lambda: type_global(g),
        lambda: project(g, c),
        lambda: open_session(g),
    ]
    paths = set()
    for route in routes:
        with pytest.raises(ProtocolTypeError) as e:
            route()
        assert e.value.kind is ErrorKind.OUTPUT_MERGE_MISMATCH
        paths.add(e.value.path)
    assert len(paths) == 1


def test_choice_unifies_decider_side_names():
    # both branches start s->c under the same labels only if disjoint; the
    # third role's input names for shared labels are unified by merge
    ok, no = Label("ok"), Label("no")
    g = choice_at(
        S,
        [
            comm(S, C, ok, comm(S, A, Label("fwd"), end_())),
            comm(S, C, no, comm(S, A, Label("fwd"), end_())),
        ],
    )
    vs, table = eval_global(g, "s0")
    a_vec = vs[2]
    assert isinstance(a_vec, WrappedInp)
    assert len(a_vec.branches) == 1  # fwd arms from both branches collapsed
    classes = channel_classes(table)
    assert (frozenset({"s", "a"}), "fwd", 0) in classes
    assert (frozenset({"s", "a"}), "fwd", 1) not in classes


def test_nested_merges_chain_one_class_and_payload_env_compresses_it():
    # c is told of neither choice, so its four receives of m from b merge
    # into one class: each inner merge joins two slots and the outer merge
    # joins their roots, leaving a chain two links deep
    a, b, c = Role("a"), Role("b"), Role("c")
    m = Label("m")

    def leaf(i):
        return comm(a, b, Label(f"l{i}"), comm(b, c, m, end_()))

    g = choice_at(a, [
        comm(a, b, Label("l0"), choice_at(a, [leaf(1), leaf(2)])),
        comm(a, b, Label("l3"), choice_at(a, [leaf(4), leaf(5)])),
    ])
    _, table = eval_global(g, "s0")
    parent = table._parent

    def depth(key):
        d = 0
        while parent[key] != key:
            key, d = parent[key], d + 1
        return d

    m_slots = [n.key for n in table.names if n.label == m]
    assert len(m_slots) == 4
    assert max(depth(k) for k in m_slots) == 2
    table.payload_env()
    assert all(parent[parent[k]] == parent[k] for k in range(len(parent)))  # every parent is a root
    assert [cls for cls in channel_classes(table) if cls[1] == "m"] == [(frozenset({"b", "c"}), "m", 0)]
    ts = type_global(g)
    for r in (a, b, c):
        assert type_equiv(ts[r], project(g, r)), r


def _reachable_names(v: LocalType):
    """Every channel reference in a vector, with the side it occurs on
    ("in" or "out").  Recursion bodies are visited once (loop variables stop
    the walk)."""
    seen: set[int] = set()

    def walk(c: LocalType):
        if isinstance(c, RecT):
            if id(c) in seen:
                return
            seen.add(id(c))
            yield from walk(c.body)
        elif isinstance(c, (OutRec, WrappedInp)):
            side = "out" if isinstance(c, OutRec) else "in"
            for _, s, k in c.branches:
                yield s, side
                yield from walk(k)

    return walk(v)


def test_two_endpoint_property_on_corpus():
    for name, g in well_typed_corpus().items():
        vs, table = eval_global(g, "s0")
        sides: dict = {}
        for v in vs:
            for chan, side in _reachable_names(v):
                key = table.find(chan)
                sides.setdefault(key, []).append(side)
        for key, uses in sides.items():
            assert sorted(set(uses)) == ["in", "out"], (name, key, uses)


# --- the operations of the value calculus ------------------------------------


def test_unfold_cv_trivia():
    assert unfold_cv(END_T) is END_T
    loop = RecT("X", OutRec(Q, ((Label("m"), _fresh_name(), VarT("X")),)))
    u = unfold_cv(loop)
    assert isinstance(u, OutRec)
    assert unfold_cv(u) is u  # idempotent


def _fresh_name():
    t = ChannelTable("t")
    return alloc(t, P, Q, Label("m"))


def test_fixv_rules():
    assert fixv("X", VarT("X")) is END_T
    body = OutRec(Q, ((Label("m"), _fresh_name(), VarT("X")),))
    assert fixv("X", body) == RecT("X", body)


# --- merge on channel vectors ----------------------------------------------


def _cv_trees_equal(a, b, depth: int) -> bool:
    if depth <= 0:
        return True
    a, b = unfold_cv(a), unfold_cv(b)
    if type(a) is not type(b):
        return False
    if isinstance(a, (OutRec, WrappedInp)):
        if a.peer != b.peer:
            return False
        ia = sorted(a.branches, key=lambda x: x[0].name)
        ib = sorted(b.branches, key=lambda x: x[0].name)
        if [(l.name, s) for l, s, _ in ia] != [(l.name, s) for l, s, _ in ib]:
            return False
        return all(_cv_trees_equal(x, y, depth - 1) for (_, _, x), (_, _, y) in zip(ia, ib))
    if isinstance(a, VarT):
        return a == b
    return True  # EndT


def test_merge_cv_unit():
    assert merge(END_T, END_T, table=ChannelTable("t")) is END_T


def test_merge_cv_input_union():
    t = ChannelTable("t")
    n1, n2 = alloc(t, S, A, Label("ok")), alloc(t, S, A, Label("cancel"))
    left = WrappedInp(S, ((Label("ok"), n1, END_T),))
    right = WrappedInp(S, ((Label("cancel"), n2, END_T),))
    got = merge(left, right, table=t)
    assert isinstance(got, WrappedInp)
    assert sorted(got.labels()) == ["cancel", "ok"]


def test_merge_cv_output_intersection_and_unification():
    t = ChannelTable("t")
    n1, n2 = alloc(t, S, A, Label("m")), alloc(t, S, A, Label("m"))
    left = OutRec(A, ((Label("m"), n1, END_T),))
    right = OutRec(A, ((Label("m"), n2, END_T),))
    got = merge(left, right, table=t)
    assert isinstance(got, OutRec)
    assert t.find(n1) == t.find(n2)
    assert got.branches[0][1] == n1  # left slot kept


def test_merge_cv_output_menus_must_be_equal():
    t = ChannelTable("t")
    x1, y1, x2 = alloc(t, S, A, Label("x")), alloc(t, S, A, Label("y")), alloc(t, S, A, Label("x"))
    both = OutRec(A, ((Label("x"), x1, END_T), (Label("y"), y1, END_T)))
    only_x = OutRec(A, ((Label("x"), x2, END_T),))
    for left, right in ((both, only_x), (only_x, both)):
        with pytest.raises(ProtocolTypeError) as e:
            merge(left, right, table=t)
        assert e.value.kind is ErrorKind.OUTPUT_MERGE_MISMATCH
    assert t.find(x1) != t.find(x2)  # nothing unified on failure


def test_merge_cv_shape_and_peer_mismatch():
    t = ChannelTable("t")
    n1 = alloc(t, S, A, Label("m"))
    out, inp = OutRec(A, ((Label("m"), n1, END_T),)), WrappedInp(S, ((Label("m"), n1, END_T),))
    for left, right in ((out, END_T), (inp, VarT("X")), (out, inp)):
        with pytest.raises(ProtocolTypeError) as e:
            merge(left, right, table=t)
        assert e.value.kind is ErrorKind.OUTPUT_MERGE_MISMATCH
    with pytest.raises(ProtocolTypeError) as e:
        merge(out, OutRec(C, ((Label("m"), n1, END_T),)), table=t)
    assert e.value.kind is ErrorKind.NON_DIRECTED_OUTPUT
    with pytest.raises(ProtocolTypeError) as e:
        merge(inp, WrappedInp(C, ((Label("m"), n1, END_T),)), table=t)
    assert e.value.kind is ErrorKind.NON_DIRECTED_INPUT


def test_merge_cv_recursive_self_merge_terminates_alpha_equal():
    t = ChannelTable("t")
    n = alloc(t, P, Q, Label("m"))
    loop = RecT("X", OutRec(Q, ((Label("m"), n, VarT("X")),)))
    got = merge(loop, loop, table=t)
    assert _cv_trees_equal(got, loop, 10)


def test_merge_cv_asymmetric_recursion():
    t = ChannelTable("t")
    n1 = alloc(t, P, Q, Label("go"))
    n2 = alloc(t, P, Q, Label("halt"))
    loop = RecT("X", WrappedInp(P, ((Label("go"), n1, VarT("X")),)))
    fin = WrappedInp(P, ((Label("halt"), n2, END_T),))
    got = merge(loop, fin, table=t)
    u = unfold_cv(got)
    assert isinstance(u, WrappedInp)
    assert sorted(u.labels()) == ["go", "halt"]


# --- typecheck_cv and realisability -------------------------------------------


def test_typecheck_unit_is_end():
    from mpst.types import END_T

    assert typecheck_cv(END_T, {}) == END_T


def test_typecheck_payload_disagreement():
    """A disagreement, or a channel the environment does not cover, is a
    ``CvTypeError`` whose message names the channel through the table, or
    its slot when no table is given."""
    from mpst import INT
    from mpst.errors import CvTypeError

    t = ChannelTable("t")
    n = alloc(t, P, Q, Label("m", INT))
    vec = OutRec(Q, ((Label("m", UNIT), n, END_T),))
    misused = "is registered with sort int but used under label m(unit)"
    cases = [
        ((t.payload_env(), t), f"channel <p,q,m,0> {misused}"),
        ((t.payload_env(),), f"channel slot 0 {misused}"),
        (({}, t), "channel <p,q,m,0> is not covered by the environment"),
        (({},), "channel slot 0 is not covered by the environment"),
    ]
    for args, detail in cases:
        with pytest.raises(CvTypeError) as e:
            typecheck_cv(vec, *args)
        assert e.value.detail == detail


def test_names_stay_right_when_a_slot_is_allocated_after_a_read():
    """The table names its slots when ``names`` is read; a slot allocated
    after a read is named at the next one, numbered after the names before it."""
    m = Label("m")
    t = ChannelTable("t")
    first = alloc(t, P, Q, m)
    assert [str(n) for n in t.names] == ["<p,q,m,0>"]
    second, back = alloc(t, P, Q, m), alloc(t, Q, P, m)
    assert [(str(n), n.key) for n in t.names] == [("<p,q,m,0>", first), ("<p,q,m,1>", second),
                                                  ("<q,p,m,0>", back)]
    once = ChannelTable("t")
    for a, b in ((P, Q), (P, Q), (Q, P)):
        alloc(once, a, b, m)
    assert once.names == t.names


def test_realisability_on_corpus():
    for name, g in well_typed_corpus().items():
        ts = type_global(g)
        vs, table = eval_global(g, "s0")
        env = table.payload_env()
        for r, v in zip(roles_of(g), vs):
            assert type_equiv(typecheck_cv(v, env, table), ts[r]), name


def test_realisability_randomized():
    from mpst.gen import random_protocols

    for g in random_protocols(60, seed=21, max_roles=3, max_labels=2, max_depth=4):
        ts = type_global(g)
        vs, table = eval_global(g, "sx")
        env = table.payload_env()
        for r, v in zip(roles_of(g), vs):
            assert type_equiv(typecheck_cv(v, env, table), ts[r])


def test_dump_golden_g_auth():
    g = g_auth()
    vs, table = eval_global(g, "s0")
    dump = dump_channel_vectors(vs, table, roles_of(g))
    assert dump == (
        "c: out(s){auth<c,s,auth,0> -> "
        "inp(s)[cancel<s,c,cancel,0> -> unit; ok<s,c,ok,0> -> unit]}\n"
        "s: inp(c)[auth<c,s,auth,0> -> "
        "out(c){cancel<s,c,cancel,0> -> unit; ok<s,c,ok,0> -> unit}]"
    )


def test_dump_is_deterministic():
    g = oauth2()
    one = dump_channel_vectors(*eval_global(g, "s0"), roles_of(g))
    two = dump_channel_vectors(*eval_global(g, "s0"), roles_of(g))
    assert one == two


# The order in which a rejected choice reports its faults: its branches are
# taken in order, and for each branch its own errors come first, then its
# decider step, then its merges with the branches before it.
L0, L1, L2, M, N = (Label(x, UNIT) for x in ("l0", "l1", "l2", "m", "n"))


def _rejection(g) -> tuple[ErrorKind, str, tuple[str, ...]]:
    with pytest.raises(ProtocolTypeError) as e:
        eval_global(g, None)
    with pytest.raises(ProtocolTypeError) as e2:
        type_global(g)
    got = (e.value.kind, e.value.detail, e.value.path)
    assert (e2.value.kind, e2.value.detail, e2.value.path) == got
    return got


def test_a_choice_stops_at_its_first_bad_branch_before_a_later_inner_fault():
    # r's outputs in branches 0 and 1 do not merge; branch 2 holds an inner
    # choice whose decider q does not open its branch 1 with an output
    inner = choice_at(Q, [comm(Q, R, M, end_()), comm(R, Q, N, end_())])
    g = choice_at(P, [
        comm(P, Q, L0, comm(R, Q, M, end_())),
        comm(P, Q, L1, comm(R, Q, N, end_())),
        comm(P, Q, L2, inner),
    ])
    assert _rejection(g) == (ErrorKind.OUTPUT_MERGE_MISMATCH,
                             "output choices toward q differ: ['m'] vs ['n']", ())
    assert _rejection(g.branches[2].cont)[0] is ErrorKind.ACTIVE_ROLE_MISMATCH


def test_a_merge_fault_in_an_earlier_branch_comes_before_a_later_decider_fault():
    g = comm(Q, P, L0, choice_at(P, [
        comm(P, Q, L0, comm(R, Q, M, end_())),
        comm(P, Q, L1, comm(R, Q, N, end_())),
        comm(Q, P, L2, comm(R, Q, M, end_())),  # p does not open with an output
    ]))
    assert _rejection(g) == (ErrorKind.OUTPUT_MERGE_MISMATCH,
                             "output choices toward q differ: ['m'] vs ['n']", ("cont",))


def test_in_one_branch_the_decider_fault_comes_before_the_merge_fault():
    g = choice_at(P, [
        comm(P, Q, L0, comm(R, Q, M, end_())),
        comm(Q, P, L1, comm(R, Q, N, end_())),
    ])
    assert _rejection(g) == (ErrorKind.ACTIVE_ROLE_MISMATCH,
                             "deciding role p does not start with an output in this branch",
                             ("branch[1]",))


@pytest.mark.parametrize("g, want", [
    (oauth4(), (ErrorKind.ACTIVE_ROLE_MISMATCH,
                "active role mismatch: branch 0 decides toward c, branch 1 toward a", ())),
    (comm(Q, P, L0, choice_at(P, [
        comm(P, Q, L0, comm(R, Q, M, end_())),
        comm(P, Q, L1, comm(R, Q, M, end_())),
        comm(P, Q, L2, comm(R, Q, N, end_())),
    ])), (ErrorKind.OUTPUT_MERGE_MISMATCH,
          "output choices toward q differ: ['m'] vs ['n']", ("cont",))),
    (choice_at(P, [comm(P, Q, L0, end_()), comm(P, Q, L1, end_()), comm(P, Q, L0, end_())]),
     (ErrorKind.DUPLICATE_CHOICE_LABEL,
      "label l0 is offered by more than one branch of the choice", ())),
    (choice_at(P, [comm(P, Q, L0, end_()), comm(P, Q, L1, end_()), comm(Q, P, L2, end_())]),
     (ErrorKind.ACTIVE_ROLE_MISMATCH,
      "deciding role p does not start with an output in this branch", ("branch[2]",))),
    (choice_at(P, [
        comm(P, Q, L0, comm(R, Q, M, end_())),
        comm(P, Q, L1, comm(R, Q, M, choice_at(Q, [comm(Q, R, M, end_()), comm(R, Q, N, end_())]))),
    ]), (ErrorKind.ACTIVE_ROLE_MISMATCH,
         "deciding role q does not start with an output in this branch",
         ("branch[1]", "cont", "cont", "branch[1]"))),
    (unclosed_loop(), (ErrorKind.UNCLOSED_ROLE,
                       "role c takes no part in this loop; annotate it with closed_at",
                       ("cont",))),
], ids=["peer", "merge-in-branch-2", "duplicate-label", "no-opening-output", "inner", "unclosed"])
def test_a_single_fault_is_reported_as_before(g, want):
    assert _rejection(g) == want


def test_fresh_binders_are_numbered_in_the_order_the_merges_run():
    """A merge of two loops numbers its fresh binders from one counter per
    compile, in the order the merges run: branch by branch, and role by role
    within a branch.  Here r and t each merge a loop from three branches,
    and each merge numbers two binders, so r keeps %5 from its second merge
    and t keeps %7.  The types are the oracle's up to the binder names."""
    loop = rec("X", comm(R, T, L0, var_("X")))
    g = choice_at(P, [comm(P, Q, l, closed_at(P, closed_at(Q, loop))) for l in (L0, L1, L2)])
    local = type_global(g)
    assert (local[R].var, local[T].var) == ("%5", "%7")
    assert all(type_equiv(local[r], project(g, r)) for r in (P, Q, R, T))
