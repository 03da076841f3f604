"""The one-walk compile front end against the two walks it replaced.

``walk_validate_shape`` and ``walk_roles_of`` are the former
``validate_shape`` and ``roles_of``: one copies its bound-variable dict and
extends its path tuple at every node, the other discovers roles in a walk of
its own.  ``protocol._front`` finds both in one walk and keeps them on the
protocol, and must give identical findings (kind, detail, path and order)
and identical role tuples (names in order).  ``type_global``'s results
on the shape-valid inputs are pinned by a digest taken before the shape
gate moved into ``eval_global``, and ``eval_global``'s vectors, channel
classes and payload sorts (or its and ``type_global``'s exact rejection) by
a digest taken before the Comm-run loop and the cheap vector nodes; on every
shape-faulted input, each compile entry must raise ``ShapeError`` with the
former walk's findings.
"""

from __future__ import annotations

import hashlib
import sys
import threading
import pytest

from corpus import (
    A,
    C,
    LOGIN,
    P,
    QUIT,
    S,
    closed_loop,
    generated_candidates,
    hand_written,
    oauth,
    oauth2,
    oauth3,
)
from helpers import channel_classes
from mpst import (
    Label,
    choice_at,
    comm,
    end_,
    open_session,
    rec,
    roles_of,
    type_global,
    validate_shape,
    var_,
)
from mpst.chanvec import dump_channel_vectors, eval_global
from mpst.errors import ErrorKind, MpstError, ShapeError
from mpst.protocol import (
    END,
    Choice,
    ClosedAt,
    Comm,
    Finding,
    GlobalProtocol,
    Rec,
    Role,
    ValidationReport,
    Var,
    bind_roles,
)
from mpst.types import END_T, project


def walk_validate_shape(g: GlobalProtocol) -> ValidationReport:
    """The former ``validate_shape``."""
    findings: list[Finding] = []

    def walk(node, bound: dict[str, bool], path) -> None:
        # bound maps each in-scope rec var to "still unguarded on this path"
        if isinstance(node, Comm):
            if node.from_role == node.to_role:
                findings.append(
                    Finding(ErrorKind.SELF_SEND, f"role {node.from_role} sends to itself", path)
                )
            walk(node.cont, {v: False for v in bound}, path + ("cont",))
        elif isinstance(node, Choice):
            if not node.branches:
                findings.append(Finding(ErrorKind.EMPTY_CHOICE, "choice with no branches", path))
            for step, b in node.children():
                walk(b, dict(bound), path + (step,))
        elif isinstance(node, Rec):
            inner = dict(bound)
            inner[node.var] = True
            walk(node.body, inner, path + ("body",))
        elif isinstance(node, Var):
            if node.var not in bound:
                findings.append(
                    Finding(ErrorKind.UNBOUND_VAR, f"recursion variable {node.var} is unbound", path)
                )
            elif bound[node.var]:
                findings.append(
                    Finding(
                        ErrorKind.UNGUARDED_RECURSION,
                        f"recursion variable {node.var} occurs with no communication since its binder",
                        path,
                    )
                )
        elif isinstance(node, ClosedAt):
            walk(node.cont, dict(bound), path + ("cont",))

    walk(g, {}, ())
    return ValidationReport(tuple(findings))


def walk_roles_of(g: GlobalProtocol) -> tuple[Role, ...]:
    """The former ``roles_of``."""
    seen: dict[str, Role] = {}

    def walk(node) -> None:
        if isinstance(node, Comm):
            seen.setdefault(node.from_role.name, node.from_role)
            seen.setdefault(node.to_role.name, node.to_role)
            walk(node.cont)
        elif isinstance(node, Choice):
            seen.setdefault(node.at.name, node.at)
            for _, b in node.children():
                walk(b)
        elif isinstance(node, Rec):
            walk(node.body)
        elif isinstance(node, ClosedAt):
            seen.setdefault(node.role.name, node.role)
            walk(node.cont)

    walk(g)
    return tuple(seen.values())


def typing_digest(protocols) -> str:
    """sha256 over ``type_global``'s result for each protocol: the ``repr``
    of the role-to-type dict, or the rejection's kind, detail and path."""
    h = hashlib.sha256()
    for g in protocols:
        try:
            out = repr(type_global(g))
        except MpstError as e:
            out = f"{e.kind}|{e.detail}|{'/'.join(e.path)}"
        h.update(out.encode())
        h.update(b"\n")
    return h.hexdigest()


# typing_digest over the shape-valid inputs of hand_written() +
# generated_candidates(), taken at the commit before the shape gate moved into
# eval_global, and re-taken when a role below closed_at became End in every
# branch of a choice: that changed the result of 39 of the inputs, each a
# candidate with a closed_at mutation: 27 rejections became UnclosedRole, 1
# became NonDirectedOutput, 8 became acceptances, and 3 kept
# OutputMergeMismatch with another detail.  Re-taken again when a closed_at
# that re-enters a loop its role acts in became UnclosedRole: 12 acceptances,
# candidates 370, 2481, 3982, 5698, 6157, 6158, 7326, 7698, 7967, 8494, 8818 and 9262 of
# generated_candidates(), each of the form
# rec X . choice at p {... r acts ... closed_at(r, X)} or {...}.
PINNED_TYPING_DIGEST = "171f32535e36181833ef21ebd329e0cbd21f05c4698f5727c7e325ae9ab6076d"


def compile_digest(protocols) -> str:
    """sha256 over ``eval_global``'s result for each protocol: the dumped
    vectors, the sorted channel classes and the sorted payload sorts of
    every slot; or, on a rejection, the kind, detail, path and message that
    ``eval_global`` and ``type_global`` each raise."""
    h = hashlib.sha256()
    for g in protocols:
        try:
            vectors, table = eval_global(g, None)
        except MpstError:
            outs = []
            for entry in (lambda: eval_global(g, None), lambda: type_global(g)):
                with pytest.raises(MpstError) as e:
                    entry()
                err = e.value
                outs.append(f"{err.kind.value}|{err.detail}|{'/'.join(err.path)}|{err}")
            out = "\n".join(outs)
        else:
            classes = sorted((sorted(pair), label, index) for pair, label, index in channel_classes(table))
            env = sorted(table.payload_env().items())
            out = f"{dump_channel_vectors(vectors, table, roles_of(g))}\n{classes}\n{env}"
        h.update(out.encode())
        h.update(b"\n")
    return h.hexdigest()


# compile_digest over the same inputs, taken at the commit before the
# Comm-run loop, the tuple channel names and the vector nodes built without
# __init__, and re-taken with the typing digest for the same 39 inputs and
# again for the same 12.
PINNED_COMPILE_DIGEST = "dccf449b90c88fd68e0ef3b941d77de314573533499ccd08d310601699ee7c52"


def test_front_end_matches_the_former_walks_and_pinned_typing():
    protocols = hand_written() + generated_candidates()
    kinds = {k: 0 for k in ErrorKind}
    clean = []
    for g in protocols:
        want = walk_validate_shape(g)
        assert validate_shape(g).findings == want.findings, repr(g)
        assert [r.name for r in roles_of(g)] == [r.name for r in walk_roles_of(g)], repr(g)
        if want.ok:
            clean.append(g)
        for f in want:
            kinds[f.kind] += 1
    # every shape fault occurs, and most inputs are clean
    assert all(kinds[k] for k in (ErrorKind.UNBOUND_VAR, ErrorKind.UNGUARDED_RECURSION,
                                  ErrorKind.SELF_SEND, ErrorKind.EMPTY_CHOICE)), kinds
    assert len(clean) > len(protocols) // 2
    assert typing_digest(clean) == PINNED_TYPING_DIGEST
    assert compile_digest(clean) == PINNED_COMPILE_DIGEST


def test_every_entry_rejects_a_shape_fault_with_all_its_findings():
    faulted = 0
    for g in hand_written() + generated_candidates():
        want = walk_validate_shape(g)
        if want.ok:
            continue
        faulted += 1
        entries = {
            "type_global": lambda: type_global(g),
            "eval_global": lambda: eval_global(g, None),
            "project": lambda: project(g, (roles_of(g) or (P,))[0]),
            "open_session": lambda: open_session(g),
        }
        for name, run in entries.items():
            with pytest.raises(ShapeError) as e:
                run()
            assert tuple(e.value.findings) == want.findings, (name, repr(g))
    assert faulted > 1000


def test_front_end_is_kept_on_the_protocol():
    g = oauth2()
    report, roles = validate_shape(g), roles_of(g)
    assert validate_shape(g) is report and roles_of(g) is roles
    bad = rec("X", choice_at(S, [comm(S, C, LOGIN, var_("Y")), var_("X")]))
    assert validate_shape(bad) is validate_shape(bad)
    assert roles_of(bad) is roles_of(bad)


def test_kept_entry_leaves_equality_hash_and_repr_alone():
    walked, fresh = oauth3(), oauth3()
    before = (hash(walked), repr(walked))
    validate_shape(walked)
    assert "_front" in walked.__dict__ and "_front" not in fresh.__dict__
    assert walked == fresh and fresh == walked
    assert (hash(walked), repr(walked)) == before == (hash(fresh), repr(fresh))
    assert len({walked, fresh}) == 1


def test_equal_protocols_built_apart_give_equal_results():
    for build in (oauth3, closed_loop, lambda: Rec("X", Choice(P, (Var("X"), Comm(P, P, QUIT, END))))):
        one, two = build(), build()
        assert one is not two
        assert validate_shape(one) == validate_shape(two)
        assert validate_shape(one) is not validate_shape(two)  # one entry per object, no structural cache
        assert [r.name for r in roles_of(one)] == [r.name for r in roles_of(two)]


def test_discovered_roles_are_ordinary_roles():
    g = oauth()
    roles = roles_of(g)
    assert roles == (S, C, A)
    assert [r.name for r in roles] == ["s", "c", "a"]
    assert [hash(r) for r in roles] == [hash(S), hash(C), hash(A)]
    assert [repr(r) for r in roles] == [repr(S), repr(C), repr(A)]
    assert all(type(r) is Role for r in roles)
    with pytest.raises(AttributeError):
        roles[0].name = "x"
    assert all(r is own for r, own in zip(roles, (S, C, A)))  # the protocol's own roles
    bound = bind_roles([A, C, S], g)
    assert [r.name for r in bound] == ["a", "c", "s"]
    assert roles_of(g) is roles and [r.name for r in roles] == ["s", "c", "a"]
    with pytest.raises(ValueError):
        bind_roles([S, C], g)



def test_threads_walking_one_protocol_at_once_agree():
    """The entry is stored without a lock, so threads that miss at once
    each walk; every one of them must still see the oracle's findings and
    roles, and one entry stands afterwards."""
    protocols = generated_candidates(300)
    want = [(walk_validate_shape(g).findings, [r.name for r in walk_roles_of(g)]) for g in protocols]
    barrier = threading.Barrier(4)
    got: list[list] = [[] for _ in range(4)]

    def walk_all(out: list) -> None:
        barrier.wait()
        for g in protocols:
            out.append((validate_shape(g).findings, [r.name for r in roles_of(g)]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=walk_all, args=(out,)) for out in got]
        for w in workers:
            w.start()
        for w in workers:
            w.join(10.0)
            assert not w.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert all(out == want for out in got)
    assert all(validate_shape(g) is validate_shape(g) and roles_of(g) is roles_of(g) for g in protocols)


def test_compile_entries_refuse_roles_that_miss_or_repeat_a_protocol_role():
    """``roles`` must name every protocol role once, as ``bind_roles``
    requires; each entry raises its ``ValueError`` before evaluating."""
    g = comm(P, S, Label("m"), end_())
    entries = {
        "type_global": lambda roles: type_global(g, roles),
        "eval_global": lambda roles: eval_global(g, None, roles),
        "open_session": lambda roles: open_session(g, roles=roles),
    }
    for name, run in entries.items():
        for roles, why in (((P,), r"missing \['s'\]"), ((P, S, P), "duplicates"), ((P, P), "missing")):
            with pytest.raises(ValueError, match=why) as e:
                run(roles)
            with pytest.raises(ValueError) as want:
                bind_roles(roles, g)
            assert str(e.value) == str(want.value), (name, roles)
    # a listed role the protocol never uses still types as End
    local = type_global(g, (S, C, P))
    assert list(local) == [S, C, P] and local[C] == END_T
    vectors, _ = eval_global(g, None, (S, C, P))
    assert vectors[1] is END_T
    assert open_session(g, roles=(S, C, P)).local_types[C] == END_T
