"""Builders, shape validation, and role discovery."""

from __future__ import annotations

import copy
import itertools
import pickle

import pytest

from corpus import A, C, P, Q, S, g_auth, generated_candidates, hand_written, oauth, oauth4
from helpers import alloc
from mpst import (
    Choice,
    Comm,
    ErrorKind,
    Label,
    Role,
    Var,
    choice_at,
    closed_at,
    comm,
    end_,
    open_session,
    rec,
    roles_of,
    type_global,
    validate_shape,
    var_,
)
from mpst.chanvec import ChannelTable, OutRec, typecheck_cv
from mpst.dsl import parse_protocol
from mpst.errors import EmptyChoiceError, MpstError, ParseError, SelfSendError
from mpst.protocol import END, ClosedAt, Rec, bind_roles
from mpst.types import END_T


def test_comm_builds_nested_chain():
    g = comm(C, A, Label("pwd"), comm(A, S, Label("auth"), end_()))
    assert isinstance(g, Comm)
    assert g.from_role == C and g.to_role == A
    assert isinstance(g.cont, Comm)
    assert [r.name for r in roles_of(g)] == ["c", "a", "s"]


def test_comm_rejects_self_send():
    with pytest.raises(SelfSendError) as e:
        comm(A, A, Label("auth"), end_())
    assert e.value.kind is ErrorKind.SELF_SEND


def test_choice_single_branch_normalizes():
    g = oauth()
    assert choice_at(S, [g]) is g


def test_choice_empty_rejected():
    with pytest.raises(EmptyChoiceError):
        choice_at(S, [])


def test_role_is_its_name():
    c = Role("c")
    assert c == "c" and "c" == c and hash(c) == hash("c")
    assert {"c": 1}[c] == 1 and {c: 1}["c"] == 1
    assert c.name == "c" and type(c.name) is str
    assert str(c) == f"{c}" == "c" and type(str(c)) is str
    assert repr(c) == "Role(name='c')"
    with pytest.raises(ValueError, match=r"^role name must be a nonempty word: ''$"):
        Role("")
    with pytest.raises(ValueError, match=r"^role name must be a nonempty word: 'a b'$"):
        Role("a b")
    with pytest.raises(AttributeError):
        c.index = 3
    with pytest.raises(AttributeError):
        c.name = "d"
    assert "index" not in Role.__dict__ and Role.index is str.index  # only str's own method


def test_a_role_or_label_name_that_starts_with_a_digit_is_refused():
    """A name is a word that does not start with a digit, the DSL's
    identifier, so that ``print_protocol``'s output reads every name back."""
    with pytest.raises(ValueError, match=r"^role name must be a nonempty word: '1a'$"):
        Role("1a")
    with pytest.raises(ValueError, match=r"^label name must be a nonempty word: '1m'$"):
        Label("1m")


def test_label_identity_includes_payload():
    from mpst import INT, STRING

    assert Label("m", INT) != Label("m", STRING)
    assert Label("m", INT) == Label("m", INT)


def test_session_sorts_must_be_closed():
    from mpst import SessionSort
    from mpst.types import Branch, RecT, VarT

    SessionSort(RecT("X", Branch(P, ((Label("m"), VarT("X")),))))  # closed: fine
    with pytest.raises(ValueError):
        SessionSort(Branch(P, ((Label("m"), VarT("X")),)))  # free X


def test_validate_unguarded():
    report = validate_shape(rec("X", var_("X")))
    assert report.kinds() == {ErrorKind.UNGUARDED_RECURSION}


def test_validate_unbound():
    report = validate_shape(var_("Y"))
    assert report.kinds() == {ErrorKind.UNBOUND_VAR}


def test_validate_oauth_clean():
    assert validate_shape(oauth()).ok
    assert validate_shape(g_auth()).ok


def test_validate_choice_guards_recursion():
    g = rec("X", choice_at(P, [comm(P, Q, Label("a"), var_("X")), comm(P, Q, Label("b"), end_())]))
    assert validate_shape(g).ok
    bad = rec("X", Choice(P, (Var("X"), comm(P, Q, Label("b"), end_()))))
    assert ErrorKind.UNGUARDED_RECURSION in validate_shape(bad).kinds()


def test_validate_direct_construction():
    # builders refuse these shapes; direct AST construction still gets caught
    bad = Comm(P, P, Label("m"), END)
    assert ErrorKind.SELF_SEND in validate_shape(bad).kinds()
    assert ErrorKind.EMPTY_CHOICE in validate_shape(Choice(P, ())).kinds()


def test_roles_of_first_appearance_and_indices():
    g = oauth()
    rs = roles_of(g)
    assert [r.name for r in rs] == ["s", "c", "a"]
    assert all(r is own for r, own in zip(rs, (S, C, A)))  # the protocol's own role objects
    first, later = Role("p"), Role("p")
    assert roles_of(comm(first, Q, Label("m"), comm(later, Q, Label("n"), end_())))[0] is first


def test_a_plain_name_in_a_protocol_is_made_a_role():
    # the dataclass constructors take any value; the front walk makes each
    # first-met name a Role, so an invalid name is refused as Role refuses it
    g = Comm("p", "q", Label("m"), END)
    assert [type(r) for r in roles_of(g)] == [Role, Role] and roles_of(g) == ("p", "q")
    assert list(type_global(g)) == ["p", "q"]
    bad = Comm("a b", "q", Label("m"), END)
    for entry in (validate_shape, roles_of, type_global, open_session):
        with pytest.raises(ValueError, match=r"^role name must be a nonempty word: 'a b'$"):
            entry(bad)


def test_roles_of_trivia():
    assert roles_of(end_()) == ()
    g = rec("X", comm(P, Q, Label("m"), var_("X")))
    assert [r.name for r in roles_of(g)] == ["p", "q"]


def test_roles_of_closed_at_and_choice_introduce_roles():
    from mpst import closed_at

    g = closed_at(C, rec("X", comm(P, Q, Label("m"), var_("X"))))
    assert [r.name for r in roles_of(g)] == ["c", "p", "q"]


def test_roles_of_branch_reorder_same_set():
    from corpus import oauth2

    g = oauth2()
    assert isinstance(g, Choice)
    flipped = Choice(g.at, tuple(reversed(g.branches)))
    assert {r.name for r in roles_of(g)} == {r.name for r in roles_of(flipped)}


def test_bind_roles_checks_coverage_and_dupes():
    g = oauth()
    bound = bind_roles([A, C, S], g)
    assert [r.name for r in bound] == ["a", "c", "s"]
    assert bind_roles(["a", "c", "s"], g) == bound and all(type(r) is Role for r in bind_roles("acs", g))
    with pytest.raises(ValueError, match=r"^declared roles do not cover protocol roles: missing \['a'\]$"):
        bind_roles([S, C], g)
    with pytest.raises(ValueError, match="^declared roles contain duplicates$"):
        bind_roles([S, C, A, A], g)


def _paths_to_vars(g, path=()):
    """Independent oracle: every binder-to-use path, with its Comm count
    (``None`` for a use no binder scopes)."""
    out = []

    def walk(node, path, binders):
        if isinstance(node, Comm):
            walk(node.cont, path + ("cont",), {v: n + 1 for v, n in binders.items()})
        elif isinstance(node, Choice):
            for step, b in node.children():
                walk(b, path + (step,), dict(binders))
        elif isinstance(node, Rec):
            inner = dict(binders)
            inner[node.var] = 0
            walk(node.body, path + ("body",), inner)
        elif isinstance(node, ClosedAt):
            walk(node.cont, path + ("cont",), dict(binders))
        elif isinstance(node, Var):
            out.append((node.var, path, binders.get(node.var)))

    walk(g, path, {})
    return out


def _assert_scoping_matches_paths(g):
    """validate_shape flags a use as unguarded exactly when its binder-to-use
    path carries no communication, and as unbound exactly when no binder
    scopes it, each at the use's path."""
    uses = _paths_to_vars(g)
    for kind, wanted in ((ErrorKind.UNGUARDED_RECURSION, lambda n: n == 0),
                         (ErrorKind.UNBOUND_VAR, lambda n: n is None)):
        expected = {(v, p) for v, p, n in uses if wanted(n)}
        got = {(f.detail.split()[2], f.path) for f in validate_shape(g) if f.kind is kind}
        assert got == expected, f"{kind} for {g!r}"


def test_unguarded_matches_path_enumeration():
    """validate_shape flags a variable exactly when some binder-to-use path
    carries no communication."""
    labels = [Label("a"), Label("b")]
    shapes = []
    for guard1, guard2 in itertools.product([True, False], repeat=2):
        b1 = comm(P, Q, labels[0], var_("X")) if guard1 else var_("X")
        b2 = comm(P, Q, labels[1], var_("X")) if guard2 else var_("X")
        shapes.append(rec("X", Choice(P, (b1, b2))))
    shapes.append(rec("X", comm(P, Q, labels[0], rec("Y", var_("X")))))
    shapes.append(rec("X", rec("Y", var_("Y"))))
    for g in shapes:
        expected = {v for v, _p, n in _paths_to_vars(g) if n == 0}
        got = {
            f.detail.split()[2]
            for f in validate_shape(g)
            if f.kind is ErrorKind.UNGUARDED_RECURSION
        }
        assert got == expected, f"for {g!r}"
        _assert_scoping_matches_paths(g)


def test_scope_is_restored_after_each_binder():
    """Hand cases for the one bound-variable dict, set and restored at each
    Rec: shadowing, a sibling branch after an inner binder, and closed_at
    between a binder and its use."""
    a = Label("a")
    guarded_x = rec("X", comm(P, Q, a, var_("X")))
    cases = {
        # a shadowed same-name Rec: the inner binder resets the count
        "shadow": (rec("X", comm(P, Q, a, rec("X", var_("X")))), [("UnguardedRecursion", ("body", "cont", "body"))]),
        "shadow_guarded": (rec("X", rec("X", comm(P, Q, a, var_("X")))), []),
        # the sibling branch sees the outer X again once the inner one closes
        "sibling_outer": (rec("X", Choice(P, (guarded_x, var_("X")))), [("UnguardedRecursion", ("body", "branch[1]"))]),
        "sibling_outer_guarded": (rec("X", comm(P, Q, a, Choice(P, (rec("X", var_("X")), var_("X"))))),
                                  [("UnguardedRecursion", ("body", "cont", "branch[0]", "body"))]),
        "sibling_other_name": (rec("X", comm(P, Q, a, Choice(P, (rec("Y", var_("Y")), var_("X"))))),
                               [("UnguardedRecursion", ("body", "cont", "branch[0]", "body"))]),
        # no binder outside the branch: the sibling's X is unbound
        "sibling_unbound": (Choice(P, (guarded_x, var_("X"))), [("UnboundVar", ("branch[1]",))]),
        # closed_at is not a communication
        "closed_at_unguarded": (rec("X", closed_at(Q, var_("X"))), [("UnguardedRecursion", ("body", "cont"))]),
        "closed_at_guarded": (rec("X", comm(P, Q, a, closed_at(Q, var_("X")))), []),
        "closed_at_shadow": (rec("X", comm(P, Q, a, closed_at(Q, rec("X", var_("X"))))),
                             [("UnguardedRecursion", ("body", "cont", "cont", "body"))]),
    }
    for name, (g, want) in cases.items():
        assert [(f.kind.value, f.path) for f in validate_shape(g)] == want, name
        _assert_scoping_matches_paths(g)


def test_scoping_matches_paths_on_corpus_and_generated():
    protocols = hand_written() + generated_candidates(2500)
    for g in protocols:
        _assert_scoping_matches_paths(g)
    assert sum(not validate_shape(g).ok for g in protocols) > 300


def _raised(run) -> Exception:
    with pytest.raises(Exception) as e:
        run()
    return e.value


def _subclasses(cls: type) -> set[type]:
    return {cls}.union(*(_subclasses(c) for c in cls.__subclasses__()))


def test_every_error_survives_pickle_and_copy():
    """An error keeps its constructor's arguments as ``args`` and builds its
    message from its fields, so a copy or an unpickled error has the same
    kind, detail, path, findings and message, for every error class.  The
    typing error is raised below a Choice, whose path ``eval_global`` puts in
    front of the caught error's."""
    errors = [
        _raised(lambda: comm(A, A, Label("m"), end_())),
        _raised(lambda: choice_at(S, [])),
        _raised(lambda: type_global(rec("X", var_("X")))),
        _raised(lambda: type_global(comm(P, S, Label("go"), oauth4()))),
        _raised(lambda: typecheck_cv(OutRec(Q, ((Label("m"), alloc(ChannelTable("t"), P, Q, Label("m")), END_T),)), {})),
        _raised(lambda: open_session(oauth()).endpoints[S].send(A, "login", "Hi")),
        _raised(lambda: parse_protocol("@")),
    ]
    assert {type(e) for e in errors} == _subclasses(MpstError) - {MpstError} | {ParseError}
    assert errors[3].path == ("cont",) and str(errors[3]).endswith(" at cont")
    for e in errors + [MpstError(ErrorKind.TIMEOUT, "late", ("cont",))]:
        for again in (pickle.loads(pickle.dumps(e)), copy.copy(e)):
            assert type(again) is type(e) and str(again) == str(e) and repr(again) == repr(e)
            for field in ("kind", "detail", "path", "findings", "msg", "line", "col"):
                assert getattr(again, field, None) == getattr(e, field, None), (e, field)


def test_a_base_sort_pickles_and_copies_as_its_module_constant():
    """A base sort carries its payload class and scripted literal, and a
    pickled or copied one is the module's own constant, so a protocol's
    pickle holds each sort's name only."""
    from mpst.protocol import BASE_SORTS

    assert [(s.payload_class, s.literal) for s in BASE_SORTS.values()] == [
        (type(None), None), (bool, True), (int, 42), (str, "x")]
    for sort in BASE_SORTS.values():
        for again in (pickle.loads(pickle.dumps(sort)), copy.copy(sort), copy.deepcopy(sort)):
            assert again is sort
    label = Label("m", BASE_SORTS["int"])
    assert pickle.loads(pickle.dumps(label)).payload is BASE_SORTS["int"]


def test_base_sorted_labels_hash_and_compare_with_no_python_call_into_the_library():
    """A base sort compares and hashes by identity, so hashing a label and
    comparing payloads, as ``merge``, ``typecheck_cv`` and ``_payload_sub``
    do, runs no Python code of the library."""
    from mpst.protocol import BASE_SORTS
    from test_bench_names import _library_calls

    sorts = list(BASE_SORTS.values())
    labels = [Label("m", s) for s in sorts]
    again = [Label("m", s) for s in sorts]

    def use():
        return ([hash(l) for l in labels], [l == k for l in labels for k in again],
                [s == t for s in sorts for t in sorts], len(set(labels + again)))

    (hashes, labels_equal, sorts_equal, distinct), calls = _library_calls(use)
    assert dict(calls) == {}
    assert hashes == [hash(l) for l in again] and distinct == 4
    assert labels_equal == sorts_equal == [i == j for i in range(4) for j in range(4)]
