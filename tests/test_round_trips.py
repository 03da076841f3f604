"""Serialised forms round-trip, on adversarial shapes.

A session sort's text either parses to a sort that ``format_sort`` prints
back to an equal sort, or is refused with a ``ParseError`` that points into
the sort's own text, never with another exception.  A sort that parses
also comes back equal, with an equal hash, from ``pickle``, ``copy`` and
``deepcopy``.  The texts cover repeated labels, free and unguarded loop
variables, the binder spellings that compiling and merging print, and
sessions nested in payloads.

So does every other public value: a protocol, after a compile has left its
caches on it; each of its local types, unfolded; a ``TraceEvent``; and
each error, which comes back of the same type with the same fields,
``args`` and message.  The protocols are the generator's candidates, some
with a shape fault, with their roles, labels and loop variables renamed to
DSL keywords, non-ASCII words and binder spellings.
"""

from __future__ import annotations

import copy
import pickle
import random

import pytest

from corpus import shape_mutant
from mpst import parse_protocol
from mpst.errors import (
    CvTypeError, EmptyChoiceError, ErrorKind, MpstError, ParseError, ProtocolTypeError,
    SelfSendError, SessionRuntimeError, ShapeError,
)
from mpst.gen import ProtocolGenerator
from mpst.protocol import Choice, ClosedAt, Comm, Finding, Label, Rec, Role, Var
from mpst.runtime import EventKind, TraceEvent
from mpst.types import format_sort, type_global, unfold_type

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

BASE = st.sampled_from(["unit", "bool", "int", "string"])
VARS = st.sampled_from(["X", "Y", "X@1", "%2"])
LABELS = st.sampled_from(["m", "n"])


def _grow(inner):
    """One more constructor over ``inner``: a loop, or a choice whose
    labels may repeat and may carry a nested session."""
    sort = st.one_of(BASE, inner.map("session({})".format))
    branch = st.builds("{}({}): {}".format, LABELS, sort, inner)
    choice = st.builds("{}{}{{{}}}".format, st.sampled_from("!?"), st.sampled_from(["a", "b"]),
                       st.lists(branch, min_size=1, max_size=3).map(", ".join))
    return st.one_of(st.builds("rec {} . {}".format, VARS, inner), choice)


LOCAL_TEXTS = st.recursive(st.one_of(st.just("end"), VARS), _grow, max_leaves=8)
SORT_TEXTS = st.one_of(BASE, LOCAL_TEXTS.map("session({})".format))

PREFIX = "protocol P (roles a, b) { a -> b : give("


def _sort_of(text: str):
    return parse_protocol(f"{PREFIX}{text}); }}").body.label.payload


def _sort_of_or_none(text: str):
    try:
        return _sort_of(text)
    except ParseError:
        return None


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(SORT_TEXTS)
def test_a_session_sort_text_prints_back_or_is_refused_at_its_own_token(text):
    try:
        sort = _sort_of(text)
    except ParseError as e:
        assert e.line == 1 and len(PREFIX) < e.col <= len(PREFIX) + len(text), (str(e), text)
        return
    assert _sort_of(format_sort(sort)) == sort


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(SORT_TEXTS)
def test_a_parsed_sort_survives_pickle_and_copy_equal_and_equally_hashed(text):
    """A sort the DSL accepts loads and copies back equal and equally
    hashed: the checks its nodes' constructors make do not stand in the way
    of ``pickle``, ``copy`` or ``deepcopy``."""
    try:
        sort = _sort_of(text)
    except ParseError as e:
        _assert_error_round_trips(e)
        return
    _assert_round_trips(sort)


def _again(value) -> tuple:
    return pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)


def _assert_round_trips(value) -> None:
    for again in _again(value):
        assert again == value and hash(again) == hash(value), value


def _assert_error_round_trips(e: Exception) -> None:
    """An error has no value equality, so compare what it carries: for an
    ``MpstError`` its ``kind``, ``detail`` and ``path``, and for a
    ``ParseError`` its ``msg``, ``line`` and ``col``; ``vars`` holds them
    and anything else a subclass keeps, as ``ShapeError.findings``."""
    fields = ("kind", "detail", "path") if isinstance(e, MpstError) else ("msg", "line", "col")
    for again in _again(e):
        assert type(again) is type(e) and again.args == e.args and str(again) == str(e), repr(e)
        assert [getattr(again, f) for f in fields] == [getattr(e, f) for f in fields], repr(e)
        assert vars(again) == vars(e), repr(e)


NAMES = st.sampled_from(
    ["protocol", "roles", "choice", "end", "rec", "session", "int", "Ω", "é_1", "名", "_", "_x_"])
LOOP_VARS = st.sampled_from(["X", "Y", "end", "rec", "X@1", "end@1", "%2", "Ω"])
ERROR_TEXTS = st.text("aZé名 _/:@%\n\"'\\", max_size=12)  # an alphabet: no Unicode table to build
PATHS = st.lists(ERROR_TEXTS, max_size=3).map(tuple)


def _renamed(g, roles: dict, labels: dict, loop_vars: dict):
    """``g`` with every role, label name and loop variable mapped; a name the
    map lacks stays."""
    def go(node):
        if isinstance(node, Comm):
            label = Label(labels.get(node.label.name, node.label.name), node.label.payload)
            return Comm(Role(roles.get(node.from_role, node.from_role)),
                        Role(roles.get(node.to_role, node.to_role)), label, go(node.cont))
        if isinstance(node, Choice):
            return Choice(Role(roles.get(node.at, node.at)), tuple(go(b) for b in node.branches))
        if isinstance(node, Rec):
            return Rec(loop_vars.get(node.var, node.var), go(node.body))
        if isinstance(node, ClosedAt):
            return ClosedAt(Role(roles.get(node.role, node.role)), go(node.cont))
        if isinstance(node, Var):
            return Var(loop_vars.get(node.var, node.var))
        return node  # End
    return go(g)


@st.composite
def protocols(draw):
    """A generator candidate, a third of them with one shape mutation, with
    its roles, labels and loop variables renamed."""
    seed = draw(st.integers(0, 2**32 - 1))
    gen = ProtocolGenerator(random.Random(seed), max_roles=draw(st.integers(2, 4)), max_labels=4,
                            max_depth=draw(st.integers(2, 6)))
    g = gen.candidate()
    if draw(st.integers(0, 2)) == 0:
        g = shape_mutant(g, random.Random(seed))
    five_names = st.lists(NAMES, min_size=5, max_size=5, unique=True)
    roles = dict(zip("pqrst", draw(five_names)))  # the generator's roles and shape_mutant's s
    labels = dict(zip(("m0", "m1", "m2", "m3", "self"), draw(five_names)))
    loop_vars = dict(zip("XY", draw(st.lists(LOOP_VARS, min_size=2, max_size=2, unique=True))))
    return _renamed(g, roles, labels, loop_vars)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(protocols())
def test_a_protocol_its_local_types_and_its_typing_error_survive_pickle_and_copy(g):
    """A protocol comes back equal and equally hashed after its compile has
    left caches on it; so does each local type it has, unfolded, and the
    error of a protocol that is refused comes back whole."""
    try:
        local = type_global(g)
    except MpstError as e:
        _assert_error_round_trips(e)
        local = {}
    _assert_round_trips(g)
    for t in local.values():
        _assert_round_trips(unfold_type(t))


SORTS = SORT_TEXTS.map(_sort_of_or_none).filter(lambda sort: sort is not None)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.builds(TraceEvent, st.integers(0, 2**40), st.sampled_from(EventKind), NAMES.map(Role),
                 st.none() | NAMES.map(Role), st.none() | st.builds(Label, NAMES, SORTS)))
def test_a_trace_event_survives_pickle_and_copy(event):
    _assert_round_trips(event)


KINDS = st.sampled_from(ErrorKind)
ERRORS = st.one_of(
    *(st.builds(cls, KINDS, ERROR_TEXTS, PATHS)
      for cls in (MpstError, ProtocolTypeError, CvTypeError, SessionRuntimeError)),
    st.builds(SelfSendError, NAMES.map(Role)),
    st.builds(EmptyChoiceError),
    st.builds(ShapeError, st.lists(st.builds(Finding, KINDS, ERROR_TEXTS, PATHS), min_size=1, max_size=3)),
    st.builds(ParseError, ERROR_TEXTS, st.integers(1, 10**6), st.integers(1, 10**6)),
)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(ERRORS)
def test_each_error_survives_pickle_and_copy_whole(e):
    _assert_error_round_trips(e)
