"""Serialised forms round-trip, on adversarial shapes.

A session sort's text either parses to a sort that ``format_sort`` prints
back to an equal sort, or is refused with a ``ParseError`` that points into
the sort's own text, never with another exception.  A sort that parses
also comes back equal, with an equal hash, from ``pickle``, ``copy`` and
``deepcopy``.  The texts cover repeated labels, free and unguarded loop
variables, the binder spellings that compiling and merging print, and
sessions nested in payloads.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from mpst import parse_protocol
from mpst.errors import ParseError
from mpst.types import format_sort

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
    except ParseError:
        return
    for again in (pickle.loads(pickle.dumps(sort)), copy.copy(sort), copy.deepcopy(sort)):
        assert again == sort and hash(again) == hash(sort), text
