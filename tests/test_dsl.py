"""Parser and printer: identity round-trips and exact error positions."""

from __future__ import annotations

import pytest

from corpus import finite_corpus, oauth
from helpers import protocol_file_for
from mpst import INT, Label, Role, SessionSort, comm, end_, parse_protocol, parse_scenario, print_protocol
from mpst.dsl import _Parser, _tokenize
from mpst.errors import ParseError
from mpst.protocol import Comm
from mpst.scripts import CloseStep, ReceiveStep, ReuseStep, SendStep
from mpst.types import END_T, RecT, Select, VarT, format_local_type, type_global

OAUTH_TEXT = """protocol oAuth (roles s, c, a) {
  s -> c : login(string);
  c -> a : pwd(string);
  a -> s : auth(bool);
  end;
}
"""


def test_parse_oauth_matches_builder():
    pf = parse_protocol(OAUTH_TEXT)
    assert pf.name == "oAuth"
    assert pf.body == oauth()
    assert [r.name for r in pf.roles] == ["s", "c", "a"]


def test_print_parse_identity_on_canonical_text():
    assert print_protocol(parse_protocol(OAUTH_TEXT)) == OAUTH_TEXT


def test_trivial_protocol():
    pf = parse_protocol("protocol P (roles a, b) { end; }")
    from mpst.protocol import END

    assert pf.body == END


def test_parse_error_position_missing_semicolon():
    with pytest.raises(ParseError) as e:
        parse_protocol("protocol P (roles a, b) {\n  a -> b : m(int)\n}")
    assert (e.value.line, e.value.col) == (3, 1)


def test_parse_error_unknown_sort():
    with pytest.raises(ParseError) as e:
        parse_protocol("protocol P (roles a, b) { a -> b : m(float); end; }")
    assert "float" in e.value.msg


def test_declared_roles_must_cover_protocol():
    with pytest.raises(ParseError):
        parse_protocol("protocol P (roles a, b) { a -> c : m(int); end; }")


def test_builder_roundtrip_through_dsl():
    for name, g in finite_corpus().items():
        pf = protocol_file_for(name, g)
        text = print_protocol(pf)
        back = parse_protocol(text)
        assert back.body == g, name
        assert back.roles == pf.roles
        assert print_protocol(back) == text  # printing is canonical


@pytest.mark.parametrize("word", ["end", "rec", "choice", "closed", "continue"])
def test_a_role_named_like_a_keyword_round_trips(word):
    """A statement that starts with a name and ``->`` is a communication, so
    a role named like a statement keyword reads back as a sender, as it does
    as a receiver."""
    kw, b = Role(word), Role("b")
    g = comm(kw, b, Label("m", INT), comm(b, kw, Label("n"), end_()))
    pf = protocol_file_for("Keyword", g)
    text = print_protocol(pf)
    back = parse_protocol(text)
    assert back.body == g and back.roles == pf.roles
    assert print_protocol(back) == text


def test_builder_roundtrip_on_generated_protocols():
    from mpst.gen import random_protocols

    for i, g in enumerate(random_protocols(40, seed=31)):
        text = print_protocol(protocol_file_for(f"gen{i}", g))
        assert parse_protocol(text).body == g


def test_session_sort_roundtrip():
    from corpus import P, delegation_protocol

    g = delegation_protocol()
    pf = protocol_file_for("handoff", g)
    back = parse_protocol(print_protocol(pf))
    assert back.body == g
    lab = back.body.label
    assert isinstance(lab.payload, SessionSort)
    # the local-type printer uses the same syntax, so its output parses back
    for t in [lab.payload.local, *type_global(g).values()]:
        parser = _Parser(format_local_type(t))
        assert parser.parse_local() == t
        parser.expect("eof", "end of input")
    assert format_local_type(type_global(g)[P]) == "!q{hand(session(?p{bye(unit): end})): end}"


def _parse_local(text: str):
    parser = _Parser(text)
    t = parser.parse_local()
    parser.expect("eof", "end of input")
    return t


def test_printed_local_types_parse_back_with_compiled_and_merged_binders():
    """Compiling names a loop's binder per role position (``X@1``) and merge
    names the loops it closes (``%2``); both print and parse back."""
    from corpus import well_typed_corpus
    from mpst import choice_at, closed_at, comm, rec, var_
    from mpst.gen import random_protocols
    from mpst.types import project, type_equiv

    p, q, r, m = Role("p"), Role("q"), Role("r"), Label("m")
    loop = rec("X", comm(q, r, m, var_("X")))
    merged = choice_at(p, [
        comm(p, q, Label("l1"), closed_at(p, loop)),
        comm(p, q, Label("l2"), closed_at(p, comm(q, r, m, loop))),
    ])
    protocols = [*well_typed_corpus().values(), *random_protocols(400, seed=909, max_depth=6), merged]
    types = [t for g in protocols for t in type_global(g).values()]
    assert len(types) == 929
    compiled = [t for t in types if "@" in format_local_type(t)]
    assert len(compiled) == 108
    for t in types:
        back = _parse_local(format_local_type(t))
        assert back == t and type_equiv(back, t), format_local_type(t)
    want = "?q{m(unit): rec %2 . ?q{m(unit): %2}}"
    for t in (type_global(merged)[r], project(merged, r)):
        assert format_local_type(t) == want
        assert _parse_local(want) == t
    assert _parse_local("rec X@0 . !q{m(unit): X@0}") == RecT("X@0", Select(Role("q"), ((m, VarT("X@0")),)))
    for bad in ("X@", "%", "%x", "rec @0 . end"):
        with pytest.raises(ParseError):
            _parse_local(bad)


def test_a_loop_variable_named_end_parses_back_or_is_refused():
    """A global loop named ``end`` compiles to the binders ``end@0`` and
    ``end@1``, which parse back as binders.  A local ``rec end .`` would read
    its body's ``end`` as End, a different type, so it is refused, as is a
    local ``rec rec .``, whose body's ``rec`` would start a loop."""
    p, q, m, s = Role("p"), Role("q"), Label("m"), Label("s")
    text = "protocol P (roles p, q) { rec end { choice at p { p -> q : m; continue end; } or { p -> q : s; end; } } }"
    local = type_global(parse_protocol(text).body)
    assert format_local_type(local[p]) == "rec end@0 . !q{m(unit): end@0, s(unit): end}"
    for t in local.values():
        assert _parse_local(format_local_type(t)) == t
    looped = SessionSort(RecT("end", Select(q, ((m, VarT("end")), (s, VarT("end"))))))
    printed = print_protocol(protocol_file_for("Stream", comm(p, q, Label("hand", looped), end_())))
    assert "session(rec end . !q{m(unit): end, s(unit): end})" in printed
    for bad in (printed, "protocol P (roles p, q) { p -> q : hand(session(rec end . !q{m: end})); }"):
        with pytest.raises(ParseError, match="loop variable cannot be named 'end'"):
            parse_protocol(bad)
    for bad, name in (("rec end . !q{m(unit): end, s(unit): end}", "end"), ("rec rec . !q{m(unit): rec}", "rec")):
        with pytest.raises(ParseError, match=f"loop variable cannot be named '{name}'"):
            _parse_local(bad)
    assert _parse_local("rec rec@0 . !q{m(unit): rec@0}") == RecT("rec@0", Select(q, ((m, VarT("rec@0")),)))


def test_closed_statement_roundtrip():
    from corpus import closed_exit

    text = """protocol Discharged (roles p, c, q) {
  choice at p {
    p -> c : init(unit);
    closed c;
    p -> q : loop(unit);
    end;
  } or {
    p -> c : quit(unit);
    closed c;
    p -> q : stop(unit);
    end;
  }
}
"""
    pf = parse_protocol(text)
    assert pf.body == closed_exit()
    assert print_protocol(pf) == text


def test_recursive_session_payload_roundtrip():
    text = "protocol Stream (roles a, b) { a -> b : hand(session(rec X . !b{m: X, s: end})); }"
    body = parse_protocol(text).body
    b = Role("b")
    assert body.label.payload == SessionSort(
        RecT("X", Select(b, ((Label("m"), VarT("X")), (Label("s"), END_T))))
    )
    printed = print_protocol(protocol_file_for("Stream", body))
    assert "hand(session(rec X . !b{m(unit): X, s(unit): end}))" in printed
    assert parse_protocol(printed).body == body


def test_implicit_end_at_block_close():
    pf = parse_protocol("protocol P (roles a, b) { a -> b : m(unit); }")
    assert isinstance(pf.body, Comm)
    from mpst.protocol import END

    assert pf.body.cont == END


def test_declaration_order_overrides_first_appearance():
    text = "protocol P (roles b, a) { a -> b : m(unit); end; }"
    pf = parse_protocol(text)
    assert [r.name for r in pf.roles] == ["b", "a"]
    assert pf.roles == ("b", "a") and all(type(r) is Role for r in pf.roles)


def test_idle_declared_role_is_allowed():
    pf = parse_protocol("protocol P (roles a, b, watcher) { a -> b : m(unit); end; }")
    from mpst.types import END_T, type_global

    ts = type_global(pf.body, pf.roles)
    assert ts[pf.roles[2]] is END_T


def test_spans_recorded_for_nested_paths():
    pf = parse_protocol(OAUTH_TEXT)
    assert pf.span_at(()) is not None
    assert pf.span_at(("cont",))[0] == 3  # second statement starts on line 3
    assert pf.span_at(("cont", "cont", "missing"))[0] == 4  # prefix fallback


def test_scenario_parsing_full():
    sc = parse_scenario(
        """scenario ok for oAuth {
  role c { recv s { login: send a pwd "pass"; close; | cancel: close; } }
  role s { send c login "Hi"; recv a { auth: close; } }
  role a { recv c { pwd: reuse send s auth true; close; } }
}
"""
    )
    assert sc.name == "ok" and sc.protocol == "oAuth"
    c_script = sc.scripts["c"]
    assert isinstance(c_script[0], ReceiveStep)
    assert c_script[0].script_for("cancel") == (CloseStep(),)
    a_first = sc.scripts["a"][0]
    assert isinstance(a_first, ReceiveStep)
    inner = a_first.script_for("pwd")
    assert isinstance(inner[0], ReuseStep) and isinstance(inner[0].inner, SendStep)


def test_scenario_literals():
    sc = parse_scenario(
        """scenario lits for P {
  role a { send b m 42; send b n true; send b o unit; send b p; close; }
}
"""
    )
    steps = sc.scripts["a"]
    assert [getattr(s, "payload", None) for s in steps[:4]] == [42, True, None, None]


def test_comments_ignored():
    pf = parse_protocol("# header\nprotocol P (roles a, b) {\n  a -> b : m(unit); # hi\n  end;\n}\n")
    assert isinstance(pf.body, Comm)



def _tokens(text: str) -> list[tuple[str, str, int, int]]:
    return [(t.kind, t.text, t.line, t.col) for t in _tokenize(text)]


def test_tokens_skip_comment_lines_and_tell_an_arrow_from_a_negative_int():
    assert _tokens("# note\n  # indented note\na->b : m(-3); # trailing\n") == [
        ("ident", "a", 3, 1), ("->", "->", 3, 2), ("ident", "b", 3, 4), (":", ":", 3, 6),
        ("ident", "m", 3, 8), ("(", "(", 3, 9), ("int", "-3", 3, 10), (")", ")", 3, 12),
        (";", ";", 3, 13), ("eof", "", 4, 1),
    ]


def test_string_escapes_and_the_positions_after_them():
    assert _tokens(r'send b m "q\" \\ \n \t \q";') == [
        ("ident", "send", 1, 1), ("ident", "b", 1, 6), ("ident", "m", 1, 8),
        ("string", 'q" \\ \n \t q', 1, 10), (";", ";", 1, 27), ("eof", "", 1, 28),
    ]


def test_positions_after_a_string_that_spans_lines():
    assert _tokens('send b m "x\ny"; close;') == [
        ("ident", "send", 1, 1), ("ident", "b", 1, 6), ("ident", "m", 1, 8),
        ("string", "x\ny", 1, 10), (";", ";", 2, 3), ("ident", "close", 2, 5),
        (";", ";", 2, 10), ("eof", "", 2, 11),
    ]
    text = 'scenario s for P {\n  role a { send b m "x\ny"; close; }\n' + " " * 31 + "$ }\n"
    with pytest.raises(ParseError) as e:
        parse_scenario(text)
    assert (e.value.msg, e.value.line, e.value.col) == ("unexpected character '$'", 4, 32)


@pytest.mark.parametrize("text,error", [
    ('send b m "oops;\nclose;', ("unterminated string literal", 1, 10)),
    ('send b m "ends in an escape\\', ("unterminated string literal", 1, 10)),
    ("a -> b : m(int) $", ("unexpected character '$'", 1, 17)),
    ("a - b", ("unexpected character '-'", 1, 3)),
])
def test_token_errors_name_where_they_start(text, error):
    with pytest.raises(ParseError) as e:
        _tokenize(text)
    assert (e.value.msg, e.value.line, e.value.col) == error


@pytest.mark.parametrize("text,error", [
    ('protocol P (roles a, b) { a -> b : ""; }', ("expected 'a label', found '\"\"'", 1, 36)),
    ('protocol P (roles a, b) { a -> b : m; }\n""', ("expected 'end of file', found '\"\"'", 2, 1)),
    ("protocol P (roles a, b) { a -> b : m", ("expected ';', found 'end of input'", 1, 37)),
])
def test_a_parse_error_names_a_token_by_its_kind(text, error):
    """Only the end of the file reads as ``end of input``; an empty string
    literal, whose text is empty too, is shown as the literal."""
    with pytest.raises(ParseError) as e:
        parse_protocol(text)
    assert (e.value.msg, e.value.line, e.value.col) == error
