"""Parser and printer: identity round-trips and exact error positions."""

from __future__ import annotations

import pytest

from corpus import finite_corpus, oauth
from mpst import SessionSort, parse_protocol, parse_scenario, print_protocol
from mpst.dsl import _Parser, protocol_file_for
from mpst.errors import ParseError
from mpst.protocol import Comm
from mpst.scripts import CloseStep, ReceiveStep, ReuseStep, SendStep
from mpst.types import format_local_type, type_global

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


def test_implicit_end_at_block_close():
    pf = parse_protocol("protocol P (roles a, b) { a -> b : m(unit); }")
    assert isinstance(pf.body, Comm)
    from mpst.protocol import END

    assert pf.body.cont == END


def test_declaration_order_overrides_first_appearance():
    text = "protocol P (roles b, a) { a -> b : m(unit); end; }"
    pf = parse_protocol(text)
    assert [r.name for r in pf.roles] == ["b", "a"]
    assert [r.index for r in pf.roles] == [0, 1]


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
