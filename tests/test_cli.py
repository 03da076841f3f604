"""End-to-end CLI behaviour: exit codes, JSON output, simulation, bench CSV."""

from __future__ import annotations

import json

import pytest

from mpst.cli import main

OAUTH = """protocol oAuth (roles s, c, a) {
  s -> c : login(string);
  c -> a : pwd(string);
  a -> s : auth(bool);
  end;
}
"""

OAUTH4 = """protocol oAuth4 (roles s, c, a) {
  choice at s {
    s -> c : login(string);
    c -> a : pwd(string);
    end;
  } or {
    s -> a : cancel(unit);
    end;
  }
}
"""

SCENARIO = """scenario ok for oAuth {
  role c { recv s { login: send a pwd "pass"; close; } }
  role s { send c login "Hi"; recv a { auth: close; } }
  role a { recv c { pwd: send s auth true; close; } }
}
"""

REUSE_SCENARIO = """scenario reuse for oAuth {
  role c { recv s { login: send a pwd "pass"; close; } }
  role s { reuse send c login "Hi"; recv a { auth: close; } }
  role a { recv c { pwd: send s auth true; close; } }
}
"""


SELF_SEND = """protocol Loopback (roles a, b) {
  a -> a : ping(unit);
  a -> b : go(unit);
  b -> b : pong(unit);
  end;
}
"""

UNBOUND = """protocol Stray (roles a, b) {
  choice at a {
    a -> b : more(unit);
    continue X;
  } or {
    a -> b : stop(unit);
    continue Y;
  }
}
"""

# Each shape-faulted file with every finding `check` prints for it.
SHAPE_FAULTS = {
    "self_send": (SELF_SEND, [
        "error[SelfSend] at root: role a sends to itself",
        "error[SelfSend] at cont/cont: role b sends to itself",
    ]),
    "unbound": (UNBOUND, [
        "error[UnboundVar] at branch[0]/cont: recursion variable X is unbound",
        "error[UnboundVar] at branch[1]/cont: recursion variable Y is unbound",
    ]),
}


@pytest.fixture()
def oauth_file(tmp_path):
    p = tmp_path / "oauth.mpst"
    p.write_text(OAUTH)
    return p


def test_check_ok(oauth_file, capsys):
    assert main(["check", str(oauth_file)]) == 0
    out = capsys.readouterr().out
    assert "well-formed" in out and "login" in out


def test_check_json(oauth_file, capsys):
    assert main(["check", str(oauth_file), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"s", "c", "a"}
    assert doc["s"]["select"]["peer"] == "c"


def _check_json(tmp_path, capsys, name, g):
    from helpers import protocol_file_for
    from mpst.dsl import print_protocol

    f = tmp_path / f"{name}.mpst"
    f.write_text(print_protocol(protocol_file_for(name, g)))
    assert main(["check", str(f), "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_check_json_of_a_recursive_protocol(tmp_path, capsys):
    from corpus import calc

    doc = _check_json(tmp_path, capsys, "calc", calc())
    loop = doc["c"]["rec"]
    select = loop["body"]["select"]
    assert select["peer"] == "s" and set(select["branches"]) == {"loop", "stop"}
    assert select["branches"]["loop"] == {"payload": "unit", "cont": {"var": loop["var"]}}
    assert select["branches"]["stop"]["cont"] == {
        "branch": {"peer": "s", "branches": {"bye": {"payload": "unit", "cont": "end"}}}
    }
    assert doc["s"]["rec"]["body"]["branch"]["peer"] == "c"


def test_check_json_of_a_delegation_payload(tmp_path, capsys):
    from corpus import delegation_protocol

    doc = _check_json(tmp_path, capsys, "handoff", delegation_protocol())
    session = {"session": {"branch": {"peer": "p", "branches": {"bye": {"payload": "unit", "cont": "end"}}}}}
    assert doc == {
        "p": {"select": {"peer": "q", "branches": {"hand": {"payload": session, "cont": "end"}}}},
        "q": {"branch": {"peer": "p", "branches": {"hand": {"payload": session, "cont": "end"}}}},
    }


def test_check_ill_formed_exit_1(tmp_path, capsys):
    p = tmp_path / "oauth4.mpst"
    p.write_text(OAUTH4)
    assert main(["check", str(p)]) == 1
    err = capsys.readouterr().err
    assert "ActiveRoleMismatch" in err
    assert "c" in err and "a" in err
    assert "^" in err  # caret block pointing at the choice


@pytest.mark.parametrize("name", sorted(SHAPE_FAULTS))
def test_check_lists_every_shape_finding(name, tmp_path, capsys):
    text, findings = SHAPE_FAULTS[name]
    p = tmp_path / f"{name}.mpst"
    p.write_text(text)
    assert main(["check", str(p)]) == 1
    assert capsys.readouterr().err.splitlines() == findings


@pytest.mark.parametrize("name", sorted(SHAPE_FAULTS))
def test_project_reports_a_shape_fault(name, tmp_path, capsys):
    text, findings = SHAPE_FAULTS[name]
    p = tmp_path / f"{name}.mpst"
    p.write_text(text)
    for role in ("a", "b"):
        assert main(["project", str(p), "--role", role]) == 1
        assert capsys.readouterr().err.splitlines() == findings


def test_check_missing_file_exit_2(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope.mpst")]) == 2


def test_check_parse_error_exit_2(tmp_path, capsys):
    p = tmp_path / "broken.mpst"
    p.write_text("protocol P (roles a, b) { a -> b m; }")
    assert main(["check", str(p)]) == 2
    assert "expected" in capsys.readouterr().err


@pytest.mark.parametrize("sort, where", [
    ("session(rec X . Y)", "2:17: session payload types must be closed"),
    ("session(!b{m: end, m: end})", "2:25: duplicate labels in one choice: ['m', 'm']"),
    ("session(rec X . X)", "2:25: loops must be guarded: rec X comes back to X before any choice"),
])
def test_check_refuses_a_bad_session_sort_at_its_token_with_exit_2(sort, where, tmp_path, capsys):
    p = tmp_path / "sort.mpst"
    p.write_text(f"protocol P (roles a, b) {{\n  a -> b : give({sort});\n}}\n")
    assert main(["check", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}") and "Traceback" not in err


def test_check_exit_code_matches_typability(tmp_path):
    from corpus import finite_corpus, oauth3
    from helpers import protocol_file_for
    from mpst.dsl import print_protocol

    for name, g in finite_corpus().items():
        f = tmp_path / f"{name}.mpst"
        f.write_text(print_protocol(protocol_file_for(name, g)))
        assert main(["check", str(f)]) == 0, name
    f = tmp_path / "oauth3.mpst"
    f.write_text(print_protocol(protocol_file_for("oauth3", oauth3())))
    assert main(["check", str(f)]) == 1


def test_project_json_golden(oauth_file, capsys):
    assert main(["project", str(oauth_file), "--role", "c"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "branch": {
            "peer": "s",
            "branches": {
                "login": {
                    "payload": "string",
                    "cont": {
                        "select": {
                            "peer": "a",
                            "branches": {"pwd": {"payload": "string", "cont": "end"}},
                        }
                    },
                }
            },
        }
    }


def test_project_prints_the_role_entry_of_check_json(tmp_path, capsys):
    """One derivation: ``project`` prints ``type_global``'s type for the role,
    which the projection oracle agrees with."""
    from corpus import finite_corpus
    from mpst.types import project, type_equiv, type_global

    for name, g in finite_corpus().items():
        doc = _check_json(tmp_path, capsys, name, g)
        local = type_global(g)
        for role in local:
            assert main(["project", str(tmp_path / f"{name}.mpst"), "--role", role]) == 0
            assert json.loads(capsys.readouterr().out) == doc[role], (name, role)
            assert type_equiv(local[role], project(g, role)), (name, role)
        if name == "calc":  # the compiled binder, where the oracle names its loop X
            assert doc["c"]["rec"]["var"] == "X@0"


def test_project_end_role(tmp_path, capsys):
    p = tmp_path / "p.mpst"
    p.write_text("protocol P (roles a, b, idle) { a -> b : m(unit); end; }")
    assert main(["project", str(p), "--role", "idle"]) == 0
    assert json.loads(capsys.readouterr().out) == "end"


def test_project_unknown_role_exit_1(oauth_file, capsys):
    assert main(["project", str(oauth_file), "--role", "zz"]) == 1


def test_project_writes_canonical_file(oauth_file, tmp_path):
    out = tmp_path / "c.json"
    assert main(["project", str(oauth_file), "--role", "c", "--json", str(out)]) == 0
    text = out.read_text()
    assert text.endswith("\n") and "\r" not in text
    assert json.loads(text)["branch"]["peer"] == "s"


@pytest.mark.parametrize("command", ["project", "simulate", "bench"])
def test_an_output_file_that_cannot_be_written_exits_2(command, oauth_file, tmp_path, capsys):
    out = str(tmp_path / "missing" / "out.txt")  # its directory does not exist
    sc = tmp_path / "ok.scn"
    sc.write_text(SCENARIO)
    argv = {
        "project": ["project", str(oauth_file), "--role", "c", "--json", out],
        "simulate": ["simulate", str(oauth_file), str(sc), "--trace", out],
        "bench": ["bench", "--suite", "pingpong", "--iters", "20", "--csv", out],
    }[command]
    assert main(argv) == 2  # returned, not raised
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "out.txt" in err and "Traceback" not in err


def test_simulate_conformant(oauth_file, tmp_path, capsys):
    sc = tmp_path / "ok.scn"
    sc.write_text(SCENARIO)
    trace = tmp_path / "trace.jsonl"
    assert main(["simulate", str(oauth_file), str(sc), "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "verdict: conformant" in out
    lines = [json.loads(l) for l in trace.read_text().splitlines()]
    kinds = [l["kind"] for l in lines]
    assert kinds.count("send") == 3 and kinds.count("receive") == 3 and kinds.count("close") == 3


def test_a_standalone_monitor_replays_the_trace_simulate_writes(oauth_file, tmp_path, capsys):
    """A ``--trace`` line holds the kind, role and peer as plain strings."""
    from mpst import Label, SessionMonitor, parse_protocol, type_global

    sc = tmp_path / "ok.scn"
    sc.write_text(SCENARIO)
    trace = tmp_path / "trace.jsonl"
    assert main(["simulate", str(oauth_file), str(sc), "--trace", str(trace)]) == 0
    lines = [json.loads(line) for line in trace.read_text().splitlines()]

    def replay(lines):
        monitor = SessionMonitor(type_global(parse_protocol(OAUTH).body))
        for ev in lines:
            monitor.record(ev["kind"], ev["role"], ev["peer"], ev["label"] and Label(ev["label"]))
        return monitor

    monitor = replay(lines)
    assert monitor.verdict() == (True, "conformant")
    assert [ev.signature() for ev in monitor.events] == [
        (ev["role"], ev["kind"], ev["peer"] or "", ev["label"] or "") for ev in lines]
    seq = next(i for i, ev in enumerate(lines) if ev["kind"] == "send")
    role = lines[seq]["role"]
    lines[seq] = dict(lines[seq], kind="receive")
    monitor = replay(lines)
    assert monitor.violation == (seq, role, f"{role} performed receive at a Select stage")
    assert monitor.verdict() == (False, f"{role} performed receive at a Select stage")


def test_simulate_reuse_surfaces_invalid_endpoint(oauth_file, tmp_path, capsys):
    sc = tmp_path / "reuse.scn"
    sc.write_text(REUSE_SCENARIO)
    assert main(["simulate", str(oauth_file), str(sc)]) == 1
    assert "InvalidEndpoint" in capsys.readouterr().out


def test_simulate_refuses_a_script_for_an_undeclared_role(oauth_file, tmp_path, capsys):
    sc = tmp_path / "extra.scn"
    sc.write_text(SCENARIO.replace("\n}\n", "\n  role zz { send s bogus; close; }\n}\n"))
    assert main(["simulate", str(oauth_file), str(sc)]) == 1
    out = capsys.readouterr().out
    assert "zz: failed: no such role in the protocol" in out and "verdict: error" in out


def test_simulate_transport_flag(oauth_file, tmp_path, capsys):
    sc = tmp_path / "ok.scn"
    sc.write_text(SCENARIO)
    assert main(["simulate", str(oauth_file), str(sc), "--transport", "async:2"]) == 0
    assert main(["simulate", str(oauth_file), str(sc), "--transport", "framed"]) == 0


@pytest.mark.parametrize("transport", ["async:-1", "async:x", "async:"])
def test_a_bad_buffer_capacity_exits_2(transport, oauth_file, tmp_path, capsys):
    sc = tmp_path / "ok.scn"
    sc.write_text(SCENARIO)
    assert main(["simulate", str(oauth_file), str(sc), "--transport", transport]) == 2
    assert main(["bench", "--suite", "pingpong", "--iters", "20", "--transport", transport]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("error: ") == 2 and "Traceback" not in err


def test_simulate_scenario_protocol_mismatch(oauth_file, tmp_path, capsys):
    sc = tmp_path / "other.scn"
    sc.write_text("scenario x for Other { role s { close; } }")
    assert main(["simulate", str(oauth_file), str(sc)]) == 2


def test_bench_csv_schema(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--suite", "pingpong", "--iters", "60",
                 "--transport", "sync", "--csv", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "suite,transport,variant,iters,median_ns,p95_ns,ratio"
    assert len(lines) == 3
    bare, session = lines[1].split(","), lines[2].split(",")
    assert bare[2] == "bare" and session[2] == "session"
    assert float(session[6]) > 0


def test_bench_chameleons_small(capsys):
    assert main(["bench", "--suite", "chameleons", "--iters", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("suite,transport")
    assert "chameleons" in out


def test_bench_exits_1_when_a_suite_fails_and_keeps_the_rows_that_ran(monkeypatch, capsys):
    from mpst import bench

    assert main(["bench", "--suite", "pingpong", "--iters", "20", "--transport", "framed"]) == 1
    out, err = capsys.readouterr()
    assert out == "suite,transport,variant,iters,median_ns,p95_ns,ratio\n"
    assert "bench pingpong failed: " in err

    def broken(*args, **kwargs):
        raise RuntimeError("broken suite")

    monkeypatch.setattr(bench, "bench_nping", broken)
    assert main(["bench", "--suite", "pingpong", "--suite", "nping", "--iters", "20"]) == 1
    out, err = capsys.readouterr()
    assert [line.split(",")[:3] for line in out.splitlines()[1:]] == [
        ["pingpong", "sync", "bare"], ["pingpong", "sync", "session"]]
    assert "bench nping failed: broken suite" in err


def test_format_roundtrip(oauth_file, capsys):
    assert main(["format", str(oauth_file)]) == 0
    assert capsys.readouterr().out == OAUTH
