"""Quick-mode self-test of the benchmark: every workload, traced and
untraced, plus the output checks catching wrong answers.

    python3 -m pytest -q layerbench
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from mpst import runtime, transport, types  # noqa: E402

NAMES = ["pingpong", "pingpong-threaded", "chameleons", "check"]


def bench(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_manifest_matches_metrics():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == NAMES
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]] == [
        tuple(m) for m in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == [
        (name, unit, "lower") for name, unit in PER_LAYER
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_quick_run(name, trace):
    res = bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--quick")
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    expected = {m[0]: m[1] for m in (PER_LAYER if trace else END_TO_END)}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_counts_repeat_and_locate_the_hot_path():
    res = bench("--workload", "pingpong", "--seed", "5", "--seconds", "1", "--trace", "1", "--quick")
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert res["correct"]  # includes the exact count repeat in a fresh process
    assert m["runtime.Endpoint.send.calls"] == 3
    assert m["runtime.Endpoint.receive.calls"] == 3
    assert m["transport.select.calls"] == 3
    assert m["runtime.open_session.calls"] == 0


def test_untraced_phases_run_the_library_unwrapped(monkeypatch):
    originals = (transport.select, runtime.select, runtime.Endpoint.send, transport.Channel.send)
    seen = []
    run_phase = run.run_phase

    def spy(w, step, seconds, tracer=None, limit=None):
        if tracer is None:
            seen.append((transport.select, runtime.select, runtime.Endpoint.send, transport.Channel.send))
        return run_phase(w, step, seconds, tracer, limit)

    monkeypatch.setattr(run, "run_phase", spy)
    args = argparse.Namespace(workload="pingpong", seed=2, seconds=0.5, quick=True)
    _, _, failed, ok = run.per_layer(args, workloads.PingPong(2))
    assert ok and failed == 0
    assert len(seen) == 2  # the untraced phase and the bare loop
    assert all(row == originals for row in seen)


def test_no_sources_no_result(tmp_path):
    (tmp_path / "layerbench").mkdir()
    for p in HERE.glob("*.py"):
        (tmp_path / "layerbench" / p.name).write_text(p.read_text())
    done = subprocess.run(
        [sys.executable, "layerbench/run.py", "--workload", "pingpong", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def _failures(w) -> int:
    w.setup()
    wrong = sum(not w.item() for _ in range(20))
    return wrong + w.refill() + w.finish()


def test_checks_catch_a_wrong_echo(monkeypatch):
    send = runtime.Endpoint.send

    def corrupt(self, peer, label, payload=None):
        if getattr(label, "name", label) == "pong":
            payload += 1
        return send(self, peer, label, payload)

    monkeypatch.setattr(runtime.Endpoint, "send", corrupt)
    assert _failures(workloads.PingPong(1)) == 20


def test_checks_catch_an_undelivered_chat(monkeypatch):
    send = runtime.Endpoint.send

    def corrupt(self, peer, label, payload=None):
        if getattr(label, "name", label) == "chat":
            payload = -1
        return send(self, peer, label, payload)

    monkeypatch.setattr(runtime.Endpoint, "send", corrupt)
    assert _failures(workloads.Chameleons(1)) == 20


def test_checks_catch_a_wrong_verdict(monkeypatch):
    monkeypatch.setattr(runtime.SessionMonitor, "verdict", lambda self: (False, "forced"))
    assert _failures(workloads.Chameleons(1)) == 20


def test_oracle_catches_a_wrong_acceptance(monkeypatch):
    type_global = types.type_global

    def accept_all(g, roles=None):
        try:
            return type_global(g, roles)
        except Exception:
            return {}

    monkeypatch.setattr(types, "type_global", accept_all)
    assert _failures(workloads.Check(1)) > 0
