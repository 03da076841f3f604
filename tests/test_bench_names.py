"""The names the layered benchmark (``layerbench/``) reaches into resolve,
and its workloads run.

The tracer wraps each of its ``TARGETS`` where callers look it up, the
harness self-test reads ``runtime.select``, and the workloads call the
library directly (``ep.cell.used``, ``eval_global(g, sid)``,
``typecheck_cv(v, env, table)``, ...).  Tier-1 does not collect
``layerbench/``, so a change in ``src/`` alone could break
``layerbench/run.py`` or its self-test without failing any test here.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import sys
from collections import Counter
from pathlib import Path

import pytest

LAYERBENCH = Path(__file__).resolve().parents[1] / "layerbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"layerbench_{name}", LAYERBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads").WORKLOADS
TRACER = _load("tracer")


@pytest.mark.parametrize("layer, module, attr, method", TRACER.TARGETS)
def test_tracer_target_resolves(layer, module, attr, method):
    owner = getattr(importlib.import_module(module), attr)
    if method is not None:
        assert callable(owner.__dict__[method])  # the tracer replaces it on the class itself
    else:
        assert callable(owner)


def test_the_tracer_counts_the_pingpong_hot_path():
    """The tracer still finds every seam of a pingpong round where the
    endpoint path calls it: an endpoint's ``use`` is ``LinearityCell.use``
    and a receive goes through ``transport.select``."""
    w = WORKLOADS["pingpong"](7)
    w.setup()
    tracer = TRACER.Tracer()
    tracer.install()
    try:
        tracer.on = True
        assert all(w.item() for _ in range(20))
    finally:
        tracer.on = False
        tracer.uninstall()
    assert w.finish() == 0
    calls = {name: row[TRACER.CALLS] / 20 for name, row in tracer.totals().items()}
    assert calls["runtime.LinearityCell.use"] == 6
    assert calls["runtime.Endpoint.send"] == 3
    assert calls["runtime.Endpoint.receive"] == 3
    assert calls["transport.select"] == 3


def _library_calls(run):
    """``run()``'s result, and every Python function call whose code lives in
    ``src/mpst`` while it runs, by module and function."""
    import mpst

    home = os.path.join(os.path.dirname(mpst.__file__), "")  # the package directory, with its separator
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(home):
            calls[frame.f_globals["__name__"], frame.f_code.co_name] += 1  # co_qualname is 3.11+

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, calls


def test_a_pingpong_round_makes_21_python_calls_into_the_library():
    """The call budget of the endpoint path: every Python function call whose
    code lives in ``src/mpst`` during 20 untraced pingpong rounds, by module
    and function.  Each operation builds its next endpoint inline, a receive
    takes its value in ``select`` itself, and a payload's class is compared,
    not passed to a check function."""
    w = WORKLOADS["pingpong"](7)
    w.setup()
    ok, calls = _library_calls(lambda: all(w.item() for _ in range(20)))
    assert ok and w.finish() == 0
    assert {key: n / 20 for key, n in calls.items()} == {
        ("mpst.runtime", "send"): 3,  # Endpoint.send
        ("mpst.runtime", "receive"): 3,  # Endpoint.receive
        ("mpst.runtime", "use"): 6,  # LinearityCell.use
        ("mpst.transport", "send"): 3,  # Channel.send
        ("mpst.transport", "receive"): 3,  # Channel.receive
        ("mpst.transport", "select"): 3,
    }
    assert sum(calls.values()) == 21 * 20


def test_a_chameleons_pairing_makes_80_python_calls_into_the_library():
    """The call budget of a monitored pairing: three warm opens, two
    delegations and 14 recorded events, over 20 pairings after warm-up.
    An open reads its template off the protocol and binds its links itself,
    an endpoint hands the monitor the step it made, and a warm delegation
    reads its subtype answer off the state, so ``_compiled_for``,
    ``SessionChannels.__init__``, ``_advance`` and ``subtype`` never run."""
    w = WORKLOADS["chameleons"](7)
    w.setup()
    assert all(w.item() for _ in range(5))  # compiles both protocols and caches both subtype answers
    ok, calls = _library_calls(lambda: all(w.item() for _ in range(20)))
    assert ok and w.finish() == 0
    assert {key: n / 20 for key, n in calls.items()} == {
        ("mpst.runtime", "open_session"): 3,
        ("mpst.runtime", "<listcomp>"): 3,  # each open's links
        ("mpst.runtime", "_start_monitor"): 3,
        ("mpst.runtime", "send"): 4,  # Endpoint.send
        ("mpst.runtime", "receive"): 4,  # Endpoint.receive
        ("mpst.runtime", "close"): 6,  # Endpoint.close
        ("mpst.runtime", "_prepare_delegation"): 2,
        ("mpst.runtime", "use"): 16,  # LinearityCell.use: 14 operations and 2 delegations
        ("mpst.runtime", "record"): 14,  # SessionMonitor.record
        ("mpst.runtime", "verdict"): 3,  # SessionMonitor.verdict
        ("mpst.runtime", "cell"): 2,  # Endpoint.cell, read by the workload
        ("mpst.runtime", "used"): 2,  # LinearityCell.used
        ("mpst.types", "__hash__"): 2,  # a declared type, as a subtype cache key
        ("mpst.transport", "__init__"): 4,  # Channel.__init__
        ("mpst.transport", "send"): 4,  # Channel.send
        ("mpst.transport", "receive"): 4,  # Channel.receive
        ("mpst.transport", "select"): 4,
    }
    assert sum(calls.values()) == 80 * 20


def test_compiling_a_chain_makes_no_python_call_per_comm():
    """The call budget of the compile route: ``eval_global`` on a two-role
    chain of 20 Comms makes the same Python calls into the library as on a
    chain of one, since a run of Comms is one loop that allocates its slots
    and builds its vector nodes inline.  A generator's resumes count as
    calls: ``_front`` makes each of the two roles a ``Role`` in one."""
    from mpst import Label, Role, comm, end_
    from mpst.chanvec import eval_global

    p, q = Role("p"), Role("q")

    def chain(k: int):
        g = end_()
        for i in range(k):
            g = comm(p, q, Label("m"), g) if i % 2 else comm(q, p, Label("m"), g)
        return g

    budget = {
        ("mpst.chanvec", "eval_global"): 1,
        ("mpst.protocol", "_front"): 1,
        ("mpst.protocol", "walk"): 1,
        ("mpst.protocol", "ok"): 1,  # ValidationReport.ok
        ("mpst.protocol", "<genexpr>"): 3,
        ("mpst.chanvec", "<dictcomp>"): 1,  # the role index
        ("mpst.chanvec", "__init__"): 1,  # ChannelTable
        ("mpst.chanvec", "go"): 2,  # the run of Comms, then its End
    }
    for k in (1, 20):
        g = chain(k)
        (vectors, table), calls = _library_calls(lambda: eval_global(g, None))
        assert len(table.names) == k
        assert dict(calls) == budget, k


def test_runtime_select_is_the_transport_select():
    from mpst import runtime, transport

    assert runtime.select is transport.select


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_with_no_wrong_item(name):
    """Each workload's set-up, 20 timed items (and 20 bare ones where it has
    a bare baseline), then its untimed checks and teardown, as ``run.py``
    drives them."""
    w = WORKLOADS[name](7)
    w.setup()
    wrong = 0
    for _ in range(20):
        if not w.available():
            wrong += w.refill()
        wrong += not w.item()
    if w.has_bare:
        wrong += sum(not w.bare_item() for _ in range(20))
    wrong += w.refill()
    wrong += w.finish()
    assert wrong == 0
