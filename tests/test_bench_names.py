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
