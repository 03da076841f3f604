"""The names the layered benchmark (``layerbench/``) reaches into resolve.

The tracer wraps each of its ``TARGETS`` where callers look it up, and the
harness self-test reads ``runtime.select``; a rename in ``src/`` alone would
break ``layerbench/run.py --trace 1`` or that self-test without failing any
test here.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "layerbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("layerbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("layer, module, attr, method", _targets())
def test_tracer_target_resolves(layer, module, attr, method):
    owner = getattr(importlib.import_module(module), attr)
    if method is not None:
        assert callable(owner.__dict__[method])  # the tracer replaces it on the class itself
    else:
        assert callable(owner)


def test_runtime_select_is_the_transport_select():
    from mpst import runtime, transport

    assert runtime.select is transport.select
