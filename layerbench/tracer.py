"""Spans around the library's public functions, recorded from outside it.

Each traced function is replaced, wherever a caller looks it up (its home
module, every ``mpst`` module that imported it by name, or its class), by a
wrapper that records one span: name, start, end, parent.  Aggregates are
kept per thread (calls, self time, wait time, errors), so a run can last as
long as it likes; the first ``keep`` raw spans are also kept in memory and
written out at the end.

Self time is the span's wall time minus the wall time of its child spans;
it includes the wrapper's own cost for those children, so compare self times
between traced runs only.  Wait time, recorded for the transport layer, is
the span's wall time minus the thread CPU time it used.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
from time import perf_counter_ns, thread_time_ns

# (layer, module, attribute, method or None): the span name is
# "<layer>.<attribute>[.<method>]".
TARGETS = (
    ("protocol", "mpst.protocol", "validate_shape", None),
    ("protocol", "mpst.protocol", "roles_of", None),
    ("types", "mpst.types", "type_global", None),
    ("types", "mpst.types", "subtype", None),
    ("chanvec", "mpst.chanvec", "eval_global", None),
    ("chanvec", "mpst.chanvec", "unfold_cv", None),
    ("chanvec", "mpst.chanvec", "typecheck_cv", None),
    ("chanvec", "mpst.chanvec", "ChannelTable", "find"),
    ("runtime", "mpst.runtime", "open_session", None),
    ("runtime", "mpst.runtime", "Endpoint", "send"),
    ("runtime", "mpst.runtime", "Endpoint", "receive"),
    ("runtime", "mpst.runtime", "Endpoint", "close"),
    ("runtime", "mpst.runtime", "LinearityCell", "use"),
    ("runtime", "mpst.runtime", "SessionChannels", "channel_for"),
    ("runtime", "mpst.runtime", "SessionMonitor", "record"),
    ("runtime", "mpst.runtime", "SessionMonitor", "verdict"),
    ("transport", "mpst.transport", "Channel", "send"),
    ("transport", "mpst.transport", "Channel", "__init__"),
    ("transport", "mpst.transport", "select", None),
)

# Field order of one aggregate row.
CALLS, SELF, WAIT, ERRORS, ERR_SELF = range(5)
FIELDS = 5


def span_name(layer: str, attr: str, method: str | None) -> str:
    if method == "__init__":
        return f"{layer}.{attr}.new"
    return f"{layer}.{attr}.{method}" if method else f"{layer}.{attr}"


def _zero() -> int:
    return 0


class _Frame:
    __slots__ = ("id", "child")

    def __init__(self, span_id: int) -> None:
        self.id = span_id
        self.child = 0


class Tracer:
    def __init__(self, keep: int = 50_000) -> None:
        self.keep = keep
        self.on = False
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.names: list[str] = []
        self._rows: list[dict[str, list[int]]] = []
        self._rows_lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _thread_state(self):
        loc = self._local
        try:
            return loc.stack, loc.rows, loc.tid
        except AttributeError:
            loc.stack, loc.rows = [], {}
            with self._rows_lock:
                loc.tid = len(self._rows)
                self._rows.append(loc.rows)
            return loc.stack, loc.rows, loc.tid

    def _wrap(self, name: str, fn, timed_cpu: bool):
        """``timed_cpu``: also read the thread CPU clock, for wait time.  It is
        a system call, so only spans that report waiting pay for it."""
        tracer = self
        name_id = len(self.names)
        self.names.append(name)
        cpu_clock = thread_time_ns if timed_cpu else _zero

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack, rows, tid = tracer._thread_state()
            parent = stack[-1] if stack else None
            frame = _Frame(next(tracer._ids))
            stack.append(frame)
            failed = False
            c0 = cpu_clock()
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                t1 = perf_counter_ns()
                c1 = cpu_clock()
                stack.pop()
                wall = t1 - t0
                own = wall - frame.child
                if parent is not None:
                    parent.child += wall
                row = rows.get(name)
                if row is None:
                    row = rows[name] = [0] * FIELDS
                row[CALLS] += 1
                row[SELF] += own
                if timed_cpu:
                    row[WAIT] += max(0, wall - (c1 - c0))
                if failed:
                    row[ERRORS] += 1
                    row[ERR_SELF] += own
                if len(tracer.spans) < tracer.keep:
                    tracer.spans.append((name_id, tid, frame.id, parent.id if parent else 0, t0, t1))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target where its callers look it up."""
        mods = [m for n, m in sorted(sys.modules.items()) if n == "mpst" or n.startswith("mpst.")]
        for layer, modname, attr, method in TARGETS:
            home = importlib.import_module(modname)
            name = span_name(layer, attr, method)
            timed_cpu = layer == "transport"
            if method is not None:
                cls = getattr(home, attr)
                orig = cls.__dict__[method]
                self._set(cls, method, self._wrap(name, orig, timed_cpu))
                continue
            orig = getattr(home, attr)
            traced = self._wrap(name, orig, timed_cpu)
            for m in mods:
                if getattr(m, attr, None) is orig:
                    self._set(m, attr, traced)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def totals(self) -> dict[str, list[int]]:
        """Aggregates summed over threads: name -> row (see field order)."""
        out: dict[str, list[int]] = {}
        with self._rows_lock:
            for rows in self._rows:
                for name, row in rows.items():
                    acc = out.setdefault(name, [0] * len(row))
                    for i, x in enumerate(row):
                        acc[i] += x
        return out

    def write_spans(self, path) -> None:
        """One JSON object per kept span; ``parent`` is 0 for a root span."""
        with open(path, "w", encoding="utf-8") as f:
            for name_id, tid, sid, parent, t0, t1 in self.spans:
                f.write(json.dumps({
                    "name": self.names[name_id], "thread": tid, "id": sid,
                    "parent": parent, "start_ns": t0, "end_ns": t1,
                }) + "\n")
