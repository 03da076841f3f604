"""A fixed pure-Python reference for the host's current speed.

The host alternates between speed modes about 1.3-1.8x apart, for seconds
to minutes at a time, even when the process is pinned to one CPU, and
thread CPU time slows with wall time.  Different code slows by different
amounts, so the reference is the geometric mean of four small kernels
(allocation and dict traffic, integer arithmetic, slotted objects with a
lock and a deque, and recursion over tuples).  Its sensitivity to the mode
matches each workload's to within a few percent on the development host.

The harness brackets every block of items with ``reference_ns()`` and scales
the block's times by ``REF_NS / reference``: reported times are those at the
speed where the reference takes ``REF_NS``.  The kernels never call the
library, so a change to the library cannot move the reference.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from time import perf_counter_ns

REF_NS = 150_000


class _Cell:
    __slots__ = ("v",)

    def __init__(self, v: int) -> None:
        self.v = v

    def bump(self, d: int) -> int:
        self.v += d
        return self.v


class _Step:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def step(self, x: int) -> "_Step":
        return _Step(self.b, x)


def _alloc() -> int:
    table: dict = {}
    acc = 0
    for i in range(400):
        key = (i & 31, "k")
        table[key] = _Cell(i)
        cell = table.get(key)
        if isinstance(cell, _Cell):
            acc += cell.bump(i)
    return acc


def _arith() -> int:
    s = 0
    for i in range(3000):
        s += i * i
    return s


def _objects() -> int:
    q: deque = deque()
    d: dict = {}
    lock = threading.Lock()
    o = _Step(0, 0)
    acc = 0
    for i in range(150):
        with lock:
            o = o.step(i)
        key = ("a", i & 7)
        d[key] = o
        q.append((i, o))
        if len(q) > 1:
            _, p = q.popleft()
            if isinstance(p, _Step):
                acc += p.b
        acc += d[key].a
    return acc


def _build(n: int) -> tuple:
    return (n, _build(n - 1), _build(n - 2)) if n > 1 else (n,)


def _walk(t: tuple) -> int:
    return t[0] + sum(_walk(c) for c in t[1:])


def _tree() -> int:
    return _walk(_build(11))


KERNELS = (_alloc, _arith, _objects, _tree)


def reference_ns(repeats: int = 3) -> float:
    """Geometric mean over the kernels of each kernel's best of ``repeats``."""
    logs = 0.0
    for kernel in KERNELS:
        best = 1 << 62
        for _ in range(repeats):
            t0 = perf_counter_ns()
            kernel()
            best = min(best, perf_counter_ns() - t0)
        logs += math.log(best)
    return math.exp(logs / len(KERNELS))
