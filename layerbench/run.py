#!/usr/bin/env python3
"""Layered benchmark of the mpst library.

    python3 layerbench/run.py --workload pingpong --seed 1 --seconds 20 --trace 0

Runs one workload (``pingpong``, ``pingpong-threaded``, ``chameleons``,
``check``, or ``all``) against the library sources in ``src/`` of the
checkout it sits in, checks every output, prints every metric by name with
its unit, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
from a separate traced run.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter_ns

from metrics import END_TO_END, PER_LAYER
from reference import REF_NS, reference_ns
from tracer import CALLS, ERR_SELF, ERRORS, FIELDS, SELF, WAIT, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"  # hidden, so pytest does not collect exported trees

BLOCK_NS = 100_000_000
SETUP_SAMPLES = 7
# Items in the window whose call counts must repeat exactly.
COUNT_WINDOW = {"pingpong": 2000, "pingpong-threaded": 1000, "chameleons": 200, "check": 400}
QUICK_COUNT_WINDOW = 50
# Shares of --seconds in a traced run: traced, untraced, bare baseline.
TRACE_SHARES = (0.5, 0.35, 0.15)


def _load_library() -> None:
    """Import mpst from this checkout's src/, or exit without a result."""
    if not (SRC / "mpst" / "__init__.py").is_file():
        sys.exit(f"layerbench: no library sources in {SRC / 'mpst'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import mpst

    if Path(mpst.__file__).resolve().parent != (SRC / "mpst").resolve():
        sys.exit(f"layerbench: imported mpst from {mpst.__file__}, not from {SRC}")


# --- statistics ----------------------------------------------------------------


class Histogram:
    """Latency histogram with 0.1%-wide log buckets; memory does not grow
    with the number of samples."""

    K = 1 / math.log1p(1 / 1024)

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.n = 0

    def add(self, ns: float) -> None:
        b = int(math.log(max(ns, 1.0)) * self.K)
        self.counts[b] = self.counts.get(b, 0) + 1
        self.n += 1

    def merge(self, other: "Histogram") -> None:
        for b, c in other.counts.items():
            self.counts[b] = self.counts.get(b, 0) + c
        self.n += other.n

    def quantile(self, q: float) -> float:
        """Value at rank q*(n-1), interpolated inside its bucket."""
        if not self.n:
            return 0.0
        rank = q * (self.n - 1)
        seen = 0
        for b in sorted(self.counts):
            c = self.counts[b]
            if seen + c > rank:
                lo, hi = math.exp(b / self.K), math.exp((b + 1) / self.K)
                return lo + (hi - lo) * min(1.0, (rank - seen + 0.5) / c)
            seen += c
        return math.exp((max(self.counts) + 1) / self.K)


class Phase:
    """What one timed phase measured, with times scaled to the reference.

    The figures cover every timed item of the phase: the rate is all items
    over all scaled time, and percentiles come from one histogram.
    """

    def __init__(self) -> None:
        self.items = 0
        self.wall_ns = 0.0
        self.raw_ns = 0
        self.hist = Histogram()
        self.failed = 0
        self.error: str | None = None
        self.layers: dict[str, list[float]] = {}

    def merge(self, other: "Phase") -> None:
        self.items += other.items
        self.wall_ns += other.wall_ns
        self.raw_ns += other.raw_ns
        self.hist.merge(other.hist)
        self.failed += other.failed
        self.error = self.error or other.error
        for name, row in other.layers.items():
            acc = self.layers.setdefault(name, [0.0] * len(row))
            for i, x in enumerate(row):
                acc[i] += x

    @property
    def items_per_s(self) -> float:
        return self.items / self.wall_ns * 1e9 if self.wall_ns else 0.0

    def item_us(self, q: float) -> float:
        return self.hist.quantile(q) / 1e3

    @property
    def speed_scale(self) -> float:
        return self.wall_ns / self.raw_ns if self.raw_ns else 1.0


def run_phase(w, step, seconds: float, tracer=None, limit: int | None = None) -> Phase:
    """Run ``step`` in blocks until ``seconds`` pass or ``limit`` items ran.

    Untimed work (``w.refill()``) and the reference loop run between blocks
    with tracing off.
    """
    ph = Phase()
    deadline = perf_counter_ns() + int(seconds * 1e9)
    before = tracer.totals() if tracer else {}
    while ph.error is None and perf_counter_ns() < deadline and (limit is None or ph.items < limit):
        ph.failed += w.refill()
        r0 = reference_ns()
        n = w.available() if limit is None else min(w.available(), limit - ph.items)
        lat = []
        start = t1 = perf_counter_ns()
        block_end = min(start + BLOCK_NS, deadline)
        if tracer:
            tracer.on = True
        try:
            while n:
                t0 = perf_counter_ns()
                ok = step()
                t1 = perf_counter_ns()
                lat.append(t1 - t0)
                if not ok:
                    ph.failed += 1
                n -= 1
                if t1 >= block_end:
                    break
        except Exception:  # a raising item is a failed item; report and stop
            t1 = perf_counter_ns()
            lat.append(t1 - t0)
            ph.failed += 1
            ph.error = traceback.format_exc()
            print(ph.error, file=sys.stderr)
        finally:
            if tracer:
                tracer.on = False
        scale = REF_NS / ((r0 + reference_ns()) / 2)
        for x in lat:
            ph.hist.add(x * scale)
        ph.items += len(lat)
        ph.raw_ns += t1 - start
        ph.wall_ns += (t1 - start) * scale
        if tracer:
            after = tracer.totals()
            for name, row in after.items():
                old = before.get(name, [0] * len(row))
                acc = ph.layers.setdefault(name, [0.0] * len(row))
                for i, (x, y) in enumerate(zip(row, old)):
                    acc[i] += (x - y) * (1 if i in (CALLS, ERRORS) else scale)
            before = after
    return ph


# --- run context ---------------------------------------------------------------


def run_context(args) -> dict:
    digest = hashlib.sha256()
    for p in sorted((SRC / "mpst").rglob("*.py")):
        digest.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "ref_ns": REF_NS,
    }


# --- one workload ----------------------------------------------------------------


def _child(args, *extra: str) -> str:
    """Run this script again in a fresh process and return its last line."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed), *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(extra)} child failed:\n{done.stderr}")
    return done.stdout.strip().splitlines()[-1]


def timed_setup(w) -> float:
    """Scaled seconds from workload start to the first timed item."""
    r0 = reference_ns()
    t0 = perf_counter_ns()
    w.setup()
    raw = perf_counter_ns() - t0
    return raw * REF_NS / ((r0 + reference_ns()) / 2) / 1e9


def count_window(w, tracer, n: int) -> tuple[Phase, dict]:
    tracer.install()
    ph = run_phase(w, w.item, 1e9, tracer, limit=n)
    counts = {name: [row[CALLS], row[ERRORS]] for name, row in sorted(tracer.totals().items())}
    return ph, counts


def end_to_end(args, w) -> tuple[dict, int, int, bool]:
    setups = [timed_setup(w)]
    if not args.quick:
        # Fresh processes, so nothing the first set-up cached can hide the
        # cost of the others.
        setups += [float(_child(args, "--setup-only")) for _ in range(SETUP_SAMPLES - 1)]
    ph = run_phase(w, w.item, args.seconds)
    ph.failed += w.finish()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = max(ph.items, 1)
    metrics = {
        "items_per_s": ph.items_per_s,
        "item_us.p50": ph.item_us(0.50),
        "item_us.p99": ph.item_us(0.99),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
        "ok_share": 1 - ph.failed / attempted,
    }
    print(f"{args.workload} samples {ph.hist.n} items, {len(setups)} set-ups")
    print(f"{args.workload} failed_share {ph.failed / attempted} share")
    print(f"{args.workload} speed_scale {ph.speed_scale} ratio (reported over raw rate)")
    return metrics, attempted, ph.failed, ph.error is None


def per_layer(args, w) -> tuple[dict, int, int, bool]:
    w.setup()
    tracer = Tracer()
    window = QUICK_COUNT_WINDOW if args.quick else COUNT_WINDOW[w.name]
    traced_share, plain_share, bare_share = TRACE_SHARES
    if not w.has_bare:
        plain_share += bare_share
    traced, counts = count_window(w, tracer, window)
    traced.merge(run_phase(w, w.item, args.seconds * traced_share, tracer))
    # The untraced and bare phases run the library's own functions.
    tracer.uninstall()
    plain = run_phase(w, w.item, args.seconds * plain_share)
    bare = run_phase(w, w.bare_item, args.seconds * bare_share) if w.has_bare else None
    failed_after = w.finish()
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"{w.name}-seed{args.seed}.spans.jsonl")

    ok = all(p.error is None for p in (traced, plain, bare) if p is not None)
    if w.single_thread and ok:
        again = json.loads(_child(args, "--count-only", *(["--quick"] if args.quick else [])))
        if again != counts:
            ok = False
            print(f"{w.name}: call counts differ between two runs with seed {args.seed}", file=sys.stderr)

    items = max(traced.items, 1)
    bare_p50 = bare.item_us(0.5) if bare else 0.0
    plain_p50 = plain.item_us(0.5)
    typing = traced.layers.get("types.type_global", [0] * FIELDS)
    derived = {
        "types.type_global.accepted_us": (typing[SELF] - typing[ERR_SELF]) / items / 1e3,
        "types.type_global.rejected_us": typing[ERR_SELF] / items / 1e3,
        "runtime.overhead_ratio": plain_p50 / bare_p50 if bare_p50 else 0.0,
        "transport.bare.item_us.p50": bare_p50,
        "trace.overhead": plain.items_per_s / traced.items_per_s if traced.items_per_s else 0.0,
    }
    metrics = {}
    for name, _unit in PER_LAYER:
        if name in derived:
            metrics[name] = derived[name]
            continue
        span, field = name.rsplit(".", 1)
        if field == "calls":
            metrics[name] = counts.get(span, [0, 0])[0] / window
        elif field == "errors":
            metrics[name] = counts.get(span, [0, 0])[1] / window
        else:
            row = traced.layers.get(span, [0] * FIELDS)
            metrics[name] = row[{"self_us": SELF, "wait_us": WAIT}[field]] / items / 1e3
    failed = traced.failed + plain.failed + (bare.failed if bare else 0) + failed_after
    attempted = max(traced.items + plain.items + (bare.items if bare else 0), 1)
    print(f"{args.workload} untraced items_per_s {plain.items_per_s} 1/s, traced {traced.items_per_s} 1/s")
    print(f"{args.workload} speed_scale {traced.speed_scale} ratio (reported over raw time)")
    return metrics, attempted, failed, ok


def run_one(args) -> int:
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        print(timed_setup(w))
        w.finish()
        return 0
    if args.count_only:
        w.setup()
        tracer = Tracer(keep=0)
        _, counts = count_window(w, tracer, QUICK_COUNT_WINDOW if args.quick else COUNT_WINDOW[w.name])
        w.finish()
        print(json.dumps(counts))
        return 0

    context = run_context(args)
    print("context " + json.dumps(context, sort_keys=True))
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed, ok = measure(args, w)
    units = {m[0]: m[1] for m in (END_TO_END if not args.trace else PER_LAYER)}
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value} {units[name]}")
    result = {
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"context": context, **result}, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; metric names get a workload prefix."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["pingpong", "pingpong-threaded", "chameleons", "check", "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--quick", action="store_true", help="one set-up, a short count window: for self-tests")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--count-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _load_library()
    # One CPU for the whole run (threads and child processes inherit it):
    # with both ping-pong threads on one CPU the handoff tracks the host's
    # speed like the single-thread workloads do, instead of the scheduler.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
