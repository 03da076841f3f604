#!/usr/bin/env python3
"""Before/after for one layer on two commits.

    python3 layerbench/compare.py BASE HEAD --workload pingpong --layer runtime

Exports both commits with ``git archive`` into ``layerbench/.out/compare/``
and puts this directory's benchmark into both trees, so both sides run the
same benchmark code.  Then it runs ten pairs, alternating which side
goes first, with a new seed for each pair (1001, 1002, ...).  Each run lasts
``run_seconds`` from ``BENCHMARK.json`` and is untraced, plus a traced run
when ``--layer`` is given.  It prints each side's median and
quartiles for every end-to-end metric and for the chosen layer's metrics.
It also prints the share of pairs the head won and a verdict:

- ``gain``: the head won at least 9 of the 10 pairs, and the medians differ
  by more than the base's quartile spread;
- ``regression``: the head's median is worse by more than the metric's bound;
- ``within bound``: neither, and the base's spread is below the bound;
- ``unresolved``: neither, and the base's spread is wider than the bound.

Per-layer metrics have no bound, so they get ``gain`` or ``no gain``.  Call
counts are exact (``run.py`` checks that they repeat), so a count the head
lowers on every seed wins every pair.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END  # noqa: E402

# Ten pairs is the fewest a gain can be claimed on; pair i runs with seed
# SEED_BASE + i on both sides.
PAIRS = 10
SEED_BASE = 1001
# Both sides run as long as the benchmark's own runs.
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def export(commit: str) -> Path:
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", commit], capture_output=True,
                         text=True, check=True).stdout.strip()
    dest = HERE / ".out" / "compare" / sha[:12]
    if not dest.exists():
        tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", sha],
                             capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
            tf.extractall(dest, filter="data")
    shutil.rmtree(dest / "layerbench", ignore_errors=True)
    shutil.copytree(HERE, dest / "layerbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    return dest


def run(tree: Path, args, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "layerbench/run.py", "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"run failed in {tree}:\n{done.stderr}")
    res = json.loads(done.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        print(f"warning: incorrect result in {tree} (seed {seed})", file=sys.stderr)
    return {k: v["value"] for k, v in res["metrics"].items()}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(base: list[float], head: list[float], higher: bool, bound: float | None) -> str:
    """``bound`` is None for per-layer metrics, which have no bound."""
    b1, bm, b3 = quartiles(base)
    _, hm, _ = quartiles(head)
    wins = sum((h > b) if higher else (h < b) for b, h in zip(base, head))
    pairs = f"{wins}/{len(base)} pairs"
    if wins >= 0.9 * len(base) and abs(hm - bm) > b3 - b1:
        return f"gain, {pairs}"
    if bound is None:
        return f"no gain, {pairs}"
    worse = (bm - hm) / bm if higher else (hm - bm) / bm
    if worse > bound:
        return f"regression, {pairs}"
    if (b3 - b1) / bm > bound:
        return f"unresolved, {pairs}"
    return f"within bound, {pairs}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--layer", help="protocol, types, chanvec, runtime, transport or trace")
    args = ap.parse_args()

    trees = {"base": export(args.base), "head": export(args.head)}
    results: dict[str, list[dict]] = {"base": [], "head": []}
    for i in range(PAIRS):
        seed = SEED_BASE + i
        for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
            metrics = run(trees[side], args, seed, 0)
            if args.layer:
                layer = run(trees[side], args, seed, 1)
                metrics.update({k: v for k, v in layer.items() if k.startswith(args.layer + ".")})
            results[side].append(metrics)
        print(f"pair {i + 1}/{PAIRS} done", file=sys.stderr)

    print(f"{args.workload}: base {args.base} -> head {args.head}, {PAIRS} pairs, "
          f"{SECONDS} s per run")
    print(f"{'metric':44s} {'base q1/median/q3':>36s} {'head q1/median/q3':>36s}  verdict")
    bounds = {name: (better == "higher", bound) for name, _unit, better, bound in END_TO_END}
    for name in results["base"][0]:
        base = [r[name] for r in results["base"]]
        head = [r[name] for r in results["head"]]
        b, h = quartiles(base), quartiles(head)
        note = verdict(base, head, *bounds.get(name, (False, None)))
        print(f"{name:44s} {b[0]:12.4g}{b[1]:12.4g}{b[2]:12.4g} {h[0]:12.4g}{h[1]:12.4g}{h[2]:12.4g}  {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
