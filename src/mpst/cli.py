"""Command-line front-end: check, project, simulate, bench.

Exit codes: 0 success, 1 protocol/role errors, 2 I/O or parse errors.
All JSON output is canonical (sorted keys, LF line endings).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import bench as bench_mod
from .dsl import ProtocolFile, parse_protocol, parse_scenario, print_protocol
from .errors import MpstError, ParseError, ShapeError
from .scripts import run_scripted
from .transport import AsyncBuffered, FramedSocket, SyncRendezvous, Transport
from .types import (
    format_local_type,
    local_type_to_json,
    project,
    type_equiv,
    type_global,
)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _caret_block(pf: ProtocolFile, source: str, path) -> str:
    span = pf.span_at(tuple(path))
    if span is None:
        return ""
    line, col, end_line, end_col = span
    lines = source.splitlines()
    if line - 1 >= len(lines):
        return ""
    text = lines[line - 1]
    width = max(1, (end_col - col) if end_line == line else len(text) - col + 1)
    prefix = f"  {line} | "
    return f"{prefix}{text}\n{' ' * (len(prefix) + col - 1)}{'^' * width}"


def _diag(pf: ProtocolFile, source: str, err: MpstError) -> str:
    where = "/".join(err.path) or "root"
    block = _caret_block(pf, source, err.path)
    out = f"error[{err.kind}] at {where}: {err.detail}"
    return f"{out}\n{block}" if block else out


def _load_protocol(path: str) -> tuple[ProtocolFile, str]:
    source = _read(path)
    return parse_protocol(source), source


def cmd_check(args: argparse.Namespace) -> int:
    try:
        pf, source = _load_protocol(args.path)
    except (OSError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        local = type_global(pf.body, pf.roles)
    except ShapeError as e:
        for f in e.findings:
            print(f"error[{f.kind}] at {'/'.join(f.path) or 'root'}: {f.detail}", file=sys.stderr)
        return 1
    except MpstError as e:
        print(_diag(pf, source, e), file=sys.stderr)
        return 1
    if args.json:
        doc = {r.name: local_type_to_json(t) for r, t in local.items()}
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(f"protocol {pf.name}: well-formed")
        for r in pf.roles:
            print(f"  {r.name}: {format_local_type(local[r])}")
    return 0


def cmd_project(args: argparse.Namespace) -> int:
    try:
        pf, source = _load_protocol(args.path)
    except (OSError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.role not in {r.name for r in pf.roles}:
        print(f"error: role {args.role} is not declared by {pf.name}", file=sys.stderr)
        return 1
    role = next(r for r in pf.roles if r.name == args.role)
    try:
        projected = project(pf.body, role)
        whole = type_global(pf.body, pf.roles)
    except MpstError as e:
        print(_diag(pf, source, e), file=sys.stderr)
        return 1
    if not type_equiv(projected, whole[role]):  # the two derivations must agree
        print("internal error: projection disagrees with the typing derivation", file=sys.stderr)
        return 1
    doc = json.dumps(local_type_to_json(projected), sort_keys=True, indent=2) + "\n"
    if args.json:
        with open(args.json, "w", encoding="utf-8", newline="\n") as f:
            f.write(doc)
    else:
        sys.stdout.write(doc)
    return 0


def _parse_transport(text: str) -> Transport:
    if text == "sync":
        return SyncRendezvous()
    if text.startswith("async"):
        cap = int(text.split(":", 1)[1]) if ":" in text else 1
        return AsyncBuffered(cap)
    if text == "framed":
        return FramedSocket()
    raise ValueError(f"unknown transport {text!r} (use sync, async[:N], or framed)")


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        pf, _source = _load_protocol(args.protocol)
        scenario = parse_scenario(_read(args.scenario))
    except (OSError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if scenario.protocol != pf.name:
        print(f"error: scenario is for {scenario.protocol}, not {pf.name}", file=sys.stderr)
        return 2
    try:
        transport = _parse_transport(args.transport)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    report = run_scripted(pf.body, scenario.scripts, transport, roles=pf.roles)
    for name, outcome in sorted(report.outcomes.items()):
        status = "ok" if outcome.ok else f"{outcome.error_kind or 'failed'}: {outcome.detail}"
        print(f"  {name}: {status}")
    print(f"verdict: {report.verdict}")
    if args.trace:
        with open(args.trace, "w", encoding="utf-8", newline="\n") as f:
            for ev in report.trace:
                f.write(json.dumps(
                    {
                        "seq": ev.seq,
                        "kind": ev.kind.value,
                        "role": ev.role.name,
                        "peer": ev.peer.name if ev.peer else None,
                        "label": ev.label.name if ev.label else None,
                    },
                    sort_keys=True,
                ) + "\n")
    return 0 if report.ok else 1


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        transport = _parse_transport(args.transport)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    rows = []
    for suite in args.suite:
        try:
            rows.extend(bench_mod.run_suite(suite, args.iters, transport))
        except Exception as e:  # best effort: record and continue
            print(f"bench {suite} failed: {e}", file=sys.stderr)
    csv = bench_mod.rows_to_csv(rows)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="\n") as f:
            f.write(csv)
    else:
        sys.stdout.write(csv)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mpst", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="verify a protocol file and print its local types")
    c.add_argument("path")
    c.add_argument("--json", action="store_true", help="emit the local types as JSON")
    c.set_defaults(fn=cmd_check)

    pr = sub.add_parser("project", help="emit one role's local type as canonical JSON")
    pr.add_argument("path")
    pr.add_argument("--role", required=True)
    pr.add_argument("--json", metavar="OUT", help="write to a file instead of stdout")
    pr.set_defaults(fn=cmd_project)

    si = sub.add_parser("simulate", help="run a scenario against a protocol")
    si.add_argument("protocol")
    si.add_argument("scenario")
    si.add_argument("--transport", default="sync")
    si.add_argument("--trace", metavar="OUT", help="write the event log as JSON lines")
    si.set_defaults(fn=cmd_simulate)

    be = sub.add_parser("bench", help="run benchmark suites and emit CSV")
    be.add_argument("--suite", action="append", required=True,
                    choices=["pingpong", "nping", "chameleons"])
    be.add_argument("--iters", type=int, default=10_000)
    be.add_argument("--transport", default="sync")
    be.add_argument("--csv", metavar="OUT")
    be.set_defaults(fn=cmd_bench)

    fmt = sub.add_parser("format", help="reprint a protocol file canonically")
    fmt.add_argument("path")
    fmt.set_defaults(fn=cmd_format)
    return p


def cmd_format(args: argparse.Namespace) -> int:
    try:
        pf, _ = _load_protocol(args.path)
    except (OSError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    sys.stdout.write(print_protocol(pf))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
