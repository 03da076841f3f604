"""Command-line front-end: check, project, simulate, bench.

Exit codes: 0 success, 1 protocol/role errors or a failed bench suite, 2 I/O
or parse errors.
All JSON output is canonical (sorted keys, LF line endings).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Optional, TypeVar

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

T = TypeVar("T")


class _InputError(Exception):
    """A file, scenario or transport the command cannot use: ``main`` prints
    ``error: <why>`` and exits 2."""


def _load(path: str, parse: Callable[[str], T]) -> tuple[T, str]:
    """``parse`` of the file at ``path``, and its source."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            source = f.read()
        return parse(source), source
    except (OSError, ParseError) as e:
        raise _InputError(e) from e


def _write(path: str, text: str) -> None:
    """Write ``text`` to the file at ``path``, with LF line endings."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    except OSError as e:
        raise _InputError(e) from e


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


def cmd_check(args: argparse.Namespace) -> int:
    pf, source = _load(args.path, parse_protocol)
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
        doc = {r: local_type_to_json(t) for r, t in local.items()}
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(f"protocol {pf.name}: well-formed")
        for r in pf.roles:
            print(f"  {r}: {format_local_type(local[r])}")
    return 0


def cmd_project(args: argparse.Namespace) -> int:
    pf, source = _load(args.path, parse_protocol)
    if args.role not in pf.roles:
        print(f"error: role {args.role} is not declared by {pf.name}", file=sys.stderr)
        return 1
    try:
        projected = project(pf.body, args.role)  # a role is its name
        whole = type_global(pf.body, pf.roles)
    except MpstError as e:
        print(_diag(pf, source, e), file=sys.stderr)
        return 1
    if not type_equiv(projected, whole[args.role]):  # the two derivations must agree
        print("internal error: projection disagrees with the typing derivation", file=sys.stderr)
        return 1
    doc = json.dumps(local_type_to_json(projected), sort_keys=True, indent=2) + "\n"
    if args.json:
        _write(args.json, doc)
    else:
        sys.stdout.write(doc)
    return 0


def _parse_transport(text: str) -> Transport:
    """The ``--transport`` value: sync, async[:N] or framed."""
    if text == "sync":
        return SyncRendezvous()
    if text.startswith("async"):
        try:
            return AsyncBuffered(int(text.split(":", 1)[1]) if ":" in text else 1)
        except ValueError as e:
            raise _InputError(e) from e
    if text == "framed":
        return FramedSocket()
    raise _InputError(f"unknown transport {text!r} (use sync, async[:N], or framed)")


def cmd_simulate(args: argparse.Namespace) -> int:
    pf, _ = _load(args.protocol, parse_protocol)
    scenario, _ = _load(args.scenario, parse_scenario)
    if scenario.protocol != pf.name:
        raise _InputError(f"scenario is for {scenario.protocol}, not {pf.name}")
    transport = _parse_transport(args.transport)
    report = run_scripted(pf.body, scenario.scripts, transport, roles=pf.roles)
    for name, outcome in sorted(report.outcomes.items()):
        status = "ok" if outcome.ok else f"{outcome.error_kind or 'failed'}: {outcome.detail}"
        print(f"  {name}: {status}")
    print(f"verdict: {report.verdict}")
    if args.trace:
        _write(args.trace, "".join(
            json.dumps(
                {
                    "seq": ev.seq,
                    "kind": ev.kind.value,
                    "role": ev.role,
                    "peer": ev.peer,
                    "label": ev.label.name if ev.label else None,
                },
                sort_keys=True,
            ) + "\n"
            for ev in report.trace
        ))
    return 0 if report.ok else 1


def cmd_bench(args: argparse.Namespace) -> int:
    transport = _parse_transport(args.transport)
    rows, failed = [], False
    for suite in args.suite:
        try:
            rows.extend(bench_mod.run_suite(suite, args.iters, transport))
        except Exception as e:  # best effort: record, run the other suites, exit 1
            print(f"bench {suite} failed: {e}", file=sys.stderr)
            failed = True
    csv = bench_mod.rows_to_csv(rows)
    if args.csv:
        _write(args.csv, csv)
    else:
        sys.stdout.write(csv)
    return 1 if failed else 0


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
    pf, _ = _load(args.path, parse_protocol)
    sys.stdout.write(print_protocol(pf))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
