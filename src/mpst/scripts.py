"""Deterministic multi-role harness: scripts, execution, and run reports.

A script is a list of steps; receives carry one sub-script per label they
are prepared to handle, so a script is a tree shaped like the role's local
type.  ``run_scripted`` executes one worker thread per role and never
panics: every failure lands in the :class:`RunReport`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import ErrorKind, MpstError, SessionRuntimeError
from .protocol import (
    BOOL,
    ClosedAt,
    Choice,
    Comm,
    End,
    GlobalProtocol,
    INT,
    Label,
    PayloadSort,
    Rec,
    Role,
    STRING,
    UNIT,
    Var,
    roles_of,
)
from .runtime import (
    DEFAULT_TIMEOUT,
    Endpoint,
    Session,
    SyncRendezvous,
    TraceEvent,
    Transport,
    open_session,
)


class Step:
    __slots__ = ()


@dataclass(frozen=True)
class SendStep(Step):
    peer: str
    label: str
    payload: object = None


@dataclass(frozen=True)
class ReceiveStep(Step):
    peer: str
    branches: tuple[tuple[str, tuple[Step, ...]], ...]  # label -> continuation script

    def script_for(self, label: str) -> Optional[tuple[Step, ...]]:
        for name, script in self.branches:
            if name == label:
                return script
        return None


@dataclass(frozen=True)
class CloseStep(Step):
    pass


@dataclass(frozen=True)
class ReuseStep(Step):
    """Fault injection: run the wrapped step, then run it again on the same
    endpoint.  The second run must trip the linearity check."""

    inner: Step


Script = tuple[Step, ...]


@dataclass
class RoleOutcome:
    role: str
    ok: bool
    error_kind: Optional[ErrorKind] = None
    detail: str = ""


@dataclass
class RunReport:
    verdict: str  # "conformant" | "deadlocked" | "error" | "nonconformant"
    outcomes: dict[str, RoleOutcome]
    trace: list[TraceEvent] = field(default_factory=list)
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.verdict == "conformant"

    def error_kinds(self) -> set[ErrorKind]:
        return {o.error_kind for o in self.outcomes.values() if o.error_kind is not None}


def _resolve_role(session: Session, name: str) -> Role:
    for r in session.roles:
        if r.name == name:
            return r
    raise SessionRuntimeError(ErrorKind.WRONG_PEER, f"unknown role {name}")


def _exec_step(session: Session, ep: Endpoint, step: Step) -> tuple[Optional[Endpoint], Optional[Script]]:
    """Run one step; returns the continuation endpoint and, for receives,
    the branch script to switch into."""
    if isinstance(step, SendStep):
        return ep.send(_resolve_role(session, step.peer), step.label, step.payload), None
    if isinstance(step, ReceiveStep):
        label, _payload, cont = ep.receive(_resolve_role(session, step.peer))
        sub = step.script_for(label.name)
        if sub is None:
            raise SessionRuntimeError(
                ErrorKind.UNKNOWN_LABEL,
                f"script has no branch for received label {label.name}",
            )
        return cont, sub
    if isinstance(step, CloseStep):
        ep.close()
        return None, None
    if isinstance(step, ReuseStep):
        cont, sub = _exec_step(session, ep, step.inner)
        _exec_step(session, ep, step.inner)  # must raise InvalidEndpoint
        return cont, sub
    raise AssertionError(f"unknown step {step!r}")


def _run_role(session: Session, role: Role, script: Script, outcome: RoleOutcome) -> None:
    ep: Optional[Endpoint] = session.endpoints[role]
    steps = list(script)
    try:
        i = 0
        while i < len(steps):
            assert ep is not None, "script continues after close"
            ep, switched = _exec_step(session, ep, steps[i])
            if switched is not None:
                steps = list(switched)
                i = 0
            else:
                i += 1
        outcome.ok = True
    except MpstError as e:
        outcome.ok = False
        outcome.error_kind = e.kind
        outcome.detail = e.detail
    except Exception as e:  # harness promise: report, never panic
        outcome.ok = False
        outcome.detail = f"{type(e).__name__}: {e}"


def run_scripted(
    g: GlobalProtocol,
    scripts: dict[str, Script],
    transport: Transport = SyncRendezvous(),
    timeout: float = DEFAULT_TIMEOUT,
    roles: Optional[tuple[Role, ...]] = None,
) -> RunReport:
    """Run one worker per role against a monitored session."""
    declared = roles if roles is not None else roles_of(g)
    missing = [r.name for r in declared if r.name not in scripts]
    if missing:
        return RunReport(
            "error",
            {
                m: RoleOutcome(m, False, None, "no script for role")
                for m in missing
            },
            detail=f"missing scripts for {missing}",
        )
    try:
        session = open_session(g, transport, monitored=True, roles=declared, timeout=timeout)
    except MpstError as e:
        return RunReport(
            "error",
            {r.name: RoleOutcome(r.name, False, e.kind, e.detail) for r in declared},
            detail=str(e),
        )
    outcomes = {r.name: RoleOutcome(r.name, False) for r in declared}
    workers = [
        threading.Thread(
            target=_run_role,
            args=(session, r, scripts[r.name], outcomes[r.name]),
            daemon=True,
            name=f"mpst-{r.name}",
        )
        for r in declared
    ]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout + 2.0)
    try:
        trace = session.monitor.events if session.monitor else []
        timed_out = any(
            o.error_kind is ErrorKind.TIMEOUT for o in outcomes.values()
        ) or any(w.is_alive() for w in workers)
        if timed_out:
            return RunReport("deadlocked", outcomes, trace, "at least one role timed out")
        if not all(o.ok for o in outcomes.values()):
            return RunReport("error", outcomes, trace, "a role failed")
        ok, why = session.monitor.verdict()  # type: ignore[union-attr]
        return RunReport("conformant" if ok else "nonconformant", outcomes, trace, why)
    finally:
        session.close_transport()


def default_payload(sort: PayloadSort) -> object:
    if sort == UNIT:
        return None
    if sort == BOOL:
        return True
    if sort == INT:
        return 42
    if sort == STRING:
        return "x"
    raise ValueError(f"no scripted literal for sort {sort.sort_name()}")


def _scoped_nodes(g: GlobalProtocol):
    """All nodes plus, per node, the in-scope binder bodies by variable name."""
    nodes: list[GlobalProtocol] = []
    bind_of: dict[int, dict[str, GlobalProtocol]] = {}

    def collect(n: GlobalProtocol, env: dict[str, GlobalProtocol]) -> None:
        nodes.append(n)
        if isinstance(n, Rec):
            env = dict(env)
            env[n.var] = n.body
        bind_of[id(n)] = env
        for _, c in n.children():
            collect(c, env)

    collect(g, {})
    return nodes, bind_of


def _min_steps(g: GlobalProtocol):
    """Minimum number of communications from each node to End, plus the
    scoped binders of :func:`_scoped_nodes` they were computed from.

    Computed by fixpoint relaxation over the node graph, where recursion
    variables point back at their binder's body.
    """
    nodes, bind_of = _scoped_nodes(g)
    dist: dict[int, float] = {id(n): float("inf") for n in nodes}

    changed = True
    while changed:
        changed = False
        for n in nodes:
            if isinstance(n, End):
                d = 0.0
            elif isinstance(n, Comm):
                d = 1.0 + dist[id(n.cont)]
            elif isinstance(n, Choice):
                d = min(dist[id(b)] for b in n.branches) if n.branches else float("inf")
            elif isinstance(n, Rec):
                d = dist[id(n.body)]
            elif isinstance(n, ClosedAt):
                d = dist[id(n.cont)]
            elif isinstance(n, Var):
                target = bind_of[id(n)].get(n.var)
                d = dist[id(target)] if target is not None else float("inf")
            else:
                d = float("inf")
            if d < dist[id(n)]:
                dist[id(n)] = d
                changed = True
    return dist, bind_of


def global_trace(g: GlobalProtocol, rng, budget: int = 200) -> list[tuple[Role, Role, Label]]:
    """One finite compliant path through the protocol.

    Choices are taken at random while the communication budget allows a
    random branch to still terminate; once the budget tightens, the path
    follows the shortest way out.
    """
    dist, bind_of = _min_steps(g)
    events: list[tuple[Role, Role, Label]] = []

    node = g
    remaining = float(budget)
    while not isinstance(node, End):
        if isinstance(node, Comm):
            events.append((node.from_role, node.to_role, node.label))
            remaining -= 1
            node = node.cont
        elif isinstance(node, Choice):
            viable = [b for b in node.branches if dist[id(b)] <= remaining]
            if not viable:
                viable = [min(node.branches, key=lambda b: dist[id(b)])]
            node = rng.choice(viable) if remaining > 0 else min(viable, key=lambda b: dist[id(b)])
        elif isinstance(node, Rec):
            node = node.body
        elif isinstance(node, Var):
            node = bind_of[id(node)][node.var]  # scope-correct under shadowing
        elif isinstance(node, ClosedAt):
            node = node.cont
        else:
            raise AssertionError(f"unknown node {node!r}")
        if remaining < -budget:
            raise ValueError("protocol offers no finite compliant run within budget")
    return events


def scripts_for_trace(
    roles: Sequence[Role], events: list[tuple[Role, Role, Label]]
) -> dict[str, Script]:
    """Compliant per-role scripts realizing one global trace."""

    def build(role: Role, idx: int) -> Script:
        steps: list[Step] = []
        i = idx
        while i < len(events):
            frm, to, label = events[i]
            if frm.name == role.name:
                steps.append(SendStep(to.name, label.name, default_payload(label.payload)))
            elif to.name == role.name:
                rest = build(role, i + 1)
                steps.append(ReceiveStep(frm.name, ((label.name, rest),)))
                return tuple(steps)
            i += 1
        steps.append(CloseStep())
        return tuple(steps)

    return {r.name: build(r, 0) for r in roles}


def compliant_scripts(g: GlobalProtocol, rng, budget: int = 200,
                      roles: Optional[Sequence[Role]] = None) -> dict[str, Script]:
    events = global_trace(g, rng, budget)
    return scripts_for_trace(roles if roles is not None else roles_of(g), events)
