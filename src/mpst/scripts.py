"""Deterministic multi-role harness: scripts, execution, and run reports.

A script is a list of steps; receives carry one sub-script per label they
are prepared to handle, so a script is a tree shaped like the role's local
type.  ``run_scripted`` executes one worker thread per role and never
panics: every failure lands in the :class:`RunReport`.  ``global_trace``
draws one finite compliant run of a protocol, and ``compliant_scripts``
turns it into per-role scripts; the walk carries its recursion scope, so a
sub-protocol object shared under several binders is scope-correct.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Optional, Sequence

from .errors import ErrorKind, MpstError, SessionRuntimeError
from .protocol import (
    ClosedAt,
    Choice,
    Comm,
    End,
    GlobalProtocol,
    Label,
    PayloadSort,
    Rec,
    Role,
    Var,
    roles_of,
)
from .runtime import (
    DEFAULT_TIMEOUT,
    Endpoint,
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


def _exec_step(ep: Endpoint, step: Step) -> tuple[Optional[Endpoint], Optional[Script]]:
    """Run one step; returns the continuation endpoint and, for receives,
    the branch script to switch into."""
    if isinstance(step, SendStep):
        return ep.send(step.peer, step.label, step.payload), None
    if isinstance(step, ReceiveStep):
        label, _payload, cont = ep.receive(step.peer)
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
        cont, sub = _exec_step(ep, step.inner)
        _exec_step(ep, step.inner)  # must raise InvalidEndpoint
        return cont, sub
    raise AssertionError(f"unknown step {step!r}")


def _run_role(ep: Optional[Endpoint], script: Script, outcome: RoleOutcome) -> None:
    steps = list(script)
    try:
        i = 0
        while i < len(steps):
            assert ep is not None, "script continues after close"
            ep, switched = _exec_step(ep, steps[i])
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
    """Run one worker per role against a monitored session.  Every declared
    role needs a script, and every script a declared role; the session opens
    from the template that ``open_session(g, roles=roles)`` would use."""
    declared = roles if roles is not None else roles_of(g)
    missing = [str(r) for r in declared if r not in scripts]
    undeclared = [r for r in scripts if r not in declared]
    if missing or undeclared:
        outcomes = {m: RoleOutcome(m, False, None, "no script for role") for m in missing}
        outcomes.update((u, RoleOutcome(u, False, None, "no such role in the protocol")) for u in undeclared)
        details = (("missing scripts for", missing), ("scripts for undeclared roles", undeclared))
        detail = "; ".join(f"{what} {names}" for what, names in details if names)
        return RunReport("error", outcomes, detail=detail)
    try:
        session = open_session(g, transport, monitored=True, roles=roles, timeout=timeout)
    except MpstError as e:
        return RunReport(
            "error",
            {r: RoleOutcome(r, False, e.kind, e.detail) for r in declared},
            detail=str(e),
        )
    outcomes = {r: RoleOutcome(r, False) for r in declared}
    workers = [
        threading.Thread(
            target=_run_role,
            args=(session.endpoints[r], scripts[r], outcomes[r]),
            daemon=True,
            name=f"mpst-{r}",
        )
        for r in declared
    ]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout + 2.0)
    try:
        trace = session.monitor.events
        timed_out = any(
            o.error_kind is ErrorKind.TIMEOUT for o in outcomes.values()
        ) or any(w.is_alive() for w in workers)
        if timed_out:
            return RunReport("deadlocked", outcomes, trace, "at least one role timed out")
        if not all(o.ok for o in outcomes.values()):
            return RunReport("error", outcomes, trace, "a role failed")
        ok, why = session.monitor.verdict()
        return RunReport("conformant" if ok else "nonconformant", outcomes, trace, why)
    finally:
        session.close_transport()


def default_payload(sort: PayloadSort) -> object:
    try:
        return sort.literal  # a base sort's
    except AttributeError:
        raise ValueError(f"no scripted literal for sort {sort.sort_name()}") from None


_INF = float("inf")


def _distance(node: GlobalProtocol, scope: dict) -> float:
    """Fewest communications from ``node`` to End, where ``scope`` maps each
    bound variable to an entry whose first item is its loop head's distance."""
    if isinstance(node, End):
        return 0.0
    if isinstance(node, Comm):
        return 1.0 + _distance(node.cont, scope)
    if isinstance(node, Choice):
        return min((_distance(b, scope) for b in node.branches), default=_INF)
    if isinstance(node, Rec):  # a shortest run never goes round the loop again
        return _distance(node.body, {**scope, node.var: (_INF,)})
    if isinstance(node, ClosedAt):
        return _distance(node.cont, scope)
    if isinstance(node, Var):
        return scope[node.var][0] if node.var in scope else _INF
    return _INF


def global_trace(g: GlobalProtocol, rng, budget: int = 200) -> list[tuple[Role, Role, Label]]:
    """One finite compliant path through the protocol.

    Choices are taken at random while the communication budget allows a
    random branch to still terminate; once the budget tightens, the path
    follows the shortest way out.  The walk carries its scope: each ``Rec``
    maps its variable to the loop head's distance, its body and the scope
    inside it, so a ``Var`` goes back to its own binder even when one
    sub-protocol object sits under several binders of the same name.
    """
    events: list[tuple[Role, Role, Label]] = []

    node, scope = g, {}
    remaining = float(budget)
    while not isinstance(node, End):
        if isinstance(node, Comm):
            events.append((node.from_role, node.to_role, node.label))
            remaining -= 1
            node = node.cont
        elif isinstance(node, Choice):
            options = [(_distance(b, scope), b) for b in node.branches]
            viable = [o for o in options if o[0] <= remaining] or [min(options, key=itemgetter(0))]
            _, node = rng.choice(viable) if remaining > 0 else min(viable, key=itemgetter(0))
        elif isinstance(node, Rec):
            inner = dict(scope)
            inner[node.var] = (_distance(node, scope), node.body, inner)
            node, scope = node.body, inner
        elif isinstance(node, Var):
            _, node, scope = scope[node.var]
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
            if frm == role:
                steps.append(SendStep(to, label.name, default_payload(label.payload)))
            elif to == role:
                rest = build(role, i + 1)
                steps.append(ReceiveStep(frm, ((label.name, rest),)))
                return tuple(steps)
            i += 1
        steps.append(CloseStep())
        return tuple(steps)

    return {r: build(r, 0) for r in roles}


def compliant_scripts(g: GlobalProtocol, rng, budget: int = 200,
                      roles: Optional[Sequence[Role]] = None) -> dict[str, Script]:
    events = global_trace(g, rng, budget)
    return scripts_for_trace(roles if roles is not None else roles_of(g), events)
