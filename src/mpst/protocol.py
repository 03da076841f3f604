"""Global protocol AST: roles, labels, payload sorts, and the combinators.

A global protocol describes every interaction of a multiparty session from a
bird's-eye view.  Values built here are immutable and carry no channels; the
``chanvec`` module compiles them to channel vectors, whose channel-erased
view is the ``types`` module's local types.  Shape findings and roles come
from one walk, kept on the protocol (``_front``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .errors import EmptyChoiceError, ErrorKind, Path, SelfSendError

NAME = re.compile(r"[^\W\d]\w*")  # a role's or label's name: ``dsl`` reads it back as one token


class Role(str):
    """A session participant, which is its name: ``Role("c") == "c"``, and
    both hash alike, so a role and its name are one dict key.  A role is
    immutable and has no other state; its position in a session is the
    position of the role in that session's role tuple."""

    __slots__ = ()

    def __new__(cls, name: str) -> "Role":
        if not NAME.fullmatch(name):
            raise ValueError(f"role name must be a nonempty word: {name!r}")
        return str.__new__(cls, name)

    @property
    def name(self) -> str:
        """The name as a plain string."""
        return str(self)

    def __repr__(self) -> str:
        return f"Role(name={str.__repr__(self)})"


class PayloadSort:
    """Base class for message payload sorts."""

    __slots__ = ()

    def sort_name(self) -> str:
        raise NotImplementedError


class _BaseSort(PayloadSort):
    """A base sort: its name, the class its payloads are instances of (a
    send takes no bool for int), and the literal a derived script sends.
    Each is one of this module's four constants, which ``pickle`` and
    ``copy`` return too, so it compares and hashes by identity."""

    __slots__ = ("_name", "payload_class", "literal")

    def __init__(self, name: str, payload_class: type, literal: object) -> None:
        self._name, self.payload_class, self.literal = name, payload_class, literal

    def sort_name(self) -> str:
        return self._name

    def __repr__(self) -> str:
        return self._name

    def __reduce__(self) -> str:  # pickled and copied as this module's constant of that name
        return self._name.upper()


UNIT = _BaseSort("unit", type(None), None)
BOOL = _BaseSort("bool", bool, True)
INT = _BaseSort("int", int, 42)
STRING = _BaseSort("string", str, "x")

BASE_SORTS = {s.sort_name(): s for s in (UNIT, BOOL, INT, STRING)}


@dataclass(frozen=True)
class SessionSort(PayloadSort):
    """Delegation payload: the message carries a live endpoint of this type.

    The carried local type must be closed (no free recursion variables).
    """

    local: object  # a types.LocalType, which imports this module

    def __post_init__(self) -> None:
        from .types import LocalType

        if not isinstance(self.local, LocalType):
            raise TypeError(f"a session sort carries a local type, not {self.local!r}")
        if self.local.free_vars():
            raise ValueError("session payload types must be closed")

    def sort_name(self) -> str:
        return "session"

    def __repr__(self) -> str:
        return f"session({self.local!r})"


@dataclass(frozen=True)
class Label:
    """A message label.  Identity is the (name, payload sort) pair."""

    name: str
    payload: PayloadSort = UNIT

    def __post_init__(self) -> None:
        if not NAME.fullmatch(self.name):
            raise ValueError(f"label name must be a nonempty word: {self.name!r}")
        if not isinstance(self.payload, PayloadSort):
            raise TypeError(f"label {self.name}'s payload must be a payload sort, not {self.payload!r}")

    def __str__(self) -> str:
        return f"{self.name}({self.payload.sort_name()})"


class GlobalProtocol:
    """Base class of the global-combinator AST."""

    __slots__ = ()

    def __getstate__(self) -> dict:  # without the caches kept on it, as a type node's
        return {k: v for k, v in self.__dict__.items() if k != "_front" and k != "_compiled"}

    def children(self) -> Iterator[tuple[str, "GlobalProtocol"]]:
        return iter(())


@dataclass(frozen=True)
class Comm(GlobalProtocol):
    from_role: Role
    to_role: Role
    label: Label
    cont: GlobalProtocol

    def children(self):
        yield "cont", self.cont


@dataclass(frozen=True)
class Choice(GlobalProtocol):
    at: Role
    branches: tuple[GlobalProtocol, ...]

    def children(self):
        for i, b in enumerate(self.branches):
            yield f"branch[{i}]", b


@dataclass(frozen=True)
class Rec(GlobalProtocol):
    var: str
    body: GlobalProtocol

    def children(self):
        yield "body", self.body


@dataclass(frozen=True)
class Var(GlobalProtocol):
    var: str


@dataclass(frozen=True)
class End(GlobalProtocol):
    pass


@dataclass(frozen=True)
class ClosedAt(GlobalProtocol):
    """Annotation: the given role's behaviour is finished from here on."""

    role: Role
    cont: GlobalProtocol

    def children(self):
        yield "cont", self.cont


END = End()


def comm(from_role: Role, to_role: Role, label: Label, cont: GlobalProtocol) -> GlobalProtocol:
    """Point-to-point message followed by ``cont``.  Self-sends are rejected."""
    if from_role == to_role:
        raise SelfSendError(from_role)
    return Comm(from_role, to_role, label, cont)


def choice_at(at: Role, branches: Sequence[GlobalProtocol]) -> GlobalProtocol:
    """Branching decided by ``at``.  A single branch normalizes to itself."""
    branches = list(branches)
    if not branches:
        raise EmptyChoiceError()
    if len(branches) == 1:
        return branches[0]
    return Choice(at, tuple(branches))


def rec(var: str, body: GlobalProtocol) -> GlobalProtocol:
    return Rec(var, body)


def var_(var: str) -> GlobalProtocol:
    return Var(var)


def end_() -> GlobalProtocol:
    return END


def closed_at(role: Role, cont: GlobalProtocol) -> GlobalProtocol:
    return ClosedAt(role, cont)


@dataclass(frozen=True)
class Finding:
    kind: ErrorKind
    detail: str
    path: Path

    def __str__(self) -> str:
        return f"{self.kind} at {'/'.join(self.path) or 'root'}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        return not self.findings

    def kinds(self) -> set[ErrorKind]:
        return {f.kind for f in self.findings}

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.findings)

    def __str__(self) -> str:
        return "ok" if self.ok else "; ".join(str(f) for f in self.findings)


def _path(steps: object) -> Path:
    """The path of a ``(stack, step)`` step stack; a branch step is its index."""
    out = []
    while steps is not None:
        steps, step = steps
        out.append(step if isinstance(step, str) else f"branch[{step}]")
    return tuple(reversed(out))


def _front(g: GlobalProtocol) -> tuple[ValidationReport, tuple[Role, ...]]:
    """The shape findings and first-appearance roles of ``g`` from one walk,
    kept on ``g`` as ``runtime._compiled_for`` keeps the compiled form: ``g``
    is immutable, so the entry never goes stale, and two threads that miss at
    once both walk and store the same value.  Bound variables live in one
    dict, set and restored at each ``Rec``, mapped to the count of Comms on
    the path at their binder: a use is unguarded where that count has not
    grown.  The path is a step stack, made a tuple only for a finding."""
    if (cached := g.__dict__.get("_front")) is not None:
        return cached
    findings: list[Finding] = []
    roles: dict[Role, None] = {}  # an equal role met later keeps the first one's key
    bound: dict[str, Optional[int]] = {}  # None: out of scope again

    def walk(node: GlobalProtocol, comms: int, steps: object) -> None:
        while isinstance(node, Comm):  # a run of Comms in one loop
            a = node.from_role
            roles[a] = roles[node.to_role] = None
            if a == node.to_role:
                findings.append(Finding(ErrorKind.SELF_SEND, f"role {a} sends to itself", _path(steps)))
            node, comms, steps = node.cont, comms + 1, (steps, "cont")
        if isinstance(node, Choice):
            roles[node.at] = None
            if not node.branches:
                findings.append(Finding(ErrorKind.EMPTY_CHOICE, "choice with no branches", _path(steps)))
            for i, b in enumerate(node.branches):
                walk(b, comms, (steps, i))
        elif isinstance(node, Rec):
            outer, bound[node.var] = bound.get(node.var), comms
            walk(node.body, comms, (steps, "body"))
            bound[node.var] = outer
        elif isinstance(node, Var):
            at = bound.get(node.var)
            if at is None:
                detail = f"recursion variable {node.var} is unbound"
                findings.append(Finding(ErrorKind.UNBOUND_VAR, detail, _path(steps)))
            elif at == comms:
                detail = f"recursion variable {node.var} occurs with no communication since its binder"
                findings.append(Finding(ErrorKind.UNGUARDED_RECURSION, detail, _path(steps)))
        elif isinstance(node, ClosedAt):
            roles[node.role] = None
            walk(node.cont, comms, (steps, "cont"))
        # End: nothing to check

    try:
        walk(g, 0, None)
    finally:
        del walk  # break the walker's cycle through its own cell, so refcounting frees it
    found = tuple(r if r.__class__ is Role else Role(r) for r in roles)  # a plain name is checked too
    cached = g.__dict__["_front"] = (ValidationReport(tuple(findings)), found)
    return cached


def validate_shape(g: GlobalProtocol) -> ValidationReport:
    """Structural checks run before typing: unbound recursion variables,
    variables not guarded by a communication since their binder, self-sends
    and empty choices, in walk order.  Guardedness is syntactic, checked
    before anything is evaluated; the walk is shared with :func:`roles_of`."""
    return _front(g)[0]


def roles_of(g: GlobalProtocol) -> tuple[Role, ...]:
    """All roles of the protocol, in first-appearance order: the protocol's
    own role objects, the first met of each name, in the order every
    downstream stage (typing, evaluation, the runtime) uses.  The walk is
    shared with :func:`validate_shape`."""
    return _front(g)[1]


def bind_roles(declared: Iterable[Role | str], g: GlobalProtocol) -> tuple[Role, ...]:
    """The declared roles, in the given order, each a :class:`Role` (a name
    is made one); they must cover roles_of(g) and name each role once."""
    out = tuple(r if r.__class__ is Role else Role(r) for r in declared)
    named = set(out)
    missing = [str(r) for r in roles_of(g) if r not in named]
    if missing:
        raise ValueError(f"declared roles do not cover protocol roles: missing {missing}")
    if len(out) != len(named):
        raise ValueError("declared roles contain duplicates")
    return out

