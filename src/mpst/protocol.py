"""Global protocol AST: roles, labels, payload sorts, and the combinators.

A global protocol describes every interaction of a multiparty session from a
bird's-eye view.  Values built here are immutable and carry no channels; the
``chanvec`` module compiles them to channel vectors, whose channel-erased
view is the ``types`` module's local types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import EmptyChoiceError, ErrorKind, Path, SelfSendError


@dataclass(frozen=True)
class Role:
    """A session participant.

    ``index`` is the role's position in the session's role tuple.  It is
    informational (bound by :func:`roles_of`) and excluded from equality so
    that an unbound ``Role("c")`` compares equal to the bound one.
    """

    name: str
    index: int = field(default=-1, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.name or not all(c.isalnum() or c == "_" for c in self.name):
            raise ValueError(f"role name must be a nonempty word: {self.name!r}")

    def __str__(self) -> str:
        return self.name


class PayloadSort:
    """Base class for message payload sorts."""

    __slots__ = ()

    def sort_name(self) -> str:
        raise NotImplementedError


class _BaseSort(PayloadSort):
    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        self._name = name

    def sort_name(self) -> str:
        return self._name

    def __repr__(self) -> str:
        return self._name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _BaseSort) and other._name == self._name

    def __hash__(self) -> int:
        return hash(("sort", self._name))


UNIT = _BaseSort("unit")
BOOL = _BaseSort("bool")
INT = _BaseSort("int")
STRING = _BaseSort("string")

BASE_SORTS = {s.sort_name(): s for s in (UNIT, BOOL, INT, STRING)}


@dataclass(frozen=True)
class SessionSort(PayloadSort):
    """Delegation payload: the message carries a live endpoint of this type.

    The carried local type must be closed (no free recursion variables).
    """

    local: object  # a types.LocalType; kept loose to avoid an import cycle

    def __post_init__(self) -> None:
        free = getattr(self.local, "free_vars", None)
        if free is not None and free():
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
        if not self.name or not all(c.isalnum() or c == "_" for c in self.name):
            raise ValueError(f"label name must be a nonempty word: {self.name!r}")

    def __str__(self) -> str:
        return f"{self.name}({self.payload.sort_name()})"


class GlobalProtocol:
    """Base class of the global-combinator AST."""

    __slots__ = ()

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
        raise SelfSendError(from_role.name)
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


def validate_shape(g: GlobalProtocol) -> ValidationReport:
    """Structural checks run before typing.

    Finds unbound recursion variables, recursion variables not guarded by at
    least one communication, self-sends, and empty choices.  Guardedness is
    checked syntactically up front, before anything is evaluated.
    """
    findings: list[Finding] = []

    def walk(node: GlobalProtocol, bound: dict[str, bool], path: Path) -> None:
        # bound maps each in-scope rec var to "still unguarded on this path"
        if isinstance(node, Comm):
            if node.from_role == node.to_role:
                findings.append(
                    Finding(ErrorKind.SELF_SEND, f"role {node.from_role} sends to itself", path)
                )
            walk(node.cont, {v: False for v in bound}, path + ("cont",))
        elif isinstance(node, Choice):
            if not node.branches:
                findings.append(Finding(ErrorKind.EMPTY_CHOICE, "choice with no branches", path))
            for step, b in node.children():
                walk(b, dict(bound), path + (step,))
        elif isinstance(node, Rec):
            inner = dict(bound)
            inner[node.var] = True
            walk(node.body, inner, path + ("body",))
        elif isinstance(node, Var):
            if node.var not in bound:
                findings.append(
                    Finding(ErrorKind.UNBOUND_VAR, f"recursion variable {node.var} is unbound", path)
                )
            elif bound[node.var]:
                findings.append(
                    Finding(
                        ErrorKind.UNGUARDED_RECURSION,
                        f"recursion variable {node.var} occurs with no communication since its binder",
                        path,
                    )
                )
        elif isinstance(node, ClosedAt):
            walk(node.cont, dict(bound), path + ("cont",))
        # End: nothing to check

    walk(g, {}, ())
    return ValidationReport(tuple(findings))


def roles_of(g: GlobalProtocol) -> tuple[Role, ...]:
    """All roles of the protocol, in first-appearance order.

    The returned roles carry their tuple index; this order is what every
    downstream stage (typing, evaluation, the runtime) uses.
    """
    seen: dict[str, Role] = {}

    def walk(node: GlobalProtocol) -> None:
        if isinstance(node, Comm):
            seen.setdefault(node.from_role.name, node.from_role)
            seen.setdefault(node.to_role.name, node.to_role)
            walk(node.cont)
        elif isinstance(node, Choice):
            seen.setdefault(node.at.name, node.at)
            for _, b in node.children():
                walk(b)
        elif isinstance(node, Rec):
            walk(node.body)
        elif isinstance(node, ClosedAt):
            seen.setdefault(node.role.name, node.role)
            walk(node.cont)

    walk(g)
    return tuple(Role(name, index=i) for i, name in enumerate(seen))


def bind_roles(declared: Iterable[Role], g: GlobalProtocol) -> tuple[Role, ...]:
    """Role tuple in the given declared order; must cover roles_of(g)."""
    out = tuple(Role(r.name, index=i) for i, r in enumerate(declared))
    names = {r.name for r in out}
    missing = [r.name for r in roles_of(g) if r.name not in names]
    if missing:
        raise ValueError(f"declared roles do not cover protocol roles: missing {missing}")
    dupes = len(out) != len(names)
    if dupes:
        raise ValueError("declared roles contain duplicates")
    return out

