"""Compilation of global protocols into channel vectors: the one compile route.

Each role receives a nested record/variant value whose leaves are fresh
binary channel names: outputs are records mapping labels to (name, cont)
pairs, inputs are wrapped-name lists multiplexing several channels into one
labelled receive.  Channel names are tuples (:class:`ChannelName`), vector
nodes skip their dataclass ``__init__``, and a run of Comms is one loop.
Vectors are built from the node set of ``types``: only :class:`OutRec` and
:class:`WrappedInp` are vector-specific, and a local type is a vector with
its channels erased (:func:`typecheck_cv`).  Choice branches
are merged per role by ``types.merge``, which unifies the channel names of
shared labels through a union-find kept in the :class:`ChannelTable`.  Vectors
and the table live at compile time only: the table gives each class its
payload sort (a name's key is its allocation slot), and the runtime walks
the re-typed local types that ``types.type_global`` returns.
:func:`eval_global` is the one shape gate: every compile, typing and
session open passes through it, so none evaluates a protocol with shape
findings.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import NamedTuple, Optional, Sequence

from .errors import ErrorKind, CvTypeError, ProtocolTypeError, ShapeError
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
    _front,
    _path,
    bind_roles,
)
from .types import (
    END_T,
    Branch,
    DirectedChoice,
    EndT,
    LocalType,
    RecT,
    Select,
    VarT,
    _contradicts,
    _decider_output,
    _fix_unused,
    merge,
    unfold_type,
)

unfold_cv = unfold_type  # the node set is shared with local types


class ChannelName(NamedTuple):
    """A fresh binary channel, shared by exactly one sender/receiver pair.
    ``index`` counts per (sender, receiver, label name); ``key`` is the
    name's allocation slot in its :class:`ChannelTable`."""

    from_role: Role
    to_role: Role
    label: Label
    index: int
    key: int

    def __str__(self) -> str:
        return f"<{self.from_role},{self.to_role},{self.label.name},{self.index}>"


@dataclass(frozen=True, eq=False)
class OutRec(DirectedChoice):
    """Output record toward ``peer``: branches of (label, channel, continuation)."""

    output = True


@dataclass(frozen=True, eq=False)
class WrappedInp(DirectedChoice):
    """Multiplexed input from ``peer``: branches of (label, channel, continuation)."""


def _node(cls: type, peer: Role, branches: tuple) -> DirectedChoice:
    """An OutRec or WrappedInp built without calling its dataclass ``__init__``, which checks nothing."""
    node = object.__new__(cls)
    fields = node.__dict__
    fields["peer"], fields["branches"] = peer, branches
    return node


class ChannelTable:
    """Channel registry: allocation counters plus union-find over slots.

    ``names`` lists every allocated name by slot.  Output-merging across
    choice branches unifies the names of shared labels; after evaluation,
    `find` maps every slot to its class representative.  ``roles`` is the
    role tuple that the vectors evaluated with this table are indexed by.
    """

    def __init__(self, session: object, roles: tuple[Role, ...] = ()) -> None:
        self.session = session
        self.roles = roles
        self._counters: dict[tuple[Role, Role, str], int] = {}
        self._parent: list[int] = []
        self.names: list[ChannelName] = []

    def alloc(self, from_role: Role, to_role: Role, label: Label) -> ChannelName:
        ckey = (from_role, to_role, label.name)
        i = self._counters.get(ckey, 0)
        self._counters[ckey] = i + 1
        name = tuple.__new__(ChannelName, (from_role, to_role, label, i, len(self.names)))
        self._parent.append(name.key)
        self.names.append(name)
        return name

    def find(self, key: int) -> int:
        root = key
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[key] != root:  # path compression
            self._parent[key], key = root, self._parent[key]
        return root

    def unify(self, a: ChannelName, b: ChannelName) -> None:
        ra, rb = self.find(a.key), self.find(b.key)
        if ra != rb:
            self._parent[rb] = ra

    def canonical(self, name: ChannelName) -> ChannelName:
        return self.names[self.find(name.key)]

    def classes(self) -> list[ChannelName]:
        """One representative per class, in (sender, receiver, label, index) order."""
        roots = [n for n in self.names if self.find(n.key) == n.key]
        return sorted(roots, key=lambda n: (n.from_role, n.to_role, n.label.name, n.index))

    def payload_env(self) -> dict[int, PayloadSort]:
        """Every slot's payload sort, which is that of its class representative."""
        return {n.key: self.canonical(n).label.payload for n in self.names}


def fixv(var: str, c: LocalType) -> LocalType:
    """Close a recursion: a body that is exactly the bound variable means the
    role does not take part in the loop, so its vector is the finished one;
    a body that never loops back needs no binder."""
    if isinstance(c, VarT) and c.var == var:
        return END_T
    return _fix_unused(var, c)


def eval_global(
    g: GlobalProtocol,
    session: object,
    roles: Optional[Sequence[Role]] = None,
) -> tuple[tuple[LocalType, ...], ChannelTable]:
    """Compile a global protocol into one channel vector per role.

    This is the only traversal that derives the roles' behaviour:
    ``types.type_global`` erases the channels of its result.  It is also the
    shape gate of every compile: a protocol with shape findings (the kept
    entry of ``protocol._front``) raises :class:`ShapeError` with all of
    them before anything is evaluated.  A shape-valid but ill-formed
    protocol raises :class:`ProtocolTypeError`, with the kind and path that
    ``type_global`` reports for it.  ``roles``, when given, must name every
    role of ``g`` once, or ``bind_roles``'s ``ValueError`` is raised.
    """
    report, found = _front(g)
    if not report.ok:
        raise ShapeError(report.findings)
    tuple_roles = found if roles is None else bind_roles(roles, g)
    idx = {r: i for i, r in enumerate(tuple_roles)}
    n = len(tuple_roles)
    table = ChannelTable(session, tuple_roles)
    namer = count(1)

    escapes: dict[str, object] = {}  # a discharged loop variable -> its closed_at's steps

    def discharge(vs: list[LocalType], k: int, r: Role, at: object) -> None:
        """Make role ``k`` End below the ``closed_at(r)`` at ``at``.  A loop
        variable it ends in is remembered, so that its binder can check
        that r takes no part in the loop it re-enters."""
        v = vs[k]
        if isinstance(v, VarT):
            escapes.setdefault(v.var, at)
        elif not isinstance(v, EndT):
            raise _contradicts(r, _path(at))
        vs[k] = END_T

    def go(node: GlobalProtocol, env: dict[str, tuple[VarT, ...]], steps: object,
           closed: dict[Role, object]) -> list[LocalType]:
        if isinstance(node, End):
            return [END_T] * n
        if isinstance(node, Comm):
            run = []  # a run of Comms in one loop, innermost first: slots are numbered in post-order
            while isinstance(node, Comm):
                run.append(node)
                node, steps = node.cont, (steps, "cont")
            vs = go(node, env, steps, closed)
            for c in reversed(run):
                name = table.alloc(c.from_role, c.to_role, c.label)
                i, j = idx[c.from_role], idx[c.to_role]
                vs[i] = _node(OutRec, c.to_role, ((c.label, name, vs[i]),))
                vs[j] = _node(WrappedInp, c.from_role, ((c.label, name, vs[j]),))
            return vs
        if isinstance(node, Choice):
            per_branch = [go(b, env, (steps, k), closed) for k, b in enumerate(node.branches)]
            a = idx[node.at]
            for r, at in closed.items():  # below closed_at(r), r is End in every branch
                k = idx[r]
                if k != a:
                    for vs in per_branch:
                        discharge(vs, k, r, at)
            result = per_branch[0]
            try:  # with the empty path: the Choice's own path is built only on failure
                result[a] = _decider_output([vs[a] for vs in per_branch], node.at, ())
                for k in range(n):
                    if k != a:
                        for vs in per_branch[1:]:
                            result[k] = merge(result[k], vs[k], (), namer, table)
            except ProtocolTypeError as e:
                raise ProtocolTypeError(e.kind, e.detail, _path(steps) + e.path) from None
            return result
        if isinstance(node, Rec):
            names = [f"{node.var}@{i}" for i in range(n)]
            outer = {x: escapes.pop(x) for x in names if x in escapes}  # a shadowed binder's
            env2 = {**env, node.var: tuple(VarT(x) for x in names)}
            vs = go(node.body, env2, (steps, "body"), closed)
            for i in range(n):
                at = escapes.pop(names[i], None)
                if at is not None and not isinstance(vs[i], (EndT, VarT)):
                    # a closed_at(r) below re-enters this loop, in which r acts
                    raise _contradicts(tuple_roles[i], _path(at))
                if isinstance(vs[i], VarT):
                    # the loop never touches this role
                    r = tuple_roles[i]
                    if r not in closed and r in found:
                        raise ProtocolTypeError(
                            ErrorKind.UNCLOSED_ROLE,
                            f"role {r} takes no part in this loop; annotate it with closed_at",
                            _path(steps),
                        )
                    vs[i] = END_T
                else:
                    vs[i] = fixv(names[i], vs[i])
            escapes.update(outer)
            return vs
        if isinstance(node, Var):
            return list(env[node.var])
        if isinstance(node, ClosedAt):
            vs = go(node.cont, env, (steps, "cont"), {**closed, node.role: steps})
            discharge(vs, idx[node.role], node.role, steps)
            return vs
        raise AssertionError(f"unknown node {node!r}")

    vectors = go(g, {}, None, {})
    return tuple(vectors), table


def typecheck_cv(
    c: LocalType,
    env: dict[int, PayloadSort],
    table: Optional[ChannelTable] = None,
) -> LocalType:
    """Reconstruct the principal local type of a channel vector.

    ``env`` maps channel slots (find-normalized through ``table`` when one is
    given) to their payload sorts; a disagreement between a name's registered
    sort and the label it is used under is a :class:`CvTypeError`.
    """

    def go(v: LocalType) -> LocalType:
        if isinstance(v, (EndT, VarT)):
            return v
        if isinstance(v, RecT):
            return RecT(v.var, go(v.body))
        if isinstance(v, (OutRec, WrappedInp)):
            out = []
            for l, s, k in v.branches:
                key = table.find(s.key) if table is not None else s.key
                if key not in env:
                    raise CvTypeError(ErrorKind.PAYLOAD_MISMATCH,
                                      f"channel {s} is not covered by the environment")
                sort = env[key]
                if sort != l.payload:
                    raise CvTypeError(
                        ErrorKind.PAYLOAD_MISMATCH,
                        f"channel {s} is registered with sort {sort.sort_name()} but used "
                        f"under label {l}",
                    )
                out.append((l, go(k)))
            cls = Select if isinstance(v, OutRec) else Branch
            return cls(v.peer, tuple(out))
        raise AssertionError(f"unknown vector {v!r}")

    return go(c)


def dump_channel_vectors(
    vectors: Sequence[LocalType],
    table: ChannelTable,
    roles: Sequence[Role],
) -> str:
    """Deterministic textual rendering with find-normalized channel names."""

    def render(v: LocalType) -> str:
        if isinstance(v, EndT):
            return "unit"
        if isinstance(v, VarT):
            return v.var
        if isinstance(v, RecT):
            return f"rec {v.var} . {render(v.body)}"
        if isinstance(v, (OutRec, WrappedInp)):
            inner = "; ".join(
                f"{l.name}{table.canonical(s)} -> {render(k)}"
                for l, s, k in sorted(v.branches, key=lambda b: b[0].name)
            )
            if isinstance(v, OutRec):
                return f"out({v.peer}){{{inner}}}"
            return f"inp({v.peer})[{inner}]"
        raise AssertionError

    return "\n".join(f"{r}: {render(v)}" for r, v in zip(roles, vectors))

