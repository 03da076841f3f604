"""Compilation of global protocols into channel vectors: the one compile route.

Each role receives a nested record/variant value whose leaves are fresh
binary channel names: outputs are records mapping labels to (name, cont)
pairs, inputs are wrapped-name lists multiplexing several channels into one
labelled receive.  Vectors are built from the node set of ``types``: only
:class:`OutRec` and :class:`WrappedInp` are vector-specific, and a local type
is a vector with its channels erased (:func:`typecheck_cv`).  Choice branches
are merged per role by ``types.merge``, which unifies the channel names of
shared labels through a union-find kept in the :class:`ChannelTable`.  Vectors
and the table live at compile time only: the table gives each class its
payload sort (a name's key is its allocation slot) and the role pairs that
carry messages, and the runtime walks the re-typed local types, binding one
link per (sender, receiver) pair when a session opens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .errors import ErrorKind, CvTypeError, Path, ProtocolTypeError
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
from .types import (
    END_T,
    Branch,
    DirectedChoice,
    EndT,
    LocalType,
    RecT,
    Select,
    VarT,
    _decider_output,
    _fix_unused,
    _Namer,
    merge,
    unfold_type,
)

# The node set is shared with local types; the vector calculus' names stay
# as aliases.
ChannelVector = LocalType
RecVal = RecT
VarRef = VarT
UnitVal = EndT
UNIT_VAL = END_T
unfold_cv = unfold_type


class IoMode:
    """The side of a channel a vector reference uses."""

    IN = "in"
    OUT = "out"


@dataclass(frozen=True)
class ChannelName:
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


class ChannelTable:
    """Channel registry: allocation counters plus union-find over slots.

    ``names`` lists every allocated name by slot.  Output-merging across
    choice branches unifies the names of shared labels; after evaluation,
    `find` maps every slot to its class representative.
    """

    def __init__(self, session: object) -> None:
        self.session = session
        self._counters: dict[tuple[str, str, str], int] = {}
        self._parent: list[int] = []
        self.names: list[ChannelName] = []

    def alloc(self, from_role: Role, to_role: Role, label: Label) -> ChannelName:
        ckey = (from_role.name, to_role.name, label.name)
        i = self._counters.get(ckey, 0)
        self._counters[ckey] = i + 1
        name = ChannelName(from_role, to_role, label, i, len(self.names))
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
        return sorted(roots, key=lambda n: (n.from_role.name, n.to_role.name, n.label.name, n.index))

    def payload_env(self) -> dict[int, PayloadSort]:
        """Every slot's payload sort, which is that of its class representative."""
        return {n.key: self.canonical(n).label.payload for n in self.names}


def fixv(var: str, c: ChannelVector) -> ChannelVector:
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
) -> tuple[tuple[ChannelVector, ...], ChannelTable]:
    """Compile a global protocol into one channel vector per role.

    This is the only traversal that derives the roles' behaviour:
    ``types.type_global`` erases the channels of its result.  An ill-formed
    protocol raises :class:`ProtocolTypeError`, with the kind and path that
    ``type_global`` reports for it.
    """
    tuple_roles = tuple(roles) if roles is not None else roles_of(g)
    idx = {r.name: i for i, r in enumerate(tuple_roles)}
    n = len(tuple_roles)
    table = ChannelTable(session)
    namer = _Namer()
    participants: set[str] = set()  # the names of the roles g uses, found on first need

    def go(
        node: GlobalProtocol,
        env: dict[str, tuple[VarT, ...]],
        path: Path,
        closed: frozenset[str],
    ) -> list[ChannelVector]:
        if isinstance(node, End):
            return [END_T] * n
        if isinstance(node, Comm):
            vs = go(node.cont, env, path + ("cont",), closed)
            name = table.alloc(node.from_role, node.to_role, node.label)
            i, j = idx[node.from_role.name], idx[node.to_role.name]
            vs[i] = OutRec(node.to_role, ((node.label, name, vs[i]),))
            vs[j] = WrappedInp(node.from_role, ((node.label, name, vs[j]),))
            return vs
        if isinstance(node, Choice):
            per_branch = [go(b, env, path + (step,), closed) for step, b in node.children()]
            a = idx[node.at.name]
            result = list(per_branch[0])
            result[a] = _decider_output([vs[a] for vs in per_branch], node.at, path)
            for k in range(n):
                if k == a:
                    continue
                acc = per_branch[0][k]
                for vs in per_branch[1:]:
                    acc = merge(acc, vs[k], path, namer, table)
                result[k] = acc
            return result
        if isinstance(node, Rec):
            env2 = dict(env)
            env2[node.var] = tuple(VarT(f"{node.var}@{i}") for i in range(n))
            vs = go(node.body, env2, path + ("body",), closed)
            for i in range(n):
                if isinstance(vs[i], VarT):
                    # the loop never touches this role
                    name = tuple_roles[i].name
                    if name not in closed and not participants:
                        participants.update(r.name for r in roles_of(g))
                    if name not in closed and name in participants:
                        raise ProtocolTypeError(
                            ErrorKind.UNCLOSED_ROLE,
                            f"role {name} takes no part in this loop; annotate it with closed_at",
                            path,
                        )
                    vs[i] = END_T
                else:
                    vs[i] = fixv(f"{node.var}@{i}", vs[i])
            return vs
        if isinstance(node, Var):
            if node.var not in env:
                raise ProtocolTypeError(
                    ErrorKind.UNBOUND_TYPE_VAR, f"recursion variable {node.var} is unbound", path
                )
            return list(env[node.var])
        if isinstance(node, ClosedAt):
            vs = go(node.cont, env, path + ("cont",), closed | {node.role.name})
            a = idx[node.role.name]
            if not isinstance(vs[a], (EndT, VarT)):
                raise ProtocolTypeError(
                    ErrorKind.UNCLOSED_ROLE,
                    f"closed_at {node.role} contradicts the role's remaining behaviour",
                    path,
                )
            vs[a] = END_T
            return vs
        raise AssertionError(f"unknown node {node!r}")

    vectors = go(g, {}, (), frozenset())
    return tuple(vectors), table


def typecheck_cv(
    c: ChannelVector,
    env: dict[int, PayloadSort],
    table: Optional[ChannelTable] = None,
) -> LocalType:
    """Reconstruct the principal local type of a channel vector.

    ``env`` maps channel slots (find-normalized through ``table`` when one is
    given) to their payload sorts; a disagreement between a name's registered
    sort and the label it is used under is a :class:`CvTypeError`.
    """

    def go(v: ChannelVector) -> LocalType:
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
    vectors: Sequence[ChannelVector],
    table: ChannelTable,
    roles: Sequence[Role],
) -> str:
    """Deterministic textual rendering with find-normalized channel names."""

    def render(v: ChannelVector) -> str:
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


def channel_classes(table: ChannelTable) -> set[tuple[frozenset[str], str, int]]:
    """Channel-name classes keyed by unordered role pair, label, and index."""
    return {
        (frozenset({c.from_role.name, c.to_role.name}), c.label.name, c.index)
        for c in table.classes()
    }


def reachable_names(v: ChannelVector) -> Iterator[tuple[ChannelName, str]]:
    """Every channel reference in a vector, with the side it occurs on.

    Recursion bodies are visited once (loop variables stop the walk).
    """
    seen: set[int] = set()

    def walk(c: ChannelVector) -> Iterator[tuple[ChannelName, str]]:
        if isinstance(c, RecT):
            if id(c) in seen:
                return
            seen.add(id(c))
            yield from walk(c.body)
        elif isinstance(c, (OutRec, WrappedInp)):
            side = IoMode.OUT if isinstance(c, OutRec) else IoMode.IN
            for _, s, k in c.branches:
                yield s, side
                yield from walk(k)

    return walk(v)
