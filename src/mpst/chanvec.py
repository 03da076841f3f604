"""Compilation of global protocols into channel vectors: the one compile route.

Each role receives a nested record/variant value whose leaves are fresh
binary channels: outputs are records mapping labels to (channel, cont)
pairs, inputs are wrapped-channel lists multiplexing several channels into
one labelled receive.  A vector entry holds its channel as the channel's
allocation slot, an ``int``; ``table.names[slot]`` is the channel's name
(:class:`ChannelName`), which the :class:`ChannelTable` builds only when it
is read.  Vector nodes skip their frozen dataclass ``__init__``, and a run
of Comms is one loop that allocates its slots and builds its nodes with no
Python call.
Each walker clears its own closure cell when it returns or raises, so a
compile leaves no reference cycle for the collector, and a rejected choice
extends the path of the error it caught and raises that error again.  A
choice takes its branches in order and merges each one as soon as it is
evaluated, so a rejection stops at its first bad branch.
Vectors are built from the node set of ``types``: only :class:`OutRec` and
:class:`WrappedInp` are vector-specific, and a local type is a vector with
its channels erased (:func:`typecheck_cv`).  Choice branches
are merged per role by ``types.merge``, which unifies the channels of
shared labels through a union-find over slots kept in the
:class:`ChannelTable`.  Vectors and the table live at compile time only: the
table gives each class its payload sort, and the runtime walks the re-typed
local types that ``types.type_global`` returns.
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
    _decider_step,
    _decision,
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


def _vector_init(self, peer: Role, branches: tuple) -> None:
    """Set a vector node's two fields without the frozen dataclass ``__init__``.
    It checks nothing: a vector's branches keep the order they are built in."""
    fields = self.__dict__
    fields["peer"], fields["branches"] = peer, branches


@dataclass(frozen=True, eq=False)
class OutRec(DirectedChoice):
    """Output record toward ``peer``: branches of (label, channel, continuation)."""

    output = True
    __init__ = _vector_init


@dataclass(frozen=True, eq=False)
class WrappedInp(DirectedChoice):
    """Multiplexed input from ``peer``: branches of (label, channel, continuation)."""

    __init__ = _vector_init


class ChannelTable:
    """Channel registry: one slot per allocated channel, a union-find over
    the slots, and the channels' names, built when first read.

    ``eval_global`` allocates in its Comm loop: a channel's slot is its
    position in ``_comms``, which holds the Comm's (sender, receiver,
    label), and the slot starts as its own parent in ``_parent``.  A vector
    entry carries the slot; ``names[slot]`` is its :class:`ChannelName`,
    whose ``index`` counts its (sender, receiver, label name) in slot order
    and whose ``key`` is the slot.  ``names`` names the slots allocated
    since its last read, so it stays right as slots are added.
    Output-merging across choice branches unifies the slots of shared
    labels; after evaluation, `find` maps every slot to its class
    representative.  ``roles`` is the role tuple that the vectors evaluated
    with this table are indexed by.
    """

    def __init__(self, session: object, roles: tuple[Role, ...] = ()) -> None:
        self.session = session
        self.roles = roles
        self._comms: list[tuple[Role, Role, Label]] = []
        self._parent: list[int] = []
        self._names: list[ChannelName] = []
        self._counters: dict[tuple[Role, Role, str], int] = {}

    @property
    def names(self) -> list[ChannelName]:
        """Every allocated channel's name, by slot."""
        names, counters = self._names, self._counters
        for slot in range(len(names), len(self._comms)):
            a, b, label = self._comms[slot]
            ckey = (a, b, label.name)
            index = counters.get(ckey, 0)
            counters[ckey] = index + 1
            names.append(ChannelName(a, b, label, index, slot))
        return names

    def find(self, key: int) -> int:
        root = key
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[key] != root:  # path compression
            self._parent[key], key = root, self._parent[key]
        return root

    def unify(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra

    def canonical(self, slot: int) -> ChannelName:
        return self.names[self.find(slot)]

    def payload_env(self) -> dict[int, PayloadSort]:
        """Every slot's payload sort, which is that of its class representative."""
        comms = self._comms
        return {slot: comms[self.find(slot)][2].payload for slot in range(len(comms))}


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
    ``type_global`` reports for it.  Of several faults, the first met is
    raised: a choice's branches are taken in order, and for each branch its
    own errors come first, then its decider step, then its merges with the
    branches before it.  ``roles``, when given, must name every
    role of ``g`` once, or ``bind_roles``'s ``ValueError`` is raised.
    """
    report, found = _front(g)
    if not report.ok:
        raise ShapeError(report.findings)
    tuple_roles = found if roles is None else bind_roles(roles, g)
    idx = {r: i for i, r in enumerate(tuple_roles)}
    n = len(tuple_roles)
    table = ChannelTable(session, tuple_roles)
    comms, parent, new = table._comms, table._parent, object.__new__
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
            for c in reversed(run):  # no Python call per Comm: the allocation and the nodes are inline
                a, b, label = c.from_role, c.to_role, c.label
                slot = len(parent)  # a new slot, its own parent; the table names it when asked
                parent.append(slot)
                comms.append((a, b, label))
                i, j = idx[a], idx[b]
                out, inp = new(OutRec), new(WrappedInp)  # their fields set as _vector_init sets them
                fields = out.__dict__
                fields["peer"], fields["branches"] = b, ((label, slot, vs[i]),)
                fields = inp.__dict__
                fields["peer"], fields["branches"] = a, ((label, slot, vs[j]),)
                vs[i], vs[j] = out, inp
            return vs
        if isinstance(node, Choice):
            # each branch in turn: its own errors, its decider step, then its merges
            a, first, decided = idx[node.at], None, {}
            for j, b in enumerate(node.branches):
                vs = go(b, env, (steps, j), closed)
                for r, at in closed.items():  # below closed_at(r), r is End in every branch
                    if idx[r] != a:
                        discharge(vs, idx[r], r, at)
                try:  # with the empty path: the Choice's own path is put in front only on failure
                    first = _decider_step(vs[a], j, first, decided, node.at, ())
                    if j == 0:
                        result = vs
                        continue
                    for k in range(n):
                        if k != a:
                            result[k] = merge(result[k], vs[k], (), namer, table)
                except ProtocolTypeError as e:  # the same error, with the Choice's path in front
                    e.path = _path(steps) + e.path
                    e.args = (e.kind, e.detail, e.path)
                    raise
            result[a] = _decision(first, decided)
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

    try:
        vectors = go(g, {}, None, {})
    finally:
        del go  # break the walker's cycle through its own cell, so refcounting frees it
    return tuple(vectors), table


def typecheck_cv(
    c: LocalType,
    env: dict[int, PayloadSort],
    table: Optional[ChannelTable] = None,
) -> LocalType:
    """Reconstruct the principal local type of a channel vector.

    ``env`` maps channel slots (find-normalized through ``table`` when one is
    given) to their payload sorts; a disagreement between a channel's
    registered sort and the label it is used under is a :class:`CvTypeError`,
    whose message names the channel through ``table``, or its slot without one.
    """

    def go(v: LocalType) -> LocalType:
        if isinstance(v, (EndT, VarT)):
            return v
        if isinstance(v, RecT):
            return RecT(v.var, go(v.body))
        if isinstance(v, (OutRec, WrappedInp)):
            out = []
            for l, s, k in v.branches:
                key = table.find(s) if table is not None else s
                if key not in env:
                    raise CvTypeError(ErrorKind.PAYLOAD_MISMATCH,
                                      f"channel {_channel(s, table)} is not covered by the environment")
                sort = env[key]
                if sort != l.payload:
                    raise CvTypeError(
                        ErrorKind.PAYLOAD_MISMATCH,
                        f"channel {_channel(s, table)} is registered with sort "
                        f"{sort.sort_name()} but used under label {l}",
                    )
                out.append((l, go(k)))
            cls = Select if isinstance(v, OutRec) else Branch
            return cls(v.peer, tuple(out))
        raise AssertionError(f"unknown vector {v!r}")

    try:
        return go(c)
    finally:
        del go  # as in eval_global


def _channel(slot: int, table: Optional[ChannelTable]) -> str:
    """A channel as an error message names it: by its name, or by its slot
    when there is no table to name it."""
    return str(table.names[slot]) if table is not None else f"slot {slot}"


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

