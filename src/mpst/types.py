"""Local types: one role's behaviour, and the node set channel vectors share.

A local type describes one role's view of a protocol as directed internal
choices (:class:`Select`), directed external choices (:class:`Branch`),
equi-recursive loops, and termination.  Channel vectors (``chanvec``) are
built from the same nodes: their output records and wrapped inputs are
directed choices whose entries also carry a channel, so one substitution,
one cached unfolding and one merge serve both.

There is one compile route.  :func:`type_global` is the channel-erased view
of the vectors that ``chanvec.eval_global`` computes, so typing and
compiling accept the same protocols and fail with the same errors, shape
findings first (:class:`ShapeError`).  :func:`project`, the classical
per-role endpoint projection, is a separate traversal kept as the
independent oracle that the test suite checks the route against.

Subtyping is coinductive: :func:`subtype` carries a set of assumed pairs and
answers positively on revisit, which is sound and complete for the regular
trees denoted by closed guarded types.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Iterator, Optional, Sequence

from .errors import ErrorKind, Path, ProtocolTypeError, ShapeError
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
    SessionSort,
    Var,
    _front,
)


class LocalType:
    __slots__ = ()

    def free_vars(self) -> frozenset[str]:
        return _free_vars(self)


def _hash_once(cls):
    """Keep a compound node's structural hash on it after its first use, as
    ``_unfolded`` is kept: ``subtype``'s assumed set and ``merge``'s memo
    hash whole trees at every step.  The node is frozen, so the hash holds.
    Neither cache is part of the state that ``pickle`` and ``copy`` take: a
    string's hash is seeded per process, so a stored hash would not hold
    where the node is loaded."""
    structural = cls.__hash__

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = structural(self)
        return h

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_hash" and k != "_unfolded"}

    cls.__hash__, cls.__getstate__ = __hash__, __getstate__
    return cls


def _canon_branches(branches) -> tuple[tuple[Label, "LocalType"], ...]:
    items = list(branches)
    items.sort(key=lambda kv: kv[0].name)
    names = [l.name for l, _ in items]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate labels in one choice: {names}")
    if not items:
        raise ValueError("choice types need at least one label")
    return tuple(items)


@_hash_once
@dataclass(frozen=True)
class DirectedChoice(LocalType):
    """A choice made by or offered to one ``peer``.

    Each entry of ``branches`` starts with its label and ends with its
    continuation: ``(label, cont)`` in a local type, ``(label, channel,
    cont)`` in a channel vector.  Subclasses add no fields and are declared
    with ``eq=False``, so they share this equality and its cached hash.
    """

    peer: Role
    branches: tuple

    output = False  # True when this role picks the label and sends it

    def labels(self) -> list[str]:
        return [e[0].name for e in self.branches]


@dataclass(frozen=True, eq=False)
class Select(DirectedChoice):
    """Internal choice: this role picks one label to send to ``peer``."""

    output = True

    def __post_init__(self):
        object.__setattr__(self, "branches", _canon_branches(self.branches))


@dataclass(frozen=True, eq=False)
class Branch(DirectedChoice):
    """External choice: ``peer`` picks one label this role must receive."""

    def __post_init__(self):
        object.__setattr__(self, "branches", _canon_branches(self.branches))


@_hash_once
@dataclass(frozen=True)
class RecT(LocalType):
    var: str
    body: LocalType


@dataclass(frozen=True)
class VarT(LocalType):
    var: str


@dataclass(frozen=True)
class EndT(LocalType):
    pass


END_T = EndT()


def _free_vars(t: LocalType, bound: frozenset[str] = frozenset()) -> frozenset[str]:
    if isinstance(t, DirectedChoice):
        out: frozenset[str] = frozenset()
        for e in t.branches:
            out |= _free_vars(e[-1], bound)
        return out
    if isinstance(t, RecT):
        return _free_vars(t.body, bound | {t.var})
    if isinstance(t, VarT):
        return frozenset() if t.var in bound else frozenset({t.var})
    return frozenset()


def _subst(t: LocalType, var: str, repl: LocalType) -> LocalType:
    """Capture-avoiding substitution of ``repl`` for ``var`` in ``t``.

    Shadowed binders stop the walk; a binder that would capture a free
    variable of ``repl`` is renamed first (same-named nested recursions are
    legal, so this case is reachable).  ``repl``'s free variables are walked
    only when the walk meets such a binder, so unfolding a loop with no
    nested binder walks it once.
    """
    repl_free = None

    def go(t: LocalType) -> LocalType:
        nonlocal repl_free
        if isinstance(t, VarT):
            return repl if t.var == var else t
        if isinstance(t, RecT):
            if t.var == var:  # shadowed
                return t
            if repl_free is None:
                repl_free = _free_vars(repl)
            if t.var in repl_free and var in _free_vars(t.body):
                fresh = t.var + "'"
                taken = repl_free | _free_vars(t.body)
                while fresh in taken:
                    fresh += "'"
                body = _subst(t.body, t.var, VarT(fresh))
                return RecT(fresh, go(body))
            return RecT(t.var, go(t.body))
        if isinstance(t, DirectedChoice):
            return type(t)(t.peer, tuple(e[:-1] + (go(e[-1]),) for e in t.branches))
        return t

    try:
        return go(t)
    finally:
        del go  # break the walker's cycle through its own cell, so refcounting frees it


_MAX_UNFOLD = 10_000


def _unfold_once(t: RecT) -> LocalType:
    """The body of ``t`` with ``t`` substituted for its variable.  The result
    is cached on the node, since the runtime, the monitor and merge unfold
    the same loop once per iteration."""
    u = t.__dict__.get("_unfolded")
    if u is None:
        u = _subst(t.body, t.var, t)
        object.__setattr__(t, "_unfolded", u)
    return u


def unfold_type(t: LocalType) -> LocalType:
    """Substitute the recursion away until the head is not a Rec."""
    n = 0
    while isinstance(t, RecT):
        t = _unfold_once(t)
        n += 1
        if n > _MAX_UNFOLD:
            raise ValueError("recursion is not guarded")
    return t


def _payload_sub(s: PayloadSort, t: PayloadSort, go, flip: bool) -> bool:
    """Payload comparison: base sorts by equality, session sorts recurse.

    ``flip`` is set on the Select side, where the carried channel occurs in
    output position and is therefore contravariant.
    """
    if isinstance(s, SessionSort) and isinstance(t, SessionSort):
        return go(t.local, s.local) if flip else go(s.local, t.local)
    return s == t


def subtype(s: LocalType, t: LocalType) -> bool:
    """Decide the coinductive subtyping relation on closed types.

    Branches widen on the right (a receiver may be offered fewer labels than
    it can handle); Select label sets must match exactly (the sender's menu
    is fixed); recursion is handled equi-recursively.
    """
    assumed: set[tuple[LocalType, LocalType]] = set()

    def go(a: LocalType, b: LocalType) -> bool:
        a = unfold_type(a)
        b = unfold_type(b)
        key = (a, b)
        if key in assumed:
            return True
        assumed.add(key)
        if isinstance(a, EndT) and isinstance(b, EndT):
            return True
        if isinstance(a, Branch) and isinstance(b, Branch):
            if a.peer != b.peer:
                return False
            bb = dict((l.name, (l, c)) for l, c in b.branches)
            for l, c in a.branches:
                if l.name not in bb:
                    return False
                l2, c2 = bb[l.name]
                if not _payload_sub(l.payload, l2.payload, go, flip=False):
                    return False
                if not go(c, c2):
                    return False
            return True
        if isinstance(a, Select) and isinstance(b, Select):
            if a.peer != b.peer:
                return False
            if [l.name for l, _ in a.branches] != [l.name for l, _ in b.branches]:
                return False
            for (l, c), (l2, c2) in zip(a.branches, b.branches):
                if not _payload_sub(l.payload, l2.payload, go, flip=True):
                    return False
                if not go(c, c2):
                    return False
            return True
        return False

    try:
        return go(s, t)
    finally:
        del go  # as in _subst


def type_equiv(s: LocalType, t: LocalType) -> bool:
    """Equality of the denoted regular trees: mutual subtyping."""
    return subtype(s, t) and subtype(t, s)


def _fix_unused(var: str, body: LocalType) -> LocalType:
    return body if var not in _free_vars(body) else RecT(var, body)


def merge(s: LocalType, t: LocalType, path: Path = (), _namer: Optional[Iterator[int]] = None,
          table=None) -> LocalType:
    """Least upper bound of two mergeable local types (or channel vectors).

    Inputs from the same peer union their label sets (continuations of shared
    labels merge recursively, payloads must agree); outputs merge only when
    peer, labels, and payloads coincide, continuations again merging
    recursively.  Recursion is handled with a memo of in-progress pairs so
    that loops close back on a fresh binder.  When both sides are channel
    vectors, the channels of every shared label are unified in ``table``, a
    ``chanvec.ChannelTable``.

    Raises :class:`ProtocolTypeError` when the two behaviours cannot be
    reconciled.
    """
    return _merge(s, t, path, _namer or count(1), table, {})


def _merge(a: LocalType, b: LocalType, path: Path, namer: Iterator[int], table,
           memo: dict[tuple[LocalType, LocalType], str]) -> LocalType:
    """:func:`merge`'s recursion; ``memo`` holds the pairs in progress."""
    if isinstance(a, RecT) or isinstance(b, RecT):
        key = (a, b)
        if key in memo:
            return VarT(memo[key])
        z = memo[key] = f"%{next(namer)}"
        a, b = (_unfold_once(a), b) if isinstance(a, RecT) else (a, _unfold_once(b))
        inner = _merge(a, b, path, namer, table, memo)
        del memo[key]
        return _fix_unused(z, inner)
    if isinstance(a, EndT) and isinstance(b, EndT):
        return a
    if isinstance(a, VarT) and isinstance(b, VarT):
        if a.var == b.var:
            return a
        raise ProtocolTypeError(ErrorKind.OUTPUT_MERGE_MISMATCH,
                                f"cannot merge distinct recursion variables {a.var} and {b.var}", path)
    if isinstance(a, DirectedChoice) and type(a) is type(b):
        if a.peer != b.peer:
            if a.output:
                raise ProtocolTypeError(ErrorKind.NON_DIRECTED_OUTPUT, f"outputs toward different "
                                        f"peers {a.peer} and {b.peer} cannot be merged", path)
            raise ProtocolTypeError(ErrorKind.NON_DIRECTED_INPUT, f"inputs from different "
                                    f"peers {a.peer} and {b.peer} cannot be merged", path)
        right = {e[0].name: e for e in b.branches}
        if a.output and ({e[0].name: e[0].payload for e in a.branches}
                         != {n: e[0].payload for n, e in right.items()}):
            raise ProtocolTypeError(ErrorKind.OUTPUT_MERGE_MISMATCH,
                                    f"output choices toward {a.peer} differ: "
                                    f"{sorted(a.labels())} vs {sorted(b.labels())}", path)
        out = []
        for e in a.branches:
            e2 = right.pop(e[0].name, None)
            if e2 is None:
                out.append(e)
                continue
            l, l2 = e[0], e2[0]
            if l.payload != l2.payload:
                raise ProtocolTypeError(ErrorKind.PAYLOAD_MISMATCH,
                                        f"label {l.name} carries {l.payload.sort_name()} in one "
                                        f"branch and {l2.payload.sort_name()} in another", path)
            if len(e) == 3:  # (label, channel, cont): a channel vector
                table.unify(e[1], e2[1])
            out.append(e[:-1] + (_merge(e[-1], e2[-1], path, namer, table, memo),))
        out.extend(right.values())
        return type(a)(a.peer, tuple(out))
    raise ProtocolTypeError(ErrorKind.OUTPUT_MERGE_MISMATCH, f"behaviours of different shapes "
                            f"cannot be merged: {type(a).__name__} vs {type(b).__name__}", path)


def _decider_output(parts: Sequence[LocalType], at: Role, path: Path) -> DirectedChoice:
    """The deciding role's behaviour at a choice: its opening output in every
    branch, concatenated into one output choice.  The branches are checked
    in order, each by :func:`_decider_step`; ``eval_global`` takes the same
    steps one branch at a time and builds with :func:`_decision`."""
    first, decided = None, {}
    for k, t in enumerate(parts):
        first = _decider_step(t, k, first, decided, at, path)
    return _decision(first, decided)


def _decider_step(t: LocalType, k: int, first: Optional[DirectedChoice], decided: dict,
                  at: Role, path: Path) -> DirectedChoice:
    """Check the deciding role's behaviour ``t`` in branch ``k`` against the
    branches before it, and return branch 0's opening output (``first``, or
    ``t``'s own when ``k`` is 0).  The branch must start with an output,
    toward the same peer as branch 0, with no label that ``decided`` already
    holds; its entries are then added to ``decided``, by label name."""
    if isinstance(t, RecT):
        t = unfold_type(t)
    if not (isinstance(t, DirectedChoice) and t.output):
        raise ProtocolTypeError(
            ErrorKind.ACTIVE_ROLE_MISMATCH,
            f"deciding role {at} does not start with an output in this branch",
            path + (f"branch[{k}]",),
        )
    if first is None:
        first = t
    elif t.peer != first.peer:
        raise ProtocolTypeError(
            ErrorKind.ACTIVE_ROLE_MISMATCH,
            f"active role mismatch: branch 0 decides toward {first.peer}, "
            f"branch {k} toward {t.peer}",
            path,
        )
    for e in t.branches:
        if e[0].name in decided:
            raise ProtocolTypeError(
                ErrorKind.DUPLICATE_CHOICE_LABEL,
                f"label {e[0].name} is offered by more than one branch of the choice",
                path,
            )
        decided[e[0].name] = e
    return first


def _decision(first: DirectedChoice, decided: dict) -> DirectedChoice:
    """The one output choice that :func:`_decider_step` collected, in branch order."""
    return type(first)(first.peer, tuple(decided.values()))


def type_global(g: GlobalProtocol, roles: Optional[Sequence[Role]] = None) -> dict[Role, LocalType]:
    """Type a global protocol, returning one local type per role.

    The types are the channel-erased vectors of ``chanvec.eval_global``, so
    an ill-formed protocol fails here exactly as it fails to compile, shape
    findings first (:class:`ShapeError`).
    ``roles`` overrides the tuple order (defaulting to first-appearance
    order) and must name every role once, as roles or names; roles listed
    but never used type as End.  The result is keyed by :class:`Role`.
    """
    vectors, table = chanvec.eval_global(g, None, roles)
    env = table.payload_env()  # every slot's sort, so the re-typing needs no table
    return {r: chanvec.typecheck_cv(v, env) for r, v in zip(table.roles, vectors)}


def project(g: GlobalProtocol, r: Role) -> LocalType:
    """Classical endpoint projection of ``g`` onto role ``r``.

    Senders become Select, receivers Branch, and uninvolved roles merge the
    projections of all branches.  A recursion whose body projects to a bare
    variable collapses to End for roles outside the protocol and is an
    UnclosedRole error for participants (fixed by a closed_at annotation).
    Shape findings raise :class:`ShapeError` first, as in ``type_global``.
    """
    report, found = _front(g)
    if not report.ok:
        raise ShapeError(report.findings)
    participating = r in found
    namer = count(1)
    escapes: dict[str, Path] = {}  # a discharged loop variable -> its closed_at's path

    def discharge(t: LocalType, at: Path) -> LocalType:
        """End, for ``r``'s ``t`` below the ``closed_at(r)`` at ``at``.  A
        loop variable it ends in is remembered, so that its binder can check
        that r takes no part in the loop it re-enters."""
        if isinstance(t, VarT):
            escapes.setdefault(t.var, at)
        elif not isinstance(t, EndT):
            raise _contradicts(r, at)
        return END_T

    def go(node: GlobalProtocol, path: Path, closed: Optional[Path]) -> LocalType:
        """``r``'s projection of ``node``; ``closed`` is the path of the
        innermost ``closed_at(r)`` above ``node``, if any."""
        if isinstance(node, End):
            return END_T
        if isinstance(node, Comm):
            cont = go(node.cont, path + ("cont",), closed)
            if node.from_role == r:
                return Select(node.to_role, ((node.label, cont),))
            if node.to_role == r:
                return Branch(node.from_role, ((node.label, cont),))
            return cont
        if isinstance(node, Choice):
            parts = [go(b, path + (step,), closed) for step, b in node.children()]
            if node.at == r:
                return _decider_output(parts, node.at, path)
            if closed is not None:  # below closed_at(r), r is End in every branch
                for p in parts:
                    discharge(p, closed)
                return END_T
            acc = parts[0]
            for p in parts[1:]:
                acc = merge(acc, p, path, namer)
            return acc
        if isinstance(node, Rec):
            outer = escapes.pop(node.var, None)  # a shadowed binder's
            body = go(node.body, path + ("body",), closed)
            at = escapes.pop(node.var, None)
            if at is not None and not isinstance(body, (EndT, VarT)):
                # a closed_at(r) below re-enters this loop, in which r acts
                raise _contradicts(r, at)
            if outer is not None:
                escapes[node.var] = outer
            if isinstance(body, VarT):
                if participating and closed is None:
                    raise ProtocolTypeError(
                        ErrorKind.UNCLOSED_ROLE,
                        f"role {r} takes no part in this loop; annotate it with closed_at",
                        path,
                    )
                return END_T
            return RecT(node.var, body) if node.var in _free_vars(body) else body
        if isinstance(node, Var):
            return VarT(node.var)
        if isinstance(node, ClosedAt):
            if node.role != r:
                return go(node.cont, path + ("cont",), closed)
            return discharge(go(node.cont, path + ("cont",), path), path)
        raise AssertionError(f"unknown node {node!r}")

    try:
        return go(g, (), None)
    finally:
        del go  # as in _subst


def _contradicts(role: Role, path: Path) -> ProtocolTypeError:
    """The error for a role that acts below its ``closed_at``, at that node's path."""
    return ProtocolTypeError(
        ErrorKind.UNCLOSED_ROLE, f"closed_at {role} contradicts the role's remaining behaviour", path
    )


def sort_to_json(s: PayloadSort):
    if isinstance(s, SessionSort):
        return {"session": local_type_to_json(s.local)}
    return s.sort_name()


def local_type_to_json(t: LocalType):
    """The canonical JSON form used by the CLI and golden tests."""
    if isinstance(t, EndT):
        return "end"
    if isinstance(t, VarT):
        return {"var": t.var}
    if isinstance(t, RecT):
        return {"rec": {"var": t.var, "body": local_type_to_json(t.body)}}
    key = "select" if isinstance(t, Select) else "branch"
    return {
        key: {
            "peer": t.peer.name,
            "branches": {
                l.name: {"payload": sort_to_json(l.payload), "cont": local_type_to_json(c)}
                for l, c in t.branches
            },
        }
    }


def format_sort(sort: PayloadSort) -> str:
    """A payload sort in the protocol-file syntax, e.g. ``session(!s{...})``."""
    if isinstance(sort, SessionSort):
        return f"session({format_local_type(sort.local)})"
    return sort.sort_name()


def format_local_type(t: LocalType) -> str:
    """Compact rendering in the protocol-file syntax, which parses back to
    ``t``, e.g. ``!s{auth(string): end}``."""
    if isinstance(t, EndT):
        return "end"
    if isinstance(t, VarT):
        return t.var
    if isinstance(t, RecT):
        return f"rec {t.var} . {format_local_type(t.body)}"
    mark = "!" if isinstance(t, Select) else "?"
    inner = ", ".join(
        f"{l.name}({format_sort(l.payload)}): {format_local_type(c)}" for l, c in t.branches
    )
    return f"{mark}{t.peer}{{{inner}}}"


from . import chanvec  # noqa: E402  chanvec builds on this module, so it comes last
