"""Enumerated type universes and brute-force oracles for the property suites.

The bounded subtyping oracle checks the simulation conditions on trees
unrolled to a fixed depth, treating the cut as success.  It is conclusive
for a pair whenever the product of the two types' state counts stays below
the unroll depth; the helpers expose that gate.

``small_protocols`` enumerates every global protocol up to a node count over
a fixed alphabet (SmallCheck's exhaustive small scope, Runciman, Naylor &
Lindblad 2008): roles p, q and r, unit labels a and b, at most two nested
binders, binary choices and ``closed_at`` at any role.
"""

from __future__ import annotations

import itertools
import random

from mpst import INT, Label, Role, UNIT
from mpst.protocol import END, Choice, ClosedAt, Comm, GlobalProtocol, Rec, Var
from mpst.types import (
    Branch,
    EndT,
    END_T,
    LocalType,
    RecT,
    Select,
    VarT,
    unfold_type,
)

P, Q = Role("p"), Role("q")
L1, L2 = Label("m1", UNIT), Label("m2", INT)
PEERS = (P, Q)
LABELS = (L1, L2)


def _label_subsets():
    return ((L1,), (L2,), (L1, L2))


def enumerate_closed(depth: int) -> list[LocalType]:
    """All mu-free closed types over two peers and two labels."""
    levels: list[list[LocalType]] = [[END_T]]
    for _ in range(depth):
        prev = [t for level in levels for t in level]
        nxt: list[LocalType] = []
        for peer in PEERS:
            for labels in _label_subsets():
                for conts in itertools.product(prev, repeat=len(labels)):
                    nxt.append(Select(peer, tuple(zip(labels, conts))))
                    nxt.append(Branch(peer, tuple(zip(labels, conts))))
        levels.append(nxt)
    seen: set[LocalType] = set()
    out: list[LocalType] = []
    for level in levels:
        for t in level:
            if t not in seen:
                seen.add(t)
                out.append(t)
    return out


def enumerate_open(depth: int) -> list[LocalType]:
    """Guarded types over the leaves {End, X}; X occurs at least once."""
    levels: list[list[LocalType]] = [[END_T, VarT("X")]]
    for _ in range(depth):
        prev = [t for level in levels for t in level]
        nxt: list[LocalType] = []
        for peer in PEERS:
            for labels in _label_subsets():
                for conts in itertools.product(prev, repeat=len(labels)):
                    nxt.append(Select(peer, tuple(zip(labels, conts))))
                    nxt.append(Branch(peer, tuple(zip(labels, conts))))
        levels.append(nxt)
    out = []
    for level in levels[1:]:  # a bare X is not guarded
        for t in level:
            if "X" in t.free_vars():
                out.append(t)
    return out


def mu_types(body_depth: int) -> list[LocalType]:
    return [RecT("X", body) for body in enumerate_open(body_depth)]


def random_closed(rng: random.Random, depth: int) -> LocalType:
    if depth <= 0 or rng.random() < 0.2:
        return END_T
    peer = rng.choice(PEERS)
    labels = rng.choice(_label_subsets())
    conts = tuple(random_closed(rng, depth - 1) for _ in labels)
    cls = Select if rng.random() < 0.5 else Branch
    return cls(peer, tuple(zip(labels, conts)))


def build_universe(rng: random.Random, depth3_sample: int = 300, mu2_sample: int = 200) -> list[LocalType]:
    """Closed depth<=2 exhaustively, mu-types over depth<=2 bodies (depth-1
    bodies exhaustively), and a deterministic sample of depth-3 types."""
    u = enumerate_closed(2)
    mus = mu_types(1)
    mu2 = [t for t in mu_types(2) if t not in set(mus)]
    mus += rng.sample(mu2, min(mu2_sample, len(mu2)))
    u += mus
    seen = set(u)
    while depth3_sample > 0:
        t = random_closed(rng, 3)
        if t not in seen:
            seen.add(t)
            u.append(t)
            depth3_sample -= 1
    return u


def state_count(t: LocalType) -> int:
    """Number of distinct reachable states of the denoted regular tree."""
    seen: set[LocalType] = set()
    stack = [t]
    while stack:
        x = unfold_type(stack.pop())
        if x in seen:
            continue
        seen.add(x)
        if isinstance(x, (Select, Branch)):
            stack.extend(c for _, c in x.branches)
    return len(seen)


def subtype_bounded(s: LocalType, t: LocalType, depth: int) -> bool:
    """Simulation conditions on depth-bounded unrollings; the cut succeeds."""
    if depth <= 0:
        return True
    s = unfold_type(s)
    t = unfold_type(t)
    if isinstance(s, EndT) and isinstance(t, EndT):
        return True
    if isinstance(s, Branch) and isinstance(t, Branch):
        if s.peer != t.peer:
            return False
        right = {l.name: (l, c) for l, c in t.branches}
        for l, c in s.branches:
            if l.name not in right:
                return False
            l2, c2 = right[l.name]
            if l.payload != l2.payload or not subtype_bounded(c, c2, depth - 1):
                return False
        return True
    if isinstance(s, Select) and isinstance(t, Select):
        if s.peer != t.peer:
            return False
        if [(l.name, l.payload) for l, _ in s.branches] != [(l.name, l.payload) for l, _ in t.branches]:
            return False
        return all(subtype_bounded(c, c2, depth - 1) for (_, c), (_, c2) in zip(s.branches, t.branches))
    return False


def oracle_conclusive(s: LocalType, t: LocalType, depth: int) -> bool:
    return state_count(s) * state_count(t) <= depth


def trees_equal_bounded(s: LocalType, t: LocalType, depth: int) -> bool:
    """Plain tree equality on depth-bounded unrollings."""
    if depth <= 0:
        return True
    s = unfold_type(s)
    t = unfold_type(t)
    if isinstance(s, EndT) or isinstance(t, EndT):
        return type(s) is type(t)
    if type(s) is not type(t) or s.peer != t.peer:
        return False
    if [(l.name, l.payload) for l, _ in s.branches] != [(l.name, l.payload) for l, _ in t.branches]:
        return False
    return all(trees_equal_bounded(c, c2, depth - 1) for (_, c), (_, c2) in zip(s.branches, t.branches))


SMALL_ROLES = (P, Q, Role("r"))
SMALL_LABELS = (Label("a", UNIT), Label("b", UNIT))
SMALL_BINDERS = ("X", "Y")


def _protocols(nodes: int, depth: int):
    """Every protocol of exactly ``nodes`` nodes inside ``depth`` binders,
    whose loop variables are those binders'.  Each Comm, Choice, Rec, Var,
    End and ClosedAt is one node."""
    if nodes == 1:
        yield END
        yield from map(Var, SMALL_BINDERS[:depth])
        return
    for cont in _protocols(nodes - 1, depth):
        for frm, to in itertools.permutations(SMALL_ROLES, 2):
            for label in SMALL_LABELS:
                yield Comm(frm, to, label, cont)
        for role in SMALL_ROLES:
            yield ClosedAt(role, cont)
    if depth < len(SMALL_BINDERS):
        for body in _protocols(nodes - 1, depth + 1):
            yield Rec(SMALL_BINDERS[depth], body)
    for left in range(1, nodes - 1):
        pairs = list(itertools.product(_protocols(left, depth), _protocols(nodes - 1 - left, depth)))
        for at in SMALL_ROLES:
            for pair in pairs:
                yield Choice(at, pair)


def small_protocols(nodes: int) -> list[GlobalProtocol]:
    """Every closed protocol of at most ``nodes`` nodes, smallest first."""
    return [g for n in range(1, nodes + 1) for g in _protocols(n, 0)]
