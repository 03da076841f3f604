"""Random well-typed protocol generation for property suites and fuzzing.

Choices are generated in the directed form (every branch begins with the
decider talking to one peer under distinct labels), which satisfies the
active-role conditions by construction; mergeability at third roles is not
guaranteed, so candidates are rejection-sampled against the checker.
Recursions are always escapable: the loop is a choice with at least one
branch that leaves it.
"""

from __future__ import annotations

import random
from typing import Optional

from .errors import MpstError
from .protocol import BASE_SORTS, Choice, Comm, END, End, GlobalProtocol, Label, Rec, Role, Var
from .types import type_global

_LABEL_NAMES = ("m0", "m1", "m2", "m3", "m4", "m5")
_ROLE_NAMES = ("p", "q", "r", "t")


class ProtocolGenerator:
    def __init__(
        self,
        rng: random.Random,
        max_roles: int = 4,
        max_labels: int = 3,
        max_depth: int = 5,
        allow_rec: bool = True,
        allow_choice: bool = True,
    ) -> None:
        self.rng = rng
        self.roles = [Role(n) for n in _ROLE_NAMES[: max(2, max_roles)]]
        self.labels = [
            Label(name, rng.choice(list(BASE_SORTS.values())))
            for name in _LABEL_NAMES[: max(1, max_labels)]
        ]
        self.max_depth = max_depth
        self.allow_rec = allow_rec
        self.allow_choice = allow_choice

    def _two_roles(self) -> tuple[Role, Role]:
        a, b = self.rng.sample(self.roles, 2)
        return a, b

    def _label(self) -> Label:
        return self.rng.choice(self.labels)

    def _chain(self, length: int, cont: GlobalProtocol) -> GlobalProtocol:
        for _ in range(length):
            a, b = self._two_roles()
            cont = Comm(a, b, self._label(), cont)
        return cont

    def _node(self, depth: int, rec_var: Optional[str]) -> GlobalProtocol:
        if depth <= 0:
            return END
        kinds = ["comm", "comm", "end"]
        if self.allow_choice and depth >= 2:
            kinds += ["choice", "choice"]
        kind = self.rng.choice(kinds)
        if kind == "end":
            return END
        if kind == "comm":
            a, b = self._two_roles()
            return Comm(a, b, self._label(), self._node(depth - 1, rec_var))
        return self._choice(depth, rec_var)

    def _choice(self, depth: int, rec_var: Optional[str]) -> GlobalProtocol:
        decider, peer = self._two_roles()
        n = self.rng.randint(2, min(3, len(self.labels)))
        labels = self.rng.sample(self.labels, n)
        branches = tuple(
            Comm(decider, peer, l, self._node(depth - 1, rec_var)) for l in labels
        )
        return Choice(decider, branches)

    def _recursive(self, depth: int) -> GlobalProtocol:
        # rec X . choice at d { d->p: l1 . tail . X,  d->p: l2 . tail' . end }
        decider, peer = self._two_roles()
        labels = self.rng.sample(self.labels, 2)
        loop_tail = self._chain(self.rng.randint(0, 2), Var("X"))
        exit_tail = self._node(max(1, depth - 2), None)
        body = Choice(
            decider,
            (
                Comm(decider, peer, labels[0], loop_tail),
                Comm(decider, peer, labels[1], exit_tail),
            ),
        )
        return Rec("X", body)

    def candidate(self) -> GlobalProtocol:
        if self.allow_rec and self.rng.random() < 0.4:
            g = self._recursive(self.max_depth)
        else:
            g = self._node(self.max_depth, None)
        if isinstance(g, End):
            a, b = self._two_roles()
            g = Comm(a, b, self._label(), END)
        return g

    def well_typed(self, max_attempts: int = 200) -> GlobalProtocol:
        """Rejection-sample until the checker accepts the candidate."""
        for _ in range(max_attempts):
            g = self.candidate()
            try:
                type_global(g)
            except MpstError:
                continue
            return g
        raise RuntimeError("could not generate a well-typed protocol; generator mistuned")


def random_protocols(count: int, seed: int = 0, **options) -> list[GlobalProtocol]:
    """``count`` well-typed protocols from a :class:`ProtocolGenerator` with ``options``."""
    gen = ProtocolGenerator(random.Random(seed), **options)
    return [gen.well_typed() for _ in range(count)]
