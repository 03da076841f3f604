"""Small views of library objects that only the tests need."""

from __future__ import annotations

import threading
from typing import Callable, Optional

from mpst.chanvec import ChannelTable
from mpst.dsl import ProtocolFile
from mpst.errors import ErrorKind
from mpst.protocol import GlobalProtocol, Label, Role, roles_of
from mpst.scripts import RunReport


def protocol_file_for(name: str, g: GlobalProtocol,
                      roles: Optional[tuple[Role, ...]] = None) -> ProtocolFile:
    """``g`` as a protocol file named ``name``, declaring ``roles`` or its
    discovered ones; ``print_protocol`` gives its text."""
    return ProtocolFile(name, roles if roles is not None else roles_of(g), g)


def alloc(table: ChannelTable, from_role: Role, to_role: Role, label: Label) -> int:
    """A fresh channel in ``table``, allocated as ``eval_global``'s Comm loop
    allocates it: in the next slot, which is its own parent.  Returns the
    slot; ``table.names[slot]`` names it."""
    slot = len(table._parent)
    table._parent.append(slot)
    table._comms.append((from_role, to_role, label))
    return slot


def channel_classes(table: ChannelTable) -> set[tuple[frozenset[str], str, int]]:
    """Channel-name classes, each by its representative (the slot that
    ``table.find`` maps it to), keyed by unordered role pair, label, and index."""
    return {
        (frozenset({c.from_role.name, c.to_role.name}), c.label.name, c.index)
        for c in table.names if table.find(c.key) == c.key
    }


def error_kinds(report: RunReport) -> set[ErrorKind]:
    """The error kinds of a scripted run's failed roles."""
    return {o.error_kind for o in report.outcomes.values() if o.error_kind is not None}


def meet_inside(monkeypatch, owner: object, name: str, call: Callable[[], object]) -> list:
    """Run ``call`` in two racing threads that meet at a barrier inside the
    function ``owner.name``: the second starts once the first is inside it,
    so both are past whatever ``call`` does before that function.  Returns
    both results, the first racer's first, and raises a racer's error."""
    original = getattr(owner, name)
    meet, inside = threading.Barrier(2), threading.Event()

    def meeting(*args):
        inside.set()
        meet.wait(2)
        return original(*args)

    results: list = [None, None]
    errors: list[BaseException] = []

    def racer(k: int) -> None:
        try:
            if k:
                assert inside.wait(2), "the first racer never got inside"
            results[k] = call()
        except BaseException as e:  # surfaced to the test
            errors.append(e)

    monkeypatch.setattr(owner, name, meeting)
    threads = [threading.Thread(target=racer, args=(k,), daemon=True) for k in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
    monkeypatch.setattr(owner, name, original)
    assert not any(t.is_alive() for t in threads)
    if errors:
        raise errors[0]
    return results
