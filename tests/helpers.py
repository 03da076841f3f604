"""Small views of library objects that only the tests need."""

from __future__ import annotations

from typing import Optional

from mpst.chanvec import ChannelName, ChannelTable
from mpst.dsl import ProtocolFile
from mpst.errors import ErrorKind
from mpst.protocol import GlobalProtocol, Label, Role, roles_of
from mpst.scripts import RunReport


def protocol_file_for(name: str, g: GlobalProtocol,
                      roles: Optional[tuple[Role, ...]] = None) -> ProtocolFile:
    """``g`` as a protocol file named ``name``, declaring ``roles`` or its
    discovered ones; ``print_protocol`` gives its text."""
    return ProtocolFile(name, roles if roles is not None else roles_of(g), g)


def alloc(table: ChannelTable, from_role: Role, to_role: Role, label: Label) -> ChannelName:
    """A fresh name in ``table``, numbered as ``eval_global``'s Comm loop
    numbers it: per (sender, receiver, label name), in the next slot."""
    ckey = (from_role, to_role, label.name)
    index = table._counters.get(ckey, 0)
    table._counters[ckey] = index + 1
    name = ChannelName(from_role, to_role, label, index, len(table.names))
    table._parent.append(name.key)
    table.names.append(name)
    return name


def channel_classes(table: ChannelTable) -> set[tuple[frozenset[str], str, int]]:
    """Channel-name classes keyed by unordered role pair, label, and index."""
    return {
        (frozenset({c.from_role.name, c.to_role.name}), c.label.name, c.index)
        for c in table.classes()
    }


def error_kinds(report: RunReport) -> set[ErrorKind]:
    """The error kinds of a scripted run's failed roles."""
    return {o.error_kind for o in report.outcomes.values() if o.error_kind is not None}
