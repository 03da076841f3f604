"""Small views of library objects that only the tests need."""

from __future__ import annotations

from typing import Optional

from mpst.chanvec import ChannelTable
from mpst.dsl import ProtocolFile
from mpst.errors import ErrorKind
from mpst.protocol import GlobalProtocol, Role, roles_of
from mpst.scripts import RunReport


def protocol_file_for(name: str, g: GlobalProtocol,
                      roles: Optional[tuple[Role, ...]] = None) -> ProtocolFile:
    """``g`` as a protocol file named ``name``, declaring ``roles`` or its
    discovered ones; ``print_protocol`` gives its text."""
    return ProtocolFile(name, roles if roles is not None else roles_of(g), g)


def channel_classes(table: ChannelTable) -> set[tuple[frozenset[str], str, int]]:
    """Channel-name classes keyed by unordered role pair, label, and index."""
    return {
        (frozenset({c.from_role.name, c.to_role.name}), c.label.name, c.index)
        for c in table.classes()
    }


def error_kinds(report: RunReport) -> set[ErrorKind]:
    """The error kinds of a scripted run's failed roles."""
    return {o.error_kind for o in report.outcomes.values() if o.error_kind is not None}
