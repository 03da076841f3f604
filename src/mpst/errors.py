"""Shared error taxonomy for protocol checking, evaluation, and the runtime.

Every failure carries a kind from the closed :class:`ErrorKind` enumeration so
that callers (and tests) can match on categories instead of message strings.
An error's message is built from its fields only when it is printed, and its
``args`` are its constructor's own arguments, so every error survives
``pickle`` and ``copy.copy``.
"""

from __future__ import annotations

from enum import Enum


class ErrorKind(str, Enum):
    # shape validation
    UNBOUND_VAR = "UnboundVar"
    UNGUARDED_RECURSION = "UnguardedRecursion"
    SELF_SEND = "SelfSend"
    EMPTY_CHOICE = "EmptyChoice"

    # typing / projection
    ACTIVE_ROLE_MISMATCH = "ActiveRoleMismatch"
    NON_DIRECTED_INPUT = "NonDirectedInput"
    NON_DIRECTED_OUTPUT = "NonDirectedOutput"
    OUTPUT_MERGE_MISMATCH = "OutputMergeMismatch"
    DUPLICATE_CHOICE_LABEL = "DuplicateChoiceLabel"
    PAYLOAD_MISMATCH = "PayloadMismatch"
    UNCLOSED_ROLE = "UnclosedRole"

    # runtime
    INVALID_ENDPOINT = "InvalidEndpoint"
    WRONG_PEER = "WrongPeer"
    UNKNOWN_LABEL = "UnknownLabel"
    PAYLOAD_SORT_MISMATCH = "PayloadSortMismatch"
    PROTOCOL_NOT_FINISHED = "ProtocolNotFinished"
    DELEGATION_UNSUPPORTED = "DelegationUnsupported"
    TRANSPORT_ERROR = "TransportError"
    TIMEOUT = "Timeout"

    def __str__(self) -> str:  # diagnostics print the bare kind name
        return self.value


# An AST location: the chain of steps from the protocol root, e.g.
# ("cont", "branch[1]", "body").  The empty tuple is the root.
Path = tuple[str, ...]


class MpstError(Exception):
    """Base class; carries a kind, an AST path, and a human-readable detail.

    ``Exception.__new__`` keeps the constructor's arguments as ``args``, so
    this does not call ``Exception.__init__``, and a subclass with its own
    signature unpickles through it.  A caller that learns more of the path
    may extend ``path`` (and ``args``) on the error it caught and re-raise it."""

    def __init__(self, kind: ErrorKind, detail: str, path: Path = ()) -> None:
        self.kind = kind
        self.detail = detail
        self.path = path

    def __str__(self) -> str:
        at = f" at {'/'.join(self.path) or 'root'}" if self.path else ""
        return f"{self.kind.value}: {self.detail}{at}"


class SelfSendError(MpstError):
    def __init__(self, role: str) -> None:
        super().__init__(ErrorKind.SELF_SEND, f"role {role} sends to itself")


class EmptyChoiceError(MpstError):
    def __init__(self) -> None:
        super().__init__(ErrorKind.EMPTY_CHOICE, "choice needs at least one branch")


class ShapeError(MpstError):
    """Raised when an operation requires a shape-valid protocol but got findings."""

    def __init__(self, findings) -> None:
        self.findings = list(findings)
        first = self.findings[0]
        super().__init__(first.kind, first.detail, first.path)


class ProtocolTypeError(MpstError):
    """A well-formedness violation found while typing, compiling or projecting."""


class CvTypeError(MpstError):
    """A channel vector does not reconstruct to a consistent local type."""


class SessionRuntimeError(MpstError):
    """A runtime communication failure (linearity, misuse, transport)."""


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int) -> None:
        self.msg = msg
        self.line = line
        self.col = col

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.msg}"
