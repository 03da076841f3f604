"""Textual surface syntax for protocols and test scenarios.

Tokens, one alternative each in the table ``_TOKEN``: blanks and ``#``
comments to the end of the line are skipped; punctuation is ``->`` or one
of ``(){},;:.|!?@%``; a string is double-quoted and may span lines, and a
backslash escapes the next character (``\\n`` and ``\\t`` are a newline and a
tab); an int is digits after an optional ``-``; an identifier is a letter or
``_`` and then letters, digits or ``_`` (``protocol.NAME``).  A token's line
and column, both 1-based, are those of its first character.

Protocol grammar::

    protocol NAME (roles r1, r2, ...) { STMT* }
    STMT ::= A -> B : LABEL;                (A may be named like a keyword)
           | choice at R { STMT* } or { STMT* } (or { STMT* })*
           | rec X { STMT* }
           | continue X;
           | closed R;
           | end;
    LABEL ::= l | l(SORT)                   (no SORT: unit)
    SORT ::= unit | bool | int | string | session(LOCAL)
    LOCAL ::= end | VAR | rec VAR . LOCAL
            | !R{ LABEL: LOCAL, ... }       (internal choice)
            | ?R{ LABEL: LOCAL, ... }       (external choice)
    VAR ::= X | X@N | %N                    (N: the binders compiling and merging make;
                                             X may not be end or rec, but X@N may)

A block ends at its first terminal statement (``end``, ``continue``, a
``choice``, or a ``rec``); a block that just closes gets an implicit
``end``.  Scenario grammar::

    scenario NAME for PROTO { role R { STEP* } ... }
    STEP ::= send PEER LABEL LITERAL? ;
           | recv PEER { LABEL: STEP* | LABEL: STEP* ... }
           | close ;
           | reuse STEP                      (fault injection: repeat STEP)
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .errors import ParseError, Path
from .protocol import (
    BASE_SORTS,
    ClosedAt,
    Choice,
    Comm,
    END,
    End,
    GlobalProtocol,
    Label,
    NAME,
    PayloadSort,
    Rec,
    Role,
    SessionSort,
    UNIT,
    Var,
    bind_roles,
)
from .scripts import CloseStep, ReceiveStep, ReuseStep, Script, SendStep, Step
from .types import Branch, LocalType, RecT, Select, VarT, END_T, format_sort

Span = tuple[int, int, int, int]  # line, col, end line, end col (1-based)


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "int" | "string" | punct literal | "eof"
    text: str
    line: int
    col: int


# One alternative per token kind, tried in order at each position; "skip"
# makes no token, and the last two are errors.
_TOKEN = re.compile(r"""
    (?P<skip>[ \t\r\n]+ | \#[^\n]*)         # blanks, and a comment to end of line
  | (?P<punct>-> | [(){},;:.|!?@%])
  | (?P<string>"(?:[^"\\] | \\.)*")         # may span lines; a backslash escapes any character
  | (?P<int>-?\d+)
  | (?P<ident>""" + NAME.pattern + r""")
  | (?P<unterminated>")
  | (?P<unexpected>.)
""", re.VERBOSE | re.DOTALL)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t"}  # any other escaped character stands for itself


def _tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    line, line_start = 1, 0  # the current line and the offset of its first character
    for m in _TOKEN.finditer(src):
        kind, text, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "string":
            body = _ESCAPE.sub(lambda e: _ESCAPES.get(e[1], e[1]), text[1:-1])
            toks.append(Token("string", body, line, col))
        elif kind in ("int", "ident"):
            toks.append(Token(kind, text, line, col))
        elif kind == "punct":
            toks.append(Token(text, text, line, col))
        elif kind == "unterminated":
            raise ParseError("unterminated string literal", line, col)
        elif kind == "unexpected":
            raise ParseError(f"unexpected character {text!r}", line, col)
        if "\n" in text:  # blanks or a string that span lines
            line += text.count("\n")
            line_start = m.start() + text.rindex("\n") + 1
    toks.append(Token("eof", "", line, len(src) - line_start + 1))
    return toks


class _Parser:
    def __init__(self, src: str) -> None:
        self.toks = _tokenize(src)
        self.pos = 0
        self.spans: dict[Path, Span] = {}

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, msg: str, tok: Optional[Token] = None):
        t = tok or self.peek()
        raise ParseError(msg, t.line, t.col)

    def found(self) -> str:
        """The next token as an error names it: by its kind, not its text,
        for a string literal's text may be empty too."""
        t = self.peek()
        return repr("end of input" if t.kind == "eof" else f'"{t.text}"' if t.kind == "string" else t.text)

    def expect(self, kind: str, what: str = "") -> Token:
        if self.peek().kind != kind:
            self.fail(f"expected {what or kind!r}, found {self.found()}")
        return self.next()

    def keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            self.fail(f"expected keyword {word!r}, found {self.found()}")

    def accept(self, kind: str) -> bool:
        """Take the next token if it is a ``kind``."""
        if self.peek().kind != kind:
            return False
        self.pos += 1
        return True

    def accept_keyword(self, word: str) -> bool:
        """Take the next token if it is the word ``word``."""
        t = self.peek()
        if t.kind != "ident" or t.text != word:
            return False
        self.pos += 1
        return True

    # --- labels, payload sorts and inline local types ------------------------

    def parse_label(self) -> Label:
        """``label`` or ``label(SORT)``; a label with no sort carries unit."""
        name = self.expect("ident", "a label").text
        if not self.accept("("):
            return Label(name)
        sort = self.parse_sort()
        self.expect(")")
        return Label(name, sort)

    def parse_sort(self) -> PayloadSort:
        t = self.expect("ident", "a payload sort")
        if t.text in BASE_SORTS:
            return BASE_SORTS[t.text]
        if t.text == "session":
            self.expect("(")
            local = self.parse_local()
            self.expect(")")
            return SessionSort(local)
        self.fail(f"unknown payload sort {t.text!r}", t)

    def parse_local(self) -> LocalType:
        t = self.peek()
        if self.accept("!") or self.accept("?"):
            peer = Role(self.expect("ident", "a role name").text)
            self.expect("{")
            branches = []
            while not branches or self.accept(","):
                label = self.parse_label()
                self.expect(":")
                branches.append((label, self.parse_local()))
            self.expect("}")
            return (Select if t.kind == "!" else Branch)(peer, tuple(branches))
        keyword = t.kind == "ident" and self.toks[self.pos + 1].kind != "@"  # not a binder like end@0
        if keyword and self.accept_keyword("end"):
            return END_T
        if keyword and self.accept_keyword("rec"):
            at = self.peek()
            var = self.parse_local_var()
            if var in ("end", "rec"):  # its body would read the variable as the keyword
                self.fail(f"a local type's loop variable cannot be named {var!r}", at)
            self.expect(".")
            return RecT(var, self.parse_local())
        if t.kind in ("ident", "%"):
            return VarT(self.parse_local_var())
        self.fail("expected a local type")

    def parse_local_var(self) -> str:
        """A local type's recursion variable: a name, or one of the binders
        that compiling and merging make, ``X@0`` and ``%2``."""
        if self.accept("%"):
            return "%" + self.expect("int", "a binder number").text
        var = self.expect("ident", "a recursion variable").text
        if self.accept("@"):
            var += "@" + self.expect("int", "a role position").text
        return var

    # --- protocol files ------------------------------------------------------

    def parse_protocol_file(self) -> "ProtocolFile":
        self.keyword("protocol")
        name = self.expect("ident", "a protocol name").text
        self.expect("(")
        self.keyword("roles")
        roles = []
        while not roles or self.accept(","):
            roles.append(Role(self.expect("ident", "a role name").text))
        self.expect(")")
        body = self.parse_braced(())
        self.expect("eof", "end of file")
        try:
            bound = bind_roles(roles, body)
        except ValueError as e:
            raise ParseError(str(e), 1, 1) from None
        return ProtocolFile(name, bound, body, self.spans)

    def parse_braced(self, path: Path) -> GlobalProtocol:
        self.expect("{")
        body = self.parse_block(path)
        self.expect("}")
        return body

    def parse_block(self, path: Path) -> GlobalProtocol:
        """The statement at ``path`` with its continuation, its span kept
        from its first token to the last one it took."""
        start = self.peek()
        node = self.parse_statement(path)
        last = self.toks[max(self.pos - 1, 0)]
        self.spans[path] = (start.line, start.col, last.line, last.col + len(last.text))
        return node

    def parse_statement(self, path: Path) -> GlobalProtocol:
        t = self.peek()
        if t.kind == "}":  # implicit end at block close
            return END
        sender = t.kind == "ident" and self.toks[self.pos + 1].kind == "->"  # even one named like a keyword
        if not sender and self.accept_keyword("end"):
            self.expect(";")
            return END
        if not sender and self.accept_keyword("continue"):
            var = self.expect("ident", "a recursion variable").text
            self.expect(";")
            return Var(var)
        if not sender and self.accept_keyword("rec"):
            var = self.expect("ident", "a recursion variable").text
            return Rec(var, self.parse_braced(path + ("body",)))
        if not sender and self.accept_keyword("choice"):
            self.keyword("at")
            at = Role(self.expect("ident", "a role name").text)
            branches = [self.parse_braced(path + ("branch[0]",))]
            while self.accept_keyword("or"):
                branches.append(self.parse_braced(path + (f"branch[{len(branches)}]",)))
            if len(branches) == 1:
                self.fail("choice needs at least one 'or' branch", t)
            return Choice(at, tuple(branches))
        if not sender and self.accept_keyword("closed"):
            role = Role(self.expect("ident", "a role name").text)
            self.expect(";")
            return ClosedAt(role, self.parse_block(path + ("cont",)))
        if t.kind == "ident":  # communication statement
            frm = Role(self.next().text)
            self.expect("->")
            to = Role(self.expect("ident", "a role name").text)
            self.expect(":")
            label = self.parse_label()
            self.expect(";")
            return Comm(frm, to, label, self.parse_block(path + ("cont",)))
        self.fail("expected a protocol statement")

    # --- scenario files ------------------------------------------------------

    def parse_scenario_file(self) -> "ScenarioFile":
        self.keyword("scenario")
        name = self.expect("ident", "a scenario name").text
        self.keyword("for")
        proto = self.expect("ident", "a protocol name").text
        self.expect("{")
        scripts: dict[str, Script] = {}
        while self.accept_keyword("role"):
            rname = self.expect("ident", "a role name").text
            self.expect("{")
            scripts[rname] = self.parse_steps()
            self.expect("}")
        self.expect("}")
        self.expect("eof", "end of file")
        return ScenarioFile(name, proto, scripts)

    def parse_steps(self) -> Script:
        steps: list[Step] = []
        while True:
            t = self.peek()
            if t.kind != "ident" or t.text not in ("send", "recv", "close", "reuse"):
                return tuple(steps)
            steps.append(self.parse_step())

    def parse_step(self) -> Step:
        t = self.next()
        if t.text == "reuse":
            return ReuseStep(self.parse_step())
        if t.text == "close":
            self.expect(";")
            return CloseStep()
        if t.text == "send":
            peer = self.expect("ident", "a role name").text
            label = self.expect("ident", "a label").text
            payload = self.parse_literal()
            self.expect(";")
            return SendStep(peer, label, payload)
        if t.text == "recv":
            peer = self.expect("ident", "a role name").text
            self.expect("{")
            branches = []
            while not branches or self.accept("|"):
                label = self.expect("ident", "a label").text
                self.expect(":")
                branches.append((label, self.parse_steps()))
            self.expect("}")
            return ReceiveStep(peer, tuple(branches))
        self.fail(f"unknown step {t.text!r}", t)

    def parse_literal(self) -> object:
        """A send's payload; none, like ``unit``, is the unit payload."""
        t = self.peek()
        if t.kind == "string":
            value = t.text
        elif t.kind == "int":
            value = int(t.text)
        elif t.kind == "ident" and t.text in _WORDS:
            value = _WORDS[t.text]
        else:
            return None
        self.next()
        return value


_WORDS = {"true": True, "false": False, "unit": None}  # the payload literals that are words


@dataclass(frozen=True)
class ProtocolFile:
    name: str
    roles: tuple[Role, ...]
    body: GlobalProtocol
    spans: dict[Path, Span] = field(default_factory=dict, compare=False, repr=False)

    def span_at(self, path: Path) -> Optional[Span]:
        # longest recorded prefix of the requested path
        while True:
            if path in self.spans:
                return self.spans[path]
            if not path:
                return None
            path = path[:-1]


@dataclass(frozen=True)
class ScenarioFile:
    name: str
    protocol: str
    scripts: dict[str, Script]


def parse_protocol(text: str) -> ProtocolFile:
    return _Parser(text).parse_protocol_file()


def parse_scenario(text: str) -> ScenarioFile:
    return _Parser(text).parse_scenario_file()


def print_protocol(pf: ProtocolFile) -> str:
    """Canonical pretty-printer; parsing its output reproduces the AST."""
    out: list[str] = []
    role_list = ", ".join(pf.roles)
    out.append(f"protocol {pf.name} (roles {role_list}) {{")

    def stmt(node: GlobalProtocol, depth: int) -> None:
        pad = "  " * depth
        if isinstance(node, End):
            out.append(f"{pad}end;")
        elif isinstance(node, Var):
            out.append(f"{pad}continue {node.var};")
        elif isinstance(node, Comm):
            out.append(f"{pad}{node.from_role} -> {node.to_role} : "
                       f"{node.label.name}({format_sort(node.label.payload)});")
            stmt(node.cont, depth)
        elif isinstance(node, ClosedAt):
            out.append(f"{pad}closed {node.role};")
            stmt(node.cont, depth)
        elif isinstance(node, Rec):
            out.append(f"{pad}rec {node.var} {{")
            stmt(node.body, depth + 1)
            out.append(f"{pad}}}")
        elif isinstance(node, Choice):
            out.append(f"{pad}choice at {node.at} {{")
            for i, b in enumerate(node.branches):
                if i:
                    out.append(f"{pad}}} or {{")
                stmt(b, depth + 1)
            out.append(f"{pad}}}")
        else:
            raise AssertionError(f"unknown node {node!r}")

    stmt(pf.body, 1)
    out.append("}")
    return "\n".join(out) + "\n"

