"""Textual surface syntax for protocols and test scenarios.

Protocol grammar::

    protocol NAME (roles r1, r2, ...) { STMT* }
    STMT ::= A -> B : label(SORT);          (SORT omitted means unit)
           | choice at R { STMT* } or { STMT* } (or { STMT* })*
           | rec X { STMT* }
           | continue X;
           | closed R;
           | end;
    SORT ::= unit | bool | int | string | session(LOCAL)
    LOCAL ::= end | VAR | rec VAR . LOCAL
            | !R{ l(SORT): LOCAL, ... }     (internal choice)
            | ?R{ l(SORT): LOCAL, ... }     (external choice)
    VAR ::= X | X@N | %N                    (N: the binders compiling and merging make)

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
    PayloadSort,
    Rec,
    Role,
    SessionSort,
    UNIT,
    Var,
    bind_roles,
    roles_of,
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


def _tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":  # comment to end of line
            while i < n and src[i] != "\n":
                i += 1
            continue
        if src.startswith("->", i):
            toks.append(Token("->", "->", line, col))
            i += 2
            col += 2
            continue
        if c in "(){},;:.|!?@%":
            toks.append(Token(c, c, line, col))
            i += 1
            col += 1
            continue
        if c == '"':
            j = i + 1
            out = []
            while j < n and src[j] != '"':
                if src[j] == "\\" and j + 1 < n:
                    out.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(src[j + 1], src[j + 1]))
                    j += 2
                else:
                    out.append(src[j])
                    j += 1
            if j >= n:
                raise ParseError("unterminated string literal", line, col)
            toks.append(Token("string", "".join(out), line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if c.isdigit() or (c == "-" and i + 1 < n and src[i + 1].isdigit()):
            j = i + 1
            while j < n and src[j].isdigit():
                j += 1
            toks.append(Token("int", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(Token("ident", src[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("eof", "", line, col))
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

    def expect(self, kind: str, what: str = "") -> Token:
        t = self.peek()
        if t.kind != kind:
            self.fail(f"expected {what or kind!r}, found {t.text or 'end of input'!r}")
        return self.next()

    def keyword(self, word: str) -> Token:
        t = self.peek()
        if t.kind != "ident" or t.text != word:
            self.fail(f"expected keyword {word!r}, found {t.text or 'end of input'!r}")
        return self.next()

    def at_keyword(self, word: str) -> bool:
        t = self.peek()
        return t.kind == "ident" and t.text == word

    # --- payload sorts and inline local types -------------------------------

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
        if t.kind in ("!", "?"):
            self.next()
            peer = Role(self.expect("ident", "a role name").text)
            self.expect("{")
            branches = []
            while True:
                lab = self.expect("ident", "a label").text
                sort: PayloadSort = UNIT
                if self.peek().kind == "(":
                    self.next()
                    sort = self.parse_sort()
                    self.expect(")")
                self.expect(":")
                branches.append((Label(lab, sort), self.parse_local()))
                if self.peek().kind == ",":
                    self.next()
                    continue
                break
            self.expect("}")
            cls = Select if t.kind == "!" else Branch
            return cls(peer, tuple(branches))
        if t.kind == "ident" and t.text == "end":
            self.next()
            return END_T
        if t.kind == "ident" and t.text == "rec":
            self.next()
            var = self.parse_local_var()
            self.expect(".")
            return RecT(var, self.parse_local())
        if t.kind in ("ident", "%"):
            return VarT(self.parse_local_var())
        self.fail("expected a local type")

    def parse_local_var(self) -> str:
        """A local type's recursion variable: a name, or one of the binders
        that compiling and merging make, ``X@0`` and ``%2``."""
        if self.peek().kind == "%":
            self.next()
            return "%" + self.expect("int", "a binder number").text
        var = self.expect("ident", "a recursion variable").text
        if self.peek().kind == "@":
            self.next()
            var += "@" + self.expect("int", "a role position").text
        return var

    # --- protocol files ------------------------------------------------------

    def parse_protocol_file(self) -> "ProtocolFile":
        self.keyword("protocol")
        name = self.expect("ident", "a protocol name").text
        self.expect("(")
        self.keyword("roles")
        roles = [Role(self.expect("ident", "a role name").text)]
        while self.peek().kind == ",":
            self.next()
            roles.append(Role(self.expect("ident", "a role name").text))
        self.expect(")")
        self.expect("{")
        body = self.parse_block(())
        self.expect("}")
        self.expect("eof", "end of file")
        try:
            bound = bind_roles(roles, body)
        except ValueError as e:
            raise ParseError(str(e), 1, 1) from None
        return ProtocolFile(name, bound, body, self.spans)

    def parse_block(self, path: Path) -> GlobalProtocol:
        t = self.peek()
        start = (t.line, t.col)

        def record(node: GlobalProtocol) -> GlobalProtocol:
            endt = self.toks[max(self.pos - 1, 0)]
            self.spans[path] = (start[0], start[1], endt.line, endt.col + len(endt.text))
            return node

        if t.kind == "}":  # implicit end at block close
            return record(END)
        if t.kind == "ident" and t.text == "end":
            self.next()
            self.expect(";")
            return record(END)
        if t.kind == "ident" and t.text == "continue":
            self.next()
            var = self.expect("ident", "a recursion variable").text
            self.expect(";")
            return record(Var(var))
        if t.kind == "ident" and t.text == "rec":
            self.next()
            var = self.expect("ident", "a recursion variable").text
            self.expect("{")
            body = self.parse_block(path + ("body",))
            self.expect("}")
            return record(Rec(var, body))
        if t.kind == "ident" and t.text == "choice":
            self.next()
            self.keyword("at")
            at = Role(self.expect("ident", "a role name").text)
            branches = []
            self.expect("{")
            branches.append(self.parse_block(path + ("branch[0]",)))
            self.expect("}")
            while self.at_keyword("or"):
                self.next()
                self.expect("{")
                branches.append(self.parse_block(path + (f"branch[{len(branches)}]",)))
                self.expect("}")
            if len(branches) == 1:
                self.fail("choice needs at least one 'or' branch", t)
            return record(Choice(at, tuple(branches)))
        if t.kind == "ident" and t.text == "closed":
            self.next()
            role = Role(self.expect("ident", "a role name").text)
            self.expect(";")
            cont = self.parse_block(path + ("cont",))
            return record(ClosedAt(role, cont))
        if t.kind == "ident":  # communication statement
            frm = Role(self.next().text)
            self.expect("->")
            to = Role(self.expect("ident", "a role name").text)
            self.expect(":")
            lab = self.expect("ident", "a label").text
            sort: PayloadSort = UNIT
            if self.peek().kind == "(":
                self.next()
                sort = self.parse_sort()
                self.expect(")")
            self.expect(";")
            cont = self.parse_block(path + ("cont",))
            return record(Comm(frm, to, Label(lab, sort), cont))
        self.fail("expected a protocol statement")

    # --- scenario files ------------------------------------------------------

    def parse_scenario_file(self) -> "ScenarioFile":
        self.keyword("scenario")
        name = self.expect("ident", "a scenario name").text
        self.keyword("for")
        proto = self.expect("ident", "a protocol name").text
        self.expect("{")
        scripts: dict[str, Script] = {}
        while self.at_keyword("role"):
            self.next()
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
            while True:
                lab = self.expect("ident", "a label").text
                self.expect(":")
                branches.append((lab, self.parse_steps()))
                if self.peek().kind == "|":
                    self.next()
                    continue
                break
            self.expect("}")
            return ReceiveStep(peer, tuple(branches))
        self.fail(f"unknown step {t.text!r}", t)

    def parse_literal(self) -> object:
        t = self.peek()
        if t.kind == "string":
            self.next()
            return t.text
        if t.kind == "int":
            self.next()
            return int(t.text)
        if t.kind == "ident" and t.text in ("true", "false"):
            self.next()
            return t.text == "true"
        if t.kind == "ident" and t.text == "unit":
            self.next()
            return None
        return None  # unit payload, literal omitted


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


def protocol_file_for(name: str, g: GlobalProtocol,
                      roles: Optional[tuple[Role, ...]] = None) -> ProtocolFile:
    return ProtocolFile(name, roles if roles is not None else roles_of(g), g)
