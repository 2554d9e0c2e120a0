"""Surface syntax: tokenizer, parsers and printers.

Choreography sources use the ``.chor`` grammar; behaviours have their own
single-line notation used by ``project`` output.  Both printers are exact
inverses of the corresponding parsers on parseable terms.

Tokens carry only the offset of their first character, and spans hold
offsets too.  A line and column are computed from the text only where
they are read: when a ``ParseError`` is raised and in ``span_for``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from .chor import (
    CHOR_END,
    Call,
    ChorProgram,
    Choreography,
    CommEta,
    Cond,
    End as ChorEnd,
    Eta,
    Interaction,
    Path,
    ProcDef,
    RunningCall,
    SelectEta,
)
from .core import (
    LABELS,
    Add,
    And,
    BExpr,
    BoolLit,
    Eq,
    Expr,
    FALSE,
    Le,
    Lit,
    Lt,
    Mul,
    Not,
    Sub,
    TRUE,
    VarRef,
)
from .net import (
    SP_END,
    Behaviour,
    Branch,
    Call as SpCall,
    Cond as SpCond,
    End as SpEnd,
    Recv,
    SelectSend,
    Send,
)

# Keywords that can never be identifiers (process, variable or procedure
# names).  "left"/"right" stay contextual so they remain usable as names.
RESERVED = frozenset(
    {"def", "main", "if", "then", "else", "call", "end", "true", "false"}
)


class ParseError(Exception):
    """Syntax error with a 1-based source position."""

    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {msg}")
        self.msg = msg
        self.line = line
        self.col = col


class Span(NamedTuple):
    line: int
    col: int
    end_line: int
    end_col: int

    def __repr__(self) -> str:  # compact form used in diagnostics
        return f"{self.line}:{self.col}-{self.end_line}:{self.end_col}"


class Token(NamedTuple):
    kind: str  # ident | int | punct | eof
    text: str
    pos: int  # offset of the first character


def _line_col(text: str, pos: int) -> Tuple[int, int]:
    """1-based line and column of offset ``pos`` in ``text``."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


# Every character matches: whitespace and comments have no group, and a
# lone "=" or any other stray character is a "bad" token.
_TOKEN_RE = re.compile(
    r"""[ \t\r\n]+
      | //[^\n]*
      | (?P<int>[0-9]+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<punct>\(\+\)|->|==|<=|&&|[.;{}()\[\],!+\-*?:@<&])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> List[Token]:
    toks: List[Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            c = m.group()
            msg = f"unexpected character {c!r}"
            if c == "=":
                msg = "single '=' (did you mean '==')"
            raise ParseError(msg, *_line_col(text, m.start()))
        if kind is not None:
            toks.append(Token(kind, m.group(), m.start()))
    toks.append(Token("eof", "", len(text)))
    return toks


@dataclass
class SourceUnit:
    """A parsed choreography source with per-node source spans.

    Spans are keyed by node path: ("main",) or ("def", X) for the top of
    each body, extended with "cont"/"then"/"else" segments below, the
    same scheme diagnostics use.  Each holds the offsets of the node's
    first and last characters.
    """

    path: str
    text: str
    program: ChorProgram
    spans: Dict[Path, Tuple[int, int]] = field(default_factory=dict)

    def span_for(self, path: Path) -> Optional[Span]:
        """Span at ``path``, falling back to the nearest enclosing node."""
        p = tuple(path)
        while p and p not in self.spans:
            p = p[:-1]
        if p not in self.spans:
            return None
        first, last = self.spans[p]
        return Span(*_line_col(self.text, first), *_line_col(self.text, last))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text)
        self.i = 0
        self.spans: Dict[Path, Tuple[int, int]] = {}

    # -- plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.i]

    def advance(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, msg: str) -> "ParseError":
        return ParseError(msg, *_line_col(self.text, self.peek().pos))

    def expected(self, what: str) -> "ParseError":
        found = self.peek().text or "end of input"
        return self.fail(f"expected {what}, found {found!r}")

    def at(self, text: str) -> bool:
        return self.toks[self.i].text == text

    def expect(self, text: str) -> Token:
        if not self.at(text):
            raise self.expected(repr(text))
        return self.advance()

    def ident(self, what: str = "identifier") -> Token:
        t = self.peek()
        if t.kind != "ident" or t.text in RESERVED:
            raise self.expected(what)
        return self.advance()

    def note(self, path: Path, start: Token, end: Token) -> None:
        self.spans[path] = (start.pos, end.pos + len(end.text) - 1)

    # -- expressions -------------------------------------------------

    def expr(self) -> Expr:
        e = self.term()
        while self.at("+") or self.at("-"):
            op = self.advance().text
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.at("*"):
            self.advance()
            e = Mul(e, self.factor())
        return e

    def factor(self) -> Expr:
        t = self.peek()
        if t.kind == "int":
            self.advance()
            return Lit(int(t.text))
        if t.kind == "ident" and t.text not in RESERVED:
            self.advance()
            return VarRef(t.text)
        if self.at("("):
            self.advance()
            e = self.expr()
            self.expect(")")
            return e
        raise self.expected("expression")

    def bexpr(self) -> BExpr:
        b = self.batom()
        while self.at("&&"):
            self.advance()
            b = And(b, self.batom())
        return b

    def batom(self) -> BExpr:
        t = self.peek()
        if t.text == "true":
            self.advance()
            return TRUE
        if t.text == "false":
            self.advance()
            return FALSE
        if self.at("!"):
            self.advance()
            return Not(self.batom())
        # A "(" is ambiguous: parenthesised comparison operand versus
        # parenthesised boolean.  Try the comparison reading, backtrack.
        mark = self.i
        try:
            lhs = self.expr()
            if self.at("=="):
                self.advance()
                return Eq(lhs, self.expr())
            if self.at("<="):
                self.advance()
                return Le(lhs, self.expr())
            if self.at("<"):
                self.advance()
                return Lt(lhs, self.expr())
            raise self.fail("expected comparison operator")
        except ParseError:
            self.i = mark
        if self.at("("):
            self.advance()
            b = self.bexpr()
            self.expect(")")
            return b
        raise self.expected("boolean expression")

    # -- choreographies ----------------------------------------------

    def chor(self, path: Path) -> Choreography:
        start = self.peek()
        if self.at("end"):
            self.advance()
            self.note(path, start, start)
            return CHOR_END
        if self.at("if"):
            self.advance()
            pid = self.ident("process name").text
            self.expect(".")
            guard = self.bexpr()
            self.expect("then")
            self.expect("{")
            then_c = self.chor(path + ("then",))
            self.expect("}")
            self.expect("else")
            self.expect("{")
            else_c = self.chor(path + ("else",))
            end = self.expect("}")
            self.note(path, start, end)
            return Cond(pid, guard, then_c, else_c)
        if self.at("call"):
            self.advance()
            name = self.ident("procedure name")
            self.note(path, start, name)
            return Call(name.text)
        eta = self.eta()
        self.expect(";")
        cont = self.chor(path + ("cont",))
        self.note(path, start, self.toks[self.i - 1])
        return Interaction(eta, cont)

    def eta(self) -> Eta:
        sender = self.ident("process name").text
        if self.at("."):
            self.advance()
            e = self.expr()
            self.expect("->")
            recv = self.ident("process name").text
            self.expect(".")
            var = self.ident("variable name").text
            return CommEta(sender, e, recv, var)
        if self.at("->"):
            self.advance()
            recv = self.ident("process name").text
            self.expect("[")
            lab = self.peek()
            if lab.text not in LABELS:
                raise self.fail("expected 'left' or 'right'")
            self.advance()
            self.expect("]")
            return SelectEta(sender, recv, lab.text)
        raise self.fail("expected '.' or '->' after process name")

    def program(self) -> ChorProgram:
        first = self.peek()
        procs: Dict[str, ProcDef] = {}
        while self.at("def"):
            start = self.advance()
            name = self.ident("procedure name").text
            if name in procs:
                raise ParseError(
                    f"duplicate definition of {name}",
                    *_line_col(self.text, start.pos),
                )
            self.expect("(")
            params = [self.ident("process name").text]
            while self.at(","):
                self.advance()
                params.append(self.ident("process name").text)
            self.expect(")")
            self.expect("{")
            body = self.chor(("def", name))
            end = self.expect("}")
            self.note(("def", name), start, end)
            procs[name] = ProcDef(tuple(params), body)
        self.expect("main")
        self.expect("{")
        main = self.chor(("main",))
        end = self.expect("}")
        t = self.peek()
        if t.kind != "eof":
            raise self.fail(f"unexpected {t.text!r} after main block")
        self.note((), first, end)
        return ChorProgram(procs, main)

    # -- behaviours --------------------------------------------------

    def behaviour(self) -> Behaviour:
        if self.at("end"):
            self.advance()
            return SP_END
        if self.at("if"):
            self.advance()
            guard = self.bexpr()
            self.expect("then")
            self.expect("{")
            then_b = self.behaviour()
            self.expect("}")
            self.expect("else")
            self.expect("{")
            else_b = self.behaviour()
            self.expect("}")
            return SpCond(guard, then_b, else_b)
        if self.at("call"):
            self.advance()
            name = self.ident("procedure name").text
            self.expect("@")
            pid = self.ident("process name").text
            return SpCall((name, pid))
        peer = self.ident("process name").text
        if self.at("!"):
            self.advance()
            e = self.expr()
            self.expect(";")
            return Send(peer, e, self.behaviour())
        if self.at("?"):
            self.advance()
            var = self.ident("variable name").text
            self.expect(";")
            return Recv(peer, var, self.behaviour())
        if self.at("(+)"):
            self.advance()
            lab = self.peek()
            if lab.text not in LABELS:
                raise self.fail("expected 'left' or 'right'")
            self.advance()
            self.expect(";")
            return SelectSend(peer, lab.text, self.behaviour())
        if self.at("&"):
            self.advance()
            self.expect("{")
            opts: Dict[str, Behaviour] = {}
            if not self.at("}"):
                self.branch_option(opts)
                if self.at(","):
                    self.advance()
                    self.branch_option(opts)
            self.expect("}")
            return Branch(peer, opts.get("left"), opts.get("right"))
        raise self.fail("expected '!', '?', '(+)' or '&' after process name")

    def branch_option(self, opts: Dict[str, Behaviour]) -> None:
        lab = self.peek()
        if lab.text not in LABELS:
            raise self.fail("expected 'left' or 'right'")
        if lab.text in opts:
            raise self.fail(f"duplicate {lab.text} option")
        self.advance()
        self.expect(":")
        opts[lab.text] = self.behaviour()


def parse(text: str, path: str = "<string>") -> SourceUnit:
    """Parse a choreography source file into a program with spans."""
    p = _Parser(text)
    program = p.program()
    return SourceUnit(path, text, program, p.spans)


def parse_behaviour(text: str) -> Behaviour:
    p = _Parser(text)
    b = p.behaviour()
    t = p.peek()
    if t.kind != "eof":
        raise p.fail(f"unexpected {t.text!r} after behaviour")
    return b


# ---------------------------------------------------------------------------
# Printers


def print_expr(e: Expr, min_prec: int = 0) -> str:
    t = type(e)
    if t is Lit:
        return str(e.value)
    if t is VarRef:
        return e.name
    if t is Mul:
        s = f"{print_expr(e.lhs, 2)} * {print_expr(e.rhs, 3)}"
        prec = 2
    else:  # Add | Sub
        op = "+" if t is Add else "-"
        s = f"{print_expr(e.lhs, 1)} {op} {print_expr(e.rhs, 2)}"
        prec = 1
    return f"({s})" if prec < min_prec else s


_CMP_OPS = {Eq: "==", Le: "<=", Lt: "<"}


def print_bexpr(b: BExpr, min_prec: int = 0) -> str:
    t = type(b)
    if t is BoolLit:
        return "true" if b.value else "false"
    if t in _CMP_OPS:
        s = f"{print_expr(b.lhs)} {_CMP_OPS[t]} {print_expr(b.rhs)}"
        prec = 2
    elif t is Not:
        s = f"!{print_bexpr(b.operand, 3)}"
        prec = 3
    else:  # And
        s = f"{print_bexpr(b.lhs, 1)} && {print_bexpr(b.rhs, 2)}"
        prec = 1
    return f"({s})" if prec < min_prec else s


def _print_eta(eta: Eta) -> str:
    if type(eta) is CommEta:
        return f"{eta.sender}.{print_expr(eta.expr)} -> {eta.receiver}.{eta.var}"
    return f"{eta.sender} -> {eta.receiver}[{eta.label}]"


def _print_chor(c: Choreography, indent: str, out: List[str]) -> None:
    while True:
        t = type(c)
        if t is Interaction:
            out.append(f"{indent}{_print_eta(c.eta)};")
            c = c.cont
            continue
        if t is Cond:
            out.append(f"{indent}if {c.pid}.{print_bexpr(c.guard)} then {{")
            _print_chor(c.then_c, indent + "  ", out)
            out.append(f"{indent}}} else {{")
            _print_chor(c.else_c, indent + "  ", out)
            out.append(f"{indent}}}")
            return
        if t is Call:
            out.append(f"{indent}call {c.proc}")
            return
        if t is RunningCall:
            raise ValueError("pending calls have no surface syntax")
        assert t is ChorEnd
        out.append(f"{indent}end")
        return


def print_choreography(p: ChorProgram) -> str:
    """Render a program in the source grammar (no header line)."""
    out: List[str] = []
    for name in p.procs:
        d = p.procs[name]
        out.append(f"def {name}({', '.join(d.params)}) {{")
        _print_chor(d.body, "  ", out)
        out.append("}")
        out.append("")
    out.append("main {")
    _print_chor(p.main, "  ", out)
    out.append("}")
    return "\n".join(out) + "\n"


def print_behaviour(b: Behaviour) -> str:
    """Single-line behaviour notation, inverse of parse_behaviour."""
    t = type(b)
    if t is SpEnd:
        return "end"
    if t is Send:
        return f"{b.peer}!{print_expr(b.expr)}; {print_behaviour(b.cont)}"
    if t is Recv:
        return f"{b.peer}?{b.var}; {print_behaviour(b.cont)}"
    if t is SelectSend:
        return f"{b.peer}(+){b.label}; {print_behaviour(b.cont)}"
    if t is Branch:
        opts = []
        if b.on_left is not None:
            opts.append(f"left: {print_behaviour(b.on_left)}")
        if b.on_right is not None:
            opts.append(f"right: {print_behaviour(b.on_right)}")
        return f"{b.peer} & {{ {', '.join(opts)} }}" if opts else f"{b.peer} & {{ }}"
    if t is SpCond:
        return (
            f"if {print_bexpr(b.guard)} then {{ {print_behaviour(b.then_b)} }}"
            f" else {{ {print_behaviour(b.else_b)} }}"
        )
    assert t is SpCall
    name, pid = b.name
    return f"call {name}@{pid}"
