"""Frozen copies of earlier versions of ``chorkit.syntax``.

``reference_tokenize`` is the tokenizer as it was when every token
carried its start and end line and column.  It steps through the text
one match at a time and counts newlines in every lexeme, whitespace
included.  Slow but plain; the differential tests in ``test_syntax.py``
hold the live lexer's token texts, its offsets and its positioned
errors to it.

``reference_parse`` is the recursive choreography parser as it was
before it parsed interaction spines in a loop: one call per node, and a
span for every node keyed by its full path, so a key is one ``"cont"``
longer at each interaction.  ``reference_span_for`` is the lookup that
went with it.  Together they hold the live parser to the same program,
spans and errors.

``reference_token_texts`` is the lexer as it was before it searched
each distinct whitespace-separated chunk once: one ``findall`` over the
whole comment-blanked text.  It raises the live module's ``_Error``, so
it can stand in for ``_token_texts``; the differential tests hold the
live lexer to the same token list and the same error.

``reference_print_behaviour`` is the behaviour printer as it was before
it looped along chains of sends, receives and selections: one call per
node, each formatting the text of its whole subterm.
"""

import re
from typing import Dict, List, NamedTuple, Optional, Tuple

from chorkit.chor import (
    CHOR_END,
    Call,
    ChorProgram,
    CommEta,
    Cond,
    Interaction,
    ProcDef,
    SelectEta,
)
from chorkit.core import (
    LABELS,
    Add,
    And,
    Eq,
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
from chorkit.net import Branch, Call as SpCall, Cond as SpCond, End as SpEnd
from chorkit.net import Recv, SelectSend, Send
from chorkit.syntax import RESERVED, ParseError, Span, _Error, print_bexpr, print_expr


class Token(NamedTuple):
    kind: str  # ident | int | punct | eof
    text: str
    line: int
    col: int
    end_line: int
    end_col: int


_TOKEN_RE = re.compile(
    r"""[ \t\r\n]+
      | //[^\n]*
      | (?P<int>\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<punct>\(\+\)|->|==|<=|&&|[.;{}()\[\],!+\-*?:@<&=])
    """,
    re.VERBOSE,
)


def reference_tokenize(text: str) -> List[Token]:
    toks: List[Token] = []
    pos = 0
    line = 1
    col = 1
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        # Track the position of the end of the lexeme.
        nl = lexeme.count("\n")
        if nl:
            end_line = line + nl
            end_col = len(lexeme) - lexeme.rfind("\n")
        else:
            end_line = line
            end_col = col + len(lexeme)
        if m.lastgroup is not None:
            if m.lastgroup == "punct" and lexeme == "=":
                raise ParseError("single '=' (did you mean '==')", line, col)
            toks.append(
                Token(m.lastgroup, lexeme, line, col, end_line, end_col - 1)
            )
        pos = m.end()
        line = end_line
        col = end_col
    toks.append(Token("eof", "", line, col, line, col))
    return toks


# ---------------------------------------------------------------------------
# The recursive parser, with the one-offset-per-token lexer it ran on.


class _Tok(NamedTuple):
    kind: str  # ident | int | punct | eof
    text: str
    pos: int  # offset of the first character


def _line_col(text: str, pos: int) -> Tuple[int, int]:
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


_OFFSET_TOKEN_RE = re.compile(
    r"""[ \t\r\n]+
      | //[^\n]*
      | (?P<int>[0-9]+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<punct>\(\+\)|->|==|<=|&&|[.;{}()\[\],!+\-*?:@<&])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


def _offset_tokenize(text: str) -> List[_Tok]:
    toks: List[_Tok] = []
    for m in _OFFSET_TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            c = m.group()
            msg = f"unexpected character {c!r}"
            if c == "=":
                msg = "single '=' (did you mean '==')"
            raise ParseError(msg, *_line_col(text, m.start()))
        if kind is not None:
            toks.append(_Tok(kind, m.group(), m.start()))
    toks.append(_Tok("eof", "", len(text)))
    return toks


class _ReferenceParser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _offset_tokenize(text)
        self.i = 0
        self.spans: Dict[tuple, Tuple[int, int]] = {}

    def peek(self):
        return self.toks[self.i]

    def advance(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, msg):
        return ParseError(msg, *_line_col(self.text, self.peek().pos))

    def expected(self, what):
        found = self.peek().text or "end of input"
        return self.fail(f"expected {what}, found {found!r}")

    def at(self, text):
        return self.toks[self.i].text == text

    def expect(self, text):
        if not self.at(text):
            raise self.expected(repr(text))
        return self.advance()

    def ident(self, what="identifier"):
        t = self.peek()
        if t.kind != "ident" or t.text in RESERVED:
            raise self.expected(what)
        return self.advance()

    def note(self, path, start, end):
        self.spans[path] = (start.pos, end.pos + len(end.text) - 1)

    def expr(self):
        e = self.term()
        while self.at("+") or self.at("-"):
            op = self.advance().text
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self):
        e = self.factor()
        while self.at("*"):
            self.advance()
            e = Mul(e, self.factor())
        return e

    def factor(self):
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

    def bexpr(self):
        b = self.batom()
        while self.at("&&"):
            self.advance()
            b = And(b, self.batom())
        return b

    def batom(self):
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

    def chor(self, path):
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

    def eta(self):
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

    def program(self):
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


def reference_parse(text: str) -> Tuple[ChorProgram, Dict[tuple, Tuple[int, int]]]:
    """The program and the span of every node, keyed by its full path."""
    p = _ReferenceParser(text)
    program = p.program()
    return program, p.spans


def reference_span_for(text: str, spans, path) -> Optional[Span]:
    """Span at ``path``, falling back to the nearest enclosing node."""
    p = tuple(path)
    while p and p not in spans:
        p = p[:-1]
    if p not in spans:
        return None
    first, last = spans[p]
    return Span(*_line_col(text, first), *_line_col(text, last))


def reference_print_behaviour(b) -> str:
    t = type(b)
    if t is SpEnd:
        return "end"
    if t is Send:
        return f"{b.peer}!{print_expr(b.expr)}; {reference_print_behaviour(b.cont)}"
    if t is Recv:
        return f"{b.peer}?{b.var}; {reference_print_behaviour(b.cont)}"
    if t is SelectSend:
        return f"{b.peer}(+){b.label}; {reference_print_behaviour(b.cont)}"
    if t is Branch:
        opts = []
        if b.on_left is not None:
            opts.append(f"left: {reference_print_behaviour(b.on_left)}")
        if b.on_right is not None:
            opts.append(f"right: {reference_print_behaviour(b.on_right)}")
        return f"{b.peer} & {{ {', '.join(opts)} }}" if opts else f"{b.peer} & {{ }}"
    if t is SpCond:
        return (
            f"if {print_bexpr(b.guard)} then {{ {reference_print_behaviour(b.then_b)} }}"
            f" else {{ {reference_print_behaviour(b.else_b)} }}"
        )
    assert t is SpCall
    name, pid = b.name
    return f"call {name}@{pid}"


_FINDALL_RE = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*|\(\+\)|->|==|<=|&&|[^ \t\r\n]")
_COMMENT_RE = re.compile(r"//[^\n]*")
_PUNCTUATORS = frozenset(
    ["(+)", "->", "==", "<=", "&&", ".", ";", "{", "}", "(", ")", "[", "]",
     ",", "!", "+", "-", "*", "?", ":", "@", "<", "&"]
)


def reference_token_texts(text: str) -> List[str]:
    if "//" in text:
        text = _COMMENT_RE.sub(lambda m: " " * len(m[0]), text)
    texts = _FINDALL_RE.findall(text)
    bad = [
        t for t in set(texts) - _PUNCTUATORS
        if not (t.isascii() and (t.isidentifier() or t.isdigit()))
    ]
    if bad:
        i = min(map(texts.index, bad))
        msg = f"unexpected character {texts[i]!r}"
        if texts[i] == "=":
            msg = "single '=' (did you mean '==')"
        raise _Error(msg, i)
    texts.append("")
    return texts
