"""Surface syntax: lexer, parsers and printers.

Choreography sources use the ``.chor`` grammar; behaviours have their own
single-line notation used by ``project`` output.  Both printers are exact
inverses of the corresponding parsers on parseable terms.

The lexer blanks out "//" comments with spaces, then runs one
``findall`` per distinct whitespace-separated chunk: no token holds
whitespace ([ \t\r\n]) and the search starts afresh after it, so the
chunks' lists in turn are the tokens of the text.  The distinct texts
are checked once each.  The parser indexes that list and reads a
token's kind from its text.  Nothing on that path knows where a token
is: spans and errors hold token indices.  The offsets of the tokens are
found by running the same regex again, with ``finditer``, only when a
``ParseError`` is raised or ``span_for`` is first called on a unit, and
a line and column are computed from an offset only where they are read.

An interaction spine, the chain of ``Interaction`` nodes linked by
``cont`` together with the node that ends it, is parsed in a loop and
built back to front, in time linear in its length; the parser recurses
only into conditional branches, behaviour branches and parentheses.
Chains of sends, receives and selections in behaviours are handled the
same way, and so is printing them.

Span keys.  Diagnostics name a node by its path: ("main",) or
("def", X), then one "cont", "then" or "else" segment per step down.
Along a spine that path grows by a "cont" per interaction, so spans are
not keyed by it.  A key is a path in canonical form, in which each run
of k "cont" segments is the integer k: ("main", 3, "then") is
("main", "cont", "cont", "cont", "then").  Spans are stored per spine,
under the key of its first node: the index of the first token of each
node of the spine, in order, and the index of the last token, which
every node of a spine shares, since each one extends to the end of the
spine.  A key is as long as the conditional nesting at its spine, so
storage and build cost are O(nodes x nesting).  The whole program, at
(), and each procedure definition, at ("def", X), have spans of their
own, which take precedence over the first node of the body at the same
path.
``span_for`` puts the path it is given in canonical form and falls back
to the nearest enclosing node, one segment at a time.
"""

from __future__ import annotations

import re
from itertools import groupby
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


def _line_col(text: str, pos: int) -> Tuple[int, int]:
    """1-based line and column of offset ``pos`` in ``text``."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


class _Error(Exception):
    """A syntax error at a token, ``_Error(msg, index)``, the index being
    the token's place in the list of ``_token_texts``.  The parser raises
    it cheaply; the entry points turn it into a ``ParseError``."""


# A token, or any single character that is not whitespace: searching with
# it skips exactly [ \t\r\n].  Comments are blanked out beforehand.
_TOKEN_RE = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*|\(\+\)|->|==|<=|&&|[^ \t\r\n]")
_COMMENT_RE = re.compile(r"//[^\n]*")
_PUNCTUATORS = frozenset(
    ["(+)", "->", "==", "<=", "&&", ".", ";", "{", "}", "(", ")", "[", "]",
     ",", "!", "+", "-", "*", "?", ":", "@", "<", "&"]
)


def _blank_comments(text: str) -> str:
    """``text`` with each "//" comment replaced by as many spaces."""
    if "//" not in text:
        return text
    return _COMMENT_RE.sub(lambda m: " " * len(m[0]), text)


def _token_texts(text: str) -> List[str]:
    r"""The text of every token, then "" for the end of the input.  Where
    most chunks are distinct, a search each costs more than one search of
    the chunks joined by single spaces.  A text holding a blank the
    grammar rejects but ``str.split`` splits on (\v, \f, \x1c-\x1f,
    non-ASCII) is searched as it is, so its error names the same token."""
    text = _blank_comments(text)
    chunks = text.split()
    lexed = dict.fromkeys(chunks)
    if not text.isascii() or any(c in text for c in "\v\f\x1c\x1d\x1e\x1f"):
        texts = _TOKEN_RE.findall(text)
    elif 2 * len(lexed) > len(chunks):
        texts = _TOKEN_RE.findall(" ".join(chunks))
    else:
        for chunk in lexed:
            lexed[chunk] = _TOKEN_RE.findall(chunk)
        texts = []
        for chunk in chunks:
            texts += lexed[chunk]
    # Besides punctuators, only ASCII identifiers and digit strings are
    # valid; the str tests alone would also pass letters such as "é".
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


def _token_spans(text: str) -> List[Tuple[int, int]]:
    """Start and end offsets of the tokens of ``_token_texts(text)``, the
    end of the input included: the positions the lexer does not keep."""
    n = len(text)
    return [m.span() for m in _TOKEN_RE.finditer(_blank_comments(text))] + [(n, n)]


def _positioned(text: str, e: _Error) -> ParseError:
    msg, i = e.args
    return ParseError(msg, *_line_col(text, _token_spans(text)[i][0]))


def is_name(text: str) -> bool:
    """Whether ``text`` is a name the parser accepts for a process,
    variable or procedure: one identifier token, not a keyword."""
    return text.isascii() and text.isidentifier() and text not in RESERVED


def _canonical(path: Path) -> tuple:
    """``path`` with each run of "cont" segments replaced by its length."""
    out: list = []
    for seg, run in groupby(path):
        if seg == "cont":
            out.append(len(list(run)))
        else:
            out.extend(run)
    return tuple(out)


class SourceUnit:
    """A parsed choreography source with per-node source spans.

    Keys are canonical paths (see the module docstring).  ``spines`` maps
    the key of each spine's first node to the index of the first token
    of each of its nodes and the index of the last token they share;
    ``blocks`` holds the first and last token indices of the whole
    program and of each procedure definition.  ``span_for`` turns them
    into lines and columns, locating the tokens in ``text`` on its first
    call and keeping them in ``_spans``.
    """

    __slots__ = ("path", "text", "program", "spines", "blocks", "_spans")

    def __init__(
        self, path: str, text: str, program: ChorProgram,
        spines: Dict[tuple, Tuple[List[int], int]], blocks: Dict[tuple, Tuple[int, int]],
    ) -> None:
        self.path, self.text, self.program = path, text, program
        self.spines, self.blocks = spines, blocks
        self._spans: Optional[List[Tuple[int, int]]] = None

    def _tokens(self, key: tuple) -> Optional[Tuple[int, int]]:
        """First and last token indices of the node at canonical ``key``."""
        hit = self.blocks.get(key)
        if hit is not None:
            return hit
        k = key[-1] if key and type(key[-1]) is int else 0
        spine = self.spines.get(key[:-1] if k else key)
        if spine is None or k >= len(spine[0]):
            return None
        return spine[0][k], spine[1]

    def span_for(self, path: Path) -> Optional[Span]:
        """Span at ``path``, falling back to the nearest enclosing node."""
        key = _canonical(path)
        hit = self._tokens(key)
        while hit is None and key:
            # drop the last segment: one "cont" of a run, or a whole name
            last = key[-1]
            key = key[:-1] + (last - 1,) if type(last) is int and last > 1 else key[:-1]
            hit = self._tokens(key)
        if hit is None:
            return None
        if self._spans is None:
            self._spans = _token_spans(self.text)
        first, last = hit
        return Span(
            *_line_col(self.text, self._spans[first][0]),
            *_line_col(self.text, self._spans[last][1] - 1),
        )


_COMPARISONS = {"==": Eq, "<=": Le, "<": Lt}


class _Parser:
    """Recursive descent over the token texts of ``_token_texts``.  A
    token's kind is read from its text: an identifier, an integer literal
    (``str.isdigit``), a punctuator, or "" at the end of the input.

    Sequences (interaction spines, behaviour prefixes) are parsed in a
    loop and built back to front, so recursion depth is the nesting
    depth of conditionals, branches and parentheses."""

    def __init__(self, text: str):
        self.texts = _token_texts(text)
        self.i = 0
        self.spines: Dict[tuple, Tuple[List[int], int]] = {}
        self.blocks: Dict[tuple, Tuple[int, int]] = {}

    # -- plumbing ----------------------------------------------------

    def fail(self, msg: str) -> _Error:
        return _Error(msg, self.i)

    def expected(self, what: str) -> _Error:
        found = self.texts[self.i] or "end of input"
        return self.fail(f"expected {what}, found {found!r}")

    def expect(self, text: str) -> None:
        if self.texts[self.i] != text:
            raise self.expected(repr(text))
        self.i += 1

    def ident(self, what: str) -> str:
        i = self.i
        t = self.texts[i]
        if not t.isidentifier() or t in RESERVED:
            raise self.expected(what)
        self.i = i + 1
        return t

    def label(self) -> str:
        t = self.texts[self.i]
        if t not in LABELS:
            raise self.fail("expected 'left' or 'right'")
        self.i += 1
        return t

    # -- expressions -------------------------------------------------

    def expr(self) -> Expr:
        e = self.term()
        texts = self.texts
        while True:
            op = texts[self.i]
            if op == "+":
                self.i += 1
                e = Add(e, self.term())
            elif op == "-":
                self.i += 1
                e = Sub(e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while self.texts[self.i] == "*":
            self.i += 1
            e = Mul(e, self.factor())
        return e

    def factor(self) -> Expr:
        i = self.i
        t = self.texts[i]
        if t.isdigit():
            self.i = i + 1
            return Lit(int(t))
        if t.isidentifier() and t not in RESERVED:
            self.i = i + 1
            return VarRef(t)
        if t == "(":
            self.i = i + 1
            e = self.expr()
            self.expect(")")
            return e
        raise self.expected("expression")

    def bexpr(self) -> BExpr:
        b = self.batom()
        while self.texts[self.i] == "&&":
            self.i += 1
            b = And(b, self.batom())
        return b

    def batom(self) -> BExpr:
        i = self.i
        t = self.texts[i]
        if t == "true":
            self.i = i + 1
            return TRUE
        if t == "false":
            self.i = i + 1
            return FALSE
        if t == "!":
            self.i = i + 1
            return Not(self.batom())
        # A "(" is ambiguous: parenthesised comparison operand versus
        # parenthesised boolean.  Try the comparison reading, backtrack.
        try:
            lhs = self.expr()
            cmp = _COMPARISONS.get(self.texts[self.i])
            if cmp is not None:
                self.i += 1
                return cmp(lhs, self.expr())
        except _Error:
            pass
        self.i = i
        if t == "(":
            self.i = i + 1
            b = self.bexpr()
            self.expect(")")
            return b
        raise self.expected("boolean expression")

    # -- choreographies ----------------------------------------------

    def chor(self, root: tuple) -> Choreography:
        """The spine whose first node is at canonical path ``root``."""
        texts = self.texts
        starts: List[int] = []
        etas: List[Eta] = []
        while True:
            i = self.i
            t = texts[i]
            starts.append(i)
            if t == "end":
                self.i = i + 1
                c: Choreography = CHOR_END
                break
            if t == "if":
                self.i = i + 1
                pid = self.ident("process name")
                self.expect(".")
                guard = self.bexpr()
                self.expect("then")
                self.expect("{")
                here = root + (len(etas),) if etas else root
                then_c = self.chor(here + ("then",))
                self.expect("}")
                self.expect("else")
                self.expect("{")
                else_c = self.chor(here + ("else",))
                self.expect("}")
                c = Cond(pid, guard, then_c, else_c)
                break
            if t == "call":
                self.i = i + 1
                c = Call(self.ident("procedure name"))
                break
            etas.append(self.eta())
            self.expect(";")
        self.spines[root] = (starts, self.i - 1)
        for eta in reversed(etas):
            c = Interaction(eta, c)
        return c

    def eta(self) -> Eta:
        sender = self.ident("process name")
        t = self.texts[self.i]
        if t == ".":
            self.i += 1
            e = self.expr()
            self.expect("->")
            recv = self.ident("process name")
            self.expect(".")
            return CommEta(sender, e, recv, self.ident("variable name"))
        if t == "->":
            self.i += 1
            recv = self.ident("process name")
            self.expect("[")
            lab = self.label()
            self.expect("]")
            return SelectEta(sender, recv, lab)
        raise self.fail("expected '.' or '->' after process name")

    def program(self) -> ChorProgram:
        texts = self.texts
        procs: Dict[str, ProcDef] = {}
        while texts[self.i] == "def":
            start = self.i
            self.i += 1
            name = self.ident("procedure name")
            if name in procs:
                raise _Error(f"duplicate definition of {name}", start)
            self.expect("(")
            params = [self.ident("process name")]
            while texts[self.i] == ",":
                self.i += 1
                params.append(self.ident("process name"))
            self.expect(")")
            self.expect("{")
            body = self.chor(("def", name))
            self.expect("}")
            self.blocks[("def", name)] = (start, self.i - 1)
            procs[name] = ProcDef(tuple(params), body)
        self.expect("main")
        self.expect("{")
        main = self.chor(("main",))
        self.expect("}")
        if texts[self.i]:
            raise self.fail(f"unexpected {texts[self.i]!r} after main block")
        self.blocks[()] = (0, self.i - 1)
        return ChorProgram(procs, main)

    # -- behaviours --------------------------------------------------

    def behaviour(self) -> Behaviour:
        """A chain of sends, receives and selections, parsed in a loop,
        then the term that ends it."""
        texts = self.texts
        prefix: list = []  # (constructor, peer, field) for each action
        while True:
            t = texts[self.i]
            if t == "end":
                self.i += 1
                b: Behaviour = SP_END
                break
            if t == "if":
                self.i += 1
                guard = self.bexpr()
                self.expect("then")
                self.expect("{")
                then_b = self.behaviour()
                self.expect("}")
                self.expect("else")
                self.expect("{")
                else_b = self.behaviour()
                self.expect("}")
                b = SpCond(guard, then_b, else_b)
                break
            if t == "call":
                self.i += 1
                name = self.ident("procedure name")
                self.expect("@")
                b = SpCall((name, self.ident("process name")))
                break
            peer = self.ident("process name")
            op = texts[self.i]
            if op == "!":
                self.i += 1
                prefix.append((Send, peer, self.expr()))
            elif op == "?":
                self.i += 1
                prefix.append((Recv, peer, self.ident("variable name")))
            elif op == "(+)":
                self.i += 1
                prefix.append((SelectSend, peer, self.label()))
            elif op == "&":
                self.i += 1
                self.expect("{")
                opts: Dict[str, Behaviour] = {}
                if texts[self.i] != "}":
                    self.branch_option(opts)
                    if texts[self.i] == ",":
                        self.i += 1
                        self.branch_option(opts)
                self.expect("}")
                b = Branch(peer, opts.get("left"), opts.get("right"))
                break
            else:
                raise self.fail("expected '!', '?', '(+)' or '&' after process name")
            self.expect(";")
        for make, peer, x in reversed(prefix):
            b = make(peer, x, b)
        return b

    def branch_option(self, opts: Dict[str, Behaviour]) -> None:
        lab = self.texts[self.i]
        if lab not in LABELS:
            raise self.fail("expected 'left' or 'right'")
        if lab in opts:
            raise self.fail(f"duplicate {lab} option")
        self.i += 1
        self.expect(":")
        opts[lab] = self.behaviour()


def parse(text: str, path: str = "<string>") -> SourceUnit:
    """Parse a choreography source file into a program with spans."""
    try:
        p = _Parser(text)
        program = p.program()
    except _Error as e:
        raise _positioned(text, e) from None
    return SourceUnit(path, text, program, p.spines, p.blocks)


def parse_behaviour(text: str) -> Behaviour:
    try:
        p = _Parser(text)
        b = p.behaviour()
        if p.texts[p.i]:
            raise p.fail(f"unexpected {p.texts[p.i]!r} after behaviour")
    except _Error as e:
        raise _positioned(text, e) from None
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
    out: List[str] = []
    _print_behaviour(b, out)
    return "".join(out)


def _print_behaviour(b: Behaviour, out: List[str]) -> None:
    while True:
        t = type(b)
        if t is Send:
            out.append(f"{b.peer}!{print_expr(b.expr)}; ")
        elif t is Recv:
            out.append(f"{b.peer}?{b.var}; ")
        elif t is SelectSend:
            out.append(f"{b.peer}(+){b.label}; ")
        else:
            break
        b = b.cont
    if t is SpEnd:
        out.append("end")
    elif t is Branch:
        out.append(f"{b.peer} & {{ ")
        if b.on_left is not None:
            out.append("left: ")
            _print_behaviour(b.on_left, out)
        if b.on_right is not None:
            out.append(", right: " if b.on_left is not None else "right: ")
            _print_behaviour(b.on_right, out)
        out.append("}" if b.on_left is None and b.on_right is None else " }")
    elif t is SpCond:
        out.append(f"if {print_bexpr(b.guard)} then {{ ")
        _print_behaviour(b.then_b, out)
        out.append(" } else { ")
        _print_behaviour(b.else_b, out)
        out.append(" }")
    else:
        assert t is SpCall
        name, pid = b.name
        out.append(f"call {name}@{pid}")
