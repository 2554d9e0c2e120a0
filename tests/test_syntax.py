"""Surface syntax: tokenizer, parser, spans, and the printers."""

import random
import re

import pytest
from conftest import CORPUS, PROJECTABLE, load
from hypothesis import given, settings
from hypothesis import strategies as st
from syntax_reference import reference_tokenize

from chorkit.chor import Call as ChorCall
from chorkit.chor import CommEta, Cond as ChorCond, Interaction, RunningCall
from chorkit.chor import End as ChorEnd
from chorkit.core import Add, And, Eq, Le, Lit, Lt, Mul, Not, Sub, VarRef
from chorkit.net import Branch, Call, Cond, Recv, SP_END, SelectSend, Send
from chorkit.smallterms import behaviour_space
from chorkit.syntax import (
    ParseError,
    Span,
    _line_col,
    parse,
    parse_behaviour,
    print_behaviour,
    print_bexpr,
    print_choreography,
    print_expr,
    tokenize,
)


class TestExpressions:
    def test_precedence_parse(self):
        p = parse("main { p.1 + 2 * 3 -> q.x; end }")
        expr = p.program.main.eta.expr
        assert expr == Add(Lit(1), Mul(Lit(2), Lit(3)))

    def test_left_associativity(self):
        p = parse("main { p.1 - 2 - 3 -> q.x; end }")
        assert p.program.main.eta.expr == Sub(Sub(Lit(1), Lit(2)), Lit(3))

    def test_print_uses_minimal_parens(self):
        assert print_expr(Add(Lit(1), Mul(Lit(2), Lit(3)))) == "1 + 2 * 3"
        assert print_expr(Mul(Add(Lit(1), Lit(2)), Lit(3))) == "(1 + 2) * 3"
        assert print_expr(Sub(Lit(1), Sub(Lit(2), Lit(3)))) == "1 - (2 - 3)"
        assert print_expr(Sub(Sub(Lit(1), Lit(2)), Lit(3))) == "1 - 2 - 3"

    def test_negative_literals(self):
        p = parse("main { p.0 - 5 -> q.x; end }")
        assert p.program.main.eta.expr == Sub(Lit(0), Lit(5))


class TestBooleanExpressions:
    def test_guard_forms(self):
        src = "main { if p.!(x <= 1) && x < 10 then { end } else { end } }"
        guard = parse(src).program.main.guard
        assert guard == And(Not(Le(VarRef("x"), Lit(1))), Lt(VarRef("x"), Lit(10)))

    def test_parenthesised_comparison_backtracks(self):
        src = "main { if p.(x == 1) && y == 0 then { end } else { end } }"
        guard = parse(src).program.main.guard
        assert guard == And(Eq(VarRef("x"), Lit(1)), Eq(VarRef("y"), Lit(0)))

    def test_print_bexpr(self):
        assert print_bexpr(Not(Eq(VarRef("x"), Lit(1)))) == "!(x == 1)"
        assert (
            print_bexpr(And(Not(Le(VarRef("x"), Lit(1))), Lt(VarRef("x"), Lit(10))))
            == "!(x <= 1) && x < 10"
        )

    def test_single_equals_is_rejected(self):
        with pytest.raises(ParseError) as e:
            tokenize("main { if p.x = 1 then { end } else { end } }")
        assert "==" in str(e.value)


class TestChoreographyParsing:
    def test_auth_main_shape(self):
        su = load("auth")
        main = su.program.main
        assert type(main) is Interaction
        assert main.eta == CommEta("c", VarRef("credentials"), "ip", "x")
        assert type(main.cont) is ChorCond
        assert main.cont.pid == "ip"

    def test_procedure_definitions(self):
        su = load("filetransfer")
        d = su.program.procs["FileTransfer"]
        assert d.params == ("c", "s")
        assert type(d.body) is Interaction
        assert su.program.main == ChorCall("FileTransfer")

    def test_duplicate_definition_rejected(self):
        src = "def X(p) { end }\ndef X(p) { end }\nmain { end }"
        with pytest.raises(ParseError) as e:
            parse(src)
        assert "X" in str(e.value)

    def test_reserved_words_cannot_name_processes(self):
        with pytest.raises(ParseError):
            parse("main { if.1 -> q.x; end }")

    def test_errors_carry_positions(self):
        with pytest.raises(ParseError) as e:
            parse("main {\n  c.1 -> ip.x\n  end\n}")
        err = e.value
        assert err.line == 3
        assert str(err).startswith(f"line {err.line}, col {err.col}: ")

    def test_missing_main_rejected(self):
        with pytest.raises(ParseError):
            parse("def X(p) { end }")

    def test_end_of_input_is_named(self):
        # an empty file, and a file cut off before its last "}"
        with pytest.raises(ParseError) as e:
            parse("")
        assert str(e.value) == "line 1, col 1: expected 'main', found 'end of input'"
        with pytest.raises(ParseError) as e:
            parse("main {\n  p.1 -> q.x;\n  end\n")
        assert str(e.value) == "line 4, col 1: expected '}', found 'end of input'"

    def test_integer_literals_are_ascii_digits(self):
        with pytest.raises(ParseError) as e:
            parse("main { p.\u0663 -> q.x; end }")
        assert str(e.value) == "line 1, col 10: unexpected character '\u0663'"


class TestSpans:
    def test_paths_map_to_source_positions(self):
        su = load("auth_noselect")
        cond = su.span_for(("main", "cont"))
        assert (cond.line, cond.col) == (7, 3)
        first = su.span_for(("main",))
        assert (first.line, first.col) == (6, 3)

    def test_lookup_walks_to_enclosing_node(self):
        su = load("auth_noselect")
        deep = su.span_for(("main", "cont", "then", "cont", "made", "up"))
        assert (deep.line, deep.col) == (9, 5)


class TestPositions:
    """Lines and columns pinned for the layouts that column counting can get
    wrong.  Columns count characters: a tab is one, and a CR is the last
    character of its line."""

    @staticmethod
    def error(text):
        with pytest.raises(ParseError) as e:
            parse(text)
        return str(e.value)

    def test_crlf_line_endings(self):
        su = parse("main {\r\n  p.1 -> q.x;\r\n  end\r\n}\r\n")
        assert su.span_for(("main",)) == Span(2, 3, 3, 5)
        text = "main {\r\n  p.1 -> q.x\r\n  end\r\n}\r\n"
        assert self.error(text) == "line 3, col 3: expected ';', found 'end'"

    def test_tab_before_a_token(self):
        su = parse("main {\n\tp.1 -> q.x;\n\tend\n}\n")
        assert su.span_for(("main", "cont")) == Span(3, 2, 3, 4)
        assert self.error("main {\n\t\t$") == "line 2, col 3: unexpected character '$'"

    def test_no_trailing_newline(self):
        assert parse("main {\n  end\n}").span_for(()) == Span(1, 1, 3, 1)
        assert self.error("main {\n  end") == (
            "line 2, col 6: expected '}', found 'end of input'"
        )

    def test_trailing_comment_without_newline(self):
        assert parse("main { end }\n// done").span_for(()) == Span(1, 1, 1, 12)
        assert self.error("main { end\n// no brace") == (
            "line 2, col 12: expected '}', found 'end of input'"
        )

    def test_end_of_input_after_trailing_newline(self):
        assert self.error("main {\n  end\n") == (
            "line 3, col 1: expected '}', found 'end of input'"
        )

    def test_unexpected_character_in_column_one(self):
        assert self.error("main {\n  end\n$}\n") == (
            "line 3, col 1: unexpected character '$'"
        )

    def test_span_of_multi_line_conditional(self):
        su = parse(
            "main {\n"
            "  c.1 -> s.x;\n"
            "  if s.x == 1 then {\n"
            "    end\n"
            "  } else {\n"
            "    s.2 -> c.y;\n"
            "    end\n"
            "  }\n"
            "}\n"
        )
        assert su.span_for(("main", "cont")) == Span(3, 3, 8, 3)
        assert su.span_for(("main", "cont", "else")) == Span(6, 5, 7, 7)


# Single edits applied to the corpus: each inserts, replaces or deletes one
# character, using characters that shift lines and columns or that the
# tokenizer rejects.  No non-ASCII digits: those differ on purpose.
_EDITS = ["=", "#", "\u00e9", "\r\n", "\t", ";", "}", "->", "x", " "]

# Text a token stream may skip: whitespace and "//" comments.
_GAP_RE = re.compile(r"(?:[ \t\r\n]+|//[^\n]*)*")

_CHUNKS = [" ", "\t", "\n", "\r\n", "//", "/", "=", "==", "<", "<=", "->", "-",
           ">", "(+)", "(", ")", "+", "{", "}", ";", "x", "p1", "_a", "12", "0",
           "&&", "&", "!", ".", "#", "end"]


def _mutations(n, seed=0):
    rng = random.Random(seed)
    texts = [p.read_text(encoding="utf-8") for p in sorted(CORPUS.glob("*.chor"))]
    for _ in range(n):
        t = rng.choice(texts)
        k = rng.randrange(len(t) + 1)
        op = rng.choice("ird")
        if op == "d":
            yield t[:k] + t[k + 1:]
        else:
            yield t[:k] + rng.choice(_EDITS) + t[k + (op == "r"):]


def _assert_same_as_reference(text):
    try:
        ref = reference_tokenize(text)
    except ParseError as e:
        with pytest.raises(ParseError) as live:
            tokenize(text)
        assert (live.value.msg, live.value.line, live.value.col) == (e.msg, e.line, e.col)
        return
    toks = tokenize(text)
    assert [(t.kind, t.text) for t in toks] == [(r.kind, r.text) for r in ref]
    for t, r in zip(toks, ref):
        assert _line_col(text, t.pos) == (r.line, r.col), t
        if t.kind != "eof":
            last = _line_col(text, t.pos + len(t.text) - 1)
            assert last == (r.end_line, r.end_col), t


class TestAgainstReference:
    """``tokenize`` and the position helper against the frozen line/column
    tokenizer in ``syntax_reference.py``: same tokens, each starting and
    ending where the reference says, and the same errors."""

    @pytest.mark.parametrize("name", sorted(f.stem for f in CORPUS.glob("*.chor")))
    def test_corpus(self, name):
        _assert_same_as_reference((CORPUS / f"{name}.chor").read_text(encoding="utf-8"))

    def test_mutations(self):
        failing = 0
        for i, text in enumerate(_mutations(2400)):
            try:
                reference_tokenize(text)
            except ParseError:
                failing += 1
            _assert_same_as_reference(text)
        # the edits reach both of the tokenizer's errors and its success path
        assert 0 < failing < 2400

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from(_CHUNKS)).map("".join)
        | st.text(st.characters(max_codepoint=127))
    )
    def test_offsets_cover_the_text(self, text):
        try:
            toks = tokenize(text)
        except ParseError:
            return
        prev, end = -1, 0
        for t in toks:
            assert t.pos > prev
            assert text[t.pos : t.pos + len(t.text)] == t.text
            assert _GAP_RE.fullmatch(text, end, t.pos), (text, t)
            prev, end = t.pos, t.pos + len(t.text)
        assert toks[-1] == ("eof", "", len(text))


class TestBehaviourSyntax:
    def test_forms(self):
        assert parse_behaviour("q!x + 1; end") == Send(
            "q", Add(VarRef("x"), Lit(1)), SP_END
        )
        assert parse_behaviour("q?x; end") == Recv("q", "x", SP_END)
        assert parse_behaviour("q(+)left; end") == SelectSend("q", "left", SP_END)
        assert parse_behaviour("q & { left: end }") == Branch("q", SP_END, None)
        assert parse_behaviour("call X@p") == Call(("X", "p"))

    def test_duplicate_branch_label_rejected(self):
        with pytest.raises(ParseError):
            parse_behaviour("q & { left: end, left: end }")

    def test_print_forms(self):
        assert print_behaviour(Branch("q", SP_END, None)) == "q & { left: end }"
        assert print_behaviour(Branch("q", None, None)) == "q & { }"
        assert (
            print_behaviour(
                Cond(Eq(VarRef("x"), Lit(0)), Send("q", Lit(1), SP_END), SP_END)
            )
            == "if x == 0 then { q!1; end } else { end }"
        )


class TestRoundTrips:
    def test_enumerated_behaviours(self):
        space = behaviour_space(2)
        for b in space:
            assert parse_behaviour(print_behaviour(b)) == b

    def test_sampled_depth3_behaviours(self):
        space = behaviour_space(3)
        for b in space[::97]:
            assert parse_behaviour(print_behaviour(b)) == b

    def test_corpus_choreographies(self):
        for path in sorted(CORPUS.glob("*.chor")):
            su = parse(path.read_text(), str(path))
            printed = print_choreography(su.program)
            assert parse(printed).program == su.program, path.name

    def test_pending_calls_have_no_syntax(self):
        from chorkit.chor import ChorProgram

        p = ChorProgram({}, RunningCall("X", ("p",), ChorEnd()))
        with pytest.raises(ValueError):
            print_choreography(p)
