"""Surface syntax: lexer, parser, spans, and the printers."""

import inspect
import random
import re
import textwrap

import pytest
from conftest import AUTH_CLIENT, AUTH_PROVIDER, AUTH_SERVER, CORPUS, PROJECTABLE, load
from hypothesis import given, settings
from hypothesis import strategies as st
from syntax_reference import (
    reference_parse,
    reference_print_behaviour,
    reference_span_for,
    reference_token_texts,
    reference_tokenize,
)
from test_checker import GENERATED

from chorkit.chor import Call as ChorCall
from chorkit.chor import CommEta, Cond as ChorCond, Interaction, RunningCall, subterms
from chorkit.chor import End as ChorEnd
from chorkit.core import Add, And, Eq, Le, Lit, Lt, Mul, Not, Sub, VarRef
from chorkit.net import Branch, Call, Cond, Recv, SP_END, SelectSend, Send
from chorkit import syntax
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
)


def _kind(t):
    return "eof" if not t else "ident" if t.isidentifier() else "int" if t.isdigit() else "punct"


def _lex_error(text):
    """The ``ParseError`` the parser reports for a text its lexer rejects."""
    with pytest.raises(syntax._Error) as e:
        syntax._token_texts(text)
    return syntax._positioned(text, e.value)


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
        assert "==" in str(_lex_error("main { if p.x = 1 then { end } else { end } }"))


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
        live = _lex_error(text)
        assert (live.msg, live.line, live.col) == (e.msg, e.line, e.col)
        return
    texts, spans = syntax._token_texts(text), syntax._token_spans(text)
    assert [(_kind(t), t) for t in texts] == [(r.kind, r.text) for r in ref]
    assert len(spans) == len(texts)
    for t, (start, end), r in zip(texts, spans, ref):
        assert _line_col(text, start) == (r.line, r.col), t
        if t:
            assert _line_col(text, end - 1) == (r.end_line, r.end_col), t


class TestAgainstReference:
    """The lexer's token texts and offsets, and its errors as positioned,
    against the frozen line/column tokenizer in ``syntax_reference.py``:
    same tokens, each starting and ending where the reference says, and
    the same errors."""

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
            texts = syntax._token_texts(text)
        except syntax._Error:
            return
        spans = syntax._token_spans(text)
        assert len(spans) == len(texts)
        prev, end = -1, 0
        for t, (start, stop) in zip(texts, spans):
            assert start > prev
            assert text[start:stop] == t
            assert _GAP_RE.fullmatch(text, end, start), (text, t)
            prev, end = start, stop
        assert texts[-1] == "" and spans[-1] == (len(text), len(text))


# Choreography sources for the parser's differential test: procedures,
# conditionals nested a few deep, and spines up to a few hundred
# interactions, laid out with every kind of gap the lexer skips.
_GAPS = [" ", "  ", "\n", "\n  ", "\t", "\r\n", " // note\n", "\n// line\n"]
_EXPRS = ["1", "x", "(x + 2)", "x * 3 - 1", "(y - (x * 2))", "10"]
_GUARDS = ["x == 1", "x < y + 1", "(x) <= 2", "(x == 1)", "!(x < 2) && true", "false"]


def _program_source(rnd: random.Random, main_spine: int, depth: int, pool: int = 0) -> str:
    """A random program; with ``pool``, every statement is one of ``pool``
    statements drawn first."""
    gap = lambda: rnd.choice(_GAPS)
    pid = lambda: rnd.choice("pqr")

    def fresh():
        if rnd.random() < 0.8:
            return f"{pid()}.{rnd.choice(_EXPRS)} -> {pid()}.{rnd.choice('xy')}"
        return f"{pid()} -> {pid()}[{rnd.choice(('left', 'right'))}]"

    drawn = [fresh() for _ in range(pool)]
    eta = (lambda: rnd.choice(drawn)) if pool else fresh

    def body(spine, depth):
        parts = [eta() + ";" for _ in range(spine)]
        r = rnd.random()
        if depth and r < 0.6:
            branches = [body(rnd.choice((0, 1, 3, 40)), depth - 1) for _ in range(2)]
            parts.append(
                f"if {pid()}.{rnd.choice(_GUARDS)} then {{{gap()}{branches[0]}{gap()}}}"
                f"{gap()}else{gap()}{{{gap()}{branches[1]}{gap()}}}"
            )
        else:
            parts.append(rnd.choice(("end", "call X", "call Y")))
        return gap().join(parts)

    names = rnd.sample("XY", rnd.randint(0, 2))
    if names and rnd.random() < 0.1:
        names.append(names[0])  # a duplicate definition: an error
    defs = [
        f"def {name}({', '.join(rnd.sample('pqr', rnd.randint(1, 3)))}){gap()}{{"
        f"{gap()}{body(rnd.randrange(30), depth)}{gap()}}}{gap()}"
        for name in names
    ]
    return "".join(defs) + f"main {{{gap()}{body(main_spine, depth)}{gap()}}}{gap()}"


def _node_paths(program):
    """The path of every node of a program, straight from its terms."""
    out = [()]
    todo = [(("def", name), d.body) for name, d in program.procs.items()]
    todo.append((("main",), program.main))
    while todo:
        path, c = todo.pop()
        out.append(path)
        if type(c) is Interaction:
            todo.append((path + ("cont",), c.cont))
        elif type(c) is ChorCond:
            todo.append((path + ("then",), c.then_c))
            todo.append((path + ("else",), c.else_c))
    return out


def _probe_paths(program):
    """Every node path, and paths past the nodes that exercise the
    fallback to the nearest enclosing node."""
    out = [("nowhere",), ("def", "Undefined"), ("main", "body")]
    for path in _node_paths(program):
        out.append(path)
        if path:
            out.extend(
                [path + ("cont",) * 3, path + ("then", "cont"), path + ("else",),
                 path + ("made", "cont", "up"), path + ("body",)]
            )
    return out


def _span_mismatches(text, unit, ref_program, ref_spans):
    return [
        (path, unit.span_for(path), reference_span_for(text, ref_spans, path))
        for path in _probe_paths(ref_program)
        if unit.span_for(path) != reference_span_for(text, ref_spans, path)
    ]


def _assert_same_as_reference_parser(text, live=parse):
    """Same program, same span at every probed path, or the same error."""
    try:
        ref_program, ref_spans = reference_parse(text)
    except ParseError as e:
        with pytest.raises(ParseError) as err:
            live(text)
        assert (err.value.msg, err.value.line, err.value.col) == (e.msg, e.line, e.col)
        return
    unit = live(text)
    assert unit.program == ref_program
    assert _span_mismatches(text, unit, ref_program, ref_spans) == []


_CORPUS_NAMES = sorted(f.stem for f in CORPUS.glob("*.chor"))


class TestParserAgainstReference:
    """``parse`` against the frozen recursive parser in
    ``syntax_reference.py``: the same program, the same ``span_for`` at
    every node path and past it, and the same errors."""

    @pytest.mark.parametrize("name", _CORPUS_NAMES)
    def test_corpus(self, name):
        _assert_same_as_reference_parser((CORPUS / f"{name}.chor").read_text(encoding="utf-8"))

    def test_mutations(self):
        failing = 0
        for text in _mutations(2400):
            try:
                reference_parse(text)
            except ParseError:
                failing += 1
            _assert_same_as_reference_parser(text)
        # the edits reach errors and successful parses alike
        assert 0 < failing < 2400

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(0, 300), st.integers(0, 3))
    def test_generated(self, rnd, main_spine, depth):
        _assert_same_as_reference_parser(_program_source(rnd, main_spine, depth))

    # Planted faults: the differential check must notice each.

    def test_catches_an_off_by_one_spine_end(self):
        def shifted(text):
            unit = parse(text)
            starts, last = unit.spines[("main",)]
            unit.spines[("main",)] = (starts, last - 1)
            return unit

        for name in _CORPUS_NAMES:
            with pytest.raises(AssertionError):
                _assert_same_as_reference_parser(
                    (CORPUS / f"{name}.chor").read_text(encoding="utf-8"), shifted
                )

    def test_catches_a_wrong_cont_count(self, monkeypatch):
        canonical = syntax._canonical

        def miscounted(path):
            return tuple(x + 1 if type(x) is int and x > 1 else x for x in canonical(path))

        monkeypatch.setattr(syntax, "_canonical", miscounted)
        with pytest.raises(AssertionError):
            _assert_same_as_reference_parser(
                (CORPUS / "auth.chor").read_text(encoding="utf-8")
            )


# The statement memo: within one parse, an interaction statement met
# again is not parsed again.  These sources repeat their statements.


def _tree_source(depth: int) -> str:
    """Conditionals of p ``depth`` deep, each branch told to q, and the same
    four interactions at every leaf."""
    leaf = ["q.(y + 1) -> w.z;", "w.(z + 1) -> u.v;", "u.(v + 1) -> w.z;", "w.(z + 1) -> u.v;"]

    def body(d, pad):
        if d == 0:
            return [pad + line for line in leaf + ["end"]]
        return [
            f"{pad}if p.x < {10 * d} then {{",
            f"{pad}  p -> q[left];", f"{pad}  p.(x + {d}) -> q.y;", *body(d - 1, pad + "  "),
            f"{pad}}} else {{",
            f"{pad}  p -> q[right];", f"{pad}  p.(x - {d}) -> q.y;", *body(d - 1, pad + "  "),
            f"{pad}}}",
        ]

    return "main {\n" + "\n".join(body(depth, "  ")) + "\n}\n"


def _repeating_ring_source(n: int) -> str:
    """A ring of ``n`` interactions on three processes adding ``i mod 7``:
    21 distinct statements."""
    hops = "".join(f"  p{i % 3}.(x + {i % 7}) -> p{(i + 1) % 3}.x;\n" for i in range(n))
    return f"main {{\n{hops}  end\n}}\n"


def _statements(text) -> set:
    """The distinct statements of a source with one statement a line."""
    return {line.strip() for line in text.splitlines() if line.strip().endswith(";")}


# Statements met a second time: with a memoised statement's tokens as a
# prefix and then something else, or with an error.
_REPEATS = [
    "main { p.x -> q.y; p.x -> q.y z; end }",
    "main { p.x -> q.y; p.x -> q.y.z; end }",
    "main { p.x -> q.y; p.x -> q.y -> r.z; end }",
    "main { p.(x + 1) -> q.y; p.(x + 1) * 2 -> q.y; end }",
    "main { p.x -> q.y; p.x -> q.yy; p.x -> q.y; end }",
    "main { p -> q[left]; p -> q[left] x; end }",
    "main { p -> q[left]; p -> q[right]; p -> q[left]]; end }",
    "main { p.x -> q.y; p.x -> q.y end }",
    "main { p.x -> q.y; p.x -> q.y }",
    "main { p.x -> q.y; p.x -> q.y",
    "main { p.x -> q.y; p.x -> q.; end }",
    "main { p.x -> q.y; p.x -> q.y; ; end }",
    "main { p.(x + 1) -> q.y; p.(x + 1 -> q.y; end }",
    "main { p -> q[left]; p -> q[left]; p -> q[left; end }",
    "def X(p, q) { p.x -> q.y; end } main { p.x -> q.y; p.x -> q.y call X }",
    "main { p.x -> q.y; if p.x == 1 then { p.x -> q.y; end } else { p.x -> q.y } }",
    "main { p.x -> q.y; p.x -> q.y; p.x -> q.y; end } p.x -> q.y;",
]


def _repetitive_sources(n: int, seed: int = 0):
    """Generated programs drawing every statement from a pool of four, as
    they are and with one edit inside the text's second half, where the
    statements have mostly been met before."""
    rnd = random.Random(seed)
    edits = ["", "x", ";", "->", ".", "(", ")", "[left]", " 1", "*", "]", "end"]
    for _ in range(n):
        text = _program_source(rnd, rnd.randrange(1, 60), rnd.randrange(3), pool=4)
        yield text
        k = rnd.randrange(len(text) // 2, len(text) + 1)
        yield text[:k] + rnd.choice(edits) + text[k + rnd.randrange(3):]


def _planted_chor(old: str, new: str):
    """``_Parser.chor`` with its one line holding ``old`` changed to ``new``."""
    source = textwrap.dedent(inspect.getsource(syntax._Parser.chor))
    assert source.count(old) == 1, old
    scope: dict = {}
    exec(source.replace(old, new), vars(syntax), scope)
    return scope["chor"]


def _memo_sweep():
    """Every memo test source against the reference."""
    for text in _REPEATS:
        _assert_same_as_reference_parser(text)
    for text in _repetitive_sources(150):
        _assert_same_as_reference_parser(text)


class TestStatementMemo:
    def test_repeats_and_generated_sources_against_the_reference(self):
        _memo_sweep()
        for text in (_tree_source(5), _repeating_ring_source(300)):
            _assert_same_as_reference_parser(text)

    def test_generated_sources_reach_errors_and_successes(self):
        outcomes = set()
        for text in _repetitive_sources(150):
            try:
                reference_parse(text)
                outcomes.add("parsed")
            except ParseError:
                outcomes.add("error")
        assert outcomes == {"parsed", "error"}

    def test_eta_runs_once_per_distinct_statement(self, monkeypatch):
        calls = []
        original = syntax._Parser.eta
        monkeypatch.setattr(syntax._Parser, "eta", lambda self: calls.append(1) or original(self))
        for text, distinct in ((_tree_source(5), 15), (_repeating_ring_source(300), 21)):
            calls.clear()
            program = parse(text).program
            assert len(_statements(text)) == distinct == len(calls)
            # equal statements share one Eta object
            etas = {id(c.eta) for c in subterms(program.main) if type(c) is Interaction}
            assert len(etas) == distinct

    # Planted faults: the sweep must notice each.

    def test_catches_a_key_without_the_last_token(self, monkeypatch):
        chor = _planted_chor("key = tuple(texts[i:j])", "key = tuple(texts[i:j - 1])")
        monkeypatch.setattr(syntax._Parser, "chor", chor)
        with pytest.raises((AssertionError, pytest.fail.Exception)):
            _memo_sweep()

    def test_catches_a_memo_answering_for_a_statement_read_short(self, monkeypatch):
        chor = _planted_chor("if self.i != j:", "if False:")
        monkeypatch.setattr(syntax._Parser, "chor", chor)
        with pytest.raises((AssertionError, pytest.fail.Exception)):
            _memo_sweep()

    def test_planted_chor_unchanged_parses_alike(self, monkeypatch):
        # the planting itself changes nothing but the line it replaces
        chor = _planted_chor("if self.i != j:", "if self.i != j:")
        monkeypatch.setattr(syntax._Parser, "chor", chor)
        _memo_sweep()


def _ring_source(n: int) -> str:
    """main on line 1, then interaction i on line i + 2."""
    hops = "".join(f"p{i % 3}.(x + {i}) -> p{(i + 1) % 3}.x;\n" for i in range(n))
    return f"main {{\n{hops}end\n}}\n"


def span_key_size(unit) -> int:
    """Path segments in every span key, plus one per stored offset."""
    spines = sum(len(key) + len(starts) + 1 for key, (starts, _last) in unit.spines.items())
    return spines + sum(len(key) + 2 for key in unit.blocks)


class TestScaling:
    def test_long_ring_at_the_default_recursion_limit(self, default_recursion_limit):
        unit = parse(_ring_source(10_000))
        last = unit.span_for(("main",) + ("cont",) * 9_999)
        assert (last.line, last.col, last.end_line) == (10_001, 1, 10_002)
        assert unit.span_for(("main",) + ("cont",) * 10_000) == Span(10_002, 1, 10_002, 3)

    def test_span_keys_grow_linearly(self):
        small = span_key_size(parse(_ring_source(2_000)))
        large = span_key_size(parse(_ring_source(4_000)))
        assert large <= 2.1 * small


class TestLazyPositions:
    """Where tokens are in the text is worked out only when a span or an
    error is read, and then once per parse."""

    @pytest.fixture
    def calls(self, monkeypatch):
        count = [0]
        original = syntax._token_spans

        def counted(text):
            count[0] += 1
            return original(text)

        monkeypatch.setattr(syntax, "_token_spans", counted)
        return count

    def test_successful_parse_locates_no_token(self, calls):
        parse(_ring_source(10_000))
        assert calls[0] == 0

    def test_spans_locate_the_tokens_once(self, calls):
        unit = parse(_ring_source(10_000))
        assert unit.span_for(("main",) + ("cont",) * 5_000) == Span(5_002, 1, 10_002, 3)
        assert calls[0] == 1
        unit.span_for(())
        unit.span_for(("main",) + ("cont",) * 10_000)
        assert calls[0] == 1

    def test_parse_error_locates_the_tokens_once(self, calls):
        with pytest.raises(ParseError) as e:
            parse(_ring_source(10_000).replace("end", "p0.1 -> p1.x end"))
        assert str(e.value) == "line 10002, col 14: expected ';', found 'end'"
        assert calls[0] == 1


# Characters str.split splits on that the grammar rejects: the six ASCII
# ones beyond [ \t\r\n], then non-ASCII spaces and line separators.
_SPLIT_BLANKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
                 "\x85", "\xa0", "\u1680", "\u2000", "\u2028", "\u3000"]
# Each form repeats its chunks, so that with a plain space for BLANK it
# is lexed chunk by chunk.  A blank inside a comment is no error.
_BLANK_FORMS = {
    form.replace("REP", "p.1 -> q.x; " * 12): in_comment
    for form, in_comment in (
        ("main { REP p.1 ->BLANKq.x; end }", False), ("main { REP p.1 -> qBLANK.x; end }", False),
        ("main { REP p.1 -> q.x;BLANK end }", False), ("BLANKmain { REP end }", False),
        ("main { REP end }BLANK", False), ("REP xBLANKy", False), ("REP BLANK", False),
        ("main { REP // aBLANKb\n end }", True), ("// BLANK\nmain { REP end }", True),
        ("main { REP end } //BLANK", True),
    )
}


def _chunked(text) -> bool:
    """Whether at most half the chunks of ``text`` are distinct, so that
    it is lexed chunk by chunk unless it holds a rejected blank."""
    chunks = syntax._blank_comments(text).split()
    return 2 * len(set(chunks)) <= len(chunks)


def _assert_same_texts(text) -> bool:
    """The live lexer gives the frozen one-``findall`` lexer's token list,
    or the same error, positioned as the frozen tokenizer positions it;
    True if the text was accepted."""
    try:
        ref = reference_token_texts(text)
    except syntax._Error as e:
        with pytest.raises(syntax._Error) as live:
            syntax._token_texts(text)
        assert live.value.args == e.args
        positioned = syntax._positioned(text, live.value)
        with pytest.raises(ParseError) as frozen:
            reference_tokenize(text)
        assert (positioned.msg, positioned.line, positioned.col) == (
            frozen.value.msg, frozen.value.line, frozen.value.col
        )
        return False
    assert syntax._token_texts(text) == ref
    return True


def _random_text(rng: random.Random) -> str:
    """Up to 60 picks from 6 random words and 6 gaps, so chunks repeat."""
    chars = "abxyzAX_019.;{}()[],!+-*?:@<&=/#"
    words = ["".join(rng.choice(chars) for _ in range(rng.randint(1, 4))) for _ in range(6)]
    gaps = [rng.choice([" ", "\t", "\n", "\r", "", *_SPLIT_BLANKS]) for _ in range(6)]
    return "".join(rng.choice(words) + rng.choice(gaps) for _ in range(rng.randrange(60)))


class _CountedRegex:
    """``_TOKEN_RE`` counting its ``findall`` calls."""

    def __init__(self, regex):
        self.regex, self.findall_calls = regex, 0

    def findall(self, text):
        self.findall_calls += 1
        return self.regex.findall(text)

    def finditer(self, text):
        return self.regex.finditer(text)


class TestChunkedLexer:
    """``_token_texts`` searches each distinct whitespace-separated chunk
    once, unless most chunks are distinct or the text holds a blank that
    ``str.split`` splits on and the grammar rejects.  Either way it must
    give the token list of the frozen lexer, which runs one ``findall``
    over the whole text, and its errors."""

    def test_corpus(self):
        for f in sorted(CORPUS.glob("*.chor")):
            text = f.read_text(encoding="utf-8")
            _assert_same_texts(text)
            assert _chunked(text * 3)
            _assert_same_texts(text * 3)

    def test_generated(self):
        for name, p in GENERATED.items():
            if name != "twins-pending":  # a pending call has no surface syntax
                _assert_same_texts(print_choreography(p))
        rnd = random.Random(3)
        for spine, depth in ((0, 0), (5, 3), (300, 1), (40, 3)):
            _assert_same_texts(_program_source(rnd, spine, depth))
        for n in (1, 10, 1_000):
            _assert_same_texts(_ring_source(n))

    @pytest.mark.parametrize("blank", _SPLIT_BLANKS)
    def test_blanks_split_but_rejected(self, blank):
        for form, in_comment in _BLANK_FORMS.items():
            assert _chunked(form.replace("BLANK", " "))
            assert _assert_same_texts(form.replace("BLANK", blank)) == in_comment
            assert _assert_same_texts(form.replace("BLANK", blank * 2 + " ")) == in_comment

    @pytest.mark.parametrize("text", [
        "main {\r\n  p.1 -> q.x;\r\n  end\r\n}\r\n", "main {\r  p.1 -> q.x;\r  end\r}\r",
        "main {\r\n\tp.1\t->\tq.x;\r\tend }", "main { end }", "main { p.1 -> q.x; end }//",
        "", " ", "\n", "\t\r\n", "=", "p.1 = q.x", "main { p.1 -> q.x; = }\n#",
        "x X x.1 X.1 ab aB Ab x X x.1 X.1 ab aB Ab",  # chunks that differ in case
    ])
    def test_line_ends_tabs_and_edges(self, text):
        _assert_same_texts(text)
        _assert_same_texts(text * 4)

    def test_random_texts(self):
        rng = random.Random(29)
        texts = [_random_text(rng) for _ in range(3_000)]
        accepted = sum(map(_assert_same_texts, texts))
        # both the token list and the errors are compared, on both paths
        assert 0 < accepted < 3_000
        assert 0 < sum(map(_chunked, texts)) < 3_000

    def test_one_search_per_distinct_chunk(self, monkeypatch):
        counted = _CountedRegex(syntax._TOKEN_RE)
        monkeypatch.setattr(syntax, "_TOKEN_RE", counted)
        text = _ring_source(10_000)
        texts = syntax._token_texts(text)
        assert texts == reference_token_texts(text)
        assert counted.findall_calls == len(set(text.split())) < len(texts) / 3

    def test_one_search_where_most_chunks_are_distinct(self, monkeypatch):
        counted = _CountedRegex(syntax._TOKEN_RE)
        monkeypatch.setattr(syntax, "_TOKEN_RE", counted)
        lines = "".join(f"  a{i}.(x{i} + {i}) -> b{i}.y{i};\n" for i in range(3_000))
        text = f"main {{\n{lines}  end\n}}\n"
        assert not _chunked(text)
        assert syntax._token_texts(text) == reference_token_texts(text)
        assert counted.findall_calls == 1


# Characters that str.isidentifier or str.isdigit accept but the grammar
# does not ("²", "٣", the Kelvin sign, "é", a combining accent), and
# characters str.isspace accepts but the lexer does not skip (NBSP, \v,
# \f; the BOM is neither).  Each is put where a name, a digit, a gap and
# a whole input would be.
_TRICKY_CHARS = ["\u00b2", "\u0663", "\u212a", "\u00e9", "e\u0301", "\u00a0", "\v", "\f", "\ufeff"]
_EDGE_CASES = [
    form.format(c)
    for c in _TRICKY_CHARS
    for form in ("{}", "x{}", "{}x", "main {{ {}.1 -> q.x; end }}",
                 "main {{ p{}.1 -> q.x; end }}", "main {{ p.1{} -> q.x; end }}",
                 "main {{{}end }}", "// {}\nmain {{ end }}")
] + [
    "/", "a//b", "//", "main { end }//", "main { end }\n//", "main { p.1 / 2 -> q.x; end }",
    "main { p.a//b\n -> q.x; end }", "main { end } // \u00e9 \u0663 $ = #\n",
    "=", "main { end }=", "main { end }\n=",
]


@pytest.mark.parametrize("text", _EDGE_CASES)
class TestEdgeCasesAgainstReference:
    """The lexer's validation of token texts, held to the frozen
    tokenizer and parser on the inputs where a test by ``str`` method
    alone would go wrong."""

    def test_tokenize(self, text):
        try:
            ref = reference_tokenize(text)
        except ParseError:
            ref = []
        # The frozen tokenizer reads any Unicode digit as part of an
        # integer (\d); the grammar, like the frozen parser, does not.
        digits = [t for t in ref if t.kind == "int" and not t.text.isascii()]
        if not digits:
            _assert_same_as_reference(text)
            return
        d = digits[0]
        k = next(i for i, ch in enumerate(d.text) if not ch.isascii())
        e = _lex_error(text)
        assert (e.msg, e.line, e.col) == (
            f"unexpected character {d.text[k]!r}", d.line, d.col + k
        )

    def test_parse(self, text):
        _assert_same_as_reference_parser(text)

    def test_is_name(self, text):
        try:
            ref = [(t.kind, t.text) for t in reference_tokenize(text)]
        except ParseError:
            ref = None
        expected = ref == [("ident", text), ("eof", "")] and text not in syntax.RESERVED
        assert syntax.is_name(text) == expected


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

    def test_printer_against_reference(self):
        # the text, not only the term it parses back to: project writes it
        space = behaviour_space(3)
        for b in space[::7] + [AUTH_CLIENT, AUTH_SERVER, AUTH_PROVIDER]:
            assert print_behaviour(b) == reference_print_behaviour(b)

    def test_sampled_depth3_behaviours(self):
        space = behaviour_space(3)
        for b in space[::97]:
            assert parse_behaviour(print_behaviour(b)) == b

    def test_corpus_choreographies(self):
        for path in sorted(CORPUS.glob("*.chor")):
            su = parse(path.read_text(), str(path))
            printed = print_choreography(su.program)
            assert parse(printed).program == su.program, path.name

    def test_long_chain(self, default_recursion_limit):
        # printer and parser loop along the chain; compare node by node,
        # since == on a 10 000-deep term would itself recurse
        b = SP_END
        for i in range(10_000):
            b = (Send("q", Lit(i), b), Recv("q", "x", b), SelectSend("q", "left", b))[i % 3]
        back = parse_behaviour(print_behaviour(b))
        while b is not SP_END:
            assert back[:2] == b[:2] and type(back) is type(b)
            b, back = b.cont, back.cont
        assert back == SP_END

    def test_pending_calls_have_no_syntax(self):
        from chorkit.chor import ChorProgram

        p = ChorProgram({}, RunningCall("X", ("p",), ChorEnd()))
        with pytest.raises(ValueError):
            print_choreography(p)
