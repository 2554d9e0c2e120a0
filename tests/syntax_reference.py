"""A frozen copy of ``syntax.Token`` and ``syntax.tokenize`` as they were
when every token carried its start and end line and column.

It steps through the text one match at a time and counts newlines in
every lexeme, whitespace included.  Slow but plain; the differential
tests in ``test_syntax.py`` hold the live tokenizer, which keeps only
offsets, and its position helper to it.
"""

import re
from typing import List, NamedTuple

from chorkit.syntax import ParseError


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
