"""Exhaustive enumeration of small behaviours for algebra testing.

The default space is every behaviour of depth at most 3 built from two
pids, one variable, one expression, one guard, and both selection
labels.  Depth counts tree levels, leaves included: leaves are depth 1,
one constructor over a leaf is depth 2, and so on.  That gives 14 693
distinct terms, small enough to brute-force every pair and to sample
triples from.

Terms are built bottom-up and deduplicated, so equal subtrees are shared
and the merge fast paths (which compare children by identity) see
maximal sharing.
"""

from __future__ import annotations

from .core import Add, Eq, Lit, VarRef
from .net import Branch, Call, Cond, Recv, SelectSend, Send, SP_END

PIDS = ("p", "q")
EXPR = Add(VarRef("x"), Lit(1))
VAR = "x"
GUARD = Eq(VarRef("x"), Lit(0))


def behaviour_space(max_depth: int = 3) -> list:
    """All distinct behaviours up to ``max_depth`` levels over the alphabet."""
    space = [SP_END] + [Call(("X", p)) for p in PIDS]
    seen = set(space)
    for _ in range(max_depth - 1):
        sub = list(space)
        options = [None] + sub
        grown: list = []
        for p in PIDS:
            for c in sub:
                grown.append(Send(p, EXPR, c))
                grown.append(Recv(p, VAR, c))
                grown.append(SelectSend(p, "left", c))
                grown.append(SelectSend(p, "right", c))
            for ol in options:
                for orr in options:
                    grown.append(Branch(p, ol, orr))
        for c1 in sub:
            for c2 in sub:
                grown.append(Cond(GUARD, c1, c2))
        for t in grown:
            if t not in seen:
                seen.add(t)
                space.append(t)
    return space
