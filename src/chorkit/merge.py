"""Merging of behaviours, with an explicit undefined element.

Merging combines the local views a process has of the two branches of a
conditional it does not decide.  It is partial: both views must agree on
everything except branching options, which are unioned.  Partiality is
made total by extending behaviours with an ``UNDEFINED`` element which is
absorbing and which any failed sub-merge propagates upward.

A merge result is therefore either a proper behaviour or ``UNDEFINED``,
never a tree with ``UNDEFINED`` inside; projection keeps the same
discipline, so the two compose without a separate collapsing pass.

``xmerge`` is on the hot path of exhaustive algebra sweeps (hundreds of
millions of calls), hence the indexed tuple accesses and the early type
dispatch.  Children of different types cannot merge, so that case is
rejected inline, before any recursive call, and every cheap rejection at
a node comes before its first recursive call.  When a merge result would
equal one operand, that operand is returned as-is; this is a pure
allocation optimisation, the identity is only taken when the recursive
results are the operand's own children.
"""

from __future__ import annotations

from typing import Optional

from .net import Branch, Call, Cond, End, Recv, SelectSend, Send


class _Undefined:
    """Singleton marker for a failed merge."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "UNDEFINED"


UNDEFINED = _Undefined()


def collapse(b):
    """UNDEFINED anywhere in the tree poisons the whole tree; otherwise identity.

    Projection and merging propagate UNDEFINED as they build, so they
    never produce such partial trees; this is for trees built by hand.
    """
    stack = [b]
    while stack:
        t = stack.pop()
        k = type(t)
        if k is _Undefined:
            return UNDEFINED
        if k is Send or k is Recv or k is SelectSend:
            stack.append(t[2])
        elif k is Branch or k is Cond:
            stack.extend(x for x in t[1:3] if x is not None)
    return b


def xmerge(a, b):
    """Merge two extended behaviours; total, with UNDEFINED absorbing.

    Equal heads with equal decorations merge homomorphically; branchings
    with the same peer union their options (present beats absent, both
    present merge recursively); anything else is UNDEFINED, and a failed
    or undefined sub-merge makes the whole result UNDEFINED.
    """
    ta = type(a)
    if ta is not type(b):
        return UNDEFINED
    if ta is Branch:
        if a[0] != b[0]:
            return UNDEFINED
        al = a[1]
        bl = b[1]
        if type(al) is not type(bl) and al is not None and bl is not None:
            return UNDEFINED
        ar = a[2]
        br = b[2]
        if type(ar) is not type(br) and ar is not None and br is not None:
            return UNDEFINED
        nl = bl if al is None else al if bl is None else xmerge(al, bl)
        if nl is UNDEFINED:
            return UNDEFINED
        nr = br if ar is None else ar if br is None else xmerge(ar, br)
        if nr is UNDEFINED:
            return UNDEFINED
        if nl is al and nr is ar:
            return a
        if nl is bl and nr is br:
            return b
        return Branch(a[0], nl, nr)
    if ta is Cond:
        g = a[0]
        if g is not b[0] and g != b[0]:
            return UNDEFINED
        x1 = a[1]
        y1 = b[1]
        x2 = a[2]
        y2 = b[2]
        if type(x1) is not type(y1) or type(x2) is not type(y2):
            return UNDEFINED
        t1 = xmerge(x1, y1)
        if t1 is UNDEFINED:
            return UNDEFINED
        t2 = xmerge(x2, y2)
        if t2 is UNDEFINED:
            return UNDEFINED
        if t1 is x1 and t2 is x2:
            return a
        if t1 is y1 and t2 is y2:
            return b
        return Cond(g, t1, t2)
    if ta is Send or ta is Recv or ta is SelectSend:
        d = a[1]
        if a[0] != b[0] or (d is not b[1] and d != b[1]):
            return UNDEFINED
        x = a[2]
        y = b[2]
        if type(x) is not type(y):
            return UNDEFINED
        t1 = xmerge(x, y)
        if t1 is UNDEFINED:
            return UNDEFINED
        if t1 is x:
            return a
        if t1 is y:
            return b
        return ta(a[0], d, t1)
    if ta is End:
        return a
    if ta is Call:
        return a if a[0] == b[0] else UNDEFINED
    return UNDEFINED  # both UNDEFINED


# ---------------------------------------------------------------------------
# Conflict reporting


def deepest_conflict(b1, b2) -> Optional[tuple]:
    """The smallest operand pair whose merge is undefined, or None.

    Follows the first failing sub-merge, then-side first, so the pair is
    the deepest point at which merging goes wrong; useful for reporting
    why a projection failed.  A structural walk deciding definedness as
    ``xmerge`` does, without calling it: it loops along chains and
    recurses only into branching options and conditional branches.
    """
    while True:
        ta = type(b1)
        if ta is not type(b2):
            return (b1, b2)
        if ta is Send or ta is Recv or ta is SelectSend:
            if b1[0] != b2[0] or b1[1] != b2[1]:
                return (b1, b2)
            b1, b2 = b1[2], b2[2]
            continue
        if ta is Branch or ta is Cond:
            if b1[0] != b2[0]:
                return (b1, b2)
            for x, y in ((b1[1], b2[1]), (b1[2], b2[2])):
                if ta is Cond or (x is not None and y is not None):
                    sub = deepest_conflict(x, y)
                    if sub is not None:
                        return sub
            if ta is Branch and UNDEFINED in (b1[1], b1[2], b2[1], b2[2]):
                return (b1, b2)  # an absent option yields to an UNDEFINED one
            return None
        if ta is End or (ta is Call and b1[0] == b2[0]):
            return None
        return (b1, b2)  # mismatching Call names, or both UNDEFINED
