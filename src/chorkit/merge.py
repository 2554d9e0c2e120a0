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
dispatch.  When a merge result would equal one operand, that operand is
returned as-is; this is a pure allocation optimisation, the identity is
only taken when the recursive results are the operand's own children.
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
        if al is None:
            nl = bl
        elif bl is None:
            nl = al
        else:
            nl = xmerge(al, bl)
        if nl is UNDEFINED:
            return UNDEFINED
        ar = a[2]
        br = b[2]
        if ar is None:
            nr = br
        elif br is None:
            nr = ar
        else:
            nr = xmerge(ar, br)
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
        t1 = xmerge(a[1], b[1])
        if t1 is UNDEFINED:
            return UNDEFINED
        t2 = xmerge(a[2], b[2])
        if t2 is UNDEFINED:
            return UNDEFINED
        if t1 is a[1] and t2 is a[2]:
            return a
        if t1 is b[1] and t2 is b[2]:
            return b
        return Cond(g, t1, t2)
    if ta is Send:
        e = a[1]
        if a[0] != b[0] or (e is not b[1] and e != b[1]):
            return UNDEFINED
        t1 = xmerge(a[2], b[2])
        if t1 is UNDEFINED:
            return UNDEFINED
        if t1 is a[2]:
            return a
        if t1 is b[2]:
            return b
        return Send(a[0], e, t1)
    if ta is Recv:
        if a[0] != b[0] or a[1] != b[1]:
            return UNDEFINED
        t1 = xmerge(a[2], b[2])
        if t1 is UNDEFINED:
            return UNDEFINED
        if t1 is a[2]:
            return a
        if t1 is b[2]:
            return b
        return Recv(a[0], a[1], t1)
    if ta is SelectSend:
        if a[0] != b[0] or a[1] != b[1]:
            return UNDEFINED
        t1 = xmerge(a[2], b[2])
        if t1 is UNDEFINED:
            return UNDEFINED
        if t1 is a[2]:
            return a
        if t1 is b[2]:
            return b
        return SelectSend(a[0], a[1], t1)
    if ta is End:
        return a
    if ta is Call:
        return a if a[0] == b[0] else UNDEFINED
    return UNDEFINED  # both UNDEFINED


# ---------------------------------------------------------------------------
# Conflict reporting


def deepest_conflict(b1, b2) -> Optional[tuple]:
    """The smallest operand pair whose merge is undefined, or None.

    Recurses into the first failing sub-merge, so the returned pair is the
    deepest point at which merging actually goes wrong; useful for
    reporting why a projection failed.
    """
    if xmerge(b1, b2) is not UNDEFINED:
        return None
    ta = type(b1)
    if ta is not type(b2):
        return (b1, b2)
    if ta is Branch:
        if b1[0] != b2[0]:
            return (b1, b2)
        for idx in (1, 2):
            x, y = b1[idx], b2[idx]
            if x is not None and y is not None:
                sub = deepest_conflict(x, y)
                if sub is not None:
                    return sub
        return (b1, b2)
    if ta is Cond:
        if b1[0] != b2[0]:
            return (b1, b2)
        for idx in (1, 2):
            sub = deepest_conflict(b1[idx], b2[idx])
            if sub is not None:
                return sub
        return (b1, b2)
    if ta in (Send, Recv, SelectSend):
        if b1[0] != b2[0] or b1[1] != b2[1]:
            return (b1, b2)
        return deepest_conflict(b1[2], b2[2])
    return (b1, b2)  # mismatching Call names or the like
