"""The more-branches preorder on behaviours and networks.

``xmore_branches(a, b)`` holds when ``a`` is ``b`` with possibly more
branching options: the two trees must agree structurally everywhere
except that at a branching ``a`` may offer an option ``b`` lacks.  The
relation characterises merging (it holds exactly when merging ``a`` with
``b`` gives back ``a``) and lifts pointwise to networks, where it means
one network can mimic every move of the other while keeping spare
options around.

Like ``xmerge`` this is called inside exhaustive pair sweeps, so the code
favours indexed access and early rejection: children are compared inline
by identity (reflexivity, sound because nodes are immutable values) and
by type before any recursive call.
"""

from __future__ import annotations

from .net import Branch, Call, Cond, End, Network, Recv, SelectSend, Send


def xmore_branches(a, b) -> bool:
    """The preorder on extended behaviours; UNDEFINED relates only to itself."""
    ta = type(a)
    if ta is not type(b):
        return False
    if ta is Branch:
        if a[0] != b[0]:
            return False
        bl = b[1]
        if bl is not None:
            al = a[1]
            if type(al) is not type(bl) or (
                al is not bl and not xmore_branches(al, bl)
            ):
                return False
        br = b[2]
        if br is not None:
            ar = a[2]
            if type(ar) is not type(br) or (
                ar is not br and not xmore_branches(ar, br)
            ):
                return False
        return True
    if ta is Cond:
        if a[0] != b[0]:
            return False
        x = a[1]
        y = b[1]
        if type(x) is not type(y) or (x is not y and not xmore_branches(x, y)):
            return False
        x = a[2]
        y = b[2]
        return type(x) is type(y) and (x is y or xmore_branches(x, y))
    if ta is Send or ta is Recv or ta is SelectSend:
        if a[0] != b[0] or a[1] != b[1]:
            return False
        x = a[2]
        y = b[2]
        return type(x) is type(y) and (x is y or xmore_branches(x, y))
    if ta is End:
        return True
    if ta is Call:
        return a[0] == b[0]
    return True  # both UNDEFINED


def net_more_branches(n1: Network, n2: Network) -> bool:
    """Pointwise lifting: every process of either support must be related.

    A process whose two behaviours are one object is related by
    reflexivity, so networks that share behaviours are compared only
    where they differ.  The answer does not depend on the order the
    processes are visited in, so the supports are read unsorted.
    """
    for pid in n1.key_view() | n2.key_view():
        a = n1.get(pid)
        b = n2.get(pid)
        if a is not b and not xmore_branches(a, b):
            return False
    return True
