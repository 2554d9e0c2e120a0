"""The more-branches preorder on behaviours and networks.

``xmore_branches(a, b)`` holds when ``a`` is ``b`` with possibly more
branching options: the two trees must agree structurally everywhere
except that at a branching ``a`` may offer an option ``b`` lacks.  The
relation characterises merging (it holds exactly when merging ``a`` with
``b`` gives back ``a``) and lifts pointwise to networks, where it means
one network can mimic every move of the other while keeping spare
options around.

Like ``xmerge`` this is called inside exhaustive pair sweeps, so the code
favours indexed access and early rejection.  The identity shortcut at the
top is reflexivity, which is sound because nodes are immutable values.
"""

from __future__ import annotations

from .net import Branch, Call, Cond, End, Network, Recv, SelectSend, Send


def xmore_branches(a, b) -> bool:
    """The preorder on extended behaviours; UNDEFINED relates only to itself."""
    if a is b:
        return True
    ta = type(a)
    if ta is not type(b):
        return False
    if ta is Branch:
        if a[0] != b[0]:
            return False
        bl = b[1]
        if bl is not None:
            al = a[1]
            if al is None or not xmore_branches(al, bl):
                return False
        br = b[2]
        if br is not None:
            ar = a[2]
            if ar is None or not xmore_branches(ar, br):
                return False
        return True
    if ta is Cond:
        return (
            a[0] == b[0]
            and xmore_branches(a[1], b[1])
            and xmore_branches(a[2], b[2])
        )
    if ta is Send:
        return a[0] == b[0] and a[1] == b[1] and xmore_branches(a[2], b[2])
    if ta is Recv or ta is SelectSend:
        return a[0] == b[0] and a[1] == b[1] and xmore_branches(a[2], b[2])
    if ta is End:
        return True
    if ta is Call:
        return a[0] == b[0]
    return True  # both UNDEFINED


def net_more_branches(n1: Network, n2: Network) -> bool:
    """Pointwise lifting: every process of either support must be related."""
    m1 = dict(n1.items())
    m2 = dict(n2.items())
    for pid in m1.keys() | m2.keys():
        a = m1.get(pid)
        b = m2.get(pid)
        if a is None:
            a = _END
        if b is None:
            b = _END
        if not xmore_branches(a, b):
            return False
    return True


_END = End()
