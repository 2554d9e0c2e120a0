"""A frozen copy of projectability and compilation as two passes.

``reference_projectable`` checks every projection and collects the
reasons for each undefined one, then the coverage conjuncts;
``reference_compile`` projects everything again and builds the network
program, assuming the check passed.  Plain but twice the work; the
differential tests in ``test_projection.py`` hold the one-pass
``projection.epp`` and ``projection.projectable`` to it.
``reference_str_projectable`` is strong projectability as its structural
recursion, against which ``projection.str_projectable`` is tested.
``reference_deepest_conflict`` is the conflict report that asks
``xmerge`` at every level of its descent, against which the structural
``merge.deepest_conflict`` is tested; the reference diagnosis uses it.

Only ``bproj``, the merge and the syntax helpers are shared with the
live code, looked up on the live module at call time, so a
monkeypatched projection seam reaches both sides.  The processes a term
names come from ``syntactic_pids``, this module's own walk.
"""

from chorkit import projection, pruning
from chorkit.chor import Call, Cond, End, Interaction, RunningCall, subterms
from chorkit.merge import UNDEFINED, xmerge
from chorkit.net import Branch, Cond as NetCond, Network, NetProgram, Recv, SelectSend, Send
from chorkit.projection import ProjectionFailure


def called_procs(c) -> frozenset:
    """Procedure names syntactically reachable in one choreography term."""
    return frozenset(n.proc for n in subterms(c) if type(n) is Call or type(n) is RunningCall)


def syntactic_pids(c) -> frozenset:
    """The processes one choreography term names: both ends of each
    interaction, each decider and each running call's pending list; a
    call names none."""
    out: set = set()
    todo = [c]
    while todo:
        c = todo.pop()
        t = type(c)
        if t is Interaction:
            out.update((c.eta.sender, c.eta.receiver))
            todo.append(c.cont)
        elif t is Cond:
            out.add(c.pid)
            todo.extend((c.then_c, c.else_c))
        elif t is RunningCall:
            out.update(c.pending)
            todo.append(c.body)
    return frozenset(out)


def reference_deepest_conflict(b1, b2):
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
                sub = reference_deepest_conflict(x, y)
                if sub is not None:
                    return sub
        return (b1, b2)
    if ta is NetCond:
        if b1[0] != b2[0]:
            return (b1, b2)
        for idx in (1, 2):
            sub = reference_deepest_conflict(b1[idx], b2[idx])
            if sub is not None:
                return sub
        return (b1, b2)
    if ta in (Send, Recv, SelectSend):
        if b1[0] != b2[0] or b1[1] != b2[1]:
            return (b1, b2)
        return reference_deepest_conflict(b1[2], b2[2])
    return (b1, b2)  # mismatching Call names or the like


def _conflict_failures(procs, c, r, path, out):
    t = type(c)
    if t is Interaction:
        _conflict_failures(procs, c.cont, r, path + ("cont",), out)
        return
    if t is Cond:
        before = len(out)
        _conflict_failures(procs, c.then_c, r, path + ("then",), out)
        _conflict_failures(procs, c.else_c, r, path + ("else",), out)
        if len(out) > before or c.pid == r:
            return
        left = projection.bproj(procs, c.then_c, r)
        right = projection.bproj(procs, c.else_c, r)
        if xmerge(left, right) is UNDEFINED:
            pair = reference_deepest_conflict(left, right)
            detail = "branch views of this conditional do not merge"
            out.append(ProjectionFailure(r, path, "merge-conflict", conflict=pair, detail=detail))
        return
    if t is RunningCall:
        if r not in c.pending:
            _conflict_failures(procs, c.body, r, path + ("body",), out)


def _failures_at(procs, c, r, root):
    if projection.bproj(procs, c, r) is not UNDEFINED:
        return []
    out = []
    _conflict_failures(procs, c, r, root, out)
    if not out:
        out.append(ProjectionFailure(r, root, "undefined"))
    return out


def _failures_for(procs, ps, c, root):
    out = []
    for p in ps:
        out.extend(_failures_at(procs, c, p, root))
    return out


def _body_failures(xs, procs):
    out = []
    for name in xs:
        d = procs.get(name)
        if d is None:
            detail = f"procedure {name} undefined"
            out.append(ProjectionFailure("-", ("def", name), "coverage", detail=detail))
            continue
        out.extend(_failures_for(procs, d.params, d.body, ("def", name)))
    return out


def reference_projectable(xs, ps, p):
    out = _failures_for(p.procs, ps, p.main, ("main",))
    out.extend(_body_failures(xs, p.procs))
    ps_set = set(ps)
    xs_set = set(xs)
    for pid in sorted(syntactic_pids(p.main) - ps_set):
        detail = f"process {pid} of main not in ps"
        out.append(ProjectionFailure(pid, ("main",), "coverage", detail=detail))
    for name in sorted(xs_set):
        d = p.procs.get(name)
        if d is None:
            continue
        for pid in sorted(set(d.params) - ps_set):
            detail = f"declared process {pid} not in ps"
            out.append(ProjectionFailure(pid, ("def", name), "coverage", detail=detail))
        for pid in sorted(syntactic_pids(d.body) - ps_set):
            detail = f"process {pid} of the body not in ps"
            out.append(ProjectionFailure(pid, ("def", name), "coverage", detail=detail))
    for name in sorted(called_procs(p.main) - xs_set):
        detail = f"procedure {name} called from main but not listed"
        out.append(ProjectionFailure("-", ("main",), "coverage", detail=detail))
    for name in sorted(xs_set):
        d = p.procs.get(name)
        if d is None:
            continue
        for callee in sorted(called_procs(d.body) - xs_set):
            detail = f"procedure {callee} called from {name} but not listed"
            out.append(ProjectionFailure("-", ("def", name), "coverage", detail=detail))
    return out


def reference_compile(xs, ps, p):
    net = Network((pid, projection.bproj(p.procs, p.main, pid)) for pid in ps)
    procs_b = {}
    for name in xs:
        d = p.procs.get(name)
        if d is None:
            continue
        for pid in d.params:
            procs_b[(name, pid)] = projection.bproj(p.procs, d.body, pid)
    return NetProgram(procs_b, net)


def reference_str_projectable(procs, c, r):
    t = type(c)
    if t is End or t is Call:
        return True
    if t is Interaction:
        return reference_str_projectable(procs, c.cont, r)
    if t is Cond:
        if not (
            reference_str_projectable(procs, c.then_c, r)
            and reference_str_projectable(procs, c.else_c, r)
        ):
            return False
        if c.pid == r:
            return True
        then_b = projection.bproj(procs, c.then_c, r)
        else_b = projection.bproj(procs, c.else_c, r)
        return xmerge(then_b, else_b) is not UNDEFINED
    if t is RunningCall:
        if not reference_str_projectable(procs, c.body, r):
            return False
        d = procs.get(c.proc)
        if d is None:
            return False
        declared = set(d.params)
        for p in c.pending:
            if p not in declared:
                return False
            if not pruning.xmore_branches(
                projection.bproj(procs, d.body, p), projection.bproj(procs, c.body, p)
            ):
                return False
        return True
    raise TypeError(f"not a choreography: {c!r}")
