"""A frozen copy of projectability and compilation as two passes.

``reference_projectable`` checks every projection and collects the
reasons for each undefined one, then the coverage conjuncts;
``reference_compile`` projects everything again and builds the network
program, assuming the check passed.  Plain but twice the work; the
differential tests in ``test_projection.py`` hold the one-pass
``projection.epp`` and ``projection.projectable`` to it.
``reference_str_projectable`` is strong projectability as its structural
recursion, against which ``projection.str_projectable`` is tested.

Only ``bproj``, the merge and the syntax helpers are shared with the
live code, looked up on the live module at call time, so a
monkeypatched projection seam reaches both sides.
"""

from chorkit import projection, pruning
from chorkit.chor import Call, Cond, End, Interaction, RunningCall, called_procs, chor_pids
from chorkit.merge import UNDEFINED, deepest_conflict, xmerge
from chorkit.net import Network, NetProgram
from chorkit.projection import ProjectionFailure


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
            pair = deepest_conflict(left, right)
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
    syntactic = lambda _name: ()
    for pid in sorted(chor_pids(p.main, syntactic) - ps_set):
        detail = f"process {pid} of main not in ps"
        out.append(ProjectionFailure(pid, ("main",), "coverage", detail=detail))
    for name in sorted(xs_set):
        d = p.procs.get(name)
        if d is None:
            continue
        for pid in sorted(set(d.params) - ps_set):
            detail = f"declared process {pid} not in ps"
            out.append(ProjectionFailure(pid, ("def", name), "coverage", detail=detail))
        for pid in sorted(chor_pids(d.body, syntactic) - ps_set):
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
