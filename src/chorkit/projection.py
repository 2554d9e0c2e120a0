"""Endpoint projection: compiling choreographies to per-process behaviours.

``bproj`` extracts one process's view of a choreography.  Interactions
become sends and receives at the two endpoints and vanish elsewhere;
selections become label sends and single-option branchings; a
conditional stays a conditional at the deciding process and is the merge
of the branch projections everywhere else, which is where partiality
enters.  ``epp`` compiles a whole program, projecting the main
choreography and every procedure body for every declared process.

A program is projectable exactly when ``epp`` compiles it, so the two are
one pass: ``epp`` diagnoses each undefined projection where it finds it,
adds the coverage failures, and raises them all in a
``ProjectionError``; ``projectable`` returns that list, empty when the
program compiles.

Projectability comes in two strengths, both decided by ``bproj`` alone.
The plain analysis asks that no projection is undefined; the strong
variant adds a clause on each running-call term, read off the nodes that
``chor.subterms`` yields: each still-pending process must be able to
continue with the procedure's projected body, up to extra branching
options.  The two coincide on initial choreographies, where the strong
check after ``epp`` is one memo hit per process.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional, Tuple

from . import pruning
from .chor import (
    Call,
    ChorProgram,
    Choreography,
    CommEta,
    Cond,
    End,
    Interaction,
    ProcDef,
    RunningCall,
    infer_params,
    subterms,
    term_names,
)
from .core import Pid, ProcName
from .merge import UNDEFINED, deepest_conflict, xmerge
from .net import SP_END, Branch, Network, NetProgram
from . import net as net_mod

Path = Tuple[str, ...]


def _branch_offer(sender: Pid, label: str, cont):
    """The receiving end of a selection offers just the selected option."""
    if label == "left":
        return Branch(sender, cont, None)
    return Branch(sender, None, cont)


def _running_call_projection(procs: Mapping[ProcName, ProcDef], c: RunningCall, r: Pid):
    """Pending processes still see the call; everyone else is in the body."""
    if r in c.pending:
        return net_mod.Call((c.proc, r))
    return bproj(procs, c.body, r)


def bproj(procs: Mapping[ProcName, ProcDef], c: Choreography, r: Pid, memo=None):
    """Project one process's behaviour from a choreography, or UNDEFINED.

    UNDEFINED propagates as soon as any sub-projection is undefined, so the
    result never has UNDEFINED inside it.

    ``memo``, when given, is a dict owned by the caller that maps
    ``(id(node), r)`` to ``(node, projection)`` for every node projected
    through it, so a term that shares subtrees with one projected before
    is projected only where it differs, and the shared parts come back
    as the same objects.  A lookup answers only when the stored node is
    the queried one; the memo also keeps each node alive, so its id
    cannot be reused by another node while the memo lives.  A memo
    serves one procedure table.  The seams ``_branch_offer`` and
    ``_running_call_projection`` are read when a node is first projected,
    so a memo must not outlive a patch of either; the seam projects a
    running call's body, a procedure body, without the memo.
    """
    t = type(c)
    if t is End:
        return SP_END
    if memo is not None:
        hit = memo.get((id(c), r))
        if hit is not None and hit[0] is c:
            return hit[1]
    if t is Interaction:
        eta = c.eta
        b = bproj(procs, c.cont, r, memo)
        if b is not UNDEFINED:
            if type(eta) is CommEta:
                if eta.sender == r:
                    b = net_mod.Send(eta.receiver, eta.expr, b)
                elif eta.receiver == r:
                    b = net_mod.Recv(eta.sender, eta.var, b)
            elif eta.sender == r:
                b = net_mod.SelectSend(eta.receiver, eta.label, b)
            elif eta.receiver == r:
                b = _branch_offer(eta.sender, eta.label, b)
    elif t is Cond:
        then_b = bproj(procs, c.then_c, r, memo)
        else_b = bproj(procs, c.else_c, r, memo)
        if c.pid != r:
            b = xmerge(then_b, else_b)
        elif then_b is UNDEFINED or else_b is UNDEFINED:
            b = UNDEFINED
        else:
            b = net_mod.Cond(c.guard, then_b, else_b)
    elif t is Call:
        d = procs.get(c.proc)
        if d is not None and r in d.params:
            b = net_mod.Call((c.proc, r))
        else:
            b = SP_END
    elif t is RunningCall:
        b = _running_call_projection(procs, c, r)
    else:
        raise TypeError(f"not a choreography: {c!r}")
    if memo is not None:
        memo[id(c), r] = (c, b)
    return b


# ---------------------------------------------------------------------------
# Projectability diagnostics


class ProjectionFailure(NamedTuple):
    """Why a projection is undefined, located as precisely as possible."""

    process: Pid
    path: Path
    kind: str  # merge-conflict | undefined | coverage
    conflict: Optional[tuple] = None  # the deepest failing merge operand pair
    detail: str = ""

    def __str__(self) -> str:
        where = "/".join(self.path) or "<root>"
        msg = f"projection fails for {self.process} at {where} ({self.kind})"
        if self.detail:
            msg += f": {self.detail}"
        return msg


def _conflict_failures(
    procs: Mapping[ProcName, ProcDef],
    c: Choreography,
    r: Pid,
    path: Path,
    out: list,
    memo: dict,
) -> None:
    """Append the deepest merge conflicts behind the undefined projection
    of ``c`` at ``r`` to ``out``, then-branches first.

    Only undefined projections are followed: along an interaction spine
    in a loop, into the undefined branch views of a conditional, and into
    the body of a running call ``r`` has entered.  A conditional whose two
    branch views are both defined is where merging fails.  Views are read
    through ``memo``, so each node is projected at most once.
    """
    todo = [(c, path)]
    while todo:
        c, path = todo.pop()
        k = 0  # "cont" steps taken from path
        while type(c) is Interaction:
            c = c.cont
            k += 1
        if k:
            path = path + ("cont",) * k
        t = type(c)
        if t is Cond:
            left = bproj(procs, c.then_c, r, memo)
            right = bproj(procs, c.else_c, r, memo)
            if left is not UNDEFINED and right is not UNDEFINED:
                pair = deepest_conflict(left, right)
                detail = "branch views of this conditional do not merge"
                out.append(ProjectionFailure(r, path, "merge-conflict", pair, detail))
                continue
            if right is UNDEFINED:
                todo.append((c.else_c, path + ("else",)))
            if left is UNDEFINED:
                todo.append((c.then_c, path + ("then",)))
        elif t is RunningCall and r not in c.pending:
            if bproj(procs, c.body, r, memo) is UNDEFINED:
                todo.append((c.body, path + ("body",)))


def _coverage_failures(xs, ps, p: ChorProgram) -> list:
    """The coverage conjuncts of projectability.

    The listed names and pids must cover everything the program can
    mention: processes of main, declared parameter lists, processes of
    procedure bodies, and every procedure name called from main or from a
    listed body.
    """
    out: list = []

    def uncovered(pid, root, detail):
        out.append(ProjectionFailure(pid, root, "coverage", detail=detail))

    ps_set = set(ps)
    xs_set = set(xs)
    bodies = {name: p.procs[name] for name in sorted(xs_set) if name in p.procs}
    names = {name: term_names(d.body) for name, d in bodies.items()}
    main_pids, main_calls = term_names(p.main)
    for pid in sorted(main_pids - ps_set):
        uncovered(pid, ("main",), f"process {pid} of main not in ps")
    for name, d in bodies.items():
        for pid in sorted(set(d.params) - ps_set):
            uncovered(pid, ("def", name), f"declared process {pid} not in ps")
        for pid in sorted(names[name][0] - ps_set):
            uncovered(pid, ("def", name), f"process {pid} of the body not in ps")
    for name in sorted(main_calls - xs_set):
        uncovered("-", ("main",), f"procedure {name} called from main but not listed")
    for name, (_pids, calls) in names.items():
        for callee in sorted(calls - xs_set):
            uncovered("-", ("def", name), f"procedure {callee} called from {name} but not listed")
    return out


def str_projectable(
    procs: Mapping[ProcName, ProcDef], c: Choreography, r: Pid, memo=None
) -> bool:
    """Strong projectability at one process.

    The projection of ``c`` at ``r`` must be defined, and every running
    call in ``c`` must name a procedure that declares each pending
    process and relates, by the branching preorder, that process's
    projection of the procedure body to its view of the remaining body;
    where ``r`` itself is pending, its view must be defined too.  This
    is the structural definition unfolded: a projection is undefined
    exactly where some conditional's branch views do not merge.  On
    initial choreographies it is plain projectability at ``r``.
    ``memo`` is passed to every ``bproj`` call, so views that a compile
    pass through the same memo has projected are not projected again.
    """
    if bproj(procs, c, r, memo) is UNDEFINED:
        return False
    for n in subterms(c):
        if type(n) is not RunningCall:
            continue
        d = procs.get(n.proc)
        if d is None:
            return False
        for p in n.pending:
            if p not in d.params or not pruning.xmore_branches(
                bproj(procs, d.body, p, memo), bproj(procs, n.body, p, memo)
            ):
                return False
        if r in n.pending and bproj(procs, n.body, r, memo) is UNDEFINED:
            return False
    return True


# ---------------------------------------------------------------------------
# Compilation


class ProjectionError(Exception):
    def __init__(self, failures):
        self.failures = tuple(failures)
        lines = "; ".join(str(f) for f in self.failures[:4])
        more = "" if len(self.failures) <= 4 else f" (+{len(self.failures) - 4} more)"
        super().__init__(f"program is not projectable: {lines}{more}")


def epp(xs, ps, p: ChorProgram, memo=None) -> NetProgram:
    """Compile a program to a network with compiled procedures.

    The one projection pass: main is projected at every listed pid, and
    every listed procedure body at each process it declares, once each.
    A projection that is undefined is diagnosed where it is found (its
    deepest merge conflicts, else one ``undefined`` entry), and the
    coverage failures follow; any failure raises ``ProjectionError``
    carrying them all.  Otherwise the network maps each listed pid to its
    projection of main and the procedure table has one entry per (listed
    procedure, declared process).  ``memo`` is passed to ``bproj`` for
    main, so a caller that keeps it gets back the network's own behaviour
    objects when it projects main again.  The diagnosis of main reads its
    branch views from ``memo`` too; any other diagnosis uses a fresh one.
    """
    procs = p.procs
    failures: list = []

    def project(c, r, root, through=None):
        b = bproj(procs, c, r, through)
        if b is UNDEFINED:
            before = len(failures)
            _conflict_failures(procs, c, r, root, failures, {} if through is None else through)
            if len(failures) == before:
                failures.append(ProjectionFailure(r, root, "undefined"))
        return b

    entries = [(pid, project(p.main, pid, ("main",), memo)) for pid in ps]
    procs_b = {}
    for name in xs:
        d = procs.get(name)
        if d is None:
            detail = f"procedure {name} undefined"
            failures.append(ProjectionFailure("-", ("def", name), "coverage", detail=detail))
            continue
        for pid in d.params:
            procs_b[(name, pid)] = project(d.body, pid, ("def", name))
    failures.extend(_coverage_failures(xs, ps, p))
    if failures:
        raise ProjectionError(failures)
    return NetProgram(procs_b, Network(entries))


def projectable(xs, ps, p: ChorProgram) -> list:
    """The full projectability conjunction for a program: the failures
    that keep ``epp`` from compiling it, in ``epp``'s order, or ``[]``.

    Main must project at every listed pid and every listed procedure body
    at each process it declares, and the listed names and pids must cover
    everything the program can mention.
    """
    try:
        epp(xs, ps, p)
    except ProjectionError as e:
        return list(e.failures)
    return []


def epp_program(p: ChorProgram) -> NetProgram:
    """Compile with inferred procedure names and process list."""
    xs, ps = infer_params(p)
    return epp(xs, ps, p)
