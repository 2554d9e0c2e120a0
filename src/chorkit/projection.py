"""Endpoint projection: compiling choreographies to per-process behaviours.

``bproj`` extracts one process's view of a choreography.  Interactions
become sends and receives at the two endpoints and vanish elsewhere;
selections become label sends and single-option branchings; a
conditional stays a conditional at the deciding process and is the merge
of the branch projections everywhere else, which is where partiality
enters.  ``epp`` compiles a whole program, projecting the main
choreography and every procedure body for every declared process.

Projectability comes in two strengths.  The plain analysis asks that no
projection is undefined; the strong variant additionally
constrains running-call terms, requiring each still-pending process to be
able to continue with the procedure's projected body, up to extra
branching options.  The two coincide on initial choreographies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

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
    called_procs,
    chor_pids,
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


def bproj(procs: Mapping[ProcName, ProcDef], c: Choreography, r: Pid):
    """Project one process's behaviour from a choreography, or UNDEFINED.

    UNDEFINED propagates as soon as any sub-projection is undefined, so the
    result never has UNDEFINED inside it.
    """
    t = type(c)
    if t is End:
        return SP_END
    if t is Interaction:
        eta = c.eta
        cont = bproj(procs, c.cont, r)
        if cont is UNDEFINED:
            return UNDEFINED
        if type(eta) is CommEta:
            if eta.sender == r:
                return net_mod.Send(eta.receiver, eta.expr, cont)
            if eta.receiver == r:
                return net_mod.Recv(eta.sender, eta.var, cont)
            return cont
        if eta.sender == r:
            return net_mod.SelectSend(eta.receiver, eta.label, cont)
        if eta.receiver == r:
            return _branch_offer(eta.sender, eta.label, cont)
        return cont
    if t is Cond:
        then_b = bproj(procs, c.then_c, r)
        else_b = bproj(procs, c.else_c, r)
        if c.pid != r:
            return xmerge(then_b, else_b)
        if then_b is UNDEFINED or else_b is UNDEFINED:
            return UNDEFINED
        return net_mod.Cond(c.guard, then_b, else_b)
    if t is Call:
        d = procs.get(c.proc)
        if d is not None and r in d.params:
            return net_mod.Call((c.proc, r))
        return SP_END
    if t is RunningCall:
        return _running_call_projection(procs, c, r)
    raise TypeError(f"not a choreography: {c!r}")


# ---------------------------------------------------------------------------
# Projectability diagnostics


@dataclass(frozen=True)
class ProjectionFailure:
    """Why a projection is undefined, located as precisely as possible."""

    process: Pid
    path: Path
    kind: str  # merge-conflict | undefined | coverage | other
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
) -> None:
    """Collect merge conflicts bottom-up so the deepest ones are reported."""
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
        left = bproj(procs, c.then_c, r)
        right = bproj(procs, c.else_c, r)
        if xmerge(left, right) is UNDEFINED:
            pair = deepest_conflict(left, right)
            out.append(
                ProjectionFailure(
                    r,
                    path,
                    "merge-conflict",
                    conflict=pair,
                    detail="branch views of this conditional do not merge",
                )
            )
        return
    if t is RunningCall:
        if r not in c.pending:
            _conflict_failures(procs, c.body, r, path + ("body",), out)


def projection_failures(
    procs: Mapping[ProcName, ProcDef], c: Choreography, r: Pid, root: Path = ()
) -> list:
    """All reasons bproj at ``r`` is undefined (empty when fine)."""
    if bproj(procs, c, r) is not UNDEFINED:
        return []
    out: list = []
    _conflict_failures(procs, c, r, root, out)
    if not out:
        out.append(ProjectionFailure(r, root, "undefined"))
    return out


def projectable_C(
    procs: Mapping[ProcName, ProcDef], ps, c: Choreography, root: Path = ()
) -> list:
    """Failures preventing projection of ``c`` for any process in ``ps``."""
    out: list = []
    for p in ps:
        out.extend(projection_failures(procs, c, p, root))
    return out


def projectable_D(xs, procs: Mapping[ProcName, ProcDef]) -> list:
    out: list = []
    for name in xs:
        d = procs.get(name)
        if d is None:
            out.append(
                ProjectionFailure(
                    "-", ("def", name), "coverage", detail=f"procedure {name} undefined"
                )
            )
            continue
        out.extend(projectable_C(procs, d.params, d.body, ("def", name)))
    return out


def projectable(xs, ps, p: ChorProgram) -> list:
    """The full projectability conjunction for a program.

    Main and every listed procedure body must project for the relevant
    processes, and the listed names and pids must cover everything the
    program can mention: processes of main, declared parameter lists,
    processes of procedure bodies, and every procedure name called from
    main or from a listed body.
    """
    out = projectable_C(p.procs, ps, p.main, ("main",))
    out.extend(projectable_D(xs, p.procs))
    ps_set = set(ps)
    xs_set = set(xs)
    syntactic = lambda _name: ()
    missing = chor_pids(p.main, syntactic) - ps_set
    for pid in sorted(missing):
        out.append(
            ProjectionFailure(
                pid, ("main",), "coverage", detail=f"process {pid} of main not in ps"
            )
        )
    for name in sorted(xs_set):
        d = p.procs.get(name)
        if d is None:
            continue
        for pid in sorted(set(d.params) - ps_set):
            out.append(
                ProjectionFailure(
                    pid,
                    ("def", name),
                    "coverage",
                    detail=f"declared process {pid} not in ps",
                )
            )
        for pid in sorted(chor_pids(d.body, syntactic) - ps_set):
            out.append(
                ProjectionFailure(
                    pid,
                    ("def", name),
                    "coverage",
                    detail=f"process {pid} of the body not in ps",
                )
            )
    for name in sorted(called_procs(p.main) - xs_set):
        out.append(
            ProjectionFailure(
                "-",
                ("main",),
                "coverage",
                detail=f"procedure {name} called from main but not listed",
            )
        )
    for name in sorted(xs_set):
        d = p.procs.get(name)
        if d is None:
            continue
        for callee in sorted(called_procs(d.body) - xs_set):
            out.append(
                ProjectionFailure(
                    "-",
                    ("def", name),
                    "coverage",
                    detail=f"procedure {callee} called from {name} but not listed",
                )
            )
    return out


def infer_params(p: ChorProgram) -> Tuple[tuple, tuple]:
    """Smallest (procedure names, pids) covering the program.

    Names are the procedures reachable from main through calls; pids are
    every process of main, of the reachable bodies, and of their declared
    parameter lists.  The result satisfies the coverage conjuncts of
    ``projectable`` by construction.
    """
    xs: set = set()
    frontier = called_procs(p.main)
    while frontier:
        name = next(iter(frontier))
        frontier = frontier - {name}
        if name in xs or name not in p.procs:
            xs.add(name)
            continue
        xs.add(name)
        frontier |= called_procs(p.procs[name].body) - xs
    syntactic = lambda _name: ()
    ps = set(chor_pids(p.main, syntactic))
    for name in xs:
        d = p.procs.get(name)
        if d is None:
            continue
        ps |= set(d.params)
        ps |= chor_pids(d.body, syntactic)
    return tuple(sorted(xs)), tuple(sorted(ps))


def str_projectable(procs: Mapping[ProcName, ProcDef], c: Choreography, r: Pid) -> bool:
    """Strong projectability at one process.

    Structural on ordinary constructors; a conditional not decided by
    ``r`` must additionally have mergeable branch views, and a running
    call requires every pending process to be declared by the procedure
    and to relate, by the branching preorder, the procedure body's
    projection to its view of the remaining choreography.  On initial
    choreographies this coincides with plain projectability at ``r``.
    """
    t = type(c)
    if t is End or t is Call:
        return True
    if t is Interaction:
        return str_projectable(procs, c.cont, r)
    if t is Cond:
        if not (
            str_projectable(procs, c.then_c, r)
            and str_projectable(procs, c.else_c, r)
        ):
            return False
        if c.pid == r:
            return True
        merged = xmerge(bproj(procs, c.then_c, r), bproj(procs, c.else_c, r))
        return merged is not UNDEFINED
    if t is RunningCall:
        if not str_projectable(procs, c.body, r):
            return False
        d = procs.get(c.proc)
        if d is None:
            return False
        declared = set(d.params)
        for p in c.pending:
            if p not in declared:
                return False
            if not pruning.xmore_branches(
                bproj(procs, d.body, p), bproj(procs, c.body, p)
            ):
                return False
        return True
    raise TypeError(f"not a choreography: {c!r}")


# ---------------------------------------------------------------------------
# Compilation


class ProjectionError(Exception):
    def __init__(self, failures):
        self.failures = tuple(failures)
        lines = "; ".join(str(f) for f in self.failures[:4])
        more = "" if len(self.failures) <= 4 else f" (+{len(self.failures) - 4} more)"
        super().__init__(f"program is not projectable: {lines}{more}")


def epp(xs, ps, p: ChorProgram) -> NetProgram:
    """Compile a projectable program to a network with compiled procedures.

    Raises ProjectionError when projectability fails; otherwise the same
    as ``compile_projectable``.
    """
    failures = projectable(xs, ps, p)
    if failures:
        raise ProjectionError(failures)
    return compile_projectable(xs, ps, p)


def compile_projectable(xs, ps, p: ChorProgram) -> NetProgram:
    """The compile step of ``epp``, for a program already found projectable.

    The network maps each listed pid to its projection of main; the
    procedure table has one entry per (listed procedure, declared process).
    """
    net = Network((pid, bproj(p.procs, p.main, pid)) for pid in ps)
    procs_b = {}
    for name in xs:
        d = p.procs.get(name)
        if d is None:
            continue
        for pid in d.params:
            procs_b[(name, pid)] = bproj(p.procs, d.body, pid)
    return NetProgram(procs_b, net)


def epp_program(p: ChorProgram) -> NetProgram:
    """Compile with inferred procedure names and process list."""
    xs, ps = infer_params(p)
    return epp(xs, ps, p)
