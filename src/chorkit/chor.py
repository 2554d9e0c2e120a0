"""Choreography language: syntax tree, well-formedness, and semantics.

A choreography describes a multiparty protocol from a global viewpoint:
value communications and label selections between pairs of processes,
conditionals decided by a single process, and calls to recursive
procedures.  Procedure entry is gradual: a call unfolds into a running
call term that tracks which of the declared processes have not yet
entered, and the body may start executing early as long as it does not
touch a process that is still pending.

The semantics is a labelled transition system over (choreography, state)
pairs.  An action may run out of order, overtaking the interactions,
conditionals and pending call entries before it, only if it shares no
process with any of them: a conditional's decider and a running call's
pending processes count as used.  ``cc_enabled`` enumerates the
derivable transitions in a fixed canonical order (head action first,
then delayed actions in syntactic order, call entries in declaration
order) so that runs and golden tests are reproducible.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Tuple, Union

from .core import (
    BExpr,
    EMPTY_STATE,
    Expr,
    NotEnabledError,
    Pid,
    ProcName,
    RichCall,
    RichComm,
    RichCond,
    RichLabel,
    RichSelect,
    RunResult,
    State,
    VarName,
    drive,
    eval_bexpr,
    eval_expr,
    node_repr,
)

# ---------------------------------------------------------------------------
# Syntax


class CommEta(NamedTuple):
    sender: Pid
    expr: Expr
    receiver: Pid
    var: VarName
    tag: str = "cc.com"
    __repr__ = node_repr


class SelectEta(NamedTuple):
    sender: Pid
    receiver: Pid
    label: str
    tag: str = "cc.sel"
    __repr__ = node_repr


Eta = Union[CommEta, SelectEta]


class End(NamedTuple):
    tag: str = "cc.end"
    __repr__ = node_repr


class Interaction(NamedTuple):
    eta: Eta
    cont: "Choreography"
    tag: str = "cc.seq"
    __repr__ = node_repr


class Cond(NamedTuple):
    pid: Pid
    guard: BExpr
    then_c: "Choreography"
    else_c: "Choreography"
    tag: str = "cc.cond"
    __repr__ = node_repr


class Call(NamedTuple):
    proc: ProcName
    tag: str = "cc.call"
    __repr__ = node_repr


class RunningCall(NamedTuple):
    """A call some processes have already entered; ``pending`` have not."""

    proc: ProcName
    pending: Tuple[Pid, ...]
    body: "Choreography"
    tag: str = "cc.rtcall"
    __repr__ = node_repr


Choreography = Union[End, Interaction, Cond, Call, RunningCall]

CHOR_END = End()


class ProcDef(NamedTuple):
    """A procedure: the processes it uses, in declaration order, and its body."""

    params: Tuple[Pid, ...]
    body: Choreography
    tag: str = "cc.procdef"
    __repr__ = node_repr


class ChorProgram(NamedTuple):
    procs: Mapping[ProcName, ProcDef]
    main: Choreography
    tag: str = "cc.program"
    __repr__ = node_repr


def subterms(c: Choreography) -> Iterator[Choreography]:
    """Every node of ``c`` in pre-order, a conditional's then-branch
    before its else-branch and a running call before its body.

    The walk keeps its own stack, so a long term does not reach the
    recursion limit; a node that is not a choreography raises
    ``TypeError``.
    """
    todo = [c]
    while todo:
        c = todo.pop()
        t = type(c)
        if t is Interaction:
            todo.append(c.cont)
        elif t is Cond:
            todo.append(c.else_c)
            todo.append(c.then_c)
        elif t is RunningCall:
            todo.append(c.body)
        elif t is not End and t is not Call:
            raise TypeError(f"not a choreography: {c!r}")
        yield c


def term_names(c: Choreography) -> Tuple[frozenset, frozenset]:
    """The processes a choreography term names and the procedures it
    calls, in one walk.  The scan is syntactic: a call adds no processes,
    a running call its pending ones and its name."""
    pids: set = set()
    procs: set = set()
    for n in subterms(c):
        t = type(n)
        if t is Interaction:
            pids.add(n.eta.sender)
            pids.add(n.eta.receiver)
        elif t is Cond:
            pids.add(n.pid)
        elif t is Call:
            procs.add(n.proc)
        elif t is RunningCall:
            procs.add(n.proc)
            pids.update(n.pending)
    return frozenset(pids), frozenset(procs)


def chor_pids(c: Choreography, vars_of: Callable[[ProcName], Iterable[Pid]]) -> frozenset:
    """Processes used by a choreography.

    ``vars_of`` supplies the processes attributed to each procedure call:
    the declared parameter lists count call sites as using their
    procedure's processes.  ``term_names`` is the purely syntactic scan.
    """
    out: set = set()
    for n in subterms(c):
        t = type(n)
        if t is Interaction:
            out.add(n.eta.sender)
            out.add(n.eta.receiver)
        elif t is Cond:
            out.add(n.pid)
        elif t is Call:
            out.update(vars_of(n.proc))
        elif t is RunningCall:
            out.update(n.pending)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Well-formedness

Path = Tuple[str, ...]


class WfViolation(NamedTuple):
    rule: str
    path: Path
    detail: str

    def __str__(self) -> str:
        return f"[{self.rule}] at {'/'.join(self.path) or '<root>'}: {self.detail}"


def _scan_chor(
    c: Choreography,
    path: Path,
    procs: Mapping[ProcName, ProcDef],
    out: list,
    in_procedure: bool,
) -> None:
    """Append the violations in ``c``, at ``path``, to ``out`` in pre-order.

    Interaction spines are walked in a loop and a node's path is built
    only to report it or to descend into a branch, so a long spine costs
    neither stack depth nor quadratic path building."""
    todo = [(c, path)]
    while todo:
        c, path = todo.pop()
        k = 0  # "cont" steps taken from path
        while type(c) is Interaction:
            eta = c.eta
            if eta.sender == eta.receiver:
                out.append(
                    WfViolation(
                        "self-communication",
                        path + ("cont",) * k,
                        f"process {eta.sender} interacts with itself",
                    )
                )
            c = c.cont
            k += 1
        t = type(c)
        if t is End:
            continue
        if k:
            path = path + ("cont",) * k
        if t is Cond:
            # else is pushed first so that then is reported first
            todo.append((c.else_c, path + ("else",)))
            todo.append((c.then_c, path + ("then",)))
        elif t is Call:
            if c.proc not in procs:
                out.append(
                    WfViolation("unknown-procedure", path, f"call to undefined {c.proc}")
                )
        elif t is RunningCall:
            if in_procedure:
                out.append(
                    WfViolation(
                        "non-initial-procedure-body",
                        path,
                        "running-call term inside a procedure body",
                    )
                )
            if not c.pending:
                out.append(WfViolation("pending-empty", path, "empty pending list"))
            if len(set(c.pending)) != len(c.pending):
                out.append(
                    WfViolation("pending-duplicate", path, f"duplicates in {c.pending}")
                )
            if c.proc not in procs:
                out.append(
                    WfViolation(
                        "unknown-procedure", path, f"running call to undefined {c.proc}"
                    )
                )
            else:
                declared = set(procs[c.proc].params)
                for pid in c.pending:
                    if pid not in declared:
                        out.append(
                            WfViolation(
                                "pending-not-declared",
                                path,
                                f"{pid} pending but not declared by {c.proc}",
                            )
                        )
            todo.append((c.body, path + ("body",)))


def cc_check_wf(p: ChorProgram) -> Tuple[WfViolation, ...]:
    """The violations of the restrictions a runnable program must
    satisfy, in the order they are found; none means well-formed.

    No self-communication anywhere; procedure bodies are initial; every
    running call has a non-empty, duplicate-free pending list contained in
    the declared parameters; procedure bodies only use processes their
    definition declares; all called procedures exist.
    """
    out: list = []
    vars_of = lambda name: p.procs[name].params if name in p.procs else ()
    for name, d in sorted(p.procs.items()):
        if not d.params:
            out.append(
                WfViolation("empty-params", ("def", name), "no declared processes")
            )
        if len(set(d.params)) != len(d.params):
            out.append(
                WfViolation(
                    "duplicate-params", ("def", name), f"duplicates in {d.params}"
                )
            )
        _scan_chor(d.body, ("def", name), p.procs, out, True)
        used = chor_pids(d.body, vars_of)
        extra = used - set(d.params)
        if extra:
            out.append(
                WfViolation(
                    "undeclared-process-use",
                    ("def", name),
                    f"body uses {sorted(extra)} not declared in {list(d.params)}",
                )
            )
    _scan_chor(p.main, ("main",), p.procs, out, False)
    return tuple(out)


def infer_params(p: ChorProgram) -> Tuple[tuple, tuple]:
    """Smallest (procedure names, pids) covering the program.

    Names are the procedures reachable from main through calls; pids are
    every process of main, of the reachable bodies, and of their declared
    parameter lists.  The result satisfies the coverage conjuncts of
    ``projectable`` by construction.
    """
    pids, calls = term_names(p.main)
    ps = set(pids)
    xs: set = set()
    todo = list(calls)
    while todo:
        name = todo.pop()
        if name not in xs:
            xs.add(name)
            d = p.procs.get(name)
            if d is not None:
                pids, calls = term_names(d.body)
                ps.update(d.params, pids)
                todo.extend(calls)
    return tuple(sorted(xs)), tuple(sorted(ps))


# ---------------------------------------------------------------------------
# Semantics


def cc_enabled(
    procs: Mapping[ProcName, ProcDef],
    c: Choreography,
    s: State,
    blocked: frozenset = frozenset(),
    everyone: Optional[frozenset] = None,
) -> list:
    """All derivable single transitions of ``c`` in canonical order.

    Head action first, then delayed actions of the continuation in
    left-to-right syntactic order; call entries follow the declared
    parameter order (running calls: the pending order).  An action fires
    only if it shares no process with the actions it overtakes.

    ``blocked`` and ``everyone`` are internal to the recursion:
    ``blocked`` holds the processes of the enclosing actions that the
    actions of ``c`` would overtake, and ``everyone``, when given, is
    the process set of ``infer_params``.  A term reached from the program
    holds only main and the bodies reachable from it, so every action
    uses some process of that set; once ``blocked`` holds all of
    ``everyone`` nothing below can fire and the walk stops there instead
    of running to the end of the term.
    """
    t = type(c)
    if t is End or (everyone is not None and blocked >= everyone):
        return []
    out: list = []
    if t is Interaction:
        eta = c.eta
        pids = (eta.sender, eta.receiver)
        if _may_delay_past_eta(pids, blocked):
            if type(eta) is CommEta:
                value = eval_expr(eta.expr, s, eta.sender)
                head = RichComm(eta.sender, value, eta.receiver, eta.var)
                out.append((head, c.cont, s.set(eta.receiver, eta.var, value)))
            else:
                out.append((RichSelect(eta.sender, eta.receiver, eta.label), c.cont, s))
        for (label, c2, s2) in cc_enabled(procs, c.cont, s, blocked.union(pids), everyone):
            out.append((label, Interaction(eta, c2), s2))
        return out
    if t is Cond:
        if _may_delay_past_eta((c.pid,), blocked):
            taken = c.then_c if eval_bexpr(c.guard, s, c.pid) else c.else_c
            out.append((RichCond(c.pid), taken, s))
        inner = blocked.union((c.pid,))
        else_enabled = {tr[0]: tr for tr in cc_enabled(procs, c.else_c, s, inner, everyone)}
        for (label, then2, s2) in cc_enabled(procs, c.then_c, s, inner, everyone):
            # a label fixes its store update, so both branches reach state s2
            hit = else_enabled.get(label)
            if hit is not None:
                out.append((label, Cond(c.pid, c.guard, then2, hit[1]), s2))
        return out
    if t is Call:
        d = procs.get(c.proc)
        if d is None:  # an undefined procedure: the call is stuck
            return []
        pending, body = d.params, d.body
    elif t is RunningCall:
        pending, body = c.pending, c.body
    else:
        raise TypeError(f"not a choreography: {c!r}")
    for pid in pending:
        if _may_delay_past_eta((pid,), blocked):
            rest = tuple(q for q in pending if q != pid)
            succ = RunningCall(c.proc, rest, body) if rest else body
            out.append((RichCall(c.proc, pid), succ, s))
    if t is RunningCall:
        for (label, body2, s2) in cc_enabled(
            procs, body, s, blocked.union(pending), everyone
        ):
            out.append((label, RunningCall(c.proc, pending, body2), s2))
    return out


def _may_delay_past_eta(pids: tuple, blocked: frozenset) -> bool:
    """An action may overtake others only if it shares no process with them."""
    return blocked.isdisjoint(pids)


def cc_step(p: ChorProgram, s: State, label: RichLabel) -> Tuple[ChorProgram, State]:
    everyone = frozenset(infer_params(p)[1])
    for (t, c2, s2) in cc_enabled(p.procs, p.main, s, frozenset(), everyone):
        if t == label:
            return ChorProgram(p.procs, c2), s2
    raise NotEnabledError(label)


def cc_run(
    p: ChorProgram,
    s: State = EMPTY_STATE,
    policy: str = "first",
    fuel: int = 1000,
    seed: int = 0,
) -> RunResult:
    """Run the choreography under ``core.drive``'s scheduling policies."""
    everyone = frozenset(infer_params(p)[1])
    enabled = lambda c, s2: cc_enabled(p.procs, c, s2, frozenset(), everyone)
    return drive(enabled, p.main, CHOR_END, s, policy, fuel, seed)
