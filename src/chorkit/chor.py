"""Choreography language: syntax tree, well-formedness, and semantics.

A choreography describes a multiparty protocol from a global viewpoint:
value communications and label selections between pairs of processes,
conditionals decided by a single process, and calls to recursive
procedures.  Procedure entry is gradual: a call unfolds into a running
call term that tracks which of the declared processes have not yet
entered, and the body may start executing early as long as it does not
touch a process that is still pending.

The semantics is a labelled transition system over (choreography, state)
pairs.  ``cc_enabled`` enumerates the derivable transitions in a fixed
canonical order (head action first, then delayed actions in syntactic
order, call entries in declaration order) so that runs and golden tests
are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple, Tuple, Union

from .core import (
    BExpr,
    EMPTY_STATE,
    Expr,
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
    label_pids,
)

# ---------------------------------------------------------------------------
# Syntax


class CommEta(NamedTuple):
    sender: Pid
    expr: Expr
    receiver: Pid
    var: VarName
    tag: str = "cc.com"

    def __repr__(self) -> str:
        return f"CommEta({self.sender!r}, {self.expr!r}, {self.receiver!r}, {self.var!r})"


class SelectEta(NamedTuple):
    sender: Pid
    receiver: Pid
    label: str
    tag: str = "cc.sel"

    def __repr__(self) -> str:
        return f"SelectEta({self.sender!r}, {self.receiver!r}, {self.label!r})"


Eta = Union[CommEta, SelectEta]


class End(NamedTuple):
    tag: str = "cc.end"

    def __repr__(self) -> str:
        return "End()"


class Interaction(NamedTuple):
    eta: Eta
    cont: "Choreography"
    tag: str = "cc.seq"

    def __repr__(self) -> str:
        return f"Interaction({self.eta!r}, {self.cont!r})"


class Cond(NamedTuple):
    pid: Pid
    guard: BExpr
    then_c: "Choreography"
    else_c: "Choreography"
    tag: str = "cc.cond"

    def __repr__(self) -> str:
        return f"Cond({self.pid!r}, {self.guard!r}, {self.then_c!r}, {self.else_c!r})"


class Call(NamedTuple):
    proc: ProcName
    tag: str = "cc.call"

    def __repr__(self) -> str:
        return f"Call({self.proc!r})"


class RunningCall(NamedTuple):
    """A call some processes have already entered; ``pending`` have not."""

    proc: ProcName
    pending: Tuple[Pid, ...]
    body: "Choreography"
    tag: str = "cc.rtcall"

    def __repr__(self) -> str:
        return f"RunningCall({self.proc!r}, {self.pending!r}, {self.body!r})"


Choreography = Union[End, Interaction, Cond, Call, RunningCall]

CHOR_END = End()


class ProcDef(NamedTuple):
    """A procedure: the processes it uses, in declaration order, and its body."""

    params: Tuple[Pid, ...]
    body: Choreography
    tag: str = "cc.procdef"

    def __repr__(self) -> str:
        return f"ProcDef({self.params!r}, {self.body!r})"


class ChorProgram(NamedTuple):
    procs: Mapping[ProcName, ProcDef]
    main: Choreography
    tag: str = "cc.program"

    def __repr__(self) -> str:
        return f"ChorProgram({dict(self.procs)!r}, {self.main!r})"


def is_initial(c: Choreography) -> bool:
    """True when no running-call term occurs anywhere in the tree."""
    t = type(c)
    if t is RunningCall:
        return False
    if t is Interaction:
        return is_initial(c.cont)
    if t is Cond:
        return is_initial(c.then_c) and is_initial(c.else_c)
    return True


def called_procs(c: Choreography) -> frozenset:
    """Procedure names syntactically reachable in one choreography term."""
    t = type(c)
    if t is Call:
        return frozenset((c.proc,))
    if t is RunningCall:
        return frozenset((c.proc,)) | called_procs(c.body)
    if t is Interaction:
        return called_procs(c.cont)
    if t is Cond:
        return called_procs(c.then_c) | called_procs(c.else_c)
    return frozenset()


def chor_pids(c: Choreography, vars_of: Callable[[ProcName], Iterable[Pid]]) -> frozenset:
    """Processes used by a choreography.

    ``vars_of`` supplies the processes attributed to each procedure call;
    pass ``lambda _: ()`` for a purely syntactic scan or the declared
    parameter lists to count call sites as using their procedure's
    processes.
    """
    t = type(c)
    if t is End:
        return frozenset()
    if t is Interaction:
        eta = c.eta
        return frozenset((eta.sender, eta.receiver)) | chor_pids(c.cont, vars_of)
    if t is Cond:
        return (
            frozenset((c.pid,))
            | chor_pids(c.then_c, vars_of)
            | chor_pids(c.else_c, vars_of)
        )
    if t is Call:
        return frozenset(vars_of(c.proc))
    if t is RunningCall:
        return frozenset(c.pending) | chor_pids(c.body, vars_of)
    raise TypeError(f"not a choreography: {c!r}")


# ---------------------------------------------------------------------------
# Well-formedness

Path = Tuple[str, ...]


@dataclass(frozen=True)
class WfViolation:
    rule: str
    path: Path
    detail: str

    def __str__(self) -> str:
        return f"[{self.rule}] at {'/'.join(self.path) or '<root>'}: {self.detail}"


@dataclass(frozen=True)
class WfReport:
    violations: Tuple[WfViolation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "well-formed"
        return "\n".join(str(v) for v in self.violations)


def _scan_chor(
    c: Choreography,
    path: Path,
    procs: Mapping[ProcName, ProcDef],
    out: list,
    in_procedure: bool,
) -> None:
    t = type(c)
    if t is Interaction:
        eta = c.eta
        if eta.sender == eta.receiver:
            out.append(
                WfViolation(
                    "self-communication",
                    path,
                    f"process {eta.sender} interacts with itself",
                )
            )
        _scan_chor(c.cont, path + ("cont",), procs, out, in_procedure)
    elif t is Cond:
        _scan_chor(c.then_c, path + ("then",), procs, out, in_procedure)
        _scan_chor(c.else_c, path + ("else",), procs, out, in_procedure)
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
        _scan_chor(c.body, path + ("body",), procs, out, in_procedure)


def cc_check_wf(p: ChorProgram) -> WfReport:
    """Check the restrictions a runnable program must satisfy.

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
        if not is_initial(d.body):
            out.append(
                WfViolation(
                    "non-initial-procedure-body",
                    ("def", name),
                    "body contains a running-call term",
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
    return WfReport(tuple(out))


# ---------------------------------------------------------------------------
# Semantics


class NotEnabledError(Exception):
    def __init__(self, label: RichLabel):
        super().__init__(f"transition not enabled: {label!r}")
        self.label = label


def cc_enabled(
    procs: Mapping[ProcName, ProcDef], c: Choreography, s: State
) -> list:
    """All derivable single transitions of ``c`` in canonical order.

    Head action first, then delayed actions of the continuation in
    left-to-right syntactic order; call entries follow the declared
    parameter order (running calls: the pending order).
    """
    t = type(c)
    if t is End:
        return []
    if t is Interaction:
        eta = c.eta
        out: list = []
        if type(eta) is CommEta:
            value = eval_expr(eta.expr, s, eta.sender)
            out.append(
                (
                    RichComm(eta.sender, value, eta.receiver, eta.var),
                    c.cont,
                    s.set(eta.receiver, eta.var, value),
                )
            )
        else:
            out.append((RichSelect(eta.sender, eta.receiver, eta.label), c.cont, s))
        blocked = (eta.sender, eta.receiver)
        for (label, c2, s2) in cc_enabled(procs, c.cont, s):
            if _may_delay_past_eta(label, blocked):
                out.append((label, Interaction(eta, c2), s2))
        return out
    if t is Cond:
        taken = c.then_c if eval_bexpr(c.guard, s, c.pid) else c.else_c
        out = [(RichCond(c.pid), taken, s)]
        else_enabled = {
            label: (c2, s2) for (label, c2, s2) in cc_enabled(procs, c.else_c, s)
        }
        for (label, then2, s2) in cc_enabled(procs, c.then_c, s):
            if c.pid in label_pids(label):
                continue
            hit = else_enabled.get(label)
            if hit is None:
                continue
            else2, s2e = hit
            if s2 == s2e:
                out.append((label, Cond(c.pid, c.guard, then2, else2), s2))
        return out
    if t is Call:
        d = procs[c.proc]
        out = []
        for pid in d.params:
            rest = tuple(q for q in d.params if q != pid)
            succ = RunningCall(c.proc, rest, d.body) if rest else d.body
            out.append((RichCall(c.proc, pid), succ, s))
        return out
    if t is RunningCall:
        out = []
        for pid in c.pending:
            rest = tuple(q for q in c.pending if q != pid)
            succ = RunningCall(c.proc, rest, c.body) if rest else c.body
            out.append((RichCall(c.proc, pid), succ, s))
        pending = frozenset(c.pending)
        for (label, body2, s2) in cc_enabled(procs, c.body, s):
            if pending.isdisjoint(label_pids(label)):
                out.append((label, RunningCall(c.proc, c.pending, body2), s2))
        return out
    raise TypeError(f"not a choreography: {c!r}")


def _may_delay_past_eta(label: RichLabel, eta_pids: tuple) -> bool:
    """An action can move past an interaction only if their processes are disjoint."""
    for pid in label_pids(label):
        if pid in eta_pids:
            return False
    return True


def cc_step(p: ChorProgram, s: State, label: RichLabel) -> Tuple[ChorProgram, State]:
    for (t, c2, s2) in cc_enabled(p.procs, p.main, s):
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
    return drive(lambda c, s2: cc_enabled(p.procs, c, s2), p.main, s, policy, fuel, seed)
