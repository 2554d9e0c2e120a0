"""Frozen copies of earlier versions of ``chorkit.chor``.

``reference_cc_enabled`` is ``cc_enabled`` as it was before the delay
rule was folded into the recursion.  It derives every transition of a
continuation and then drops those that share a process with the action
they would overtake: under an interaction, under a conditional's
decider, and under a running call's pending processes.

``reference_scan_chor`` is the well-formedness scan as it was before it
walked interaction spines in a loop: one call per node, each building
its node's path.

``reference_subterms`` lists a term's nodes in pre-order by plain
recursion, as ``subterms`` yields them from its own stack.

``reference_chor_pids`` is the second walk ``cc_check_wf`` made of each
procedure body before ``_scan_chor`` came to return the processes a term
uses, and ``reference_cc_check_wf`` is ``cc_check_wf`` as it was then:
both ends of each interaction, a conditional's decider, the processes
``vars_of`` gives a call (the callee's declared ones, none when it is
undefined) and a running call's pending list.

Slow but plain; the differential tests in ``test_chor.py`` hold the
live functions to them.
"""

from chorkit.chor import Call, CommEta, Cond, End, Interaction, RunningCall, WfViolation
from chorkit.core import (
    RichCall,
    RichComm,
    RichCond,
    RichSelect,
    eval_bexpr,
    eval_expr,
    label_pids,
)


def reference_cc_enabled(procs, c, s) -> list:
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
        for (label, c2, s2) in reference_cc_enabled(procs, c.cont, s):
            if all(pid not in blocked for pid in label_pids(label)):
                out.append((label, Interaction(eta, c2), s2))
        return out
    if t is Cond:
        taken = c.then_c if eval_bexpr(c.guard, s, c.pid) else c.else_c
        out = [(RichCond(c.pid), taken, s)]
        else_enabled = {
            label: (c2, s2)
            for (label, c2, s2) in reference_cc_enabled(procs, c.else_c, s)
        }
        for (label, then2, s2) in reference_cc_enabled(procs, c.then_c, s):
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
        d = procs.get(c.proc)
        if d is None:
            return []
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
        for (label, body2, s2) in reference_cc_enabled(procs, c.body, s):
            if pending.isdisjoint(label_pids(label)):
                out.append((label, RunningCall(c.proc, c.pending, body2), s2))
        return out
    raise TypeError(f"not a choreography: {c!r}")


def reference_scan_chor(c, path, procs, out, in_procedure) -> None:
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
        reference_scan_chor(c.cont, path + ("cont",), procs, out, in_procedure)
    elif t is Cond:
        reference_scan_chor(c.then_c, path + ("then",), procs, out, in_procedure)
        reference_scan_chor(c.else_c, path + ("else",), procs, out, in_procedure)
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
        reference_scan_chor(c.body, path + ("body",), procs, out, in_procedure)


def reference_subterms(c) -> list:
    t = type(c)
    if t is Interaction:
        return [c, *reference_subterms(c.cont)]
    if t is Cond:
        return [c, *reference_subterms(c.then_c), *reference_subterms(c.else_c)]
    if t is RunningCall:
        return [c, *reference_subterms(c.body)]
    if t is End or t is Call:
        return [c]
    raise TypeError(f"not a choreography: {c!r}")


def reference_chor_pids(c, vars_of) -> frozenset:
    out: set = set()
    for n in reference_subterms(c):
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


def reference_cc_check_wf(p) -> tuple:
    out: list = []
    vars_of = lambda name: p.procs[name].params if name in p.procs else ()
    for name, d in sorted(p.procs.items()):
        if not d.params:
            out.append(WfViolation("empty-params", ("def", name), "no declared processes"))
        if len(set(d.params)) != len(d.params):
            out.append(
                WfViolation("duplicate-params", ("def", name), f"duplicates in {d.params}")
            )
        reference_scan_chor(d.body, ("def", name), p.procs, out, True)
        extra = reference_chor_pids(d.body, vars_of) - set(d.params)
        if extra:
            out.append(
                WfViolation(
                    "undeclared-process-use",
                    ("def", name),
                    f"body uses {sorted(extra)} not declared in {list(d.params)}",
                )
            )
    reference_scan_chor(p.main, ("main",), p.procs, out, False)
    return tuple(out)
