"""Stateful process calculus: local behaviours, networks, and semantics.

A behaviour is what a single process does: send or receive values, send a
label choice, offer branches, branch on a local condition, call a
procedure, or stop.  A network maps process names to behaviours and steps
by synchronous rendezvous: a send meets the matching receive, a label
send meets a branching that offers the label.  Procedure names here are
(procedure, pid) pairs because each procedure is compiled once per
participating process.

Networks are canonical: processes mapped to ``end`` are dropped, so
structural equality coincides with extensional equality.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Optional, Tuple, Union

from .core import (
    BExpr,
    EMPTY_STATE,
    CanonicalMap,
    Expr,
    NotEnabledError,
    Pid,
    ProcKey,
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


class End(NamedTuple):
    tag: str = "sp.end"
    __repr__ = node_repr


class Send(NamedTuple):
    peer: Pid
    expr: Expr
    cont: "Behaviour"
    tag: str = "sp.send"
    __repr__ = node_repr


class Recv(NamedTuple):
    peer: Pid
    var: VarName
    cont: "Behaviour"
    tag: str = "sp.recv"
    __repr__ = node_repr


class SelectSend(NamedTuple):
    peer: Pid
    label: str
    cont: "Behaviour"
    tag: str = "sp.selsend"
    __repr__ = node_repr


class Branch(NamedTuple):
    """Offer to the peer whichever of the two labelled options are present."""

    peer: Pid
    on_left: Optional["Behaviour"]
    on_right: Optional["Behaviour"]
    tag: str = "sp.branch"
    __repr__ = node_repr


class Cond(NamedTuple):
    guard: BExpr
    then_b: "Behaviour"
    else_b: "Behaviour"
    tag: str = "sp.cond"
    __repr__ = node_repr


class Call(NamedTuple):
    name: ProcKey
    tag: str = "sp.call"
    __repr__ = node_repr


Behaviour = Union[End, Send, Recv, SelectSend, Branch, Cond, Call]

SP_END = End()


class Network(CanonicalMap):
    """Canonical finite map from pid to behaviour; unmapped pids are ``end``."""

    __slots__ = ()
    default = SP_END

    def get(self, pid: Pid) -> Behaviour:
        return self._map.get(pid, SP_END)

    def set(self, pid: Pid, b: Behaviour) -> "Network":
        return self._patch(((pid, b),))

    def set_many(self, entries: Iterable) -> "Network":
        return self._patch(entries)

    def __repr__(self) -> str:
        body = " | ".join(f"{pid}[{b!r}]" for pid, b in self.items())
        return f"Network({body})"


EMPTY_NET = Network()


class NetProgram(NamedTuple):
    procs: Mapping[ProcKey, Behaviour]
    net: Network
    tag: str = "sp.program"
    __repr__ = node_repr


def _chosen_option(b: Branch, label: str) -> Optional[Behaviour]:
    """The branch continuation a label selects, or None if not offered."""
    return b.on_left if label == "left" else b.on_right


def sp_enabled(
    procs: Mapping[ProcKey, Behaviour], n: Network, s: State
) -> list:
    """All derivable transitions, iterating acting pids lexicographically.

    Each pid heads at most one action, so the result has at most one entry
    per acting process.
    """
    out: list = []
    for pid, b in n.items():
        t = type(b)
        if t is Send:
            q = b.peer
            qb = n.get(q)
            if type(qb) is Recv and qb.peer == pid:
                value = eval_expr(b.expr, s, pid)
                out.append(
                    (
                        RichComm(pid, value, q, qb.var),
                        n.set_many(((pid, b.cont), (q, qb.cont))),
                        s.set(q, qb.var, value),
                    )
                )
        elif t is SelectSend:
            q = b.peer
            qb = n.get(q)
            if type(qb) is Branch and qb.peer == pid:
                chosen = _chosen_option(qb, b.label)
                if chosen is not None:
                    out.append(
                        (
                            RichSelect(pid, q, b.label),
                            n.set_many(((pid, b.cont), (q, chosen))),
                            s,
                        )
                    )
        elif t is Cond:
            taken = b.then_b if eval_bexpr(b.guard, s, pid) else b.else_b
            out.append((RichCond(pid), n.set(pid, taken), s))
        elif t is Call:
            out.append(
                (RichCall(b.name, pid), n.set(pid, procs.get(b.name, SP_END)), s)
            )
    return out


def sp_step(p: NetProgram, s: State, label: RichLabel) -> Tuple[NetProgram, State]:
    """The one transition ``label`` names, derived from the processes it
    names alone, or ``NotEnabledError``.

    The rules are ``sp_enabled``'s, read from the label's side: a
    communication needs its sender to head a send to the receiver, the
    receiver a matching receive into the label's variable, and the
    evaluated value to be the label's; a selection needs the offer it
    picks (``_chosen_option``); a conditional or a call needs its pid to
    head one, the call naming the label's procedure.  It shares only the
    evaluators, the map updates and ``_chosen_option`` with
    ``sp_enabled``, so the checker's stability check derives each
    transition a second, independent time.
    """
    n = p.net
    k = type(label)
    if k is RichComm:
        pid, q = label.sender, label.receiver
        b, qb = n.get(pid), n.get(q)
        if (
            type(b) is Send and b.peer == q
            and type(qb) is Recv and qb.peer == pid and qb.var == label.var
        ):
            value = eval_expr(b.expr, s, pid)
            if value == label.value:
                return (
                    NetProgram(p.procs, n.set_many(((pid, b.cont), (q, qb.cont)))),
                    s.set(q, qb.var, value),
                )
    elif k is RichSelect:
        pid, q = label.sender, label.receiver
        b, qb = n.get(pid), n.get(q)
        if (
            type(b) is SelectSend and b.peer == q and b.label == label.label
            and type(qb) is Branch and qb.peer == pid
        ):
            chosen = _chosen_option(qb, label.label)
            if chosen is not None:
                return NetProgram(p.procs, n.set_many(((pid, b.cont), (q, chosen)))), s
    elif k is RichCond:
        pid = label.pid
        b = n.get(pid)
        if type(b) is Cond:
            taken = b.then_b if eval_bexpr(b.guard, s, pid) else b.else_b
            return NetProgram(p.procs, n.set(pid, taken)), s
    elif k is RichCall:
        pid = label.pid
        b = n.get(pid)
        if type(b) is Call and b.name == label.proc:
            return NetProgram(p.procs, n.set(pid, p.procs.get(b.name, SP_END))), s
    raise NotEnabledError(label)


def sp_run(
    p: NetProgram,
    s: State = EMPTY_STATE,
    policy: str = "first",
    fuel: int = 1000,
    seed: int = 0,
) -> RunResult:
    """Run the network under ``core.drive``'s scheduling policies."""
    return drive(
        lambda n, s2: sp_enabled(p.procs, n, s2), p.net, EMPTY_NET, s, policy, fuel, seed
    )
