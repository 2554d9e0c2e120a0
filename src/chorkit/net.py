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
    Expr,
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
)
from .chor import NotEnabledError


class End(NamedTuple):
    tag: str = "sp.end"

    def __repr__(self) -> str:
        return "End()"


class Send(NamedTuple):
    peer: Pid
    expr: Expr
    cont: "Behaviour"
    tag: str = "sp.send"

    def __repr__(self) -> str:
        return f"Send({self.peer!r}, {self.expr!r}, {self.cont!r})"


class Recv(NamedTuple):
    peer: Pid
    var: VarName
    cont: "Behaviour"
    tag: str = "sp.recv"

    def __repr__(self) -> str:
        return f"Recv({self.peer!r}, {self.var!r}, {self.cont!r})"


class SelectSend(NamedTuple):
    peer: Pid
    label: str
    cont: "Behaviour"
    tag: str = "sp.selsend"

    def __repr__(self) -> str:
        return f"SelectSend({self.peer!r}, {self.label!r}, {self.cont!r})"


class Branch(NamedTuple):
    """Offer to the peer whichever of the two labelled options are present."""

    peer: Pid
    on_left: Optional["Behaviour"]
    on_right: Optional["Behaviour"]
    tag: str = "sp.branch"

    def __repr__(self) -> str:
        return f"Branch({self.peer!r}, {self.on_left!r}, {self.on_right!r})"


class Cond(NamedTuple):
    guard: BExpr
    then_b: "Behaviour"
    else_b: "Behaviour"
    tag: str = "sp.cond"

    def __repr__(self) -> str:
        return f"Cond({self.guard!r}, {self.then_b!r}, {self.else_b!r})"


class Call(NamedTuple):
    name: ProcKey
    tag: str = "sp.call"

    def __repr__(self) -> str:
        return f"Call({self.name!r})"


Behaviour = Union[End, Send, Recv, SelectSend, Branch, Cond, Call]

SP_END = End()


class Network:
    """Canonical finite map from pid to behaviour; unmapped pids are ``end``."""

    __slots__ = ("_map", "_key")

    def __init__(self, entries: Mapping | Iterable = ()) -> None:
        items = entries.items() if isinstance(entries, Mapping) else entries
        m = {}
        for pid, b in items:
            if b != SP_END:
                m[pid] = b
            else:
                m.pop(pid, None)
        self._map = m
        self._key = tuple(sorted(m.items()))

    @property
    def support(self) -> tuple:
        """Pids with a non-end behaviour, sorted."""
        return tuple(pid for pid, _ in self._key)

    def get(self, pid: Pid) -> Behaviour:
        return self._map.get(pid, SP_END)

    def set(self, pid: Pid, b: Behaviour) -> "Network":
        return self.set_many(((pid, b),))

    def set_many(self, entries: Iterable) -> "Network":
        m = dict(self._map)
        for pid, b in entries:
            if b != SP_END:
                m[pid] = b
            else:
                m.pop(pid, None)
        return Network(m)

    def items(self) -> tuple:
        return self._key

    def __eq__(self, other: object) -> bool:
        if type(other) is not Network:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        if not self._key:
            return "Network()"
        body = " | ".join(f"{pid}[{b!r}]" for pid, b in self._key)
        return f"Network({body})"


EMPTY_NET = Network()


class NetProgram(NamedTuple):
    procs: Mapping[ProcKey, Behaviour]
    net: Network
    tag: str = "sp.program"

    def __repr__(self) -> str:
        return f"NetProgram({dict(self.procs)!r}, {self.net!r})"


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
    for pid in n.support:
        b = n.get(pid)
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
    for (t, n2, s2) in sp_enabled(p.procs, p.net, s):
        if t == label:
            return NetProgram(p.procs, n2), s2
    raise NotEnabledError(label)


def sp_run(
    p: NetProgram,
    s: State = EMPTY_STATE,
    policy: str = "first",
    fuel: int = 1000,
    seed: int = 0,
) -> RunResult:
    """Run the network under ``core.drive``'s scheduling policies."""
    return drive(lambda n, s2: sp_enabled(p.procs, n, s2), p.net, s, policy, fuel, seed)
