"""Shared kernel: values, expressions, stores, labels, traces and runs.

Both the choreography language and the process calculus are parametric in
the same data layer: identifiers are strings, values are wrapping signed
64-bit integers, and expressions are small arithmetic/boolean trees that a
process evaluates against its own variables.  Transition labels come in two
flavours, rich labels that carry the full action detail and observable
labels obtained by forgetting the parts an outside observer cannot see.

AST nodes are NamedTuples with a defaulted ``tag`` discriminator as the
last field.  Tags are globally unique, so two nodes of different kinds can
never compare equal even when their payloads coincide, while equality and
hashing stay at C speed (plain tuple comparison).  That speed matters: the
merge-algebra test sweeps run hundreds of millions of comparisons.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Tuple, Union

Pid = str
VarName = str
ProcName = str
# Procedure names on the process-calculus side are (procedure, pid) pairs.
ProcKey = Tuple[str, Pid]

LABEL_LEFT = "left"
LABEL_RIGHT = "right"
LABELS = (LABEL_LEFT, LABEL_RIGHT)

_SPAN = 1 << 64
_BIAS = 1 << 63


def wrap64(n: int) -> int:
    """Reduce an int to the signed 64-bit range with wraparound."""
    return (n + _BIAS) % _SPAN - _BIAS


# ---------------------------------------------------------------------------
# Expressions


class Lit(NamedTuple):
    value: int
    tag: str = "e.lit"

    def __repr__(self) -> str:
        return f"Lit({self.value})"


class VarRef(NamedTuple):
    name: VarName
    tag: str = "e.var"

    def __repr__(self) -> str:
        return f"VarRef({self.name!r})"


class Add(NamedTuple):
    lhs: "Expr"
    rhs: "Expr"
    tag: str = "e.add"

    def __repr__(self) -> str:
        return f"Add({self.lhs!r}, {self.rhs!r})"


class Sub(NamedTuple):
    lhs: "Expr"
    rhs: "Expr"
    tag: str = "e.sub"

    def __repr__(self) -> str:
        return f"Sub({self.lhs!r}, {self.rhs!r})"


class Mul(NamedTuple):
    lhs: "Expr"
    rhs: "Expr"
    tag: str = "e.mul"

    def __repr__(self) -> str:
        return f"Mul({self.lhs!r}, {self.rhs!r})"


Expr = Union[Lit, VarRef, Add, Sub, Mul]


class BoolLit(NamedTuple):
    value: bool
    tag: str = "b.lit"

    def __repr__(self) -> str:
        return f"BoolLit({self.value})"


class Eq(NamedTuple):
    lhs: Expr
    rhs: Expr
    tag: str = "b.eq"

    def __repr__(self) -> str:
        return f"Eq({self.lhs!r}, {self.rhs!r})"


class Le(NamedTuple):
    lhs: Expr
    rhs: Expr
    tag: str = "b.le"

    def __repr__(self) -> str:
        return f"Le({self.lhs!r}, {self.rhs!r})"


class Lt(NamedTuple):
    lhs: Expr
    rhs: Expr
    tag: str = "b.lt"

    def __repr__(self) -> str:
        return f"Lt({self.lhs!r}, {self.rhs!r})"


class Not(NamedTuple):
    operand: "BExpr"
    tag: str = "b.not"

    def __repr__(self) -> str:
        return f"Not({self.operand!r})"


class And(NamedTuple):
    lhs: "BExpr"
    rhs: "BExpr"
    tag: str = "b.and"

    def __repr__(self) -> str:
        return f"And({self.lhs!r}, {self.rhs!r})"


BExpr = Union[BoolLit, Eq, Le, Lt, Not, And]

TRUE = BoolLit(True)
FALSE = BoolLit(False)


# ---------------------------------------------------------------------------
# Stores


class State:
    """Finite store keyed by (pid, variable); absent keys read as 0.

    The representation is canonical: zero-valued entries are dropped and
    values are wrapped to 64 bits, so structural equality and hashing
    coincide with extensional equality of the underlying total function.
    """

    __slots__ = ("_map", "_key")

    def __init__(self, entries: Mapping | Iterable = ()) -> None:
        items = entries.items() if isinstance(entries, Mapping) else entries
        m = {}
        for (pid, var), value in items:
            value = wrap64(value)
            if value != 0:
                m[(pid, var)] = value
            else:
                m.pop((pid, var), None)
        self._map = m
        self._key = tuple(sorted(m.items()))

    def get(self, pid: Pid, var: VarName) -> int:
        return self._map.get((pid, var), 0)

    def set(self, pid: Pid, var: VarName, value: int) -> "State":
        m = dict(self._map)
        value = wrap64(value)
        if value != 0:
            m[(pid, var)] = value
        else:
            m.pop((pid, var), None)
        return State(m)

    def items(self) -> tuple:
        """Sorted ((pid, var), value) pairs; zero entries never appear."""
        return self._key

    def __iter__(self) -> Iterator:
        return iter(self._key)

    def __len__(self) -> int:
        return len(self._key)

    def __eq__(self, other: object) -> bool:
        if type(other) is not State:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        if not self._key:
            return "State()"
        body = ", ".join(f"{p}.{x}={v}" for (p, x), v in self._key)
        return f"State({body})"


EMPTY_STATE = State()


def eval_expr(e: Expr, s: State, p: Pid) -> int:
    """Evaluate an expression against process p's variables. Total."""
    t = type(e)
    if t is Lit:
        return wrap64(e.value)
    if t is VarRef:
        return s.get(p, e.name)
    a = eval_expr(e.lhs, s, p)
    b = eval_expr(e.rhs, s, p)
    if t is Add:
        return wrap64(a + b)
    if t is Sub:
        return wrap64(a - b)
    if t is Mul:
        return wrap64(a * b)
    raise TypeError(f"not an expression: {e!r}")


def eval_bexpr(b: BExpr, s: State, p: Pid) -> bool:
    t = type(b)
    if t is BoolLit:
        return b.value
    if t is Not:
        return not eval_bexpr(b.operand, s, p)
    if t is And:
        return eval_bexpr(b.lhs, s, p) and eval_bexpr(b.rhs, s, p)
    lhs = eval_expr(b.lhs, s, p)
    rhs = eval_expr(b.rhs, s, p)
    if t is Eq:
        return lhs == rhs
    if t is Le:
        return lhs <= rhs
    if t is Lt:
        return lhs < rhs
    raise TypeError(f"not a boolean expression: {b!r}")


# ---------------------------------------------------------------------------
# Transition labels

# Rich labels carry everything a transition did.  The procedure name in
# RichCall is a plain string for choreographies and a (proc, pid) pair for
# networks; the label type itself does not care.


class RichComm(NamedTuple):
    sender: Pid
    value: int
    receiver: Pid
    var: VarName
    tag: str = "r.com"

    def __repr__(self) -> str:
        return f"RichComm({self.sender!r}, {self.value}, {self.receiver!r}, {self.var!r})"


class RichSelect(NamedTuple):
    sender: Pid
    receiver: Pid
    label: str
    tag: str = "r.sel"

    def __repr__(self) -> str:
        return f"RichSelect({self.sender!r}, {self.receiver!r}, {self.label!r})"


class RichCond(NamedTuple):
    pid: Pid
    tag: str = "r.cond"

    def __repr__(self) -> str:
        return f"RichCond({self.pid!r})"


class RichCall(NamedTuple):
    proc: object  # ProcName | ProcKey
    pid: Pid
    tag: str = "r.call"

    def __repr__(self) -> str:
        return f"RichCall({self.proc!r}, {self.pid!r})"


RichLabel = Union[RichComm, RichSelect, RichCond, RichCall]


class ObsComm(NamedTuple):
    sender: Pid
    value: int
    receiver: Pid
    tag: str = "o.com"

    def __repr__(self) -> str:
        return f"ObsComm({self.sender!r}, {self.value}, {self.receiver!r})"


class ObsSelect(NamedTuple):
    sender: Pid
    receiver: Pid
    label: str
    tag: str = "o.sel"

    def __repr__(self) -> str:
        return f"ObsSelect({self.sender!r}, {self.receiver!r}, {self.label!r})"


class ObsTau(NamedTuple):
    pid: Pid
    tag: str = "o.tau"

    def __repr__(self) -> str:
        return f"ObsTau({self.pid!r})"


ObsLabel = Union[ObsComm, ObsSelect, ObsTau]


def forget(t: RichLabel) -> ObsLabel:
    """Drop the detail an observer cannot see.

    Communications lose the target variable, conditionals and procedure
    calls become internal moves of the acting process.
    """
    k = type(t)
    if k is RichComm:
        return ObsComm(t.sender, t.value, t.receiver)
    if k is RichSelect:
        return ObsSelect(t.sender, t.receiver, t.label)
    if k is RichCond:
        return ObsTau(t.pid)
    if k is RichCall:
        return ObsTau(t.pid)
    raise TypeError(f"not a rich label: {t!r}")


def label_pids(t: RichLabel) -> tuple:
    """The processes taking part in a transition, in label order."""
    k = type(t)
    if k is RichComm:
        return (t.sender, t.receiver)
    if k is RichSelect:
        return (t.sender, t.receiver)
    if k is RichCond:
        return (t.pid,)
    if k is RichCall:
        return (t.pid,)
    raise TypeError(f"not a rich label: {t!r}")


def _proc_text(proc: object) -> str:
    if isinstance(proc, tuple):
        return f"{proc[0]}@{proc[1]}"
    return str(proc)


def rich_label_text(t: RichLabel) -> str:
    k = type(t)
    if k is RichComm:
        return f"{t.sender}.{t.value} -> {t.receiver}.{t.var}"
    if k is RichSelect:
        return f"{t.sender} -> {t.receiver}[{t.label}]"
    if k is RichCond:
        return f"if {t.pid}"
    if k is RichCall:
        return f"call {_proc_text(t.proc)} @ {t.pid}"
    raise TypeError(f"not a rich label: {t!r}")


def obs_label_text(l: ObsLabel) -> str:
    k = type(l)
    if k is ObsComm:
        return f"{l.sender}.{l.value} -> {l.receiver}"
    if k is ObsSelect:
        return f"{l.sender} -> {l.receiver}[{l.label}]"
    if k is ObsTau:
        return f"tau {l.pid}"
    raise TypeError(f"not an observable label: {l!r}")


# ---------------------------------------------------------------------------
# Traces


class TraceRecord(NamedTuple):
    step: int
    rich: RichLabel
    label: ObsLabel
    actors: tuple
    pre_digest: str
    post_digest: str
    tag: str = "trace.rec"

    def __repr__(self) -> str:
        return f"TraceRecord({self.step}, {rich_label_text(self.rich)!r})"


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def state_digest(s: State) -> str:
    """16-hex-digit FNV-1a hash of the canonical store serialisation."""
    text = ";".join(f"{p}.{x}={v}" for (p, x), v in s.items())
    return f"{fnv1a64(text.encode('utf-8')):016x}"


def trace_record(step: int, rich: RichLabel, pre_digest: str, post_digest: str) -> TraceRecord:
    """The record of one committed transition."""
    return TraceRecord(step, rich, forget(rich), label_pids(rich), pre_digest, post_digest)


# ---------------------------------------------------------------------------
# Runs


@dataclass(frozen=True)
class RunResult:
    trace: Tuple[TraceRecord, ...]
    final: object  # the choreography or network the run stopped at
    final_state: State
    outcome: str  # terminated | fuel-exhausted

    @property
    def labels(self) -> tuple:
        return tuple(r.label for r in self.trace)


def drive(
    enabled: Callable[[object, State], list],
    term: object,
    s: State,
    policy: str,
    fuel: int,
    seed: int,
) -> RunResult:
    """Step ``term`` until no action remains or fuel runs out.

    ``enabled(term, s)`` lists the (label, term, state) transitions in
    canonical order.  Policy "first" always takes the first; "random"
    draws from a seeded generator, so runs are repeatable.  A step's
    pre-state digest is the previous step's post-state digest, so each
    step hashes the store once.
    """
    if policy not in ("first", "random"):
        raise ValueError(f"unknown policy {policy!r}")
    rng = random.Random(seed)
    trace: list = []
    digest = state_digest(s)
    for step in range(fuel):
        trans = enabled(term, s)
        if not trans:
            return RunResult(tuple(trace), term, s, "terminated")
        label, term, s = trans[0] if policy == "first" else rng.choice(trans)
        post = state_digest(s)
        trace.append(trace_record(step, label, digest, post))
        digest = post
    outcome = "fuel-exhausted" if enabled(term, s) else "terminated"
    return RunResult(tuple(trace), term, s, outcome)
