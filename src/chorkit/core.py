"""Shared kernel: values, expressions, stores, labels, traces and runs.

Both the choreography language and the process calculus are parametric in
the same data layer: identifiers are strings, values are wrapping signed
64-bit integers, and expressions are small arithmetic/boolean trees that a
process evaluates against its own variables.  Transition labels come in two
flavours, rich labels that carry the full action detail and observable
labels obtained by forgetting the parts an outside observer cannot see.

Stores and networks are total functions compared extensionally, so key
order is not part of either value: a ``CanonicalMap`` keeps its entries
in one dict and sorts them only where it is read, in ``items``.

AST nodes are NamedTuples with a defaulted ``tag`` discriminator as the
last field; they share one constructor-style repr, ``node_repr``.  Tags
are globally unique, so two nodes of different kinds can never compare
equal even when their payloads coincide, while equality and hashing stay
at C speed (plain tuple comparison).  That speed matters: the
merge-algebra test sweeps run hundreds of millions of comparisons.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from typing import Callable, Iterable, Iterator, NamedTuple, Tuple, Union

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


def node_repr(node: tuple) -> str:
    """Constructor-style repr of an AST node: every field but the tag.

    Iterative along the sequential spine (a last field named ``cont``),
    where the depth of a long program comes from, so its repr does not
    recurse once per interaction.
    """
    parts = []
    while True:
        fields = node[:-1]
        cont = fields[-1] if fields and node._fields[-2] == "cont" else None
        if type(cont).__repr__ is not node_repr:
            parts.append(f"{type(node).__name__}({', '.join(map(repr, fields))})")
            break
        parts.append(f"{type(node).__name__}({''.join(repr(f) + ', ' for f in fields[:-1])}")
        node = cont
    return "".join(parts) + ")" * (len(parts) - 1)


# ---------------------------------------------------------------------------
# Expressions


class Lit(NamedTuple):
    value: int
    tag: str = "e.lit"
    __repr__ = node_repr


class VarRef(NamedTuple):
    name: VarName
    tag: str = "e.var"
    __repr__ = node_repr


class Add(NamedTuple):
    lhs: "Expr"
    rhs: "Expr"
    tag: str = "e.add"
    __repr__ = node_repr


class Sub(NamedTuple):
    lhs: "Expr"
    rhs: "Expr"
    tag: str = "e.sub"
    __repr__ = node_repr


class Mul(NamedTuple):
    lhs: "Expr"
    rhs: "Expr"
    tag: str = "e.mul"
    __repr__ = node_repr


Expr = Union[Lit, VarRef, Add, Sub, Mul]


class BoolLit(NamedTuple):
    value: bool
    tag: str = "b.lit"
    __repr__ = node_repr


class Eq(NamedTuple):
    lhs: Expr
    rhs: Expr
    tag: str = "b.eq"
    __repr__ = node_repr


class Le(NamedTuple):
    lhs: Expr
    rhs: Expr
    tag: str = "b.le"
    __repr__ = node_repr


class Lt(NamedTuple):
    lhs: Expr
    rhs: Expr
    tag: str = "b.lt"
    __repr__ = node_repr


class Not(NamedTuple):
    operand: "BExpr"
    tag: str = "b.not"
    __repr__ = node_repr


class And(NamedTuple):
    lhs: "BExpr"
    rhs: "BExpr"
    tag: str = "b.and"
    __repr__ = node_repr


BExpr = Union[BoolLit, Eq, Le, Lt, Not, And]

TRUE = BoolLit(True)
FALSE = BoolLit(False)


# ---------------------------------------------------------------------------
# Stores


class CanonicalMap:
    """Finite map in canonical form: entries equal to the default are dropped.

    Values pass through ``normalise`` on the way in and the entries live
    in one dict, so ``==`` is dict equality and the hash is taken over the
    entries as a set: both coincide with extensional equality of the
    underlying total function, whatever order the keys were written in.
    Key order is produced where a map is read: ``items`` sorts, and
    ``key_view`` gives the keys unordered to callers that need no order.
    Subclasses set ``default`` and ``normalise``; updates copy the dict and
    patch only the written entries, since the others are canonical already.
    Within chorkit only the successor table hashes a map, so no hash is kept.
    """

    __slots__ = ("_map",)
    default: object = None
    normalise = staticmethod(lambda value: value)

    def __init__(self, entries: Mapping | Iterable = ()) -> None:
        self._fill({}, entries.items() if isinstance(entries, Mapping) else entries)

    def _fill(self, m: dict, entries: Iterable) -> None:
        norm, default = self.normalise, self.default
        for key, value in entries:
            value = norm(value)
            if value != default:
                m[key] = value
            else:
                m.pop(key, None)
        self._map = m

    def _patch(self, entries: Iterable):
        """A copy with ``entries`` written, built without ``__init__``."""
        new = object.__new__(type(self))
        new._fill(dict(self._map), entries)
        return new

    def items(self) -> tuple:
        """(key, value) pairs sorted by key; default entries never appear."""
        return tuple(sorted(self._map.items()))

    def key_view(self):
        """The keys of the non-default entries, unordered: a set-like view
        for callers that only test or combine membership.  It is not
        called ``keys``, so that ``dict(m)`` still reads ``m``'s pairs."""
        return self._map.keys()

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._map == other._map

    def __hash__(self) -> int:
        return hash(frozenset(self._map.items()))


class State(CanonicalMap):
    """Finite store keyed by (pid, variable); absent keys read as 0.

    Values are wrapped to 64 bits and zero entries are dropped.
    """

    __slots__ = ()
    default = 0
    normalise = staticmethod(wrap64)

    def get(self, pid: Pid, var: VarName) -> int:
        return self._map.get((pid, var), 0)

    def set(self, pid: Pid, var: VarName, value: int) -> "State":
        return self._patch((((pid, var), value),))

    def __iter__(self) -> Iterator:
        return iter(self.items())

    def __len__(self) -> int:
        return len(self._map)

    def __repr__(self) -> str:
        body = ", ".join(f"{p}.{x}={v}" for (p, x), v in self.items())
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
    __repr__ = node_repr


class RichSelect(NamedTuple):
    sender: Pid
    receiver: Pid
    label: str
    tag: str = "r.sel"
    __repr__ = node_repr


class RichCond(NamedTuple):
    pid: Pid
    tag: str = "r.cond"
    __repr__ = node_repr


class RichCall(NamedTuple):
    proc: object  # ProcName | ProcKey
    pid: Pid
    tag: str = "r.call"
    __repr__ = node_repr


RichLabel = Union[RichComm, RichSelect, RichCond, RichCall]


class ObsComm(NamedTuple):
    sender: Pid
    value: int
    receiver: Pid
    tag: str = "o.com"
    __repr__ = node_repr


class ObsSelect(NamedTuple):
    sender: Pid
    receiver: Pid
    label: str
    tag: str = "o.sel"
    __repr__ = node_repr


class ObsTau(NamedTuple):
    pid: Pid
    tag: str = "o.tau"
    __repr__ = node_repr


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


class NotEnabledError(Exception):
    def __init__(self, label: RichLabel):
        super().__init__(f"transition not enabled: {label!r}")
        self.label = label


class RunResult(NamedTuple):
    trace: Tuple[TraceRecord, ...]
    final: object  # the choreography or network the run stopped at
    final_state: State
    outcome: str  # terminated | deadlocked | fuel-exhausted

    @property
    def labels(self) -> tuple:
        return tuple(r.label for r in self.trace)


def drive(
    enabled: Callable[[object, State], list],
    term: object,
    end: object,
    s: State,
    policy: str,
    fuel: int,
    seed: int,
) -> RunResult:
    """Step ``term`` until no action remains or fuel runs out.

    ``enabled(term, s)`` lists the (label, term, state) transitions in
    canonical order.  A run with no action left has terminated if it
    stopped at ``end`` and is deadlocked otherwise.  Policy "first" always takes the first; "random"
    draws from a seeded generator, so runs are repeatable.  A step's
    pre-state digest is the previous step's post-state digest, which a
    step that returns the same store object keeps.
    """
    if policy not in ("first", "random"):
        raise ValueError(f"unknown policy {policy!r}")
    if fuel < 0:
        raise ValueError(f"fuel must be at least 0, got {fuel}")
    rng = random.Random(seed)
    trace: list = []
    digest = state_digest(s)
    for step in range(fuel + 1):
        trans = enabled(term, s)
        if not trans:
            outcome = "terminated" if term == end else "deadlocked"
            break
        if step == fuel:
            outcome = "fuel-exhausted"
            break
        label, term, nxt = trans[0] if policy == "first" else rng.choice(trans)
        post = digest if nxt is s else state_digest(nxt)
        trace.append(trace_record(step, label, digest, post))
        s, digest = nxt, post
    return RunResult(tuple(trace), term, s, outcome)
