"""Concurrent execution of networks with synchronous rendezvous.

Each process of the network runs on its own thread, owning its variables
and its position in its behaviour.  Communication is a two-phase
rendezvous spoken in the calculus' own terms.  A thread offers its
current behaviour node together with what only its own store can give:
the value of a ``Send`` or the outcome of a ``Cond`` guard, else None.
It then blocks until the sequencer answers.  The sequencer waits until
every running thread has an outstanding offer, matches the offered heads
into rich labels (a send meets a receive from it, a label send meets a
branching that offers the label, a conditional or a call acts alone),
picks one with a seeded generator, appends a trace record, and sends
the label itself to each process it involves.  A thread moves on from
its head and the label: a receive stores the label's value, a branching
follows its label, a conditional follows its own guard.  None instead
of a label halts the thread.

The sequencer never runs the sequential semantics.  The only store it
keeps is the one the trace digests need, updated from each committed
label: a communication writes its value to its receiver's variable, and
every other label writes nothing.  A report's final network and store
are read from the threads once they are joined: each one's current
behaviour and its own variables, plus the initial entries of pids that
run no thread.  Because commits are serialised and the generator is
seeded, a run is a deterministic function of (program, state, config),
and ``validate_trace`` replays its report through ``sp_step``, an
independent derivation.  Deadlock is declared when every running thread
is blocked with no matching pair; when offers stop arriving within the
configured timeout the run ends with outcome ``timeout`` instead.  A
thread that raises posts the exception in place of its offer, and the
run ends with outcome ``worker-error`` and the exception in the report.
"""

from __future__ import annotations

import queue
import random
import threading
from itertools import chain
from typing import Dict, NamedTuple, Optional, Tuple

from .core import (
    EMPTY_STATE,
    NotEnabledError,
    Pid,
    RichCall,
    RichComm,
    RichCond,
    RichSelect,
    State,
    TraceRecord,
    eval_bexpr,
    eval_expr,
    label_pids,
    state_digest,
    trace_record,
)
from .net import (
    SP_END,
    Branch,
    Call,
    Cond,
    End,
    NetProgram,
    Network,
    Recv,
    SelectSend,
    Send,
    sp_step,
)


class _RuntimeFields(NamedTuple):
    seed: int = 0
    step_timeout_ms: int = 2000
    max_steps: int = 10000


class RuntimeConfig(_RuntimeFields):
    """The fields of ``_RuntimeFields``, checked when the record is built."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so ``_replace`` checks too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.step_timeout_ms < 1:
            raise ValueError("step_timeout_ms must be at least 1")
        return self


class ExecutionReport(NamedTuple):
    trace: Tuple[TraceRecord, ...]
    final_state: State  # the threads' stores, plus the pids that run none
    final_net: Network  # the threads' current behaviours
    outcome: str  # terminated | deadlocked | timeout | step-limit | worker-error
    error: Optional[BaseException] = None  # what a worker raised (worker-error)


class _Worker(threading.Thread):
    """One process: owns its store and walks its behaviour between grants."""

    def __init__(self, pid: Pid, behaviour, procs, store: State, offers):
        super().__init__(name=f"proc-{pid}", daemon=True)
        self.pid = pid
        self.behaviour = behaviour
        self.procs = procs
        self.store = store
        self.offers = offers
        self.grants: "queue.SimpleQueue" = queue.SimpleQueue()

    def run(self) -> None:
        try:
            self._walk()
        except Exception as e:  # noqa: BLE001  (reported as the run's outcome)
            self.offers.put((self.pid, e))

    def _walk(self) -> None:
        while True:
            b = self.behaviour
            t = type(b)
            local = None
            if t is Send:
                local = eval_expr(b.expr, self.store, self.pid)
            elif t is Cond:
                local = eval_bexpr(b.guard, self.store, self.pid)
            elif t not in (End, Recv, SelectSend, Branch, Call):
                raise TypeError(f"not a behaviour: {b!r}")
            self.offers.put((self.pid, (b, local)))
            rich = None if t is End else self.grants.get()
            if rich is None:
                return
            if t is Recv:
                self.store = self.store.set(self.pid, b.var, rich.value)
                self.behaviour = b.cont
            elif t is Branch:
                self.behaviour = b.on_left if rich.label == "left" else b.on_right
            elif t is Cond:
                self.behaviour = b.then_b if local else b.else_b
            elif t is Call:
                self.behaviour = self.procs.get(b.name, SP_END)
            else:
                self.behaviour = b.cont


def execute(
    p: NetProgram, s0: State = EMPTY_STATE, cfg: RuntimeConfig = RuntimeConfig()
) -> ExecutionReport:
    """Run the network concurrently; see the module docstring for the model."""
    rng = random.Random(cfg.seed)
    offers_q: "queue.SimpleQueue" = queue.SimpleQueue()
    workers: Dict[Pid, _Worker] = {}
    for pid, b in p.net.items():
        own = State(((q, var), v) for (q, var), v in s0.items() if q == pid)
        workers[pid] = _Worker(pid, b, p.procs, own, offers_q)
    for w in workers.values():
        w.start()

    offers: Dict[Pid, tuple] = {}
    awaited = set(workers)
    trace: list = []
    timeout = cfg.step_timeout_ms / 1000.0
    state, digest = s0, state_digest(s0)
    error = None

    try:
        while True:
            if not _drain_offers(offers_q, offers, awaited, timeout):
                outcome = "timeout"
                break
            failed = sorted(q for q, o in offers.items() if isinstance(o, Exception))
            if failed:
                outcome, error = "worker-error", offers[failed[0]]
                break
            for pid in [q for q, (head, _) in offers.items() if type(head) is End]:
                del offers[pid]
            if not offers:
                outcome = "terminated"
                break
            candidates = _enabled_offers(offers)
            if not candidates:
                outcome = "deadlocked"
                break
            if len(trace) >= cfg.max_steps:
                outcome = "step-limit"
                break
            rich = candidates[rng.randrange(len(candidates))]
            nxt = state
            if type(rich) is RichComm:
                nxt = state.set(rich.receiver, rich.var, rich.value)
            post = digest if nxt is state else state_digest(nxt)
            trace.append(trace_record(len(trace), rich, digest, post))
            state, digest = nxt, post
            for pid in label_pids(rich):
                workers[pid].grants.put(rich)
                del offers[pid]
                awaited.add(pid)
    finally:
        # a halt for every process: one that has ended never reads it
        for w in workers.values():
            w.grants.put(None)
        for w in workers.values():
            w.join(timeout=1.0)
    unowned = ((key, v) for key, v in s0.items() if key[0] not in workers)
    final_state = State(chain(unowned, *(w.store.items() for w in workers.values())))
    final_net = Network((pid, w.behaviour) for pid, w in workers.items())
    return ExecutionReport(tuple(trace), final_state, final_net, outcome, error)


def _drain_offers(offers_q, offers, awaited, timeout: float) -> bool:
    """Collect offers until none are outstanding; False on timeout."""
    while awaited:
        try:
            pid, offer = offers_q.get(timeout=timeout)
        except queue.Empty:
            return False
        offers[pid] = offer
        awaited.discard(pid)
    return True


def _enabled_offers(offers: Dict[Pid, tuple]) -> list:
    """Match posted heads into enabled actions, sorted by acting process."""
    out = []
    for pid in sorted(offers):
        b, local = offers[pid]
        t = type(b)
        if t is Send or t is SelectSend:
            other = offers.get(b.peer)
            head = None if other is None else other[0]
            if t is Send and type(head) is Recv and head.peer == pid:
                out.append(RichComm(pid, local, b.peer, head.var))
            elif t is SelectSend and type(head) is Branch and head.peer == pid:
                option = head.on_left if b.label == "left" else head.on_right
                if option is not None:
                    out.append(RichSelect(pid, b.peer, b.label))
        elif t is Cond:
            out.append(RichCond(pid))
        elif t is Call:
            out.append(RichCall(b.name, pid))
    return out


class ValidationResult(NamedTuple):
    ok: bool
    index: Optional[int]
    reason: str = ""


def validate_trace(
    p: NetProgram, s0: State, report: ExecutionReport
) -> ValidationResult:
    """Replay a report against the sequential semantics.

    Every record must be enabled at its point with matching state
    digests, and the fold must end at the report's final network and
    state.  Each replayed store is digested once: a record's pre-state
    is the previous record's post-state, and a step that returns the
    same store object keeps its digest.
    """
    program = p
    state = s0
    digest = state_digest(s0)
    for i, rec in enumerate(report.trace):
        if rec.pre_digest != digest:
            return ValidationResult(False, i, "pre-state digest mismatch")
        try:
            program, nxt = sp_step(program, state, rec.rich)
        except NotEnabledError:
            return ValidationResult(False, i, "label not enabled here")
        if nxt is not state:
            state, digest = nxt, state_digest(nxt)
        if rec.post_digest != digest:
            return ValidationResult(False, i, "post-state digest mismatch")
    if program.net != report.final_net:
        return ValidationResult(False, len(report.trace), "final network differs")
    if state != report.final_state:
        return ValidationResult(False, len(report.trace), "final state differs")
    return ValidationResult(True, None)
