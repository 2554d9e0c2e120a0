"""Concurrent execution of networks with synchronous rendezvous.

Each process of the network runs on its own thread, owning its variables
and its position in its behaviour.  Communication is a two-phase
rendezvous: a thread posts an offer describing the single action its
head permits (a send with the evaluated value, a receive, a label send,
the set of offered branch labels, a locally decided conditional, or a
procedure call), then blocks until the sequencer grants it.  The
sequencer waits until every live thread has an outstanding offer, pairs
up matching offers, picks one enabled action with a seeded generator,
commits it on a mirrored network/state, appends a trace record, and
wakes exactly the involved threads.

Because commits are serialised and the generator is seeded, a run is a
deterministic function of (program, state, config), and the emitted
trace replays step by step through the sequential semantics, which
``validate_trace`` checks.  Deadlock is declared when all live threads
are blocked with no matching pair; when offers stop arriving within the
configured timeout the run ends with outcome ``timeout`` instead.  A
thread that raises posts the exception in place of its offer, and the
run ends with outcome ``worker-error`` and the exception in the report.
"""

from __future__ import annotations

import queue
import random
import threading
from dataclasses import dataclass
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


@dataclass(frozen=True)
class RuntimeConfig:
    seed: int = 0
    step_timeout_ms: int = 2000
    max_steps: int = 10000

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.step_timeout_ms < 1:
            raise ValueError("step_timeout_ms must be at least 1")


@dataclass(frozen=True)
class ExecutionReport:
    trace: Tuple[TraceRecord, ...]
    final_state: State
    final_net: Network
    outcome: str  # terminated | deadlocked | timeout | step-limit | worker-error
    error: Optional[BaseException] = None  # what a worker raised (worker-error)

    @property
    def labels(self) -> tuple:
        return tuple(r.label for r in self.trace)


class _Worker(threading.Thread):
    """One process: owns its store and walks its behaviour between grants."""

    def __init__(self, pid: Pid, behaviour, procs, store: State, offers):
        super().__init__(name=f"proc-{pid}", daemon=True)
        self.pid = pid
        self.behaviour = behaviour
        self.procs = procs
        self.store = store
        self.offers = offers
        self.grants: "queue.Queue" = queue.Queue()

    def run(self) -> None:
        try:
            self._walk()
        except Exception as e:  # noqa: BLE001  (reported as the run's outcome)
            self.offers.put((self.pid, ("error", e)))

    def _walk(self) -> None:
        b = self.behaviour
        while True:
            t = type(b)
            if t is End:
                self.offers.put((self.pid, ("done",)))
                return
            if t is Send:
                value = eval_expr(b.expr, self.store, self.pid)
                self.offers.put((self.pid, ("send", b.peer, value)))
            elif t is Recv:
                self.offers.put((self.pid, ("recv", b.peer, b.var)))
            elif t is SelectSend:
                self.offers.put((self.pid, ("sel", b.peer, b.label)))
            elif t is Branch:
                self.offers.put(
                    (
                        self.pid,
                        (
                            "branch",
                            b.peer,
                            b.on_left is not None,
                            b.on_right is not None,
                        ),
                    )
                )
            elif t is Cond:
                taken = eval_bexpr(b.guard, self.store, self.pid)
                self.offers.put((self.pid, ("cond", taken)))
            elif t is Call:
                self.offers.put((self.pid, ("call", b.name)))
            else:
                raise TypeError(f"not a behaviour: {b!r}")
            grant = self.grants.get()
            kind = grant[0]
            if kind == "halt":
                return
            if kind == "proceed":
                if t is Send or t is SelectSend:
                    b = b.cont
                elif t is Cond:
                    b = b.then_b if grant[1] else b.else_b
                elif t is Call:
                    b = self.procs.get(b.name, SP_END)
                else:
                    raise AssertionError(f"proceed grant for {t.__name__}")
            elif kind == "deliver":
                # a value for our receive
                self.store = self.store.set(self.pid, b.var, grant[1])
                b = b.cont
            elif kind == "choose":
                # the peer picked one of our offered branch labels
                b = b.on_left if grant[1] == "left" else b.on_right
            else:
                raise AssertionError(f"unknown grant {grant!r}")


def execute(
    p: NetProgram, s0: State = EMPTY_STATE, cfg: RuntimeConfig = RuntimeConfig()
) -> ExecutionReport:
    """Run the network concurrently; see the module docstring for the model."""
    rng = random.Random(cfg.seed)
    offers_q: "queue.Queue" = queue.Queue()
    workers: Dict[Pid, _Worker] = {}
    for pid, b in p.net.items():
        own = State(((q, var), v) for (q, var), v in s0.items() if q == pid)
        workers[pid] = _Worker(pid, b, p.procs, own, offers_q)
    mirror, mirror_state = p, s0
    for w in workers.values():
        w.start()

    live = set(workers)
    offers: Dict[Pid, tuple] = {}
    awaited = set(live)
    trace: list = []
    timeout = cfg.step_timeout_ms / 1000.0
    digest = state_digest(s0)
    error = None

    try:
        while True:
            if not _drain_offers(offers_q, offers, awaited, timeout):
                outcome = "timeout"
                break
            failed = sorted(q for q, o in offers.items() if o[0] == "error")
            if failed:
                outcome, error = "worker-error", offers[failed[0]][1]
                break
            for pid in [q for q, o in offers.items() if o[0] == "done"]:
                live.discard(pid)
                del offers[pid]
            if not live:
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
            mirror, mirror_state = sp_step(mirror, mirror_state, rich)
            post = state_digest(mirror_state)
            trace.append(trace_record(len(trace), rich, digest, post))
            digest = post
            _grant(workers, offers, awaited, rich)
    finally:
        # stop whoever is still blocked on a grant
        _drain_offers(offers_q, offers, awaited, 0.05)
        for pid in live:
            if offers.get(pid, ("done",))[0] != "done":
                workers[pid].grants.put(("halt",))
        for w in workers.values():
            w.join(timeout=1.0)
    return ExecutionReport(tuple(trace), mirror_state, mirror.net, outcome, error)


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
    """Match offers into enabled actions, sorted by acting process."""
    out = []
    for pid in sorted(offers):
        offer = offers[pid]
        kind = offer[0]
        if kind == "send":
            peer = offer[1]
            other = offers.get(peer)
            if other is not None and other[0] == "recv" and other[1] == pid:
                out.append(RichComm(pid, offer[2], peer, other[2]))
        elif kind == "sel":
            peer = offer[1]
            other = offers.get(peer)
            if other is not None and other[0] == "branch" and other[1] == pid:
                has_left, has_right = other[2], other[3]
                if offer[2] == "left" and has_left or offer[2] == "right" and has_right:
                    out.append(RichSelect(pid, peer, offer[2]))
        elif kind == "cond":
            out.append(RichCond(pid))
        elif kind == "call":
            out.append(RichCall(offer[1], pid))
    return out


def _grant(workers, offers, awaited, rich) -> None:
    k = type(rich)
    if k is RichComm or k is RichSelect:
        pids = (rich.sender, rich.receiver)
        reply = ("deliver", rich.value) if k is RichComm else ("choose", rich.label)
        workers[rich.sender].grants.put(("proceed",))
        workers[rich.receiver].grants.put(reply)
    elif k is RichCond or k is RichCall:
        pids = (rich.pid,)
        taken = offers[rich.pid][1] if k is RichCond else None
        workers[rich.pid].grants.put(("proceed", taken))
    else:
        raise AssertionError(f"unknown label {rich!r}")
    for pid in pids:
        del offers[pid]
    awaited.update(pids)


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
    state.
    """
    program = p
    state = s0
    for i, rec in enumerate(report.trace):
        if rec.pre_digest != state_digest(state):
            return ValidationResult(False, i, "pre-state digest mismatch")
        try:
            program, state = sp_step(program, state, rec.rich)
        except NotEnabledError:
            return ValidationResult(False, i, "label not enabled here")
        if rec.post_digest != state_digest(state):
            return ValidationResult(False, i, "post-state digest mismatch")
    if program.net != report.final_net:
        return ValidationResult(False, len(report.trace), "final network differs")
    if state != report.final_state:
        return ValidationResult(False, len(report.trace), "final state differs")
    return ValidationResult(True, None)
