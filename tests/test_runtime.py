"""Concurrent execution of compiled networks against the reference step."""

import queue
import threading
import time
from collections import deque

import pytest
from conftest import PROJECTABLE, load, load_program

from chorkit import core
from chorkit.chor import cc_run
from chorkit.core import (
    EMPTY_STATE,
    Lit,
    RichCall,
    RichComm,
    RichCond,
    RichSelect,
    State,
    eval_bexpr,
    eval_expr,
)
from chorkit.net import (
    Branch,
    Call,
    Cond,
    EMPTY_NET,
    End,
    NetProgram,
    Network,
    Recv,
    SP_END,
    SelectSend,
    Send,
    sp_enabled,
    sp_run,
)
from chorkit.projection import epp_program
from chorkit import net as net_mod
from chorkit import runtime
from chorkit.runtime import ExecutionReport, RuntimeConfig, execute, validate_trace
from chorkit.syntax import parse

AUTH_STATE = State({("c", "credentials"): 0, ("s", "token"): 42})


def run_both(name, s0, seed=0):
    p = load_program(name)
    np = epp_program(p)
    report = execute(np, s0, RuntimeConfig(seed=seed))
    reference = cc_run(p, s0, policy="first")
    return np, report, reference


class TestAgreementWithChoreography:
    def test_auth(self):
        np, report, ref = run_both("auth", AUTH_STATE)
        assert report.outcome == "terminated"
        assert [r.rich for r in report.trace] == [r.rich for r in ref.trace]
        assert report.final_state == ref.final_state
        assert report.final_net == EMPTY_NET

    def test_pipeline(self):
        np, report, ref = run_both("pipeline3", State({("a", "job"): 5}))
        assert report.outcome == "terminated"
        assert [r.rich for r in report.trace] == [r.rich for r in ref.trace]
        assert report.final_state == ref.final_state

    def test_traces_validate(self):
        for name, s0 in (("auth", AUTH_STATE), ("pipeline3", EMPTY_STATE)):
            np, report, _ = run_both(name, s0)
            res = validate_trace(np, s0, report)
            assert res.ok, res


class TestScheduling:
    def test_same_seed_same_trace(self):
        np = epp_program(load_program("parallel"))
        a = execute(np, EMPTY_STATE, RuntimeConfig(seed=7))
        b = execute(np, EMPTY_STATE, RuntimeConfig(seed=7))
        assert [r.rich for r in a.trace] == [r.rich for r in b.trace]
        assert a.outcome == b.outcome == "terminated"

    def test_all_seeds_terminate_and_validate(self):
        np = epp_program(load_program("parallel"))
        for seed in range(6):
            report = execute(np, EMPTY_STATE, RuntimeConfig(seed=seed))
            assert report.outcome == "terminated"
            assert validate_trace(np, EMPTY_STATE, report).ok


def _offers(n, s):
    """Each process's offer as its worker posts it: the head, and the value
    of a send or the outcome of a conditional's guard from its store."""
    offers = {}
    for pid, b in n.items():
        local = None
        if type(b) is Send:
            local = eval_expr(b.expr, s, pid)
        elif type(b) is Cond:
            local = eval_bexpr(b.guard, s, pid)
        offers[pid] = (b, local)
    return offers


class TestOfferMatching:
    """``_enabled_offers`` against the sequential semantics' ``sp_enabled``."""

    @pytest.mark.parametrize("name", PROJECTABLE)
    def test_reachable_networks(self, name):
        np = epp_program(load_program(name))
        for s0 in (EMPTY_STATE, AUTH_STATE):
            seen = {(np.net, s0)}
            todo = deque([(np.net, s0, 0)])
            while todo:
                n, s, d = todo.popleft()
                trans = sp_enabled(np.procs, n, s)
                assert runtime._enabled_offers(_offers(n, s)) == [t for t, _, _ in trans]
                if d == 12:
                    continue
                for _, n2, s2 in trans:
                    if (n2, s2) not in seen:
                        seen.add((n2, s2))
                        todo.append((n2, s2, d + 1))


class TestHeads:
    """Steps the corpus runs never take, against ``sp_run``."""

    def _agrees_with_sp_run(self, np):
        report = execute(np, EMPTY_STATE, RuntimeConfig(step_timeout_ms=1000))
        ref = sp_run(np)
        assert report.outcome == ref.outcome == "terminated"
        assert [r.rich for r in report.trace] == [r.rich for r in ref.trace]
        assert report.final_state == ref.final_state
        assert report.final_net == ref.final == EMPTY_NET
        assert validate_trace(np, EMPTY_STATE, report).ok
        return report

    def test_call_missing_from_the_procedure_table_ends(self):
        np = NetProgram({}, Network({"p": Call(("X", "p"))}))
        report = self._agrees_with_sp_run(np)
        assert [r.rich for r in report.trace] == [RichCall(("X", "p"), "p")]

    def test_branch_offering_both_options_follows_right(self):
        np = NetProgram(
            {},
            Network(
                {
                    "p": SelectSend("q", "right", Send("q", Lit(5), SP_END)),
                    "q": Branch("p", Recv("p", "x", SP_END), Recv("p", "y", SP_END)),
                }
            ),
        )
        report = self._agrees_with_sp_run(np)
        assert report.trace[0].rich == RichSelect("p", "q", "right")
        assert report.final_state == State({("q", "y"): 5})


class TestAbnormalOutcomes:
    def test_mismatched_selection_deadlocks(self):
        # p offers left, q only accepts right; nothing can rendezvous
        np = NetProgram(
            {},
            Network(
                {
                    "p": SelectSend("q", "left", SP_END),
                    "q": Branch("p", None, SP_END),
                }
            ),
        )
        before = threading.active_count()
        report = execute(np, EMPTY_STATE, RuntimeConfig(step_timeout_ms=200))
        assert report.outcome == "deadlocked"
        assert report.trace == ()
        assert threading.active_count() == before  # workers were joined

    def test_stalled_offers_time_out(self, monkeypatch):
        # offers that stop arriving are a timeout, not a deadlock
        original = runtime._drain_offers
        calls = []

        def stalled(*args):
            calls.append(args)
            return False if len(calls) == 1 else original(*args)

        monkeypatch.setattr(runtime, "_drain_offers", stalled)
        report = execute(epp_program(load_program("auth")), AUTH_STATE, RuntimeConfig())
        assert report.outcome == "timeout"
        assert report.trace == ()

    def test_raising_worker_is_a_worker_error(self, monkeypatch):
        # a worker that raises posts the error instead of its offer: the
        # run ends at once, not after the step timeout, and every thread
        # is joined
        def broken(*args):
            raise ZeroDivisionError("planted")

        monkeypatch.setattr(runtime, "eval_expr", broken)
        before = threading.active_count()
        started = time.perf_counter()
        report = execute(
            epp_program(load_program("auth")), AUTH_STATE, RuntimeConfig(step_timeout_ms=10_000)
        )
        assert time.perf_counter() - started < 2.0
        assert report.outcome == "worker-error"
        assert isinstance(report.error, ZeroDivisionError)
        assert report.trace == ()
        assert threading.active_count() == before

    def test_step_limit(self):
        np = epp_program(load_program("counter"))
        report = execute(np, EMPTY_STATE, RuntimeConfig(max_steps=9))
        assert report.outcome == "step-limit"
        assert len(report.trace) == 9
        # a truncated run still replays cleanly up to its own final network
        assert validate_trace(np, EMPTY_STATE, report).ok

    def test_empty_network(self):
        report = execute(NetProgram({}, EMPTY_NET), EMPTY_STATE, RuntimeConfig())
        assert report.outcome == "terminated"
        assert report.trace == ()
        assert validate_trace(NetProgram({}, EMPTY_NET), EMPTY_STATE, report).ok


class TestValidation:
    def _good(self):
        np = epp_program(load_program("auth"))
        report = execute(np, AUTH_STATE, RuntimeConfig())
        return np, report

    def test_tampered_label_detected(self):
        np, report = self._good()
        bad = list(report.trace)
        bad[2] = bad[2]._replace(rich=bad[0].rich)
        tampered = ExecutionReport(
            tuple(bad), report.final_state, report.final_net, report.outcome
        )
        res = validate_trace(np, AUTH_STATE, tampered)
        assert not res.ok
        assert res.index == 2
        assert res.reason == "label not enabled here"

    def test_tampered_digest_detected(self):
        np, report = self._good()
        bad = list(report.trace)
        bad[1] = bad[1]._replace(post_digest="0" * 16)
        tampered = ExecutionReport(
            tuple(bad), report.final_state, report.final_net, report.outcome
        )
        res = validate_trace(np, AUTH_STATE, tampered)
        assert not res.ok
        assert res.index == 1
        assert "digest" in res.reason

    def test_tampered_pre_digest_detected(self):
        # the previous record's post-digest is intact, so only the
        # pre-state check can see this one
        np, report = self._good()
        bad = list(report.trace)
        bad[2] = bad[2]._replace(pre_digest="0" * 16)
        tampered = ExecutionReport(
            tuple(bad), report.final_state, report.final_net, report.outcome
        )
        res = validate_trace(np, AUTH_STATE, tampered)
        assert not res.ok
        assert res.index == 2
        assert res.reason == "pre-state digest mismatch"

    def test_each_replayed_store_digested_once(self, monkeypatch):
        np, report = self._good()
        digested = _count_digests(monkeypatch, runtime)
        assert validate_trace(np, AUTH_STATE, report).ok
        # auth's selections and its first communication leave the store as it is
        assert _store_changes(AUTH_STATE, report.trace) < len(report.trace)
        assert len(digested) == _store_changes(AUTH_STATE, report.trace) + 1

    def test_digest_reused_across_a_communication_detected(self):
        # the trace a driver that never re-digests would write: every
        # record carries the initial store's digest
        np, report = self._good()
        first = report.trace[0].pre_digest
        bad = tuple(r._replace(pre_digest=first, post_digest=first) for r in report.trace)
        tampered = ExecutionReport(bad, report.final_state, report.final_net, report.outcome)
        res = validate_trace(np, AUTH_STATE, tampered)
        # auth's first communication writes 0, which the store omits
        changed = next(i for i, r in enumerate(report.trace) if r.post_digest != first)
        assert type(report.trace[changed].rich) is RichComm
        assert (res.ok, res.index, res.reason) == (False, changed, "post-state digest mismatch")

    def test_tampered_final_state_detected(self):
        np, report = self._good()
        tampered = ExecutionReport(
            report.trace,
            report.final_state.set("c", "t", 999),
            report.final_net,
            report.outcome,
        )
        res = validate_trace(np, AUTH_STATE, tampered)
        assert not res.ok
        assert res.index == len(report.trace)


def _count_digests(monkeypatch, module) -> list:
    """The stores ``module.state_digest`` is called on from now."""
    digested = []
    original = module.state_digest
    monkeypatch.setattr(module, "state_digest", lambda s: digested.append(s) or original(s))
    return digested


def _store_changes(s0: State, trace) -> int:
    """Steps that changed the store: communications of a value their
    receiver's variable did not already hold."""
    store, n = dict(s0.items()), 0
    for r in trace:
        rich = r.rich
        if type(rich) is RichComm and store.get((rich.receiver, rich.var), 0) != rich.value:
            store[rich.receiver, rich.var] = rich.value
            n += 1
    return n


def _ring_hops(n: int) -> str:
    """A token passed round three processes, each hop a communication
    and then a selection, which leaves the store as it is."""
    return "main { " + " ".join(
        f"p{i % 3}.(x + 1) -> p{(i + 1) % 3}.x; p{i % 3} -> p{(i + 1) % 3}[left];"
        for i in range(n)
    ) + " end }"


_DIGEST_CASES = {
    "ring": (_ring_hops(30), EMPTY_STATE),
    "loop": (load("pingpong").text, State({("p", "n"): 4})),
    # auth's first step sends c.credentials, 0, to ip.x, which holds 0
    "auth": (load("auth").text, AUTH_STATE),
    # every communication sends the value its receiver already holds
    "echo": ("main { p.x -> q.y; q.y -> p.x; p.1 -> q.y; p.1 -> q.y; end }", EMPTY_STATE),
}


@pytest.mark.parametrize("name", sorted(_DIGEST_CASES))
class TestOneDigestPerStoreChange:
    """Each run driver hashes a store once when a step changes it, plus
    once for its initial store: selections, conditionals, calls and
    communications of the value already held keep the previous digest.
    The traces still validate, so each digest kept is the digest of the
    store it stands for."""

    @pytest.fixture
    def case(self, name):
        text, s0 = _DIGEST_CASES[name]
        p = parse(text).program
        return p, epp_program(p), s0

    def test_run(self, case, monkeypatch):
        p, np, s0 = case
        digested = _count_digests(monkeypatch, core)
        result = cc_run(p, s0)
        assert result.outcome == "terminated"
        assert _store_changes(s0, result.trace) < len(result.trace)
        assert len(digested) == _store_changes(s0, result.trace) + 1

    def test_simulate(self, case, monkeypatch):
        p, np, s0 = case
        digested = _count_digests(monkeypatch, core)
        result = sp_run(np, s0)
        assert result.outcome == "terminated"
        assert _store_changes(s0, result.trace) < len(result.trace)
        assert len(digested) == _store_changes(s0, result.trace) + 1
        assert validate_trace(np, s0, ExecutionReport(
            result.trace, result.final_state, result.final, result.outcome
        )).ok

    def test_exec(self, case, monkeypatch):
        p, np, s0 = case
        digested = _count_digests(monkeypatch, runtime)
        report = execute(np, s0, RuntimeConfig())
        assert report.outcome == "terminated"
        assert _store_changes(s0, report.trace) < len(report.trace)
        assert len(digested) == _store_changes(s0, report.trace) + 1
        del digested[:]
        assert validate_trace(np, s0, report).ok
        assert len(digested) == _store_changes(s0, report.trace) + 1


# Faults planted in the workers.  The sequencer runs no semantics of its
# own, so a report reflects what the threads did, and ``validate_trace``,
# replaying it through ``sp_step``, must reject every faulty run.


class _SkewedGrants(queue.Queue):
    """A grant queue that hands its worker each communicated value plus 1."""

    def get(self, *args, **kwargs):
        rich = super().get(*args, **kwargs)
        return rich._replace(value=rich.value + 1) if type(rich) is RichComm else rich


class _MisstoringWorker(runtime._Worker):
    def __init__(self, *args):
        super().__init__(*args)
        self.grants = _SkewedGrants()


def _faulty_runs():
    """Each projectable corpus program under two stores: the network, the
    store, and the report of a run that must not raise."""
    for name in PROJECTABLE:
        np = epp_program(load_program(name))
        for s0 in (EMPTY_STATE, AUTH_STATE):
            yield name, np, s0, execute(np, s0, RuntimeConfig(max_steps=200))


class TestPlantedFaults:
    def test_sent_values_off_by_one(self, monkeypatch):
        monkeypatch.setattr(runtime, "eval_expr", lambda e, s, p: eval_expr(e, s, p) + 1)
        for name, np, s0, report in _faulty_runs():
            res = validate_trace(np, s0, report)
            assert not res.ok, (name, s0)

    def test_negated_guards(self, monkeypatch):
        monkeypatch.setattr(runtime, "eval_bexpr", lambda g, s, p: not eval_bexpr(g, s, p))
        affected = set()
        for name, np, s0, report in _faulty_runs():
            res = validate_trace(np, s0, report)
            if any(type(r.rich) is RichCond for r in report.trace):
                affected.add(name)
                assert not res.ok, (name, s0)
            else:
                assert res.ok, (name, s0, res)
        assert len(affected) == 8

    def test_received_values_stored_off_by_one(self, monkeypatch):
        monkeypatch.setattr(runtime, "_Worker", _MisstoringWorker)
        for name, np, s0, report in _faulty_runs():
            res = validate_trace(np, s0, report)
            assert not res.ok, (name, s0)

    def test_final_store_is_the_workers(self, monkeypatch):
        # the trace follows the committed labels, the final store the
        # threads: ip is sent 0 and stores 1
        monkeypatch.setattr(runtime, "_Worker", _MisstoringWorker)
        np = epp_program(load_program("auth"))
        report = execute(np, AUTH_STATE, RuntimeConfig())
        assert report.trace[0].rich == RichComm("c", 0, "ip", "x")
        assert report.final_state.get("ip", "x") == 1
        assert not validate_trace(np, AUTH_STATE, report).ok

    def test_unowned_entries_are_kept(self):
        np = epp_program(load_program("auth"))
        s0 = AUTH_STATE.set("z", "q", 3)
        report = execute(np, s0, RuntimeConfig())
        assert report.final_state.get("z", "q") == 3
        assert validate_trace(np, s0, report).ok


class TestEndOffers:
    """An ``End`` offer is dropped as it is drained: its thread has ended."""

    def test_drain_keeps_no_end(self):
        offers_q = queue.SimpleQueue()
        send, error = (Send("q", Lit(1), SP_END), 1), ZeroDivisionError("planted")
        for item in (("p", (SP_END, None)), ("q", send), ("r", error)):
            offers_q.put(item)
        offers, awaited = {}, {"p", "q", "r"}
        assert runtime._drain_offers(offers_q, offers, awaited, 1.0)
        assert offers == {"q": send, "r": error} and awaited == set()

    def test_enabled_offers_never_sees_an_end(self, monkeypatch):
        offered = []
        original = runtime._enabled_offers

        def recorded(offers):
            offered.append(dict(offers))
            return original(offers)

        monkeypatch.setattr(runtime, "_enabled_offers", recorded)
        dropped = 0  # steps taken after some process had ended
        for name in PROJECTABLE:
            np = epp_program(load_program(name))
            for seed in range(3):
                offered.clear()
                report = execute(np, AUTH_STATE, RuntimeConfig(seed=seed, max_steps=200))
                assert validate_trace(np, AUTH_STATE, report).ok, name
                heads = [b for offers in offered for b, _local in offers.values()]
                assert all(type(b) is not End for b in heads), name
                dropped += sum(len(offers) < len(np.net.items()) for offers in offered)
        assert dropped


class TestNoMirror:
    @pytest.mark.parametrize("name", PROJECTABLE)
    def test_execute_derives_no_network_transition(self, name, monkeypatch):
        calls = []
        original = net_mod.sp_enabled

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(net_mod, "sp_enabled", counted)
        np = epp_program(load_program(name))
        report = execute(np, AUTH_STATE, RuntimeConfig(max_steps=200))
        assert report.trace
        assert calls == []
