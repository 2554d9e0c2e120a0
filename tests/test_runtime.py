"""Concurrent execution of compiled networks against the reference step."""

import threading

from conftest import load_program

from chorkit.chor import cc_run
from chorkit.core import EMPTY_STATE, State
from chorkit.net import Branch, EMPTY_NET, NetProgram, Network, SP_END, SelectSend
from chorkit.projection import epp_program
from chorkit import runtime
from chorkit.runtime import ExecutionReport, RuntimeConfig, execute, validate_trace

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
