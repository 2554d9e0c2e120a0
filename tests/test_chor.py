"""Choreography language: well-formedness, transitions, runs."""

from collections import deque

import pytest

from chorkit.chor import (
    CHOR_END,
    Call,
    ChorProgram,
    CommEta,
    Cond,
    End,
    Interaction,
    NotEnabledError,
    ProcDef,
    RunningCall,
    SelectEta,
    cc_check_wf,
    cc_enabled,
    cc_run,
    cc_step,
    is_initial,
)
from chorkit.core import (
    EMPTY_STATE,
    Eq,
    Lit,
    ObsComm,
    ObsSelect,
    ObsTau,
    RichComm,
    State,
    VarRef,
    rich_label_text,
)

from conftest import PROJECTABLE, load_program


def explore(p: ChorProgram, s0=EMPTY_STATE, depth=12):
    """Reachable (main, state) configurations with their transitions.

    Depth-bounded breadth-first walk; the bound matters only for programs
    with an infinite state space such as the growing counter.
    """
    seen = {(p.main, s0)}
    queue = deque([(p.main, s0, 0)])
    out = []
    while queue:
        main, s, d = queue.popleft()
        trans = cc_enabled(p.procs, main, s)
        out.append((main, s, trans))
        if d >= depth:
            continue
        for _, m2, s2 in trans:
            if (m2, s2) not in seen:
                seen.add((m2, s2))
                queue.append((m2, s2, d + 1))
    return out


class TestWellFormedness:
    def test_corpus_is_wf(self):
        for name in PROJECTABLE:
            assert cc_check_wf(load_program(name)).ok, name

    def test_self_communication(self):
        p = ChorProgram(
            {}, Interaction(CommEta("p", Lit(1), "p", "x"), CHOR_END)
        )
        report = cc_check_wf(p)
        assert not report.ok
        assert any(v.rule == "self-communication" for v in report.violations)

    def test_self_selection(self):
        p = ChorProgram({}, Interaction(SelectEta("p", "p", "left"), CHOR_END))
        assert not cc_check_wf(p).ok

    def test_unknown_procedure(self):
        p = ChorProgram({}, Call("Nope"))
        report = cc_check_wf(p)
        assert any(v.rule == "unknown-procedure" for v in report.violations)

    def test_pending_not_declared(self):
        body = Interaction(CommEta("p", Lit(1), "q", "x"), CHOR_END)
        p = ChorProgram(
            {"X": ProcDef(("p", "q"), body)},
            RunningCall("X", ("zz",), body),
        )
        report = cc_check_wf(p)
        assert any(v.rule == "pending-not-declared" for v in report.violations)

    def test_preserved_under_steps(self):
        for name in PROJECTABLE:
            p = load_program(name)
            for main, _s, _trans in explore(p):
                assert cc_check_wf(ChorProgram(p.procs, main)).ok


class TestAuthRuns:
    """The authentication choreography, both verdicts, policy=first."""

    def test_accept_branch_labels(self, auth):
        s0 = State({("s", "token"): 42})
        res = cc_run(auth, s0, policy="first")
        assert res.outcome == "terminated"
        assert res.labels == (
            ObsComm("c", 0, "ip"),
            ObsTau("ip"),
            ObsSelect("ip", "s", "left"),
            ObsSelect("ip", "c", "left"),
            ObsComm("s", 42, "c"),
        )
        assert res.final_state.get("c", "t") == 42
        assert res.final == CHOR_END

    def test_reject_branch_labels(self, auth):
        s0 = State({("c", "credentials"): 7})
        res = cc_run(auth, s0, policy="first")
        assert res.labels == (
            ObsComm("c", 7, "ip"),
            ObsTau("ip"),
            ObsSelect("ip", "s", "right"),
            ObsSelect("ip", "c", "right"),
        )
        assert res.final_state.get("c", "t") == 0

    def test_end_program_empty_trace(self):
        res = cc_run(ChorProgram({}, CHOR_END))
        assert res.trace == () and res.outcome == "terminated"


class TestFileTransfer:
    def test_failing_check_exhausts_fuel(self, filetransfer):
        # Hand-unrolled: each round is enter(c), enter(s), deliver, test,
        # reject; twelve steps cover two full rounds plus the next entries.
        s0 = State({("s", "payload"): 1})
        res = cc_run(filetransfer, s0, policy="first", fuel=12)
        assert res.outcome == "fuel-exhausted"
        round_labels = (
            ObsTau("c"),
            ObsTau("s"),
            ObsComm("s", 1, "c"),
            ObsTau("c"),
            ObsSelect("c", "s", "right"),
        )
        assert res.labels == round_labels + round_labels + (
            ObsTau("c"),
            ObsTau("s"),
        )

    def test_passing_check_terminates(self, filetransfer):
        res = cc_run(filetransfer, EMPTY_STATE, policy="first")
        assert res.outcome == "terminated"
        assert res.labels == (
            ObsTau("c"),
            ObsTau("s"),
            ObsComm("s", 0, "c"),
            ObsTau("c"),
            ObsSelect("c", "s", "left"),
        )


class TestEnabledOrder:
    """Canonical enumeration: head rule first, then delayed positions."""

    def test_parallel_coms(self):
        p = load_program("parallel")
        labels = [rich_label_text(t[0]) for t in cc_enabled(p.procs, p.main, EMPTY_STATE)]
        assert labels == ["a.0 -> b.x", "c.0 -> d.y"]

    def test_sequential_coms_not_delayed(self):
        c = Interaction(
            CommEta("a", Lit(1), "b", "x"),
            Interaction(CommEta("b", Lit(2), "c", "y"), CHOR_END),
        )
        trans = cc_enabled({}, c, EMPTY_STATE)
        assert len(trans) == 1

    def test_call_entry_all_orders(self):
        p = load_program("broadcast")
        labels = [rich_label_text(t[0]) for t in cc_enabled(p.procs, p.main, EMPTY_STATE)]
        assert labels == [
            "call Notify @ a",
            "call Notify @ b",
            "call Notify @ c",
        ]

    def test_delayed_past_pending_entry(self):
        p = load_program("broadcast")
        c1 = cc_enabled(p.procs, p.main, EMPTY_STATE)[0][1]
        c2 = cc_enabled(p.procs, c1, EMPTY_STATE)[0][1]
        assert isinstance(c2, RunningCall) and c2.pending == ("c",)
        labels = [rich_label_text(t[0]) for t in cc_enabled(p.procs, c2, EMPTY_STATE)]
        # entry of the remaining process first, then the body interaction
        # that does not involve it
        assert labels == ["call Notify @ c", "a.0 -> b.x"]

    def test_last_entry_unwraps(self):
        p = load_program("broadcast")
        c = p.main
        for _ in range(3):
            c = cc_enabled(p.procs, c, EMPTY_STATE)[0][1]
        assert isinstance(c, Interaction)


class TestDelayCond:
    guard = Eq(VarRef("x"), Lit(0))

    def test_same_action_in_both_branches(self):
        both = Interaction(CommEta("q", Lit(1), "r", "y"), CHOR_END)
        longer = Interaction(
            CommEta("q", Lit(1), "r", "y"),
            Interaction(CommEta("r", Lit(2), "q", "z"), CHOR_END),
        )
        c = Cond("p", self.guard, both, longer)
        trans = cc_enabled({}, c, EMPTY_STATE)
        assert [rich_label_text(t[0]) for t in trans] == ["if p", "q.1 -> r.y"]
        _, delayed, s2 = trans[1]
        assert delayed == Cond(
            "p",
            self.guard,
            CHOR_END,
            Interaction(CommEta("r", Lit(2), "q", "z"), CHOR_END),
        )
        assert s2.get("r", "y") == 1

    def test_different_values_block_delay(self):
        t1 = Interaction(CommEta("q", Lit(1), "r", "y"), CHOR_END)
        t2 = Interaction(CommEta("q", Lit(9), "r", "y"), CHOR_END)
        trans = cc_enabled({}, Cond("p", self.guard, t1, t2), EMPTY_STATE)
        assert [rich_label_text(t[0]) for t in trans] == ["if p"]

    def test_decider_involvement_blocks_delay(self):
        # the delayed action may not involve the deciding process
        t = Interaction(CommEta("q", Lit(1), "p", "y"), CHOR_END)
        trans = cc_enabled({}, Cond("p", self.guard, t, t), EMPTY_STATE)
        assert [rich_label_text(x[0]) for x in trans] == ["if p"]


class TestStepDeterminism:
    def test_per_label_unique_successor(self):
        for name in PROJECTABLE:
            p = load_program(name)
            for _main, _s, trans in explore(p):
                by_label = {}
                for rich, m2, s2 in trans:
                    if rich in by_label:
                        assert by_label[rich] == (m2, s2), (name, rich)
                    by_label[rich] = (m2, s2)

    def test_cc_step_matches_enabled(self, auth):
        trans = cc_enabled(auth.procs, auth.main, EMPTY_STATE)
        rich, m2, s2 = trans[0]
        p2, s2b = cc_step(auth, EMPTY_STATE, rich)
        assert (p2.main, s2b) == (m2, s2)

    def test_cc_step_rejects_disabled(self, auth):
        with pytest.raises(NotEnabledError):
            cc_step(auth, EMPTY_STATE, RichComm("a", 1, "b", "z"))


class TestDeadlockFreedomByDesign:
    def test_non_end_always_steps(self):
        for name in PROJECTABLE:
            p = load_program(name)
            for main, _s, trans in explore(p):
                if not isinstance(main, End):
                    assert trans, (name, main)


class TestRunPolicies:
    def test_random_policy_seed_determinism(self, auth):
        a = cc_run(auth, EMPTY_STATE, policy="random", seed=5)
        b = cc_run(auth, EMPTY_STATE, policy="random", seed=5)
        assert a.trace == b.trace

    def test_is_initial(self, auth, filetransfer):
        assert is_initial(auth.main)
        assert is_initial(filetransfer.main)
        assert not is_initial(RunningCall("X", ("p",), CHOR_END))

    def test_bad_policy_rejected(self, auth):
        with pytest.raises(ValueError):
            cc_run(auth, EMPTY_STATE, policy="bogus")
