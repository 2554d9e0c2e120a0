"""The bounded correspondence checker and its companion suites."""

import pytest
from conftest import load_program

from chorkit import checker as checker_mod
from chorkit import net as net_mod
from chorkit.checker import (
    check_cc_confluence,
    check_deadlock_freedom,
    check_hypotheses,
    check_sp_confluence,
    verify_epp,
)
from chorkit.chor import ChorProgram, CommEta, Interaction, RunningCall, cc_enabled
from chorkit.chor import End as ChorEnd
from chorkit.core import EMPTY_STATE, Lit, State
from chorkit.projection import epp_program


class TestVerifyAuth:
    def test_true_guard_path(self, auth):
        v = verify_epp(auth, depth=10)
        assert v.status == "verified"
        assert v.ok
        # single path: com, guard, two selections, reply, end
        assert v.configs_explored == 6
        assert v.transitions_matched == 10
        assert str(v) == "verified (space exhausted; 6 configs, 10 transitions)"

    def test_false_guard_path(self, auth):
        # the rejection branch has no reply message, one config fewer
        s0 = State({("c", "credentials"): 7})
        v = verify_epp(auth, depth=10, s0=s0)
        assert v.status == "verified"
        assert v.configs_explored == 5
        assert v.transitions_matched == 8

    def test_self_checks_ran(self, auth):
        v = verify_epp(auth, depth=10)
        # one check per rich label per explored config
        assert v.determinism_checks == 5
        assert v.determinism_violations == 0
        assert v.stability_checks == 5
        assert v.stability_violations == 0
        assert v.locality_violations == 0


class TestVerifyCorpus:
    def test_counter_is_depth_bounded(self):
        v = verify_epp(load_program("counter"), depth=6)
        assert v.status == "verified-to-depth"
        assert v.ok
        assert str(v).startswith("verified to depth 6")

    def test_filetransfer_exhausts_from_empty_state(self, filetransfer):
        v = verify_epp(filetransfer, depth=10)
        assert v.status == "verified"
        assert v.locality_checks > 0
        assert v.locality_violations == 0
        assert v.stability_checks > 0
        assert v.stability_violations == 0


class TestHypotheses:
    def test_self_communication_is_rejected(self):
        p = ChorProgram(
            {}, Interaction(CommEta("p", Lit(1), "p", "x"), ChorEnd())
        )
        v = verify_epp(p)
        assert v.status == "hypotheses-violated"
        assert not v.ok
        assert any(h.name == "well-formedness" for h in v.hypothesis_failures)
        assert str(v).startswith("hypotheses violated: ")

    def test_unprojectable_program_is_rejected(self, auth_noselect):
        v = verify_epp(auth_noselect)
        assert v.status == "hypotheses-violated"
        names = {h.name for h in v.hypothesis_failures}
        assert "projectability" in names

    def test_coverage_failure_reported(self, auth):
        failures = check_hypotheses(auth, (), ("c", "ip"))
        assert any(
            h.name == "pid-coverage" and "s" in h.detail for h in failures
        )


class TestNegativeControls:
    """Broken semantics must surface as counterexamples, not silent passes."""

    def test_wrong_branch_choice_is_caught(self, auth, monkeypatch):
        original = net_mod._chosen_option

        def swapped(b, label):
            return original(b, "right" if label == "left" else "left")

        with monkeypatch.context() as m:
            m.setattr(net_mod, "_chosen_option", swapped)
            v = verify_epp(auth, depth=10)
        assert v.status == "counterexample"
        assert not v.ok
        assert v.counterexample is not None
        assert v.counterexample.direction in ("completeness", "soundness")
        assert str(v).startswith("counterexample: ")

    def test_pruning_check_is_live(self, auth, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(checker_mod, "_prunes", lambda wider, projected: False)
            v = verify_epp(auth, depth=10)
        assert v.status == "counterexample"
        assert v.counterexample.direction == "invariant"


class TestDeadlockFreedom:
    def test_auth(self, auth):
        v = check_deadlock_freedom(auth, depth=10)
        assert v.status == "verified"
        assert v.configs_explored == 6

    def test_counter_depth_bound(self):
        v = check_deadlock_freedom(load_program("counter"), depth=6)
        assert v.status == "verified-to-depth"
        assert v.ok

    def test_whole_projectable_corpus(self):
        for name in ("pipeline3", "parallel", "nested", "twobuyers"):
            v = check_deadlock_freedom(load_program(name), depth=10)
            assert v.ok, name


class TestConfluence:
    def test_parallel_choreography_joins(self):
        p = load_program("parallel")
        v = check_cc_confluence(p, depth=8)
        assert v.status == "verified"
        assert v.transitions_matched > 0  # at least one diamond was closed

    def test_parallel_network_joins(self):
        np = epp_program(load_program("parallel"))
        v = check_sp_confluence(np, depth=8)
        assert v.status == "verified"
        assert v.transitions_matched > 0

    def test_single_path_is_trivially_confluent(self, auth):
        v = check_cc_confluence(auth, depth=10)
        assert v.status == "verified"

    def test_depth_bound_reported(self):
        v = check_cc_confluence(load_program("counter"), depth=5)
        assert v.status == "verified-to-depth"
        assert v.ok


class TestCounterexampleConfigs:
    """A counterexample carries the explored node it was found at."""

    def test_deadlock_reports_the_stuck_configuration(self):
        stuck = RunningCall("X", (), ChorEnd())
        s0 = State({("p", "x"): 1})
        v = check_deadlock_freedom(ChorProgram({}, stuck), s0=s0)
        assert v.status == "counterexample"
        cex = v.counterexample
        assert cex.direction == "deadlock"
        assert cex.config == (stuck, s0)
        assert cex.depth == 0
        assert str(v) == (
            "counterexample: deadlock failure at depth 0: "
            "non-end choreography with no transition"
        )

    def test_confluence_reports_the_node_and_both_successors(self):
        p = load_program("parallel")
        v = check_cc_confluence(p, join_depth=0)
        assert v.status == "counterexample"
        cex = v.counterexample
        assert cex.direction == "confluence"
        assert cex.config == (p.main, EMPTY_STATE)
        main, s = cex.config
        succs = [(m2, s2) for _l, m2, s2 in cc_enabled(p.procs, main, s)]
        a, b = cex.successors
        assert a != b and a in succs and b in succs

    def test_correspondence_reports_the_paired_node(self, auth, monkeypatch):
        monkeypatch.setattr(checker_mod, "_prunes", lambda wider, projected: False)
        cex = verify_epp(auth, depth=10).counterexample
        main, net, s = cex.config
        assert main == auth.main and s == EMPTY_STATE
        assert net == epp_program(auth).net
