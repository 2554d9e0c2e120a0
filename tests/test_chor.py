"""Choreography language: well-formedness, transitions, runs."""

import pytest
from cc_reference import (
    reference_cc_check_wf,
    reference_cc_enabled,
    reference_chor_pids,
    reference_scan_chor,
    reference_subterms,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chorkit import chor as chor_mod
from chorkit.checker import SuccessorTable
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
    infer_params,
    subterms,
)
from chorkit.core import (
    EMPTY_STATE,
    Add,
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

from chorkit.syntax import parse

from conftest import CORPUS, PROJECTABLE, explore, load_program
from test_checker import GENERATED


class TestWellFormedness:
    def test_corpus_is_wf(self):
        for name in PROJECTABLE:
            assert cc_check_wf(load_program(name)) == (), name

    def test_self_communication(self):
        p = ChorProgram(
            {}, Interaction(CommEta("p", Lit(1), "p", "x"), CHOR_END)
        )
        violations = cc_check_wf(p)
        assert violations
        assert any(v.rule == "self-communication" for v in violations)

    def test_self_selection(self):
        p = ChorProgram({}, Interaction(SelectEta("p", "p", "left"), CHOR_END))
        assert cc_check_wf(p) != ()

    def test_unknown_procedure(self):
        p = ChorProgram({}, Call("Nope"))
        violations = cc_check_wf(p)
        assert any(v.rule == "unknown-procedure" for v in violations)

    def test_pending_not_declared(self):
        body = Interaction(CommEta("p", Lit(1), "q", "x"), CHOR_END)
        p = ChorProgram(
            {"X": ProcDef(("p", "q"), body)},
            RunningCall("X", ("zz",), body),
        )
        violations = cc_check_wf(p)
        assert any(v.rule == "pending-not-declared" for v in violations)

    def test_running_call_in_body_reported_once(self):
        inner = RunningCall("Y", ("q",), CHOR_END)
        body = Interaction(CommEta("p", Lit(1), "q", "x"), inner)
        p = ChorProgram(
            {"X": ProcDef(("p", "q"), body), "Y": ProcDef(("q",), CHOR_END)},
            CHOR_END,
        )
        violations = cc_check_wf(p)
        paths = [v.path for v in violations if v.rule == "non-initial-procedure-body"]
        assert paths == [("def", "X", "cont")]

    # X declares p and q; every body below uses r besides, in one way
    # each, and a call to the undefined Z adds no process
    _guard = Eq(VarRef("x"), Lit(0))

    @pytest.mark.parametrize(
        "body",
        [
            Interaction(CommEta("p", Lit(1), "r", "x"), Call("Z")),
            Cond("r", _guard, Call("Z"), CHOR_END),
            Interaction(SelectEta("p", "q", "left"), Call("Y")),
            Cond("p", _guard, CHOR_END, RunningCall("Y", ("r",), CHOR_END)),
        ],
        ids=["interaction", "decider", "callee-declares", "pending"],
    )
    def test_undeclared_process_use(self, body):
        p = ChorProgram({"X": ProcDef(("p", "q"), body), "Y": ProcDef(("r",), CHOR_END)}, CHOR_END)
        (v,) = [v for v in cc_check_wf(p) if v.rule == "undeclared-process-use"]
        assert v.path == ("def", "X")
        assert v.detail == "body uses ['r'] not declared in ['p', 'q']"

    def test_preserved_under_steps(self):
        for name in PROJECTABLE:
            p = load_program(name)
            for main, _s, _trans in explore(p):
                assert cc_check_wf(ChorProgram(p.procs, main)) == ()


class TestAuthRuns:
    """The authentication choreography, both verdicts, policy=first."""

    def test_accept_branch_labels(self, auth):
        s0 = State({("s", "token"): 42})
        res = cc_run(auth, s0, policy="first")
        assert res.outcome == "terminated"
        assert tuple(r.label for r in res.trace) == (
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
        assert tuple(r.label for r in res.trace) == (
            ObsComm("c", 7, "ip"),
            ObsTau("ip"),
            ObsSelect("ip", "s", "right"),
            ObsSelect("ip", "c", "right"),
        )
        assert res.final_state.get("c", "t") == 0

    def test_end_program_empty_trace(self):
        res = cc_run(ChorProgram({}, CHOR_END))
        assert res.trace == () and res.outcome == "terminated"

    def test_stuck_term_deadlocks(self):
        stuck = RunningCall("X", (), End())
        res = cc_run(ChorProgram({}, stuck))
        assert res.trace == () and res.outcome == "deadlocked"
        assert res.final == stuck


    def test_undefined_procedure_deadlocks(self):
        res = cc_run(parse("main { call X }").program)
        assert res.trace == () and res.outcome == "deadlocked"
        assert res.final == Call("X")


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
        assert tuple(r.label for r in res.trace) == round_labels + round_labels + (
            ObsTau("c"),
            ObsTau("s"),
        )

    def test_passing_check_terminates(self, filetransfer):
        res = cc_run(filetransfer, EMPTY_STATE, policy="first")
        assert res.outcome == "terminated"
        assert tuple(r.label for r in res.trace) == (
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

    def test_bad_policy_rejected(self, auth):
        with pytest.raises(ValueError):
            cc_run(auth, EMPTY_STATE, policy="bogus")

    def test_negative_fuel_rejected(self, auth):
        with pytest.raises(ValueError):
            cc_run(auth, EMPTY_STATE, fuel=-1)


# Choreographies over four processes for the differential test: every
# kind of term, conditionals whose branches share their delayed actions
# (the same body twice, or the same first action) and running calls
# with non-empty pending lists, some naming undeclared processes.
_pids = st.sampled_from(["p", "q", "r", "s"])
_exprs = st.sampled_from([Lit(1), Lit(2), VarRef("x"), Add(VarRef("x"), Lit(1))])
_guards = st.sampled_from([Eq(VarRef("x"), Lit(0)), Eq(VarRef("y"), Lit(1))])
_vars = st.sampled_from(["x", "y"])
_etas = st.one_of(
    st.builds(lambda a, e, b, v: CommEta(a, e, b, v), _pids, _exprs, _pids, _vars),
    st.builds(
        lambda a, b, l: SelectEta(a, b, l), _pids, _pids, st.sampled_from(["left", "right"])
    ),
)
_proc_names = st.sampled_from(["X", "Y", "Z"])  # Z is never defined


def _choreographies():
    base = st.one_of(st.just(CHOR_END), st.builds(lambda x: Call(x), _proc_names))

    def extend(children):
        return st.one_of(
            st.builds(lambda e, c: Interaction(e, c), _etas, children),
            st.builds(lambda p, g, t, e: Cond(p, g, t, e), _pids, _guards, children, children),
            st.builds(lambda p, g, c: Cond(p, g, c, c), _pids, _guards, children),
            st.builds(
                lambda p, g, e, t, f: Cond(p, g, Interaction(e, t), Interaction(e, f)),
                _pids, _guards, _etas, children, children,
            ),
            st.builds(
                lambda x, pending, c: RunningCall(x, tuple(pending), c),
                _proc_names, st.lists(_pids, min_size=1, max_size=3, unique=True), children,
            ),
        )

    return st.recursive(base, extend, max_leaves=10)


_stores = st.dictionaries(st.tuples(_pids, _vars), st.integers(-1, 2), max_size=4).map(State)


class TestAgainstReference:
    """``cc_enabled`` against the frozen derive-then-filter copy in
    ``cc_reference.py``: same labels, successors, states and order."""

    STORES = [EMPTY_STATE, State({("c", "credentials"): 7, ("s", "token"): 42})]

    @pytest.mark.parametrize("store", STORES, ids=["empty", "credentials"])
    @pytest.mark.parametrize("name", sorted(f.stem for f in CORPUS.glob("*.chor")))
    def test_corpus_walks(self, name, store):
        # depth 40 exhausts every corpus program but the unbounded counter
        p = load_program(name)
        for main, s, trans in explore(p, store, depth=40):
            assert trans == reference_cc_enabled(p.procs, main, s), (name, main)

    @settings(max_examples=400, deadline=None)
    @given(_choreographies(), _choreographies(), _choreographies(), _stores)
    def test_generated(self, c, body_x, body_y, s):
        procs = {"X": ProcDef(("p", "q"), body_x), "Y": ProcDef(("q", "r", "s"), body_y)}
        trans = cc_enabled(procs, c, s)
        assert trans == reference_cc_enabled(procs, c, s)
        for _label, c2, s2 in trans:
            assert cc_enabled(procs, c2, s2) == reference_cc_enabled(procs, c2, s2)

    def test_blocked_heads_are_not_evaluated(self, monkeypatch):
        # a ring: each interaction shares a process with the one before it,
        # so only the root's head fires and only it writes the store
        ring = CHOR_END
        for i in reversed(range(200)):
            ring = Interaction(CommEta(f"p{i % 10}", Lit(i), f"p{(i + 1) % 10}", "x"), ring)
        writes = []
        original = State.set

        def counted(self, *args):
            writes.append(args)
            return original(self, *args)

        monkeypatch.setattr(State, "set", counted)
        trans = cc_enabled({}, ring, EMPTY_STATE)
        assert [label for label, _c, _s in trans] == [RichComm("p0", 0, "p1", "x")]
        assert writes == [("p1", "x", 0)]


# a body that calls a declared procedure and an undefined one and holds
# a running call, for the differentials to see every kind of call
_CALLS = Cond(
    "r", Eq(VarRef("x"), Lit(0)), Call("Y"), RunningCall("X", ("q",), Call("Z"))
)


class TestWellFormednessAgainstReference:
    """The spine-looping scan against the frozen recursive one in
    ``cc_reference.py``: the same violations, paths and order, and in a
    body the processes the second walk of the earlier ``cc_check_wf``
    found."""

    @settings(max_examples=400, deadline=None)
    @given(_choreographies(), _choreographies(), st.booleans(), st.integers(0, 60))
    @example(_CALLS, _CALLS, True, 0)
    def test_generated(self, c, body_x, in_procedure, spine):
        # a spine of self-communications and others in front of c
        for i in range(spine):
            c = Interaction(CommEta("p", Lit(i), "p" if i % 7 == 0 else "q", "x"), c)
        procs = {"X": ProcDef(("p", "q"), body_x), "Y": ProcDef(("q", "r", "s"), CHOR_END)}
        live, ref = [], []
        used = chor_mod._scan_chor(c, ("main",), procs, live, in_procedure)
        reference_scan_chor(c, ("main",), procs, ref, in_procedure)
        assert live == ref
        if in_procedure:  # only a body's processes are read, and collected
            vars_of = lambda name: procs[name].params if name in procs else ()
            assert used == reference_chor_pids(c, vars_of)

    @settings(max_examples=300, deadline=None)
    @given(_choreographies(), _choreographies(), _choreographies(), _choreographies())
    @example(CHOR_END, _CALLS, _CALLS, _CALLS)
    def test_generated_programs(self, main, body_x, body_y, body_w):
        # W declares nothing, so its body uses undeclared processes
        procs = {
            "X": ProcDef(("p", "q"), body_x),
            "Y": ProcDef(("q", "r", "s"), body_y),
            "W": ProcDef((), body_w),
        }
        p = ChorProgram(procs, main)
        assert cc_check_wf(p) == reference_cc_check_wf(p)

    @pytest.mark.parametrize(
        "name", sorted(f.stem for f in CORPUS.glob("*.chor")) + sorted(GENERATED)
    )
    def test_corpus_and_generated(self, name):
        p = GENERATED[name] if name in GENERATED else load_program(name)
        assert cc_check_wf(p) == reference_cc_check_wf(p)

    def test_one_scan_per_term(self, monkeypatch):
        # the scan of each body gives its processes: no second walk
        def refuse(*_args):
            raise AssertionError("cc_check_wf walked a term a second time")

        monkeypatch.setattr(chor_mod, "subterms", refuse)
        monkeypatch.setattr(chor_mod, "term_names", refuse)
        scanned = []
        original = chor_mod._scan_chor
        counted = lambda c, *rest: scanned.append(c) or original(c, *rest)
        monkeypatch.setattr(chor_mod, "_scan_chor", counted)
        for p in [load_program(f.stem) for f in sorted(CORPUS.glob("*.chor"))]:
            scanned.clear()
            cc_check_wf(p)
            terms = [d.body for _name, d in sorted(p.procs.items())] + [p.main]
            assert len(scanned) == len(terms)
            assert all(a is b for a, b in zip(scanned, terms))

    def test_long_ring_at_the_default_recursion_limit(self, default_recursion_limit):
        assert cc_check_wf(_ring(10_000)) == ()
        # a self-communication at the end of the ring, at its full path
        c = Interaction(CommEta("p0", Lit(0), "p0", "x"), CHOR_END)
        for i in reversed(range(9_999)):
            c = Interaction(CommEta(f"p{i % 3}", Lit(i), f"p{(i + 1) % 3}", "x"), c)
        (v,) = cc_check_wf(ChorProgram({}, c))
        assert v.path == ("main",) + ("cont",) * 9_999


class TestSubterms:
    """The node walk against the frozen recursive pre-order in
    ``cc_reference.py``: the same nodes, as the same objects, in order."""

    @staticmethod
    def _agrees(c):
        live, ref = list(subterms(c)), reference_subterms(c)
        assert len(live) == len(ref)
        assert all(a is b for a, b in zip(live, ref)), c

    @pytest.mark.parametrize("name", sorted(f.stem for f in CORPUS.glob("*.chor")))
    def test_corpus(self, name):
        # main, every body, and every term reached within 10 steps, which
        # include running calls
        p = load_program(name)
        reached = [main for main, _s, _trans in explore(p, depth=10)]
        for c in [p.main, *(d.body for d in p.procs.values()), *reached]:
            self._agrees(c)

    @settings(max_examples=300, deadline=None)
    @given(_choreographies())
    def test_generated(self, c):
        self._agrees(c)

    def test_long_ring_at_the_default_recursion_limit(self, default_recursion_limit):
        c = _ring(10_000).main
        nodes = list(subterms(c))
        assert len(nodes) == 10_001 and nodes[0] is c and type(nodes[-1]) is End

    def test_rejects_a_node_that_is_not_a_choreography(self):
        c = Interaction(CommEta("p", Lit(1), "q", "x"), ("not", "a", "node"))
        with pytest.raises(TypeError, match="not a choreography"):
            list(subterms(c))


def _ring(n: int, procs: int = 3) -> ChorProgram:
    c = CHOR_END
    for i in reversed(range(n)):
        c = Interaction(CommEta(f"p{i % procs}", Lit(i), f"p{(i + 1) % procs}", "x"), c)
    return ChorProgram({}, c)


def _table_transitions(p: ChorProgram) -> list:
    table = SuccessorTable(p)
    return table.at(table.key((p.main, EMPTY_STATE)))


class TestEarlyStop:
    """The walk stops once every process of the program is blocked, and
    gives what the frozen reference gives."""

    ENTRIES = {
        "table": lambda p: _table_transitions(p),
        "cc_step": lambda p: cc_step(p, EMPTY_STATE, RichComm("p0", 0, "p1", "x")),
        "cc_run": lambda p: cc_run(p, fuel=1),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_spine_walk_is_independent_of_length(self, entry, monkeypatch):
        original = chor_mod._may_delay_past_eta
        calls = []

        def counted(pids, blocked):
            calls.append(pids)
            return original(pids, blocked)

        monkeypatch.setattr(chor_mod, "_may_delay_past_eta", counted)
        counts = []
        for n in (200, 400):
            calls.clear()
            self.ENTRIES[entry](_ring(n))
            counts.append(len(calls))
        assert counts[0] == counts[1] < 10

    def test_long_run_at_the_default_recursion_limit(self):
        # neither the walk nor the process set recurses along the spine
        result = cc_run(_ring(3000), fuel=5000)
        assert result.outcome == "terminated" and len(result.trace) == 3000

    def test_undeclared_process_of_a_body(self):
        # P declares a and b, but its body also lets c talk to d behind
        # a and b: a stop set of main's and the declared processes alone
        # would cut off c's action once a and b are blocked
        body = Interaction(
            CommEta("a", Lit(1), "b", "x"),
            Interaction(
                CommEta("b", Lit(2), "a", "y"),
                Interaction(CommEta("c", Lit(3), "d", "z"), CHOR_END),
            ),
        )
        p = ChorProgram({"P": ProcDef(("a", "b"), body)}, Call("P"))
        assert cc_check_wf(p) != ()
        assert infer_params(p)[1] == ("a", "b", "c", "d")
        table = SuccessorTable(p)
        reached = 0
        for main, s, trans in explore(p, depth=20):
            assert table.at(table.key((main, s))) == trans == reference_cc_enabled(p.procs, main, s)
            reached += 1
        assert reached > 5

    @pytest.mark.parametrize("name", sorted(f.stem for f in CORPUS.glob("*.chor")))
    def test_corpus_walks(self, name):
        p = load_program(name)
        everyone = frozenset(infer_params(p)[1])
        for main, s, trans in explore(p, depth=40):
            stopped = cc_enabled(p.procs, main, s, frozenset(), everyone)
            assert stopped == trans == reference_cc_enabled(p.procs, main, s), (name, main)

    @settings(max_examples=300, deadline=None)
    @given(_choreographies(), _choreographies(), _choreographies(), _stores)
    def test_generated(self, c, body_x, body_y, s):
        p = ChorProgram(
            {"X": ProcDef(("p", "q"), body_x), "Y": ProcDef(("q", "r", "s"), body_y)}, c
        )
        everyone = frozenset(infer_params(p)[1])
        trans = cc_enabled(p.procs, c, s, frozenset(), everyone)
        assert trans == reference_cc_enabled(p.procs, c, s)
        for _label, c2, s2 in trans:
            stopped = cc_enabled(p.procs, c2, s2, frozenset(), everyone)
            assert stopped == reference_cc_enabled(p.procs, c2, s2)
