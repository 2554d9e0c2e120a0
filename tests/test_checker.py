"""The bounded correspondence checker and its companion suites."""

import sys
from collections import Counter

import checker_reference
import pytest
from checker_reference import (
    reference_check_cc_confluence,
    reference_check_deadlock_freedom,
    reference_check_sp_confluence,
    reference_verify_epp,
)
from cc_reference import reference_cc_enabled
from conftest import CORPUS, PROJECTABLE, SEAM_MUTATIONS, explore, load_program
from net_reference import reference_sp_step

from chorkit import checker as checker_mod
from chorkit import chor as chor_mod
from chorkit import net as net_mod
from chorkit import projection as projection_mod
from chorkit.checker import (
    SuccessorTable,
    check_cc_confluence,
    check_deadlock_freedom,
    check_hypotheses,
    check_sp_confluence,
    verify_epp,
)
from chorkit.chor import (
    Call,
    ChorProgram,
    CommEta,
    Cond,
    Interaction,
    ProcDef,
    RunningCall,
    cc_enabled,
)
from chorkit.chor import End as ChorEnd
from chorkit.core import (
    EMPTY_STATE,
    CanonicalMap,
    Eq,
    Lit,
    RichComm,
    RichSelect,
    State,
    VarRef,
    forget,
)
from chorkit.net import NetProgram, Network, Recv, Send, sp_enabled
from chorkit.projection import ProjectionError, epp_program
from chorkit.syntax import parse

CORPUS_NAMES = sorted(f.stem for f in CORPUS.glob("*.chor"))
STORES = [EMPTY_STATE, State({("c", "credentials"): 7, ("s", "token"): 42})]


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
        failures = check_hypotheses(auth, (), ("c", "ip"), {})[0]
        assert any(
            h.name == "projectability"
            and h.detail.startswith("projection fails for s ")
            and "(coverage)" in h.detail
            for h in failures
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
        assert str(v) == (
            "counterexample: completeness failure at depth 2 on ip -> s[left]: "
            "candidate network does not cover the projection of the successor"
        )

    def test_pruning_check_is_live(self, auth, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(checker_mod, "_prunes", lambda wider, projected: False)
            v = verify_epp(auth, depth=10)
        assert v.status == "counterexample"
        assert v.counterexample.direction == "invariant"
        assert str(v.counterexample) == (
            "invariant failure at depth 0: initial network below its own projection"
        )

    def test_network_step_without_choreography_partner(self, monkeypatch):
        # the choreography refuses every action, the network does not
        monkeypatch.setattr(chor_mod, "_may_delay_past_eta", lambda pids, blocked: False)
        v = verify_epp(load_program("parallel"))
        assert str(v.counterexample) == (
            "soundness failure at depth 0 on a.0 -> b: "
            "no choreography transition has this label"
        )

    def test_choreography_step_without_network_partner(self, auth, monkeypatch):
        # the network refuses every selection, the choreography does not
        monkeypatch.setattr(net_mod, "_chosen_option", lambda b, label: None)
        v = verify_epp(auth)
        assert str(v.counterexample) == (
            "completeness failure at depth 2 on ip -> s[left]: "
            "no network transition has this label"
        )

    def test_network_step_with_another_store(self, auth, monkeypatch):
        # every network step also writes a variable the choreography never does
        original = checker_mod.sp_enabled

        def drifting(procs, n, s):
            return [(rich, n2, s2.set("z", "x", 1)) for rich, n2, s2 in original(procs, n, s)]

        monkeypatch.setattr(checker_mod, "sp_enabled", drifting)
        v = verify_epp(auth)
        assert str(v.counterexample) == (
            "completeness failure at depth 0 on c.0 -> ip: "
            "candidate changes the state differently"
        )

    # the completeness failure each faulty enumerator leads to
    UNSTABLE = {
        "wrong-branch": "completeness failure at depth 2 on ip -> s[left]: "
        "candidate network does not cover the projection of the successor",
        "value-plus-one": "completeness failure at depth 0 on c.0 -> ip: "
        "no network transition has this label",
    }

    @pytest.mark.parametrize("fault", ["wrong-branch", "value-plus-one"])
    def test_faulty_enumerator_is_a_stability_violation(self, auth, fault, monkeypatch):
        # only sp_enabled is broken: sp_step derives each transition on
        # its own, so the stability check sees where the two differ
        original = net_mod.sp_enabled

        def faulty(procs, n, s):
            out = []
            for rich, n2, s2 in original(procs, n, s):
                if fault == "wrong-branch" and type(rich) is RichSelect:
                    offer = n.get(rich.receiver)
                    other = offer.on_right if rich.label == "left" else offer.on_left
                    if other is not None:
                        n2 = n2.set(rich.receiver, other)
                elif fault == "value-plus-one" and type(rich) is RichComm:
                    rich = rich._replace(value=rich.value + 1)
                    s2 = s.set(rich.receiver, rich.var, rich.value)
                out.append((rich, n2, s2))
            return out

        for owner in (net_mod, checker_mod):
            monkeypatch.setattr(owner, "sp_enabled", faulty)
        v = verify_epp(auth)
        assert v.stability_violations > 0
        assert not v.ok
        assert str(v.counterexample) == self.UNSTABLE[fault]

    def test_repeated_label_is_a_determinism_violation(self, auth, monkeypatch):
        original = checker_mod.sp_enabled
        monkeypatch.setattr(checker_mod, "sp_enabled", lambda *a: original(*a) * 2)
        v = verify_epp(auth)
        assert (v.determinism_checks, v.determinism_violations) == (5, 5)
        assert v.counterexample.direction == "invariant"
        assert str(v.counterexample) == (
            "invariant failure at depth 0: network semantics violated determinism or stability"
        )


def _reachable(root, successors, depth=40):
    """Nodes reachable from ``root`` within ``depth`` steps, breadth-first."""
    seen = {root}
    frontier = [root]
    for _ in range(depth):
        frontier = [n for node in frontier for n in successors(node) if n not in seen]
        seen.update(frontier)
    return seen


class TestSinglePartner:
    """The pairing in ``verify_epp`` looks up one partner per label, which
    relies on both semantics offering each observable label at most once."""

    @pytest.mark.parametrize("store", STORES, ids=["empty", "credentials"])
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_observable_labels_are_distinct(self, name, store):
        p = load_program(name)
        walks = [(lambda c, s: cc_enabled(p.procs, c, s), p.main)]
        if name in PROJECTABLE:
            np = epp_program(p)
            walks.append((lambda n, s: sp_enabled(np.procs, n, s), np.net))
        for enabled, root in walks:
            nodes = _reachable(
                (root, store), lambda node: [tr[1:] for tr in enabled(*node)]
            )
            for node in nodes:
                labels = [forget(tr[0]) for tr in enabled(*node)]
                assert len(set(labels)) == len(labels), (name, node)


def _wide_source(pairs: int, conds: int, length: int, taken: str) -> str:
    """wide(K,C,L) as ``.chor`` text: K independent pairs of L
    interactions, the last C of which then branch, each branch copying
    the rest of the program, so that the parsed program holds equal but
    distinct tails.  ``taken`` names, per conditional, the branch its
    guard picks while its ``a.x`` is 0 ("then" tests ``a.x == 0``,
    "else" ``a.x == 1``)."""
    plain = pairs - conds

    def pair(k):
        a, b = f"a{k}", f"b{k}"
        return [
            f"{a}.x -> {b}.y;" if i % 2 == 0 else f"{b}.y + {i} -> {a}.x;" for i in range(length)
        ]

    tail = "end"
    for k in reversed(range(plain, pairs)):
        a, b = f"a{k}", f"b{k}"
        value = 0 if taken[k - plain] == "then" else 1
        then_c = f"{a} -> {b}[left]; {a}.x + 1 -> {b}.z; {tail}"
        else_c = f"{a} -> {b}[right]; {b}.y + 2 -> {a}.w; {tail}"
        tail = " ".join(pair(k)) + f" if {a}.x == {value} then {{ {then_c} }} else {{ {else_c} }}"
    body = " ".join(line for k in range(plain) for line in pair(k))
    return f"main {{ {body} {tail} }}"


def _twins() -> dict:
    """Programs whose terms hold pairs of nodes that differ in exactly one
    field that is not a term (an interaction, a guard, a pending list)
    above equal children, so an intern key that leaves that field out
    merges the two."""
    body = Interaction(CommEta("a", Lit(1), "b", "x"), ChorEnd())
    return {
        "eta": parse(
            "main { if a.x == 0 then { a.1 -> b.y; b.y -> a.z; end }"
            " else { a.2 -> b.y; b.y -> a.z; end } }"
        ).program,
        "guard": parse(
            "main { if a.x == 0 then {"
            " if a.y == 0 then { a -> b[left]; end } else { a -> b[right]; end } } else {"
            " if a.y == 1 then { a -> b[left]; end } else { a -> b[right]; end } } }"
        ).program,
        "pending": ChorProgram(
            {"P": ProcDef(("a", "b"), body)},
            Cond(
                "a",
                Eq(VarRef("x"), Lit(0)),
                RunningCall("P", ("a",), body),
                RunningCall("P", ("b",), body),
            ),
        ),
    }


def _orders() -> dict:
    """Programs whose interleavings write one store in different orders
    (an entry of the initial store erased and written again among them)
    and reach one network along several paths, so the successor table
    interns equal stores and networks that are distinct objects."""
    return {
        "pairs": parse(
            "main { a.1 -> b.x; c.2 -> d.y; e.3 -> f.z; b.x -> a.y; d.y -> c.x; end }"
        ).program,
        "rewrite": parse(
            "main { b.0 -> a.x; c.2 -> d.y; b.1 -> a.x; d.y -> c.z;"
            " if a.x == 1 then { a -> b[left]; end } else { a -> b[right]; end } }"
        ).program,
    }


GENERATED = {
    **{f"wide({k},{c},{n})-{taken}": parse(_wide_source(k, c, n, taken)).program
       for k, c, n, taken in (
           (2, 1, 1, "then"), (3, 1, 2, "else"), (3, 2, 1, "then-else"),
           (4, 2, 1, "else-then"), (2, 2, 2, "then-then"),
       )},
    **{f"twins-{name}": p for name, p in _twins().items()},
    **{f"orders-{name}": p for name, p in _orders().items()},
}
GENERATED_STORES = [
    EMPTY_STATE,
    State({("a", "x"): 1, ("a", "y"): 1, ("a0", "x"): 1, ("a1", "x"): 2}),
]


class TestAgainstReference:
    """``verify_epp`` against the frozen two-scan checker in
    ``checker_reference.py``: every verdict field, counterexample included.
    Beside the corpus, generated programs whose branches hold equal but
    distinct tails, nodes that differ in one field above equal children,
    or interleavings that reach equal stores and networks as distinct
    objects check the successor table's interning."""

    @pytest.mark.parametrize("name", [f"orders-{name}" for name in sorted(_orders())])
    def test_orders_reach_equal_maps_as_distinct_objects(self, name):
        # without a table, both semantics derive equal stores in several
        # write orders and equal networks as several objects
        p = GENERATED[name]
        np = epp_program(p)
        stores, nets = [], []
        for s0 in GENERATED_STORES:
            for _main, s, trans in explore(p, s0, depth=20):
                stores += [s2 for _l, _c2, s2 in trans]
            for n, s in _reachable((np.net, s0), lambda node: [
                tr[1:] for tr in sp_enabled(np.procs, *node)
            ]):
                nets += [n2 for _l, n2, _s2 in sp_enabled(np.procs, n, s)]
        written = {}
        for s in stores:
            written.setdefault(s, set()).add(tuple(s._map))
        assert any(len(o) > 1 for o in written.values()), name
        distinct = {}
        for n in nets:
            distinct.setdefault(n, set()).add(id(n))
        assert any(len(ids) > 1 for ids in distinct.values()), name

    @pytest.mark.parametrize(
        "mutation", [None] + SEAM_MUTATIONS, ids=["none"] + [m[0] for m in SEAM_MUTATIONS]
    )
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_corpus(self, name, mutation, monkeypatch):
        if mutation is not None:
            monkeypatch.setattr(*mutation[1:])
        p = load_program(name)
        for depth in (3, 10):
            for s0 in STORES:
                v = verify_epp(p, depth=depth, s0=s0)
                assert v == reference_verify_epp(p, depth=depth, s0=s0), (depth, s0)

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_suites_alone_and_behind_one_table(self, name):
        """All four suites against the frozen ones that derive every
        transition afresh, each alone and all behind one table that lives
        across both stores, both depths and both join depths, as
        ``chorkit verify`` shares one per file.  Verdicts compare every
        field but the table's two counters, counterexample included."""
        p = load_program(name)
        np = epp_program(p) if name in PROJECTABLE else None
        shared = SuccessorTable(p)
        for s0 in STORES:
            for depth in (3, 10):
                for join_depth in (0, 4):
                    expected = [
                        reference_verify_epp(p, depth, s0),
                        reference_check_deadlock_freedom(p, depth, s0),
                        reference_check_cc_confluence(p, depth, s0, join_depth),
                    ]
                    alone = [
                        verify_epp(p, depth, s0),
                        check_deadlock_freedom(p, depth, s0),
                        check_cc_confluence(p, depth, s0, join_depth),
                    ]
                    behind = [
                        verify_epp(p, depth, s0, table=shared),
                        check_deadlock_freedom(p, depth, s0, table=shared),
                        check_cc_confluence(p, depth, s0, join_depth, table=shared),
                    ]
                    if np is not None:
                        expected.append(reference_check_sp_confluence(np, depth, s0, join_depth))
                        alone.append(check_sp_confluence(np, depth, s0, join_depth))
                        behind.append(
                            check_sp_confluence(shared.net, depth, s0, join_depth, table=shared)
                        )
                    assert alone == expected, (s0, depth, join_depth)
                    assert behind == expected, (s0, depth, join_depth)
        assert shared.reused > 0

    @pytest.mark.parametrize(
        "mutation", [None] + SEAM_MUTATIONS, ids=["none"] + [m[0] for m in SEAM_MUTATIONS]
    )
    @pytest.mark.parametrize("name", sorted(GENERATED))
    def test_generated(self, name, mutation, monkeypatch):
        if mutation is not None:
            monkeypatch.setattr(*mutation[1:])
        p = GENERATED[name]
        shared = SuccessorTable(p)
        for s0 in GENERATED_STORES:
            for depth in (3, 20):
                expected = [
                    reference_verify_epp(p, depth, s0),
                    reference_check_deadlock_freedom(p, depth, s0),
                    reference_check_cc_confluence(p, depth, s0, 1),
                ]
                behind = [
                    verify_epp(p, depth, s0, table=shared),
                    check_deadlock_freedom(p, depth, s0, table=shared),
                    check_cc_confluence(p, depth, s0, 1, table=shared),
                ]
                if shared.net is not None:
                    expected.append(reference_check_sp_confluence(shared.net, depth, s0, 1))
                    behind.append(check_sp_confluence(shared.net, depth, s0, 1, table=shared))
                assert behind == expected, (s0, depth)

    def test_networks_that_depend_on_the_path(self, monkeypatch):
        # a faulty network semantics that leaves a stray process behind
        # when a acts last: the term ``end`` is then reached with two
        # networks, of which only the one without the stray process
        # covers its projection, so coverage is a property of the pair
        # (term, network) and must not be remembered per term
        p = parse("main { a.1 -> b.x; c.2 -> d.y; end }").program
        stray = Send("a", Lit(0), net_mod.SP_END)
        original = net_mod.sp_enabled

        def path_dependent(procs, n, s):
            out = []
            for rich, n2, s2 in original(procs, n, s):
                if rich.sender == "a" and not n2.key_view():
                    n2 = n2.set("z", stray)
                out.append((rich, n2, s2))
            return out

        for owner in (checker_mod, checker_reference):
            monkeypatch.setattr(owner, "sp_enabled", path_dependent)
        v = verify_epp(p)
        assert v == reference_verify_epp(p)
        assert str(v.counterexample) == (
            "completeness failure at depth 1 on a.1 -> b: "
            "candidate network does not cover the projection of the successor"
        )

    @pytest.mark.parametrize("name", sorted(GENERATED) + CORPUS_NAMES)
    def test_table_transitions(self, name):
        """Every reached configuration's transitions from one table, which
        interns what it derives: a choreography's against the frozen
        enumerator, and, in the same memo, a compiled network's against
        ``sp_enabled``, each label replaying through the frozen
        ``sp_step`` to an equal network and store."""
        p = GENERATED[name] if name in GENERATED else load_program(name)
        table = SuccessorTable(p)
        for s0 in GENERATED_STORES + STORES:
            for main, s, trans in explore(p, s0, depth=20):
                assert table.at(table.key((main, s))) == reference_cc_enabled(p.procs, main, s) == trans
        try:
            table.net = np = epp_program(p)
        except ProjectionError:
            return  # no network to reach
        step = lambda node: [tr[1:] for tr in sp_enabled(np.procs, *node)]
        for s0 in GENERATED_STORES + STORES:
            for n, s in _reachable((np.net, s0), step, depth=20):
                trans = table.at(table.key((n, s)))
                assert trans == sp_enabled(np.procs, n, s)
                for label, n2, s2 in trans:
                    replayed = reference_sp_step(NetProgram(np.procs, n), s, label)
                    assert replayed == (NetProgram(np.procs, n2), s2), label


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

    def test_undefined_procedure_is_a_deadlock(self):
        v = check_deadlock_freedom(parse("main { call X }").program)
        assert v.status == "counterexample"
        assert v.counterexample.direction == "deadlock"
        assert v.counterexample.config == (Call("X"), State())


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

    def test_undefined_procedure_has_no_successors(self):
        v = check_cc_confluence(parse("main { call X }").program)
        assert v.status == "verified" and v.configs_explored == 1


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


def _ring_program(procs: int, rounds: int, length=None) -> ChorProgram:
    """ring(P,R): a token passed R times round P processes, one path;
    ``length``, when given, is the number of interactions instead."""
    c = ChorEnd()
    for i in reversed(range(procs * rounds if length is None else length)):
        c = Interaction(CommEta(f"p{i % procs}", Lit(i), f"p{(i + 1) % procs}", "x"), c)
    return ChorProgram({}, c)


def _par_program(pairs: int, length: int) -> ChorProgram:
    """par(K,L): K independent pairs of L interactions, written one pair
    after the other; every interleaving is reachable."""
    c = ChorEnd()
    for k in reversed(range(pairs)):
        a, b = f"a{k}", f"b{k}"
        for i in reversed(range(length)):
            eta = CommEta(a, VarRef("x"), b, "y") if i % 2 == 0 else CommEta(b, Lit(i), a, "x")
            c = Interaction(eta, c)
    return ChorProgram({}, c)


class TestCounterGrowth:
    """Counters of one ``verify_epp`` per explored configuration, at two
    sizes of a scaling family: a cost that grows with the program where
    it should not fails here whatever the machine's speed.  A count that
    is constant per configuration may grow by a quarter from the smaller
    size to the double one (fewer transitions leave the configurations
    on the border of the space); one that is linear may grow by 2.25x.
    ``visited`` counts the nodes the successor table's interning walks:
    the program once, then only the prefix each step rebuilt.
    ``__hash__`` counts the canonical maps hashed: the table hashes each
    store and network once, when it is derived."""

    COUNTERS = (
        "bproj", "cc_enabled", "sp_enabled", "_patch", "__hash__", "successors_derived", "visited",
    )

    def _per_config(self, monkeypatch, programs, configs) -> list:
        counts: Counter = Counter()

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args):
                counts[name] += 1
                return original(*args)

            monkeypatch.setattr(owner, name, counted)

        # checker calls cc_enabled and sp_enabled by its own names, and
        # chor and net by theirs (cc_enabled recurses; an sp_step that
        # enumerated would call net's sp_enabled)
        for owner in (checker_mod, chor_mod):
            count(owner, "cc_enabled")
        for owner in (checker_mod, net_mod):
            count(owner, "sp_enabled")
        count(projection_mod, "bproj")
        count(CanonicalMap, "_patch")
        count(CanonicalMap, "__hash__")
        out = []
        for p, expected in zip(programs, configs):
            counts.clear()
            table = SuccessorTable(p)
            v = verify_epp(p, depth=10_000, table=table)
            assert v.status == "verified"
            assert v.configs_explored == expected
            counts["successors_derived"] = v.successors_derived
            counts["visited"] = table.visited
            out.append({name: counts[name] / expected for name in self.COUNTERS})
        return out

    def test_ring(self, monkeypatch):
        # one path: every count is constant per configuration
        sizes = (25, 50)
        programs = [_ring_program(3, r) for r in sizes]
        small, large = self._per_config(monkeypatch, programs, [3 * r + 1 for r in sizes])
        for name in self.COUNTERS:
            assert 0 < large[name] <= 1.25 * small[name], (name, small, large)
        # the table derives a configuration's network transitions, and
        # sp_step re-derives each one without enumerating the others
        assert small["sp_enabled"] == large["sp_enabled"] == 1, (small, large)

    def test_par(self, monkeypatch):
        # a configuration's term holds what the pairs in front of the
        # acting one have not done yet: cc_enabled walks across it and a
        # step rebuilds it, which the table interns and bproj then
        # projects, so those three are linear in L per configuration;
        # nothing may grow faster
        sizes = (8, 16)
        programs = [_par_program(2, n) for n in sizes]
        small, large = self._per_config(monkeypatch, programs, [(n + 1) ** 2 for n in sizes])
        for name in self.COUNTERS:
            factor = 2.25 if name in ("bproj", "cc_enabled", "visited") else 1.25
            assert 0 < large[name] <= factor * small[name], (name, small, large)


class TestLongPrograms:
    """The suites on a 10 000-interaction ring at the default recursion
    limit: interning walks the program with its own stack, ``cc_enabled``
    stops once every process is blocked, and no configuration is hashed
    or compared by its term, so each step costs the same however long
    the program."""

    @pytest.mark.parametrize("suite", [check_deadlock_freedom, check_cc_confluence])
    def test_ring_of_10000_interactions(self, suite, default_recursion_limit):
        p = _ring_program(3, 0, length=10_000)
        v = suite(p, depth=10_000)
        assert v.status == "verified"
        assert v.configs_explored == 10_001


class TestIdentityKeys:
    """Once the successor table has interned the program, no check hashes
    or compares a choreography term, and a store or a network is hashed
    once, when the table interns it: every structure keys a
    configuration by the ids of its interned parts."""

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_suites_behind_one_table(self, name, monkeypatch):
        p = load_program(name)
        table = SuccessorTable(p)
        calls: Counter = Counter()
        for cls in (Interaction, Cond, RunningCall):
            for method in ("__hash__", "__eq__", "__ne__"):

                def counted(self, *args, _original=getattr(cls, method), _key=(cls, method)):
                    calls[_key] += 1
                    return _original(self, *args)

                monkeypatch.setattr(cls, method, counted)
        for s0 in STORES:
            verdicts = [
                verify_epp(p, 10, s0, table=table),
                check_deadlock_freedom(p, 10, s0, table=table),
                check_cc_confluence(p, 10, s0, table=table),
            ]
            if table.net is not None:
                verdicts.append(check_sp_confluence(table.net, 10, s0, table=table))
            assert all(v.configs_explored for v in verdicts[1:]), verdicts
        assert not calls, calls

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_maps_behind_one_table(self, name, monkeypatch):
        # every hash of a store or network is the table interning one it
        # derived or a root, no map is hashed twice, and every comparison
        # is an interning hit or the stability check of a network
        # transition derived twice
        p = load_program(name)
        table = SuccessorTable(p)
        calls = {"__hash__": Counter(), "__eq__": Counter()}
        hashed: dict = {}  # id -> [map, hash calls]; keeps the map, so its id is not reused
        for method, seen in calls.items():

            def counted(self, *args, _original=getattr(CanonicalMap, method), _seen=seen, _method=method):
                _seen[sys._getframe(1).f_code.co_name] += 1
                if _method == "__hash__":
                    hashed.setdefault(id(self), [self, 0])[1] += 1
                return _original(self, *args)

            monkeypatch.setattr(CanonicalMap, method, counted)
        roots = stability = 0
        for s0 in STORES:
            verdicts = [
                verify_epp(p, 10, s0, table=table),
                check_deadlock_freedom(p, 10, s0, table=table),
                check_cc_confluence(p, 10, s0, table=table),
            ]
            roots += 2  # the stores of the two choreography suites
            if table.net is not None:
                verdicts.append(check_sp_confluence(table.net, 10, s0, table=table))
                roots += 4  # a network and a store for each network root
            stability += verdicts[0].stability_checks
        derived = sum(
            isinstance(x, CanonicalMap) for trans in table._at.values() for tr in trans for x in tr[1:]
        )
        hashes, eqs = calls["__hash__"], calls["__eq__"]
        assert set(hashes) <= {"_intern_map"}, hashes
        assert sum(hashes.values()) <= derived + roots, (hashes, derived, roots)
        twice = [m for m, n in hashed.values() if n > 1]
        assert not twice, twice
        assert set(eqs) <= {"_intern_map", "_sp_self_checks"}, eqs
        assert eqs["_intern_map"] <= hashes["_intern_map"], (eqs, hashes)
        assert eqs["_sp_self_checks"] <= 2 * stability, (eqs, stability)

    def test_counted_methods_see_structural_use(self, monkeypatch):
        # the counting above is live: a dict keyed by a term hashes it
        calls = []
        monkeypatch.setattr(Interaction, "__hash__", lambda c: calls.append(c) or 0)
        term = Interaction(CommEta("a", Lit(1), "b", "x"), ChorEnd())
        {(term, EMPTY_STATE): None}
        assert calls == [term]

    def test_dropped_terms_do_not_pass_for_interned_ones(self):
        # each term is dropped once interned; without the node each entry
        # keeps, a later term could reuse a dropped term's id and pass for
        # the interned term that id once stood for
        table = SuccessorTable(ChorProgram({}, ChorEnd()))

        def term(i):
            a, b = ("p", "q") if i % 2 else ("q", "p")
            tail = Interaction(CommEta(b, Lit(i % 7), a, "y"), ChorEnd())
            return Interaction(CommEta(a, Lit(i % 5), b, "x"), tail)

        for i in range(2000):
            c, again = term(i), term(i)
            interned = table.intern(c)
            assert interned == c and table.intern(again) is interned, i
            del c, again, interned

    def test_dropped_maps_do_not_pass_for_interned_ones(self):
        # an equal store or network interned after the first is dropped:
        # the table keeps only the first of each class, so a later map
        # that reuses a dropped one's id does not pass for the interned
        # map that id once stood for
        table = SuccessorTable(ChorProgram({}, ChorEnd()))

        def maps(i):
            s = State({("p", "x"): i % 5, ("q", "y"): i % 7})
            n = Network({"p": Send("q", Lit(i % 5), Recv("q", "y", net_mod.SP_END))})
            return s, n

        for i in range(2000):
            first, again = maps(i), maps(i)
            for m, twin in zip(first, again):
                interned = table.intern(m)
                assert interned == m and table.intern(twin) is interned, i
            del first, again, m, twin, interned
