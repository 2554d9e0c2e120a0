"""The more-branches preorder: pinned cases, lattice lemmas, simulation."""

import itertools
import random

from chorkit.core import EMPTY_STATE, State
from chorkit.chor import cc_enabled, cc_step
from chorkit.merge import UNDEFINED, xmerge
from chorkit.net import (
    Branch,
    Call,
    Cond,
    EMPTY_NET,
    Network,
    Recv,
    SP_END,
    SelectSend,
    Send,
    sp_enabled,
)
from chorkit.core import Eq, Lit, VarRef
from chorkit.projection import epp_program
from chorkit.pruning import net_more_branches, xmore_branches
from chorkit.smallterms import behaviour_space

SPACE2 = behaviour_space(2)
N = len(SPACE2)
# relation matrix shared by the exhaustive lemma scans below
R = [[xmore_branches(a, b) for b in SPACE2] for a in SPACE2]


class TestPinnedCases:
    def test_full_branch_covers_empty_branch(self):
        full = Branch("p", SP_END, Recv("p", "x", SP_END))
        empty = Branch("p", None, None)
        assert xmore_branches(full, empty)
        assert not xmore_branches(empty, full)

    def test_missing_option_breaks_relation(self):
        l = Send("q", Lit(1), SP_END)
        r = Recv("q", "x", SP_END)
        assert not xmore_branches(Branch("p", None, r), Branch("p", l, r))

    def test_reflexive_on_space(self):
        for i in range(N):
            assert R[i][i]

    def test_undefined_relates_only_to_itself(self):
        assert xmore_branches(UNDEFINED, UNDEFINED)
        assert not xmore_branches(UNDEFINED, SP_END)
        assert not xmore_branches(SP_END, UNDEFINED)

    def test_proper_restriction_agrees(self):
        for a in SPACE2[:30]:
            for b in SPACE2[:30]:
                assert xmore_branches(a, b) == xmore_branches(a, b)

    def test_decorations_must_match(self):
        assert not xmore_branches(Send("q", Lit(1), SP_END), Send("q", Lit(2), SP_END))
        assert not xmore_branches(Recv("q", "x", SP_END), Recv("q", "y", SP_END))
        assert not xmore_branches(
            SelectSend("q", "left", SP_END), SelectSend("q", "right", SP_END)
        )
        assert not xmore_branches(Branch("p", SP_END, None), Branch("q", SP_END, None))


class TestPreorder:
    def test_transitive(self):
        for i in range(N):
            ri = R[i]
            for j in range(N):
                if not ri[j]:
                    continue
                rj = R[j]
                for k in range(N):
                    if rj[k]:
                        assert ri[k]

    def test_antisymmetric_up_to_equality(self):
        for i in range(N):
            for j in range(N):
                if R[i][j] and R[j][i]:
                    assert SPACE2[i] == SPACE2[j]


class TestCharacterisation:
    def test_relation_iff_merge_gives_left(self):
        for i, a in enumerate(SPACE2):
            row = R[i]
            for j, b in enumerate(SPACE2):
                assert row[j] == (xmerge(a, b) == a)


def ref_more(a, b):
    """The preorder read straight off its definition, with no fast path."""
    if a is UNDEFINED or b is UNDEFINED:
        return a is b
    if type(a) is not type(b):
        return False
    if type(a) is Branch:
        return a.peer == b.peer and all(
            y is None or (x is not None and ref_more(x, y))
            for x, y in ((a.on_left, b.on_left), (a.on_right, b.on_right))
        )
    if type(a) is Cond:
        return (
            a.guard == b.guard
            and ref_more(a.then_b, b.then_b)
            and ref_more(a.else_b, b.else_b)
        )
    if type(a) in (Send, Recv, SelectSend):
        return a[:2] == b[:2] and ref_more(a.cont, b.cont)
    if type(a) is Call:
        return a.name == b.name
    return True


# Hand-built partial trees, with UNDEFINED below the root.
PARTIAL = [
    UNDEFINED,
    Branch("p", UNDEFINED, None),
    Branch("p", SP_END, UNDEFINED),
    Cond(Eq(VarRef("x"), Lit(0)), UNDEFINED, SP_END),
    Send("p", Lit(1), UNDEFINED),
    SelectSend("q", "left", UNDEFINED),
]


class TestAgainstReference:
    """``xmore_branches`` against a plain recursive preorder."""

    def test_small_space_and_partial_trees(self):
        terms = SPACE2 + PARTIAL
        for a, b in itertools.product(terms, terms):
            assert xmore_branches(a, b) == ref_more(a, b), (a, b)

    def test_depth3_sample(self):
        space = behaviour_space(3)
        rng = random.Random(1906)
        for _ in range(20_000):
            a, b = rng.choice(space), rng.choice(space)
            assert xmore_branches(a, b) == ref_more(a, b), (a, b)


class TestUpperBound:
    def test_merge_result_covers_both_operands(self):
        for a in SPACE2:
            for b in SPACE2:
                m = xmerge(a, b)
                if m is not UNDEFINED:
                    assert xmore_branches(m, a)
                    assert xmore_branches(m, b)


class TestLeastUpperBound:
    def test_common_cover_bounds_the_merge(self):
        # mb(B,B1) and mb(B,B2) force merge(B1,B2) defined and below B
        for i in range(N):
            lows = [j for j in range(N) if R[i][j]]
            top = SPACE2[i]
            for j in lows:
                bj = SPACE2[j]
                for k in lows:
                    m = xmerge(bj, SPACE2[k])
                    assert m is not UNDEFINED
                    assert xmore_branches(top, m)


class TestDownwardMergeability:
    def test_shrinking_operands_keeps_merge_defined(self):
        # mb(B1,B1'), mb(B2,B2'), merge(B1,B2) defined entail
        # merge(B1',B2') defined and below merge(B1,B2)
        lows = [[j for j in range(N) if R[i][j]] for i in range(N)]
        for i in range(N):
            bi = SPACE2[i]
            for j in range(N):
                m = xmerge(bi, SPACE2[j])
                if m is UNDEFINED:
                    continue
                for i2 in lows[i]:
                    b_i2 = SPACE2[i2]
                    for j2 in lows[j]:
                        m2 = xmerge(b_i2, SPACE2[j2])
                        assert m2 is not UNDEFINED
                        assert xmore_branches(m, m2)


class TestNetworkPruning:
    def test_pointwise_over_support_union(self):
        big = Network({"p": Branch("q", SP_END, Recv("q", "x", SP_END))})
        small = Network({"p": Branch("q", SP_END, None)})
        assert net_more_branches(big, small)
        assert not net_more_branches(small, big)

    def test_empty_net_lacks_branches(self):
        n = Network({"p": Branch("q", SP_END, None)})
        assert not net_more_branches(EMPTY_NET, n)
        # and a leftover branch is not above the empty net either
        assert not net_more_branches(n, EMPTY_NET)

    def test_reflexive_and_disjoint_support(self):
        n = Network({"p": Send("q", Lit(1), SP_END), "q": Recv("p", "x", SP_END)})
        assert net_more_branches(n, n)
        assert net_more_branches(EMPTY_NET, EMPTY_NET)
        m = Network({"r": Send("q", Lit(1), SP_END)})
        assert not net_more_branches(n, m)

    def test_auth_mirror_strictly_covers_reduced_projection(self, auth):
        # run the choreography through the communication and the guard,
        # mirroring each step in the projected network
        s0 = State({("c", "credentials"): 0, ("s", "token"): 42})
        np = epp_program(auth)
        prog, s = auth, s0
        net = np.net
        for _ in range(2):
            label = cc_enabled(prog.procs, prog.main, s)[0][0]
            prog, s_next = cc_step(prog, s, label)
            (net, s_net) = next(
                (n2, s2)
                for (lb, n2, s2) in sp_enabled(np.procs, net, s)
                if lb == label
            )
            assert s_net == s_next
            s = s_next
        reduced = epp_program(prog).net
        assert net_more_branches(net, reduced)
        # strict: c and s keep the discarded guard options
        assert net != reduced
        assert not net_more_branches(reduced, net)


def assert_simulates(procs, big, small, s, depth):
    """Every move of the smaller net is matched by the bigger one, and the
    successors stay in the relation."""
    assert net_more_branches(big, small)
    if depth == 0:
        return
    for (label, n2, s2) in sp_enabled(procs, small, s):
        matches = [
            nb
            for (lb, nb, sb) in sp_enabled(procs, big, s)
            if lb == label and sb == s2
        ]
        assert matches, f"unmatched label {label!r}"
        assert len(matches) == 1
        assert_simulates(procs, matches[0], n2, s2, depth - 1)


class TestSimulation:
    def test_spare_branch_option_is_harmless(self):
        small = Network(
            {
                "p": SelectSend("q", "left", SP_END),
                "q": Branch("p", SP_END, None),
            }
        )
        big = Network(
            {
                "p": SelectSend("q", "left", SP_END),
                "q": Branch("p", SP_END, Recv("p", "z", SP_END)),
            }
        )
        assert_simulates({}, big, small, EMPTY_STATE, depth=4)

    def test_auth_mirror_simulates_reduced_projection(self, auth):
        s0 = State({("c", "credentials"): 0, ("s", "token"): 42})
        np = epp_program(auth)
        label = cc_enabled(auth.procs, auth.main, s0)[0][0]
        prog, s1 = cc_step(auth, s0, label)
        net1 = next(
            n2 for (lb, n2, _) in sp_enabled(np.procs, np.net, s0) if lb == label
        )
        reduced = epp_program(prog)
        assert_simulates(np.procs, net1, reduced.net, s1, depth=8)
