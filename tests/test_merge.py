"""The merge operator: algebra, collapse discipline, conflict reports."""

import importlib
import inspect
import itertools

from conftest import has_undefined
from hypothesis import given, settings
from hypothesis import strategies as st

from chorkit.core import Eq, Lit, VarRef
from chorkit.merge import UNDEFINED, collapse, deepest_conflict, xmerge
from chorkit.net import Branch, Call, Cond, Recv, SP_END, SelectSend, Send
from chorkit.smallterms import behaviour_space

SPACE2 = behaviour_space(2)


def B(*args):
    return Branch(*args)


class TestGoldenExamples:
    def test_receive_against_end_is_undefined(self):
        assert xmerge(Recv("s", "t", SP_END), SP_END) is UNDEFINED

    def test_branch_options_union(self):
        b = Recv("p", "x", SP_END)
        b2 = Send("p", Lit(1), SP_END)
        got = xmerge(B("p", b, None), B("p", None, b2))
        assert got == B("p", b, b2)

    def test_label_mismatch(self):
        assert xmerge(
            SelectSend("q", "left", SP_END), SelectSend("q", "right", SP_END)
        ) is UNDEFINED

    def test_end_end(self):
        assert xmerge(SP_END, SP_END) == SP_END

    def test_guard_must_match_syntactically(self):
        g1 = Eq(VarRef("x"), Lit(0))
        g2 = Eq(Lit(0), VarRef("x"))  # logically same, syntactically not
        assert xmerge(Cond(g1, SP_END, SP_END), Cond(g2, SP_END, SP_END)) is UNDEFINED
        assert xmerge(Cond(g1, SP_END, SP_END), Cond(g1, SP_END, SP_END)) == Cond(
            g1, SP_END, SP_END
        )

    def test_call_names_must_match(self):
        assert xmerge(Call(("X", "p")), Call(("X", "p"))) == Call(("X", "p"))
        assert xmerge(Call(("X", "p")), Call(("Y", "p"))) is UNDEFINED
        assert xmerge(Call(("X", "p")), Call(("X", "q"))) is UNDEFINED


class TestInjectCollapse:
    def test_collapse_fixed_point_on_defined(self):
        for b in SPACE2:
            assert collapse(b) == b

    def test_collapse_poisons(self):
        assert collapse(Send("p", Lit(1), UNDEFINED)) is UNDEFINED
        assert collapse(B("p", UNDEFINED, SP_END)) is UNDEFINED
        assert collapse(Cond(Eq(VarRef("x"), Lit(0)), SP_END, UNDEFINED)) is UNDEFINED
        assert collapse(UNDEFINED) is UNDEFINED

    def test_collapse_survivors_are_proper(self):
        # merging never builds a partial tree: the result is UNDEFINED or
        # has no UNDEFINED subterm, so there is nothing left to collapse
        for a, b in itertools.product(SPACE2, SPACE2):
            m = xmerge(a, b)
            assert m is UNDEFINED or not has_undefined(m)

    def test_has_undefined_nested(self):
        # the walker the property tests rely on sees UNDEFINED at any depth
        deep = Send("p", Lit(1), B("q", Recv("p", "x", UNDEFINED), None))
        assert has_undefined(deep)
        assert not has_undefined(Send("p", Lit(1), SP_END))

    def test_submodule_is_not_shadowed(self):
        import chorkit
        import chorkit.merge as m

        assert inspect.ismodule(m)
        assert inspect.ismodule(chorkit.merge)
        assert m is importlib.import_module("chorkit.merge")


class TestAbsorption:
    def test_undefined_absorbs(self):
        for b in SPACE2[:40]:
            assert xmerge(UNDEFINED, b) is UNDEFINED
            assert xmerge(b, UNDEFINED) is UNDEFINED
        assert xmerge(UNDEFINED, UNDEFINED) is UNDEFINED


class TestAlgebraSmallSpace:
    """Exhaustive laws on the depth-2 space; the depth-3 sweep lives in
    the acceptance suite."""

    def test_idempotence(self):
        for b in SPACE2:
            assert xmerge(b, b) == b

    def test_commutativity_all_pairs(self):
        for a in SPACE2:
            for b in SPACE2:
                assert xmerge(a, b) == xmerge(b, a)

    def test_associativity_all_triples(self):
        for a in SPACE2:
            for b in SPACE2:
                ab = xmerge(a, b)
                for c in SPACE2:
                    left = xmerge(ab, c)
                    right = xmerge(a, xmerge(b, c))
                    if left is UNDEFINED:
                        assert right is UNDEFINED
                    else:
                        assert left == right

    def test_defined_merges_are_collapse_stable(self):
        for a, b in itertools.product(SPACE2, SPACE2):
            m = xmerge(a, b)
            if m is not UNDEFINED:
                assert collapse(m) == m


# A wider alphabet than the enumeration space uses, to avoid baking the
# 2-pid assumption into the laws.
_exprs = st.sampled_from([Lit(0), Lit(1), VarRef("x"), VarRef("y")])
_pids = st.sampled_from(["p", "q", "r"])
_guards = st.sampled_from([Eq(VarRef("x"), Lit(0)), Eq(VarRef("y"), Lit(1))])


def _behaviours():
    base = st.sampled_from(
        [SP_END, Call(("X", "p")), Call(("X", "q")), Call(("Y", "p"))]
    )

    def extend(children):
        opt = st.none() | children
        # lambdas keep hypothesis away from the tag discriminator field
        return st.one_of(
            st.builds(lambda p, e, c: Send(p, e, c), _pids, _exprs, children),
            st.builds(
                lambda p, v, c: Recv(p, v, c),
                _pids,
                st.sampled_from(["x", "y"]),
                children,
            ),
            st.builds(
                lambda p, l, c: SelectSend(p, l, c),
                _pids,
                st.sampled_from(["left", "right"]),
                children,
            ),
            st.builds(lambda p, l, r: Branch(p, l, r), _pids, opt, opt),
            st.builds(lambda g, t, e: Cond(g, t, e), _guards, children, children),
        )

    return st.recursive(base, extend, max_leaves=6)


class TestAlgebraProperties:
    @given(_behaviours(), _behaviours())
    def test_commutativity(self, a, b):
        assert xmerge(a, b) == xmerge(b, a)

    @given(_behaviours())
    def test_idempotence(self, a):
        assert xmerge(a, a) == a

    @settings(max_examples=300)
    @given(_behaviours(), _behaviours(), _behaviours())
    def test_associativity(self, a, b, c):
        left = xmerge(xmerge(a, b), c)
        right = xmerge(a, xmerge(b, c))
        assert (left is UNDEFINED and right is UNDEFINED) or left == right


class TestDeepestConflict:
    def test_reports_innermost(self):
        # conflict is two levels down, under a send and a branch option
        a = Send("p", Lit(1), B("q", Recv("r", "x", SP_END), None))
        b = Send("p", Lit(1), B("q", SP_END, None))
        pair = deepest_conflict(a, b)
        assert pair == (Recv("r", "x", SP_END), SP_END)

    def test_none_when_defined(self):
        assert deepest_conflict(SP_END, SP_END) is None

    def test_top_level_mismatch(self):
        a = Send("p", Lit(1), SP_END)
        b = Recv("p", "x", SP_END)
        assert deepest_conflict(a, b) == (a, b)
