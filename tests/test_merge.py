"""The merge operator: algebra, collapse discipline, conflict reports."""

import importlib
import inspect
import itertools
import random

from conftest import has_undefined
from projection_reference import reference_deepest_conflict
from hypothesis import given, settings
from hypothesis import strategies as st

from chorkit.core import Eq, Lit, VarRef
from chorkit import merge as merge_mod
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


def ref_merge(a, b):
    """Merging read straight off its definition, with no fast path."""
    if a is UNDEFINED or b is UNDEFINED or type(a) is not type(b):
        return UNDEFINED
    if type(a) is Branch:
        if a.peer != b.peer:
            return UNDEFINED
        options = [
            y if x is None else x if y is None else ref_merge(x, y)
            for x, y in ((a.on_left, b.on_left), (a.on_right, b.on_right))
        ]
        if any(o is UNDEFINED for o in options):
            return UNDEFINED
        return Branch(a.peer, *options)
    if type(a) is Cond:
        then_b = ref_merge(a.then_b, b.then_b)
        else_b = ref_merge(a.else_b, b.else_b)
        if a.guard != b.guard or then_b is UNDEFINED or else_b is UNDEFINED:
            return UNDEFINED
        return Cond(a.guard, then_b, else_b)
    if type(a) in (Send, Recv, SelectSend):
        cont = ref_merge(a.cont, b.cont)
        if a[:2] != b[:2] or cont is UNDEFINED:
            return UNDEFINED
        return type(a)(a[0], a[1], cont)
    if type(a) is Call:
        return a if a.name == b.name else UNDEFINED
    return a


# Hand-built partial trees, with UNDEFINED below the root.
PARTIAL = [
    UNDEFINED,
    B("p", UNDEFINED, None),
    B("p", SP_END, UNDEFINED),
    Cond(Eq(VarRef("x"), Lit(0)), UNDEFINED, SP_END),
    Send("p", Lit(1), UNDEFINED),
    SelectSend("q", "left", UNDEFINED),
]


def _agrees_with_reference(a, b):
    m, r = xmerge(a, b), ref_merge(a, b)
    return m is r or (m is not UNDEFINED and r is not UNDEFINED and m == r)


class TestAgainstReference:
    """``xmerge`` against a plain recursive merge, fast paths excluded."""

    def test_small_space_and_partial_trees(self):
        terms = SPACE2 + PARTIAL
        for a, b in itertools.product(terms, terms):
            assert _agrees_with_reference(a, b), (a, b)

    def test_depth3_sample(self):
        space = behaviour_space(3)
        rng = random.Random(1906)
        for _ in range(20_000):
            a, b = rng.choice(space), rng.choice(space)
            assert _agrees_with_reference(a, b), (a, b)

    @given(_behaviours(), _behaviours())
    def test_random_pairs(self, a, b):
        assert _agrees_with_reference(a, b)


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


def _same_pair(x, y):
    """Pairs equal by identity of their members, so deep terms are never
    compared with ``==``."""
    return x is y or (x is not None and y is not None and x[0] is y[0] and x[1] is y[1])


def _chain(n, tail):
    """``n`` sends in front of ``tail``, alternating peers and kinds."""
    b = tail
    for i in range(n):
        peer = "pq"[i % 2]
        b = Send(peer, Lit(i), b) if i % 3 else SelectSend(peer, "left", b)
    return b


class TestDeepestConflictAgainstReference:
    """The structural walk against the frozen one that asks ``xmerge``
    at every level (``projection_reference.py``)."""

    def test_depth3_rows_against_the_space(self):
        space = behaviour_space(3)
        rows = random.Random(2024).sample(space, 64)
        for a in rows:
            for b in space:
                got, want = deepest_conflict(a, b), reference_deepest_conflict(a, b)
                assert _same_pair(got, want), (a, b)

    def test_small_space_and_partial_trees(self):
        terms = SPACE2 + PARTIAL
        for a, b in itertools.product(terms, terms):
            assert _same_pair(deepest_conflict(a, b), reference_deepest_conflict(a, b)), (a, b)

    def test_long_chains(self):
        inner = B("q", Recv("p", "x", SP_END), None)
        guard = Eq(VarRef("x"), Lit(0))
        for n in (100, 200, 400):
            pairs = [
                # differ only in the last receive
                (_chain(n, Recv("q", "x", SP_END)), _chain(n, Recv("q", "y", SP_END))),
                # agree to the end
                (_chain(n, SP_END), _chain(n, SP_END)),
                # differ in the middle, under a branching option
                (
                    _chain(n // 2, B("p", _chain(n // 2, inner), None)),
                    _chain(n // 2, B("p", _chain(n // 2, SP_END), SP_END)),
                ),
                # a conditional whose then-branches merge and else-branches do not
                (
                    Cond(guard, _chain(n // 2, SP_END), _chain(n // 2, Call(("X", "p")))),
                    Cond(guard, _chain(n // 2, SP_END), _chain(n // 2, Call(("Y", "p")))),
                ),
            ]
            for a, b in pairs:
                assert _same_pair(deepest_conflict(a, b), reference_deepest_conflict(a, b)), n

    def test_chain_cost_is_linear(self, monkeypatch):
        # the walk takes no merge at each level of a chain: calls to
        # ``xmerge`` and to itself at most double with the chain's length
        calls = []
        for name in ("xmerge", "deepest_conflict"):
            original = getattr(merge_mod, name)
            monkeypatch.setattr(
                merge_mod, name, lambda *args, _f=original: calls.append(1) or _f(*args)
            )
        counts = {}
        for n in (200, 400):
            a, b = _chain(n, Recv("q", "x", SP_END)), _chain(n, Recv("q", "y", SP_END))
            del calls[:]
            assert merge_mod.deepest_conflict(a, b) is not None
            counts[n] = len(calls)
        assert counts[400] <= 2 * counts[200] + 2, counts
