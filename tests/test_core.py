"""Values, stores, expression evaluation, labels, digests."""

from types import MappingProxyType

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chorkit.core import (
    Add,
    And,
    BoolLit,
    EMPTY_STATE,
    Eq,
    Le,
    Lit,
    Lt,
    Mul,
    Not,
    ObsComm,
    ObsSelect,
    ObsTau,
    RichCall,
    RichComm,
    RichCond,
    RichSelect,
    State,
    Sub,
    VarRef,
    eval_bexpr,
    eval_expr,
    forget,
    fnv1a64,
    label_pids,
    obs_label_text,
    rich_label_text,
    state_digest,
    wrap64,
)

I64_MAX = 2**63 - 1
I64_MIN = -(2**63)


class TestWrap64:
    def test_identity_in_range(self):
        for n in (0, 1, -1, I64_MAX, I64_MIN):
            assert wrap64(n) == n

    def test_overflow_wraps(self):
        # Derived by hand: 2^63 is one past the top, lands at the bottom.
        assert wrap64(2**63) == I64_MIN
        assert wrap64(I64_MIN - 1) == I64_MAX
        assert wrap64(3037000500 * 3037000500) == -9223372036709301616

    @given(st.integers(min_value=-(2**70), max_value=2**70))
    def test_always_in_range(self, n):
        w = wrap64(n)
        assert I64_MIN <= w <= I64_MAX
        assert (w - n) % 2**64 == 0


class TestState:
    def test_default_zero(self):
        assert EMPTY_STATE.get("p", "x") == 0

    def test_zero_entries_dropped(self):
        s = State({("p", "x"): 0, ("q", "y"): 5})
        assert s == State({("q", "y"): 5})
        assert hash(s) == hash(State({("q", "y"): 5}))
        assert s.items() == ((("q", "y"), 5),)

    def test_set_returns_new(self):
        s = EMPTY_STATE.set("p", "x", 3)
        assert s.get("p", "x") == 3
        assert EMPTY_STATE.get("p", "x") == 0

    def test_write_that_changes_nothing_returns_the_store(self):
        s = State({("p", "x"): 3})
        assert s.set("p", "x", 3) is s
        assert s.set("p", "x", 3 + 2**64) is s  # equal once wrapped
        assert s.set("q", "y", 0) is s  # 0 to an unset variable
        assert EMPTY_STATE.set("p", "x", 0) is EMPTY_STATE
        t = s.set("p", "x", 4)
        assert t is not s and (s.get("p", "x"), t.get("p", "x")) == (3, 4)

    def test_set_to_zero_erases(self):
        s = State({("p", "x"): 3}).set("p", "x", 0)
        assert s == EMPTY_STATE

    def test_values_wrap(self):
        s = State({("p", "x"): 2**63})
        assert s.get("p", "x") == I64_MIN

    def test_accepted_inputs(self):
        # a mapping (a dict or any other), pairs, a generator or another
        # store's items; a mapping is read through its items, not iterated
        entries = {("p", "x"): 1, ("q", "y"): 2}
        expected = State(entries)
        assert expected.items() == tuple(sorted(entries.items()))
        inputs = [
            MappingProxyType(entries),
            list(entries.items()),
            ((k, v) for k, v in entries.items()),
            expected.items(),
        ]
        for given_entries in inputs:
            built = State(given_entries)
            assert built == expected and built.items() == expected.items()

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["p", "q"]),
                st.sampled_from(["x", "y"]),
                st.one_of(
                    st.integers(min_value=-10, max_value=10),
                    st.sampled_from(
                        [I64_MAX, I64_MIN, 2**63, I64_MIN - 1, 2**64, -(2**64)]
                    ),
                    st.integers(min_value=-(2**66), max_value=2**66),
                ),
            )
        )
    )
    def test_extensional_equality(self, writes):
        s = EMPTY_STATE
        d = {}
        for pid, var, v in writes:
            hash(s)  # a patched copy hashes by its own entries
            s = s.set(pid, var, v)
            d[(pid, var)] = v
        for (pid, var), v in d.items():
            assert s.get(pid, var) == wrap64(v)
        rebuilt = State(d)
        assert s == rebuilt and hash(s) == hash(rebuilt)
        assert s.items() == rebuilt.items() and repr(s) == repr(rebuilt)


class TestOrderOnRead:
    """A store keeps its entries in the order they were written; key order
    is produced where it is read, so stores written in different orders
    read the same."""

    ENTRIES = {("p", "x"): 1, ("q", "y"): -2, ("r", "z"): 3}

    def orders(self) -> list:
        forward = State(self.ENTRIES)
        return [
            forward,
            State(dict(reversed(self.ENTRIES.items()))),
            # a write that adds a key sorting before the others
            State({("q", "y"): -2, ("r", "z"): 3}).set("p", "x", 1),
            # an entry erased to its default and written again
            forward.set("q", "y", 0).set("q", "y", -2),
        ]

    def test_written_in_several_orders(self):
        stores = self.orders()
        assert len({tuple(s._map) for s in stores}) > 1  # the orders differ
        for s in stores:
            assert s == stores[0] and hash(s) == hash(stores[0])
            assert s.items() == tuple(sorted(self.ENTRIES.items()))
            assert repr(s) == "State(p.x=1, q.y=-2, r.z=3)"
            assert state_digest(s) == state_digest(stores[0])
            assert s.key_view() == self.ENTRIES.keys()


class TestEval:
    S = State({("p", "x"): 3, ("p", "y"): -2})

    def test_arith(self):
        e = Add(Mul(Lit(2), VarRef("x")), VarRef("y"))
        assert eval_expr(e, self.S, "p") == 4
        assert eval_expr(Sub(Lit(0), Lit(1)), EMPTY_STATE, "p") == -1

    def test_unset_var_reads_zero(self):
        assert eval_expr(VarRef("zz"), self.S, "p") == 0

    def test_own_process_store(self):
        # x is p's variable; q sees its own store where x is unset
        assert eval_expr(VarRef("x"), self.S, "q") == 0

    def test_wrapping_mul(self):
        big = State({("p", "x"): I64_MAX})
        assert eval_expr(Mul(VarRef("x"), Lit(2)), big, "p") == -2

    def test_bool(self):
        assert eval_bexpr(BoolLit(True), self.S, "p")
        assert not eval_bexpr(BoolLit(False), self.S, "p")
        assert eval_bexpr(Eq(VarRef("x"), Lit(3)), self.S, "p")
        assert eval_bexpr(Le(VarRef("y"), Lit(-2)), self.S, "p")
        assert not eval_bexpr(Lt(VarRef("y"), Lit(-2)), self.S, "p")
        assert eval_bexpr(Not(Eq(VarRef("x"), Lit(0))), self.S, "p")
        assert eval_bexpr(
            And(Eq(VarRef("x"), Lit(3)), Lt(Lit(0), VarRef("x"))), self.S, "p"
        )


class TestLabels:
    def test_forget(self):
        assert forget(RichComm("p", 5, "q", "x")) == ObsComm("p", 5, "q")
        assert forget(RichSelect("p", "q", "left")) == ObsSelect("p", "q", "left")
        assert forget(RichCond("p")) == ObsTau("p")
        assert forget(RichCall("X", "p")) == ObsTau("p")

    def test_label_pids(self):
        assert label_pids(RichComm("p", 5, "q", "x")) == ("p", "q")
        assert label_pids(RichSelect("p", "q", "left")) == ("p", "q")
        assert label_pids(RichCond("p")) == ("p",)
        assert label_pids(RichCall("X", "p")) == ("p",)

    def test_text(self):
        assert rich_label_text(RichComm("c", 5, "ip", "x")) == "c.5 -> ip.x"
        assert rich_label_text(RichSelect("ip", "s", "left")) == "ip -> s[left]"
        assert rich_label_text(RichCond("ip")) == "if ip"
        assert obs_label_text(ObsComm("c", 5, "ip")) == "c.5 -> ip"
        assert obs_label_text(ObsTau("ip")) == "tau ip"
        assert obs_label_text(ObsSelect("ip", "s", "left")) == "ip -> s[left]"


def _fnv_oracle(data: bytes) -> int:
    # Clean-room restatement of FNV-1a 64 used to cross-check the digest.
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) % (1 << 64)
    return h


class TestDigest:
    def test_empty_state(self):
        assert state_digest(EMPTY_STATE) == "cbf29ce484222325"

    def test_frozen_values(self):
        # Derived with the oracle above over the canonical rendering.
        assert state_digest(State({("p", "x"): 1})) == "0124394f27bd95ef"
        assert state_digest(State({("c", "t"): 42})) == "97ee79327fd183e1"
        assert (
            state_digest(
                State({("a", "job"): 3, ("a", "r"): 8, ("b", "x"): 3, ("c", "y"): 4})
            )
            == "20e35cdf4b76a111"
        )

    @given(
        st.dictionaries(
            st.tuples(st.sampled_from("pqr"), st.sampled_from("xyz")),
            st.integers(min_value=-100, max_value=100),
            max_size=5,
        )
    )
    def test_matches_oracle(self, entries):
        s = State(entries)
        rendering = ";".join(
            f"{pid}.{var}={value}" for (pid, var), value in sorted(s.items())
        )
        expected = format(_fnv_oracle(rendering.encode("utf-8")), "016x")
        assert state_digest(s) == expected

    def test_fnv1a64_primitive(self):
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"p.x=1") == _fnv_oracle(b"p.x=1")


class TestNodeRepr:
    """Every tagged node prints as its constructor call, tag left out."""

    def test_one_instance_of_each_class(self):
        from chorkit import chor, core, net

        x1 = Add(VarRef("x"), Lit(1))
        body = chor.Interaction(chor.SelectEta("q", "p", "left"), chor.Call("X"))
        b = net.Recv("q", "x", net.Branch("q", net.Call(("X", "p")), None))
        cases = [
            (Lit(7), "Lit(7)"),
            (VarRef("x"), "VarRef('x')"),
            (x1, "Add(VarRef('x'), Lit(1))"),
            (Sub(Lit(1), Lit(2)), "Sub(Lit(1), Lit(2))"),
            (Mul(Lit(1), Lit(2)), "Mul(Lit(1), Lit(2))"),
            (BoolLit(True), "BoolLit(True)"),
            (Eq(x1, Lit(0)), "Eq(Add(VarRef('x'), Lit(1)), Lit(0))"),
            (Le(Lit(1), Lit(-2)), "Le(Lit(1), Lit(-2))"),
            (Lt(Lit(1), Lit(2)), "Lt(Lit(1), Lit(2))"),
            (Not(BoolLit(False)), "Not(BoolLit(False))"),
            (And(Not(BoolLit(True)), BoolLit(False)), "And(Not(BoolLit(True)), BoolLit(False))"),
            (RichComm("p", 3, "q", "x"), "RichComm('p', 3, 'q', 'x')"),
            (RichSelect("p", "q", "left"), "RichSelect('p', 'q', 'left')"),
            (RichCond("p"), "RichCond('p')"),
            (RichCall(("X", "p"), "p"), "RichCall(('X', 'p'), 'p')"),
            (ObsComm("p", -3, "q"), "ObsComm('p', -3, 'q')"),
            (ObsSelect("p", "q", "right"), "ObsSelect('p', 'q', 'right')"),
            (ObsTau("p"), "ObsTau('p')"),
            (chor.CommEta("p", x1, "q", "x"), "CommEta('p', Add(VarRef('x'), Lit(1)), 'q', 'x')"),
            (chor.SelectEta("q", "p", "left"), "SelectEta('q', 'p', 'left')"),
            (chor.End(), "End()"),
            (body, "Interaction(SelectEta('q', 'p', 'left'), Call('X'))"),
            (
                chor.Cond("q", BoolLit(True), chor.End(), chor.Call("X")),
                "Cond('q', BoolLit(True), End(), Call('X'))",
            ),
            (chor.Call("X"), "Call('X')"),
            (chor.RunningCall("X", ("p",), chor.End()), "RunningCall('X', ('p',), End())"),
            (
                chor.ProcDef(("p", "q"), body),
                "ProcDef(('p', 'q'), Interaction(SelectEta('q', 'p', 'left'), Call('X')))",
            ),
            (
                chor.ChorProgram({"X": chor.ProcDef(("p",), chor.End())}, chor.Call("X")),
                "ChorProgram({'X': ProcDef(('p',), End())}, Call('X'))",
            ),
            (net.End(), "End()"),
            (net.Send("q", x1, net.End()), "Send('q', Add(VarRef('x'), Lit(1)), End())"),
            (b, "Recv('q', 'x', Branch('q', Call(('X', 'p')), None))"),
            (net.SelectSend("q", "right", net.End()), "SelectSend('q', 'right', End())"),
            (net.Branch("p", None, net.End()), "Branch('p', None, End())"),
            (
                net.Cond(Eq(VarRef("x"), Lit(0)), net.End(), net.Call(("X", "q"))),
                "Cond(Eq(VarRef('x'), Lit(0)), End(), Call(('X', 'q')))",
            ),
            (net.Call(("X", "q")), "Call(('X', 'q'))"),
            (
                net.NetProgram({("X", "p"): net.End()}, net.Network([("p", b)])),
                "NetProgram({('X', 'p'): End()}, "
                "Network(p[Recv('q', 'x', Branch('q', Call(('X', 'p')), None))]))",
            ),
        ]
        for node, expected in cases:
            assert repr(node) == expected
        # The cases cover every tagged node class except the trace record,
        # which keeps a repr of its own.
        tagged = {
            cls
            for mod in (core, chor, net)
            for cls in vars(mod).values()
            if isinstance(cls, type) and "tag" in getattr(cls, "_fields", ())
        }
        assert tagged - {core.TraceRecord} == {type(node) for node, _ in cases}
        assert len(cases) == 35

    def test_long_spine_at_the_default_recursion_limit(self):
        from chorkit import chor, net

        ring, chain = chor.End(), net.End()
        for i in range(2000):
            eta = chor.CommEta(f"p{i % 3}", Lit(i), f"p{(i + 1) % 3}", "t")
            ring = chor.Interaction(eta, ring)
            chain = net.Send("q", Lit(i), net.Recv("q", "x", chain))
        text = repr(ring)
        assert text.startswith("Interaction(CommEta('p1', Lit(1999), 'p2', 't'), Interaction(")
        assert text.endswith("Interaction(CommEta('p0', Lit(0), 'p1', 't'), End())" + ")" * 1999)
        text = repr(chain)
        assert text.startswith("Send('q', Lit(1999), Recv('q', 'x', Send('q', Lit(1998), ")
        assert text.endswith("Recv('q', 'x', End())" + ")" * 3999)
