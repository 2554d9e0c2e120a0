"""Stateful process networks: canonical form, transitions, runs."""

from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chorkit.core import (
    EMPTY_STATE,
    Eq,
    Lit,
    ObsComm,
    ObsSelect,
    ObsTau,
    RichCall,
    RichComm,
    RichCond,
    RichSelect,
    State,
    VarRef,
    rich_label_text,
)
from chorkit.net import (
    Branch,
    Call,
    Cond,
    EMPTY_NET,
    NetProgram,
    Network,
    NotEnabledError,
    Recv,
    SP_END,
    SelectSend,
    Send,
    sp_enabled,
    sp_run,
    sp_step,
)
from chorkit.projection import epp_program

from conftest import PROJECTABLE, load_program


def net_explore(p: NetProgram, s0=EMPTY_STATE, depth=12):
    seen = {(p.net, s0)}
    queue = deque([(p.net, s0, 0)])
    out = []
    while queue:
        net, s, d = queue.popleft()
        trans = sp_enabled(p.procs, net, s)
        out.append((net, s, trans))
        if d >= depth:
            continue
        for _, n2, s2 in trans:
            if (n2, s2) not in seen:
                seen.add((n2, s2))
                queue.append((n2, s2, d + 1))
    return out


class TestNetworkCanonicalForm:
    def test_end_entries_dropped(self):
        n = Network({"p": SP_END, "q": Send("p", Lit(1), SP_END)})
        assert n.support == ("q",)
        assert n.get("p") == SP_END

    def test_support_sorted(self):
        n = Network({"z": Send("a", Lit(1), SP_END), "a": Recv("z", "x", SP_END)})
        assert n.support == ("a", "z")

    def test_equality_extensional(self):
        a = Network({"p": SP_END, "q": Send("p", Lit(1), SP_END)})
        b = Network({"q": Send("p", Lit(1), SP_END), "r": SP_END})
        assert a == b and hash(a) == hash(b)

    def test_update_to_end_removes(self):
        n = Network({"q": Send("p", Lit(1), SP_END)})
        assert n.set("q", SP_END) == EMPTY_NET

    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(["p", "q", "r"]),
                    st.sampled_from(
                        [
                            SP_END,
                            Send("q", Lit(1), SP_END),
                            Recv("p", "x", SP_END),
                            Call(("X", "r")),
                        ]
                    ),
                ),
                min_size=1,
                max_size=3,
            )
        )
    )
    def test_patched_update_matches_rebuild(self, batches):
        n = EMPTY_NET
        d = {}
        for batch in batches:
            hash(n)  # the hash cached here must not reach the patched copy
            n = n.set(*batch[0]) if len(batch) == 1 else n.set_many(batch)
            d.update(batch)
        for pid, b in d.items():
            assert n.get(pid) == b
        rebuilt = Network(d)
        assert n == rebuilt and hash(n) == hash(rebuilt)
        assert n.items() == rebuilt.items() and repr(n) == repr(rebuilt)


class TestOrderOnRead:
    """A network keeps its entries in the order they were written; key
    order is produced where it is read, so networks written in different
    orders read the same, and step in the same order."""

    ENTRIES = {
        "a": Cond(Eq(VarRef("x"), Lit(0)), SP_END, Send("m", Lit(1), SP_END)),
        "m": Send("z", VarRef("x"), SP_END),
        "q": Call(("X", "q")),
        "z": Recv("m", "y", SP_END),
    }

    def orders(self) -> list:
        forward = Network(self.ENTRIES)
        rest = {pid: b for pid, b in self.ENTRIES.items() if pid != "a"}
        return [
            forward,
            Network(dict(reversed(self.ENTRIES.items()))),
            # writes that add a key sorting before the others
            Network(rest).set("a", self.ENTRIES["a"]),
            Network({"q": self.ENTRIES["q"]}).set_many(
                (pid, self.ENTRIES[pid]) for pid in ("z", "a", "m")
            ),
            # an entry erased to its default and written again
            forward.set("m", SP_END).set("m", self.ENTRIES["m"]),
        ]

    def test_written_in_several_orders(self):
        nets = self.orders()
        assert len({tuple(n._map) for n in nets}) > 1  # the orders differ
        s = State({("a", "x"): 1, ("m", "x"): 5})
        first = nets[0]
        trans = sp_enabled({}, first, s)
        assert [type(t) for t, _n2, _s2 in trans] == [RichCond, RichComm, RichCall]
        for n in nets:
            assert n == first and hash(n) == hash(first)
            assert n.items() == tuple(sorted(self.ENTRIES.items()))
            assert n.support == ("a", "m", "q", "z")
            assert repr(n) == repr(first)
            assert repr(n).startswith("Network(a[Cond(") and " | z[Recv(" in repr(n)
            assert sp_enabled({}, n, s) == trans


class TestCommunication:
    def test_value_from_sender_store(self):
        net = Network(
            {"p": Send("q", VarRef("x"), SP_END), "q": Recv("p", "y", SP_END)}
        )
        s0 = State({("p", "x"): 9, ("q", "x"): 4})
        trans = sp_enabled({}, net, s0)
        assert len(trans) == 1
        rich, n2, s2 = trans[0]
        assert rich == RichComm("p", 9, "q", "y")
        assert s2.get("q", "y") == 9
        assert n2 == EMPTY_NET

    def test_wrong_peer_blocks(self):
        net = Network(
            {"p": Send("q", Lit(1), SP_END), "q": Recv("r", "y", SP_END)}
        )
        assert sp_enabled({}, net, EMPTY_STATE) == []

    def test_both_directions_possible(self):
        net = Network(
            {
                "p": Send("q", Lit(1), Recv("q", "a", SP_END)),
                "q": Recv("p", "b", Send("p", Lit(2), SP_END)),
            }
        )
        res = sp_run(NetProgram({}, net), EMPTY_STATE, policy="first")
        assert res.outcome == "terminated"
        assert res.final_state == State({("q", "b"): 1, ("p", "a"): 2})

    def test_stuck_network_deadlocks(self):
        net = Network(
            {"p": Send("q", Lit(1), SP_END), "q": Recv("r", "y", SP_END)}
        )
        res = sp_run(NetProgram({}, net))
        assert res.trace == () and res.outcome == "deadlocked"
        assert res.final == net


class TestSelection:
    def test_left_goes_left(self):
        net = Network(
            {
                "p": SelectSend("q", "left", SP_END),
                "q": Branch("p", Recv("p", "x", SP_END), SP_END),
            }
        )
        trans = sp_enabled({}, net, EMPTY_STATE)
        assert len(trans) == 1
        rich, n2, _ = trans[0]
        assert rich == RichSelect("p", "q", "left")
        assert n2.get("q") == Recv("p", "x", SP_END)

    def test_right_goes_right(self):
        net = Network(
            {
                "p": SelectSend("q", "right", SP_END),
                "q": Branch("p", Recv("p", "x", SP_END), SP_END),
            }
        )
        rich, n2, _ = sp_enabled({}, net, EMPTY_STATE)[0]
        assert rich == RichSelect("p", "q", "right")
        assert n2 == EMPTY_NET

    def test_absent_option_blocks(self):
        net = Network(
            {"p": SelectSend("q", "left", SP_END), "q": Branch("p", None, SP_END)}
        )
        assert sp_enabled({}, net, EMPTY_STATE) == []


class TestConditional:
    guard = Eq(VarRef("x"), Lit(0))

    def test_then_on_true(self):
        net = Network(
            {"p": Cond(self.guard, Send("q", Lit(1), SP_END), SP_END),
             "q": Recv("p", "y", SP_END)}
        )
        rich, n2, s2 = sp_enabled({}, net, EMPTY_STATE)[0]
        assert rich == RichCond("p")
        assert n2.get("p") == Send("q", Lit(1), SP_END)
        assert s2 == EMPTY_STATE

    def test_else_on_false(self):
        net = Network({"p": Cond(self.guard, Send("q", Lit(1), SP_END), SP_END)})
        s0 = State({("p", "x"): 5})
        rich, n2, _ = sp_enabled({}, net, s0)[0]
        assert rich == RichCond("p")
        assert n2 == EMPTY_NET


class TestCall:
    def test_unfolds_from_procs(self):
        procs = {("X", "p"): Send("q", Lit(3), SP_END)}
        net = Network({"p": Call(("X", "p")), "q": Recv("p", "z", SP_END)})
        trans = sp_enabled(procs, net, EMPTY_STATE)
        rich, n2, _ = trans[0]
        assert rich == RichCall(("X", "p"), "p")
        assert n2.get("p") == Send("q", Lit(3), SP_END)

    def test_missing_entry_unfolds_to_end(self):
        net = Network({"p": Call(("X", "p"))})
        rich, n2, _ = sp_enabled({}, net, EMPTY_STATE)[0]
        assert n2 == EMPTY_NET


class TestEnumerationOrder:
    def test_support_order(self):
        # two independent pairs: transitions listed by acting pid order
        net = Network(
            {
                "a": Send("b", Lit(1), SP_END),
                "b": Recv("a", "x", SP_END),
                "c": Send("d", Lit(2), SP_END),
                "d": Recv("c", "y", SP_END),
            }
        )
        labels = [rich_label_text(t[0]) for t in sp_enabled({}, net, EMPTY_STATE)]
        assert labels == ["a.1 -> b.x", "c.2 -> d.y"]


class TestAuthNetworkReplay:
    """Step the projected authentication network label by label."""

    def test_accept_run(self, auth):
        np = epp_program(auth)
        s0 = State({("s", "token"): 42})
        labels = [
            RichComm("c", 0, "ip", "x"),
            RichCond("ip"),
            RichSelect("ip", "s", "left"),
            RichSelect("ip", "c", "left"),
            RichComm("s", 42, "c", "t"),
        ]
        p, s = np, s0
        for label in labels:
            p, s = sp_step(p, s, label)
        assert p.net == EMPTY_NET
        assert s == State({("s", "token"): 42, ("c", "t"): 42})

    def test_sp_run_matches_cc_labels(self, auth):
        np = epp_program(auth)
        res = sp_run(np, State({("c", "credentials"): 7}), policy="first")
        assert res.outcome == "terminated"
        assert res.labels == (
            ObsComm("c", 7, "ip"),
            ObsTau("ip"),
            ObsSelect("ip", "s", "right"),
            ObsSelect("ip", "c", "right"),
        )

    def test_step_rejects_disabled(self, auth):
        np = epp_program(auth)
        with pytest.raises(NotEnabledError):
            sp_step(np, EMPTY_STATE, RichComm("s", 0, "c", "t"))


class TestDeterminismAndStability:
    def test_per_label_unique_successor(self):
        for name in PROJECTABLE:
            np = epp_program(load_program(name))
            for _net, _s, trans in net_explore(np):
                by_label = {}
                for rich, n2, s2 in trans:
                    if rich in by_label:
                        assert by_label[rich] == (n2, s2), (name, rich)
                    by_label[rich] = (n2, s2)

    def test_procs_never_change(self):
        for name in ("filetransfer", "pingpong", "broadcast"):
            np = epp_program(load_program(name))
            p, s = np, EMPTY_STATE
            for _ in range(20):
                trans = sp_enabled(p.procs, p.net, s)
                if not trans:
                    break
                p2, s = sp_step(p, s, trans[0][0])
                assert p2.procs is p.procs or p2.procs == p.procs
                p = p2
