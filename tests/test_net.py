"""Stateful process networks: canonical form, transitions, runs."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chorkit.core import (
    EMPTY_STATE,
    Add,
    Eq,
    Lit,
    Lt,
    ObsComm,
    ObsSelect,
    ObsTau,
    RichCall,
    RichComm,
    RichCond,
    RichSelect,
    State,
    VarRef,
    eval_expr,
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
from net_reference import reference_sp_step


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
        assert n.items() == (("q", Send("p", Lit(1), SP_END)),)
        assert n.get("p") == SP_END

    def test_support_sorted(self):
        n = Network({"z": Send("a", Lit(1), SP_END), "a": Recv("z", "x", SP_END)})
        assert [pid for pid, _ in n.items()] == ["a", "z"]

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
            hash(n)  # a patched copy hashes by its own entries
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
            assert n.key_view() == {"a", "m", "q", "z"}
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


def _perturbed(label) -> list:
    """Labels that each differ from an enabled ``label`` in one respect,
    so that none of them is enabled where ``label`` is: each process
    heads one action, which fixes its peer, variable, selection label and
    procedure."""
    outside = "zz"  # no network here has this pid
    k = type(label)
    if k is RichComm:
        snd, v, rcv, var = label[:4]
        return [
            RichComm(snd, v + 1, rcv, var),
            RichComm(snd, v - 1, rcv, var),
            RichComm(snd, v, rcv, var + "_"),
            RichComm(rcv, v, snd, var),
            RichComm(outside, v, rcv, var),
            RichComm(snd, v, outside, var),
            RichCond(snd),
        ]
    if k is RichSelect:
        snd, rcv, sel = label[:3]
        return [
            RichSelect(snd, rcv, "right" if sel == "left" else "left"),
            RichSelect(rcv, snd, sel),
            RichSelect(outside, rcv, sel),
            RichSelect(snd, outside, sel),
            RichCond(snd),
        ]
    if k is RichCond:
        return [RichCond(outside), RichCall(("X", label.pid), label.pid)]
    (name, owner), pid = label.proc, label.pid
    return [RichCall((name + "_", owner), pid), RichCall(label.proc, outside), RichCond(pid)]


def _suggested(n: Network, s: State) -> list:
    """The labels each process's head suggests, enabled or not: a send or
    a receive names its peer whatever the peer heads."""
    out = []
    for pid, b in n.items():
        t = type(b)
        if t is Send:
            qb = n.get(b.peer)
            var = qb.var if type(qb) is Recv else "x"
            out.append(RichComm(pid, eval_expr(b.expr, s, pid), b.peer, var))
        elif t is Recv:
            out += [RichComm(b.peer, v, pid, b.var) for v in (0, 1)]
        elif t is SelectSend:
            out.append(RichSelect(pid, b.peer, b.label))
        elif t is Branch:
            out += [RichSelect(b.peer, pid, sel) for sel in ("left", "right")]
        elif t is Cond:
            out.append(RichCond(pid))
        elif t is Call:
            out.append(RichCall(b.name, pid))
    return out


def _outcome(step, p: NetProgram, s: State, label):
    try:
        return step(p, s, label)
    except NotEnabledError:
        return None


def _step_matches_reference(p: NetProgram, s: State) -> list:
    """``sp_step`` and the frozen filter over ``sp_enabled`` agree at one
    configuration: on every enabled label, with the transition
    ``sp_enabled`` lists; on every perturbed label, which both refuse;
    and on every label a process's head suggests.  Returns the enabled
    labels."""
    for label in _suggested(p.net, s):
        assert _outcome(sp_step, p, s, label) == _outcome(reference_sp_step, p, s, label), label
    trans = sp_enabled(p.procs, p.net, s)
    enabled = {t for t, _n2, _s2 in trans}
    for t, n2, s2 in trans:
        live = sp_step(p, s, t)
        assert live == reference_sp_step(p, s, t) == (NetProgram(p.procs, n2), s2), t
        assert live[0].procs is p.procs
        for bad in _perturbed(t):
            assert bad not in enabled, bad
            with pytest.raises(NotEnabledError):
                sp_step(p, s, bad)
            with pytest.raises(NotEnabledError):
                reference_sp_step(p, s, bad)
    return [t for t, _n2, _s2 in trans]


_NET_PIDS = ["p", "q", "r"]
_NET_EXPRS = st.sampled_from([Lit(0), Lit(-1), VarRef("x"), Add(VarRef("x"), Lit(1))])
_NET_VARS = st.sampled_from(["x", "y"])
_NET_LABELS = st.sampled_from(["left", "right"])


def _net_behaviours():
    """Small behaviours over three pids."""
    base = st.sampled_from([SP_END, Call(("X", "p")), Call(("X", "q")), Call(("Y", "r"))])
    peers = st.sampled_from(_NET_PIDS)
    guards = st.sampled_from([Eq(VarRef("x"), Lit(0)), Lt(VarRef("y"), Lit(1))])

    def extend(children):
        opt = st.none() | children
        # lambdas keep hypothesis away from the tag discriminator field
        return st.one_of(
            st.builds(lambda q, e, c: Send(q, e, c), peers, _NET_EXPRS, children),
            st.builds(lambda q, v, c: Recv(q, v, c), peers, _NET_VARS, children),
            st.builds(lambda q, l, c: SelectSend(q, l, c), peers, _NET_LABELS, children),
            st.builds(lambda q, l, r: Branch(q, l, r), peers, opt, opt),
            st.builds(lambda g, t, e: Cond(g, t, e), guards, children, children),
        )

    return st.recursive(base, extend, max_leaves=4)


@st.composite
def _networks(draw):
    """A network of generated behaviours in which, most of the time, two
    processes head a matching communication or selection: random heads
    rarely match."""
    beh = _net_behaviours()
    net = draw(st.dictionaries(st.sampled_from(_NET_PIDS), beh))
    a, b = draw(st.permutations(_NET_PIDS))[:2]
    kind = draw(st.sampled_from(["comm", "select", "none"]))
    if kind == "comm":
        net[a] = Send(b, draw(_NET_EXPRS), draw(beh))
        net[b] = Recv(a, draw(_NET_VARS), draw(beh))
    elif kind == "select":
        net[a] = SelectSend(b, draw(_NET_LABELS), draw(beh))
        net[b] = Branch(a, draw(st.none() | beh), draw(st.none() | beh))
    return Network(net)


class TestStepAgainstReference:
    """``sp_step`` derives only the transition its label names; the frozen
    ``reference_sp_step`` in ``net_reference.py`` filters every transition
    ``sp_enabled`` derives.  The two must agree on every label."""

    STORES = [EMPTY_STATE, State({("c", "credentials"): 7, ("s", "token"): 42})]

    def test_corpus(self):
        kinds = set()
        for name in PROJECTABLE:
            np = epp_program(load_program(name))
            for s0 in self.STORES:
                for net, s, _trans in net_explore(np, s0, depth=40):
                    labels = _step_matches_reference(NetProgram(np.procs, net), s)
                    kinds.update(type(t) for t in labels)
        assert kinds == {RichComm, RichSelect, RichCond, RichCall}

    @settings(max_examples=150, deadline=None)
    @given(
        _networks(),
        st.fixed_dictionaries({("X", "p"): _net_behaviours(), ("X", "q"): _net_behaviours()}),
        st.dictionaries(
            st.tuples(st.sampled_from(_NET_PIDS), st.sampled_from(["x", "y"])),
            st.integers(-2, 2),
        ),
    )
    def test_generated_networks(self, net, procs, store):
        # ("Y", "r") has no body: calling it ends the process
        np = NetProgram(procs, net)
        for n, s, _trans in net_explore(np, State(store), depth=3):
            _step_matches_reference(NetProgram(procs, n), s)
