"""Per-process projection, diagnostics, and choreography compilation."""

import pytest
from conftest import (
    AUTH_CLIENT,
    AUTH_PROVIDER,
    AUTH_SERVER,
    CORPUS,
    PROJECTABLE,
    explore,
    has_undefined,
    load_program,
)
from hypothesis import given, settings
from projection_reference import (
    called_procs,
    reference_compile,
    reference_projectable,
    reference_str_projectable,
    syntactic_pids,
)
from test_checker import GENERATED
from test_chor import _choreographies

from chorkit import checker as checker_mod
from chorkit import chor as chor_mod
from chorkit import projection
from chorkit.checker import SuccessorTable, check_hypotheses, verify_epp
from chorkit.chor import (
    CHOR_END,
    ChorProgram,
    CommEta,
    Interaction,
    ProcDef,
    RunningCall,
    SelectEta,
    cc_enabled,
    cc_step,
    subterms,
)
from chorkit.chor import Call as ChorCall
from chorkit.chor import Cond as ChorCond
from chorkit.chor import End as ChorEnd
from chorkit.core import EMPTY_STATE, Eq, Lit, State, VarRef
from chorkit.merge import UNDEFINED, xmerge
from chorkit.net import Branch, Call, Cond, Network, Recv, SP_END, SelectSend, Send
from chorkit.projection import (
    ProjectionError,
    ProjectionFailure,
    bproj,
    epp,
    epp_program,
    infer_params,
    projectable,
    str_projectable,
)


class TestBproj:
    def test_auth_views(self, auth):
        assert bproj(auth.procs, auth.main, "c") == AUTH_CLIENT
        assert bproj(auth.procs, auth.main, "ip") == AUTH_PROVIDER
        assert bproj(auth.procs, auth.main, "s") == AUTH_SERVER

    def test_uninvolved_process_sees_end(self, auth):
        assert bproj(auth.procs, auth.main, "z") == SP_END

    def test_communication_sides(self, auth):
        # main is the credentials exchange followed by the guarded part
        com = auth.main.eta
        cont_c = bproj(auth.procs, auth.main.cont, "c")
        assert bproj(auth.procs, auth.main, "c") == Send(
            com.receiver, com.expr, cont_c
        )
        cont_ip = bproj(auth.procs, auth.main.cont, "ip")
        assert bproj(auth.procs, auth.main, "ip") == Recv(
            com.sender, com.var, cont_ip
        )

    def test_conditional_merges_for_bystanders(self, auth):
        cond = auth.main.cont
        for r in ("c", "s"):
            merged = xmerge(
                bproj(auth.procs, cond.then_c, r),
                bproj(auth.procs, cond.else_c, r),
            )
            assert bproj(auth.procs, cond, r) == merged

    def test_conditional_kept_for_decider(self, auth):
        cond = auth.main.cont
        got = bproj(auth.procs, cond, "ip")
        assert type(got) is Cond
        assert got.guard == cond.guard

    def test_call_projects_to_declared_processes_only(self, filetransfer):
        main = filetransfer.main
        assert bproj(filetransfer.procs, main, "c") == Call(("FileTransfer", "c"))
        assert bproj(filetransfer.procs, main, "s") == Call(("FileTransfer", "s"))
        assert bproj(filetransfer.procs, main, "z") == SP_END

    def test_unmergeable_conditional_poisons_on_collapse(self, auth_noselect):
        # the conflict under the opening send poisons the whole projection
        assert bproj(auth_noselect.procs, auth_noselect.main, "c") is UNDEFINED
        assert bproj(auth_noselect.procs, auth_noselect.main.cont, "c") is UNDEFINED

    def test_projections_are_undefined_or_proper(self):
        for name in PROJECTABLE + ["auth_noselect"]:
            p = load_program(name)
            _, ps = infer_params(p)
            bodies = [p.main] + [d.body for d in p.procs.values()]
            for r in ps:
                for c in bodies:
                    b = bproj(p.procs, c, r)
                    assert b is UNDEFINED or not has_undefined(b), (name, r)


class TestEppList:
    def test_noselect_entries(self, auth_noselect):
        entries = {
            pid: bproj(auth_noselect.procs, auth_noselect.main, pid)
            for pid in ("c", "ip", "s")
        }
        assert entries["c"] is UNDEFINED
        assert entries["s"] is UNDEFINED
        assert entries["ip"] == Recv(
            "c", "x", Cond(Eq(VarRef("x"), Lit(0)), SP_END, SP_END)
        )


def _failures_at(p, pid):
    """The failures ``projectable`` reports for one process of a program
    listed with its inferred parameters."""
    return [f for f in projectable(*infer_params(p), p) if f.process == pid]


class TestDiagnostics:
    def test_noselect_conflicts(self, auth_noselect):
        fs = _failures_at(auth_noselect, "c")
        assert len(fs) == 1
        f = fs[0]
        assert f.kind == "merge-conflict"
        assert f.path == ("main", "cont")
        assert f.conflict == (Recv("s", "t", SP_END), SP_END)
        assert str(f) == (
            "projection fails for c at main/cont (merge-conflict): "
            "branch views of this conditional do not merge"
        )

    def test_noselect_server_conflict(self, auth_noselect):
        fs = _failures_at(auth_noselect, "s")
        assert fs[0].conflict == (Send("c", VarRef("token"), SP_END), SP_END)

    def test_clean_processes_report_nothing(self, auth_noselect, auth):
        assert _failures_at(auth_noselect, "ip") == []
        for r in ("c", "ip", "s"):
            assert _failures_at(auth, r) == []


class TestProjectable:
    def test_auth_is_projectable(self, auth):
        assert projectable((), ("c", "ip", "s"), auth) == []

    def test_missing_process_is_a_coverage_failure(self, auth):
        fs = projectable((), ("c", "ip"), auth)
        assert [f.kind for f in fs] == ["coverage"]
        assert fs[0].process == "s"
        assert fs[0].path == ("main",)

    def test_unlisted_called_procedure(self, filetransfer):
        fs = projectable((), ("c", "s"), filetransfer)
        assert any(
            f.kind == "coverage" and "FileTransfer" in f.detail for f in fs
        )

    def test_filetransfer_full_listing(self, filetransfer):
        assert projectable(("FileTransfer",), ("c", "s"), filetransfer) == []

    def test_unknown_listed_procedure(self, auth):
        fs = projectable(("Nope",), ("c", "ip", "s"), auth)
        assert [f.kind for f in fs] == ["coverage"]
        assert fs[0].path == ("def", "Nope")

    def test_noselect_collects_both_processes(self, auth_noselect):
        fs = projectable((), ("c", "ip", "s"), auth_noselect)
        assert sorted(f.process for f in fs) == ["c", "s"]
        assert all(f.kind == "merge-conflict" for f in fs)


class TestInferParams:
    def test_auth(self, auth):
        assert infer_params(auth) == ((), ("c", "ip", "s"))

    def test_filetransfer(self, filetransfer):
        assert infer_params(filetransfer) == (("FileTransfer",), ("c", "s"))

    def test_mutual_recursion(self):
        p = load_program("pingpong")
        assert infer_params(p) == (("Ping", "Pong"), ("p", "q"))

    def test_inferred_parameters_satisfy_coverage(self):
        for name in PROJECTABLE:
            p = load_program(name)
            xs, ps = infer_params(p)
            assert all(f.kind != "coverage" for f in projectable(xs, ps, p))

    def test_long_ring_at_the_default_recursion_limit(self, default_recursion_limit):
        # a 10 000-interaction ring p -> q -> r -> p whose last step calls
        # a procedure; both scans along the spine keep their own stack
        ring = ("p", "q", "r")
        main = ChorCall("Tail")
        for i in reversed(range(10_000)):
            eta = CommEta(ring[i % 3], VarRef("x"), ring[(i + 1) % 3], "x")
            main = Interaction(eta, main)
        tail = ProcDef(("r", "s"), Interaction(CommEta("r", Lit(1), "s", "y"), ChorEnd()))
        p = ChorProgram({"Tail": tail}, main)
        assert infer_params(p) == (("Tail",), ("p", "q", "r", "s"))

    def test_wide_reach_at_the_default_recursion_limit(self, default_recursion_limit, monkeypatch):
        # main reaches 4 000 procedures through a tree of conditionals,
        # and each calls the next; every body is scanned once, by
        # infer_params and again by the coverage conjuncts
        p = _procedure_tree(4000)
        scanned = []
        original = chor_mod.term_names
        counted = lambda c: scanned.append(c) or original(c)
        monkeypatch.setattr(chor_mod, "term_names", counted)
        monkeypatch.setattr(projection, "term_names", counted)
        xs, ps = infer_params(p)
        assert xs == tuple(sorted(p.procs)) and ps == ("p", "q")
        assert len(scanned) == len(p.procs) + 1
        scanned.clear()
        assert projection._coverage_failures(xs, ps, p) == []
        assert len(scanned) == len(p.procs) + 1

    def test_matches_a_fixpoint(self):
        # an undefined callee is a name too; A and B call each other
        a = ProcDef(("p", "q"), Interaction(CommEta("p", Lit(1), "q", "x"), ChorCall("B")))
        b = ProcDef(
            ("q", "r"),
            ChorCond("q", Eq(VarRef("x"), Lit(0)), ChorCall("A"), ChorCall("Missing")),
        )
        odd = ChorProgram({"A": a, "B": b, "Unused": a}, ChorCall("B"))
        assert infer_params(odd) == (("A", "B", "Missing"), ("p", "q", "r"))
        programs = [odd, *GENERATED.values(), _procedure_tree(50)]
        programs += [load_program(f.stem) for f in sorted(CORPUS.glob("*.chor"))]
        for p in programs:
            assert infer_params(p) == _fixpoint_params(p), p


def _procedure_tree(n: int) -> ChorProgram:
    """``main`` branches, through a balanced tree of conditionals, to calls
    of ``P0`` .. ``P{n-1}``; each ``Pi`` calls ``P{i+1 mod n}``."""

    def tree(lo, hi):
        if hi - lo == 1:
            return ChorCall(f"P{lo}")
        mid = (lo + hi) // 2
        return ChorCond("p", Eq(VarRef("x"), Lit(lo)), tree(lo, mid), tree(mid, hi))

    procs = {
        f"P{i}": ProcDef(("p", "q"), Interaction(CommEta("p", Lit(i), "q", "x"), ChorCall(f"P{(i + 1) % n}")))
        for i in range(n)
    }
    return ChorProgram(procs, tree(0, n))


def _fixpoint_params(p: ChorProgram) -> tuple:
    """``infer_params`` stated as a fixpoint: grow the reached names until
    no reached body calls a new one."""
    xs = set(called_procs(p.main))
    while True:
        more = {n for x in xs if x in p.procs for n in called_procs(p.procs[x].body)} - xs
        if not more:
            break
        xs |= more
    ps = set(syntactic_pids(p.main))
    for x in xs & p.procs.keys():
        ps |= {*p.procs[x].params, *syntactic_pids(p.procs[x].body)}
    return tuple(sorted(xs)), tuple(sorted(ps))


class TestStrProjectable:
    def test_coincides_with_projection_on_initial_programs(self):
        for name in PROJECTABLE + ["auth_noselect"]:
            p = load_program(name)
            _, ps = infer_params(p)
            for r in ps:
                direct = bproj(p.procs, p.main, r) is not UNDEFINED
                assert str_projectable(p.procs, p.main, r) == direct, (name, r)

    def test_preserved_along_execution(self, filetransfer):
        p, s = filetransfer, EMPTY_STATE
        for _ in range(6):
            trans = cc_enabled(p.procs, p.main, s)
            if not trans:
                break
            p, s = cc_step(p, s, trans[0][0])
            for r in ("c", "s"):
                assert str_projectable(p.procs, p.main, r)

    def test_pending_entry_keeps_the_clause(self, filetransfer):
        # one call-entry step leaves the other process pending
        label = cc_enabled(filetransfer.procs, filetransfer.main, EMPTY_STATE)[0][0]
        p, _ = cc_step(filetransfer, EMPTY_STATE, label)
        assert type(p.main) is RunningCall
        assert p.main.pending == ("s",)
        for r in ("c", "s"):
            assert str_projectable(p.procs, p.main, r)

    def test_undeclared_pending_process_fails(self, filetransfer):
        body = filetransfer.procs["FileTransfer"].body
        bad = RunningCall("FileTransfer", ("z",), body)
        assert not str_projectable(filetransfer.procs, bad, "c")

    def test_pending_view_must_stay_below_the_body(self, filetransfer):
        # the remaining choreography no longer matches what s would run
        bad = RunningCall("FileTransfer", ("s",), ChorEnd())
        assert not str_projectable(filetransfer.procs, bad, "c")

    def test_unknown_procedure_fails(self):
        bad = RunningCall("Nope", (), ChorEnd())
        assert not str_projectable({}, bad, "c")

    def test_pending_process_needs_a_defined_view(self):
        # r cannot follow the body, in the procedure as in the running
        # call: the preorder relates the two undefined views, so only
        # the clause on r's own view of the body rejects the term
        told = Interaction(CommEta("p", Lit(1), "r", "y"), CHOR_END)
        body = ChorCond("p", Eq(VarRef("x"), Lit(0)), told, CHOR_END)
        procs = {"X": ProcDef(("p", "r"), body)}
        assert not str_projectable(procs, RunningCall("X", ("r",), body), "r")
        assert str_projectable(procs, RunningCall("X", ("r",), body), "p")


class TestEpp:
    def test_auth_network(self, auth):
        np = epp((), ("c", "ip", "s"), auth)
        assert np.net == Network(
            {"c": AUTH_CLIENT, "ip": AUTH_PROVIDER, "s": AUTH_SERVER}
        )
        assert np.procs == {}

    def test_filetransfer_procedure_table(self, filetransfer):
        np = epp(("FileTransfer",), ("c", "s"), filetransfer)
        assert set(np.procs) == {("FileTransfer", "c"), ("FileTransfer", "s")}
        assert np.net == Network(
            {"c": Call(("FileTransfer", "c")), "s": Call(("FileTransfer", "s"))}
        )
        assert np.procs[("FileTransfer", "c")] == Recv(
            "s",
            "x",
            Cond(
                Eq(VarRef("x"), Lit(0)),
                SelectSend("s", "left", SP_END),
                SelectSend("s", "right", Call(("FileTransfer", "c"))),
            ),
        )
        assert np.procs[("FileTransfer", "s")] == Send(
            "c",
            VarRef("payload"),
            Branch("c", SP_END, Call(("FileTransfer", "s"))),
        )

    def test_unprojectable_program_raises(self, auth_noselect):
        with pytest.raises(ProjectionError) as e:
            epp((), ("c", "ip", "s"), auth_noselect)
        assert "not projectable" in str(e.value)
        assert all(isinstance(f, ProjectionFailure) for f in e.value.failures)

    def test_epp_program_uses_inference(self, auth):
        assert epp_program(auth) == epp((), ("c", "ip", "s"), auth)

    def test_extra_listed_process_is_dropped_from_support(self, auth):
        np = epp((), ("c", "ip", "s", "z"), auth)
        assert np.net.key_view() == {"c", "ip", "s"}

    def test_silent_declared_process_compiles_to_end(self, auth):
        procs = dict(auth.procs)
        procs["Quiet"] = ProcDef(("c", "z"), ChorEnd())
        widened = ChorProgram(procs, auth.main)
        np = epp(("Quiet",), ("c", "ip", "s", "z"), widened)
        assert np.procs[("Quiet", "c")] == SP_END
        assert np.procs[("Quiet", "z")] == SP_END
        assert "z" not in np.net.key_view()


# Hand-picked listings: a missing process, an unlisted procedure called
# from main or from a listed body, an unknown listed procedure, an extra
# process, and a procedure's declared process left out.
HAND_PICKED = [
    ("auth", (), ("c", "ip", "s")),
    ("auth", (), ("c", "ip")),
    ("auth", ("Nope",), ("c", "ip", "s")),
    ("auth", (), ("c", "ip", "s", "z")),
    ("auth_noselect", (), ("c", "ip", "s")),
    ("auth_noselect", ("Nope",), ("c",)),
    ("filetransfer", (), ("c", "s")),
    ("filetransfer", ("FileTransfer",), ("c", "s")),
    ("filetransfer", ("FileTransfer",), ("c",)),
    ("pingpong", ("Ping",), ("p", "q")),
]


def _agrees_with_reference(xs, ps, p):
    """``projectable`` and ``epp`` against the frozen two-pass copy: the
    same failures, every field and in order, and when there are none the
    same network and procedure table, with and without a memo."""
    expected = reference_projectable(xs, ps, p)
    assert projectable(xs, ps, p) == expected
    if expected:
        for memo in (None, {}):
            with pytest.raises(ProjectionError) as e:
                epp(xs, ps, p, memo)
            assert list(e.value.failures) == expected
        return
    compiled = reference_compile(xs, ps, p)
    for memo in (None, {}):
        np = epp(xs, ps, p, memo)
        assert np.net == compiled.net
        assert np.procs == compiled.procs


class TestAgainstReference:
    @pytest.mark.parametrize("name", sorted(f.stem for f in CORPUS.glob("*.chor")))
    def test_corpus_inferred(self, name):
        p = load_program(name)
        _agrees_with_reference(*infer_params(p), p)

    @pytest.mark.parametrize("name,xs,ps", HAND_PICKED)
    def test_hand_picked_listings(self, name, xs, ps):
        _agrees_with_reference(xs, ps, load_program(name))

    def test_silent_declared_process(self, auth):
        procs = dict(auth.procs)
        procs["Quiet"] = ProcDef(("c", "z"), ChorEnd())
        widened = ChorProgram(procs, auth.main)
        _agrees_with_reference(("Quiet",), ("c", "ip", "s", "z"), widened)

    def test_undefined_without_a_conflict(self, monkeypatch):
        # a running call whose projection is undefined while its body has
        # no conflicting conditional is reported as plain ``undefined``
        monkeypatch.setattr(projection, "_running_call_projection", lambda procs, c, r: UNDEFINED)
        body = Interaction(CommEta("p", Lit(1), "q", "x"), CHOR_END)
        p = ChorProgram({"X": ProcDef(("p", "q"), body)}, RunningCall("X", ("q",), body))
        assert [f.kind for f in projectable(("X",), ("p", "q"), p)] == ["undefined", "undefined"]
        _agrees_with_reference(("X",), ("p", "q"), p)

    @settings(max_examples=300, deadline=None)
    @given(_choreographies(), _choreographies(), _choreographies())
    def test_generated(self, c, body_x, body_y):
        # X and Y are defined, Z never is; the strategy's conditionals
        # often have branches that do not merge
        p = ChorProgram(
            {"X": ProcDef(("p", "q"), body_x), "Y": ProcDef(("q", "r", "s"), body_y)}, c
        )
        for xs, ps in (infer_params(p), (("X", "Y", "Z"), ("p", "q", "r", "s")), (("X",), ("p", "q"))):
            _agrees_with_reference(xs, ps, p)


class TestMemo:
    """``bproj`` with a memo keyed by node identity against ``bproj``
    without one."""

    @pytest.mark.parametrize("name", sorted(f.stem for f in CORPUS.glob("*.chor")))
    def test_corpus_and_reachable_terms(self, name):
        # one memo for the whole program: main, every procedure body and
        # every term reached within 10 steps share subtrees with each other
        p = load_program(name)
        stores = (EMPTY_STATE, State({("c", "credentials"): 7, ("s", "token"): 42}))
        reached = [main for s0 in stores for main, _s, _trans in explore(p, s0, depth=10)]
        terms = [p.main, *(d.body for d in p.procs.values()), *reached]
        memo: dict = {}
        for r in sorted({*infer_params(p)[1], "nobody"}):
            for c in terms:
                assert bproj(p.procs, c, r, memo) == bproj(p.procs, c, r), (r, c)
        assert memo

    def test_dropped_terms_do_not_answer_for_new_ones(self):
        # each term is dropped once projected; without the identity check
        # and the node it keeps, a later term could reuse a dropped term's
        # id and read back its projection
        memo: dict = {}
        for i in range(2000):
            a, b = ("p", "q") if i % 2 else ("q", "p")
            eta = CommEta(a, Lit(i), b, "x") if i % 3 else SelectEta(a, b, "left")
            c = Interaction(eta, Interaction(CommEta(b, Lit(i), a, "y"), CHOR_END))
            for r in ("p", "q"):
                assert bproj({}, c, r, memo) == bproj({}, c, r), (i, r)
            del c, eta

    def test_verify_network_is_the_memo_s(self, monkeypatch):
        # verify_epp compiles its initial network through the memo its
        # projection context uses, so projecting main again gives back the
        # network's own behaviour objects
        roots = []
        original = checker_mod._Context.epp_net

        def spy(ctx, main):
            net = original(ctx, main)
            roots.append((main, net))
            return net

        monkeypatch.setattr(checker_mod._Context, "epp_net", spy)
        for name in PROJECTABLE:
            p = load_program(name)
            table = SuccessorTable(p)
            roots.clear()
            assert verify_epp(p, depth=2, table=table).ok, name
            main, projected = roots[0]
            compiled = table.net.net
            assert main is p.main and projected == compiled, name
            for pid in compiled.key_view():
                assert projected.get(pid) is compiled.get(pid), (name, pid)


def _str_projectable_agrees(p, ps, terms) -> int:
    """``str_projectable``, without a memo and through the memo that
    compiling ``p`` filled, against the frozen structural recursion, at
    every pid of ``ps``; the number of terms and pids checked."""
    memo: dict = {}
    try:
        epp(infer_params(p)[0], ps, p, memo)
    except ProjectionError:
        pass
    for r in ps:
        for c in terms:
            expected = reference_str_projectable(p.procs, c, r)
            assert str_projectable(p.procs, c, r) == expected, (r, c)
            assert str_projectable(p.procs, c, r, memo) == expected, (r, c)
    return len(ps) * len(terms)


def _with_broken_calls(terms) -> list:
    """``terms``, then three variants of each running call in them: an
    extra undeclared pending process, the body replaced by ``end``, and
    an unknown procedure."""
    out = list(terms)
    for c in terms:
        for n in subterms(c):
            if type(n) is RunningCall:
                out.append(RunningCall(n.proc, n.pending + ("extra",), n.body))
                out.append(RunningCall(n.proc, n.pending, CHOR_END))
                out.append(RunningCall("Nope", n.pending, n.body))
    return out


class TestStrProjectableMemo:
    """``str_projectable`` with and without the compile memo against the
    recursive definition it unfolds (``projection_reference.py``)."""

    def test_corpus_and_reached_running_calls(self):
        # every configuration within 25 steps under two stores; reached
        # terms include running calls, whose pending processes are
        # checked against the procedure body's view
        running = checks = 0
        for name in sorted(f.stem for f in CORPUS.glob("*.chor")):
            p = load_program(name)
            stores = (EMPTY_STATE, State({("c", "credentials"): 7, ("s", "token"): 42}))
            reached = [main for s0 in stores for main, _s, _trans in explore(p, s0, depth=25)]
            terms = list(dict.fromkeys([p.main, *reached]))
            running += sum(type(n) is RunningCall for c in terms for n in subterms(c))
            terms = _with_broken_calls(terms)
            checks += _str_projectable_agrees(p, sorted({*infer_params(p)[1], "nobody"}), terms)
        assert running == 13 and checks == 459

    @settings(max_examples=300, deadline=None)
    @given(_choreographies(), _choreographies(), _choreographies())
    def test_generated(self, c, body_x, body_y):
        p = ChorProgram(
            {"X": ProcDef(("p", "q"), body_x), "Y": ProcDef(("q", "r", "s"), body_y)}, c
        )
        _str_projectable_agrees(p, ("p", "q", "r", "s", "nobody"), _with_broken_calls([c]))


def _spine(n: int, tail):
    """``n`` interactions between p and q in front of ``tail``."""
    for i in reversed(range(n)):
        a, b = ("p", "q") if i % 2 else ("q", "p")
        tail = Interaction(CommEta(a, Lit(i), b, "x"), tail)
    return tail


def _planted(n: int, placement: str) -> ChorProgram:
    """A program that r cannot follow: p decides whether r is told
    anything.  The conditional ends a spine of ``n`` interactions, or
    ends one in the then-branch of an outer conditional that p decides,
    whose else-branch is such a spine too."""
    guard = Eq(VarRef("x"), Lit(0))
    told = Interaction(CommEta("p", Lit(1), "r", "y"), CHOR_END)
    planted = ChorCond("p", guard, told, CHOR_END)
    if placement == "prefix":
        return ChorProgram({}, _spine(n, planted))
    return ChorProgram({}, ChorCond("p", guard, _spine(n, planted), _spine(n, CHOR_END)))


class TestCounterGrowth:
    """``bproj`` calls counted, so a diagnosis or a strong check that
    projects a term once per node fails whatever the machine's speed."""

    @staticmethod
    def _counted(monkeypatch) -> list:
        calls: list = []
        original = projection.bproj

        def bproj(procs, c, r, memo=None):
            calls.append(r)
            return original(procs, c, r, memo)

        monkeypatch.setattr(projection, "bproj", bproj)
        return calls

    @pytest.mark.parametrize("placement", ["prefix", "branch"])
    def test_diagnosis_is_linear_in_the_spine(self, placement, monkeypatch):
        calls = self._counted(monkeypatch)
        counts = []
        for n in (200, 400):
            p = _planted(n, placement)
            calls.clear()
            (f,) = projectable(*infer_params(p), p)
            assert f.kind == "merge-conflict" and f.process == "r"
            counts.append(len(calls))
        assert counts[1] <= 2 * counts[0] + 10, counts

    @pytest.mark.parametrize("name", PROJECTABLE)
    def test_strong_check_reads_the_compile_memo(self, name, monkeypatch):
        # main has no running call, so after compiling, strong
        # projectability is one memo hit per process
        p = load_program(name)
        xs, ps = infer_params(p)
        calls = self._counted(monkeypatch)
        epp(xs, ps, p)
        compiled = len(calls)
        calls.clear()
        assert check_hypotheses(p, xs, ps, {})[0] == ()
        assert len(calls) == compiled + len(ps)
