"""Per-process projection, diagnostics, and choreography compilation."""

import pytest
from conftest import (
    AUTH_CLIENT,
    AUTH_PROVIDER,
    AUTH_SERVER,
    PROJECTABLE,
    has_undefined,
    load_program,
)

from chorkit.chor import ChorProgram, ProcDef, RunningCall, cc_enabled, cc_step
from chorkit.chor import End as ChorEnd
from chorkit.core import EMPTY_STATE, Eq, Lit, VarRef
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
    projection_failures,
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


class TestDiagnostics:
    def test_noselect_conflicts(self, auth_noselect):
        fs = projection_failures(
            auth_noselect.procs, auth_noselect.main, "c", root=("main",)
        )
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
        fs = projection_failures(
            auth_noselect.procs, auth_noselect.main, "s", root=("main",)
        )
        assert fs[0].conflict == (Send("c", VarRef("token"), SP_END), SP_END)

    def test_clean_processes_report_nothing(self, auth_noselect, auth):
        assert projection_failures(auth_noselect.procs, auth_noselect.main, "ip") == []
        for r in ("c", "ip", "s"):
            assert projection_failures(auth.procs, auth.main, r) == []


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
        assert np.net.support == ("c", "ip", "s")

    def test_silent_declared_process_compiles_to_end(self, auth):
        procs = dict(auth.procs)
        procs["Quiet"] = ProcDef(("c", "z"), ChorEnd())
        widened = ChorProgram(procs, auth.main)
        np = epp(("Quiet",), ("c", "ip", "s", "z"), widened)
        assert np.procs[("Quiet", "c")] == SP_END
        assert np.procs[("Quiet", "z")] == SP_END
        assert "z" not in np.net.support
