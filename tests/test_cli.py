"""The command line interface, driven in process through main()."""

import json

from conftest import CORPUS

from chorkit import cli, projection
from chorkit.cli import main

AUTH = str(CORPUS / "auth.chor")
NOSELECT = str(CORPUS / "auth_noselect.chor")
FILETRANSFER = str(CORPUS / "filetransfer.chor")
AUTH_STATE = ["--state", "c.credentials=0", "--state", "s.token=42"]


def lines(capsys):
    return capsys.readouterr().out.splitlines()


class TestCheck:
    def test_ok(self, capsys):
        assert main(["check", AUTH]) == 0
        assert lines(capsys) == [f"{AUTH}: ok"]

    def test_not_projectable(self, capsys):
        assert main(["check", NOSELECT]) == 1
        out = lines(capsys)
        assert out[0] == (
            f"{NOSELECT}:7:3: projection fails for c at main/cont "
            "(merge-conflict): branch views of this conditional do not merge"
        )
        assert out[1] == "  merge(s?t; end, end) undefined"
        assert out[2].startswith(f"{NOSELECT}:7:3: projection fails for s")
        assert out[3] == "  merge(c!token; end, end) undefined"
        assert out[-1] == f"{NOSELECT}: not projectable"

    def test_json(self, capsys):
        assert main(["check", "--json", NOSELECT]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == 1
        assert doc["ok"] is False
        assert len(doc["failures"]) == 2
        first = doc["failures"][0]
        assert first["process"] == "c"
        assert first["span"] == {"line": 7, "col": 3, "endLine": 12, "endCol": 3}
        assert first["conflict"] == ["s?t; end", "end"]

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.chor"
        bad.write_text("main { c.1 -> }\n")
        assert main(["check", str(bad)]) == 2

    def test_missing_file_exit_2(self):
        assert main(["check", "no/such/file.chor"]) == 2


class TestProject:
    def test_writes_one_file_per_process(self, tmp_path, capsys):
        assert main(["project", AUTH, "-o", str(tmp_path)]) == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["auth.c.sp", "auth.ip.sp", "auth.procs.sp", "auth.s.sp"]
        # no procedures: the table file is just the header
        assert (tmp_path / "auth.procs.sp").read_text() == "// format: 1\n"
        text = (tmp_path / "auth.c.sp").read_text()
        assert text == (
            "// format: 1\nip!credentials; ip & { left: s?t; end, right: end }\n"
        )
        assert (tmp_path / "auth.ip.sp").read_text().splitlines()[1] == (
            "c?x; if x == 0 then { s(+)left; c(+)left; end }"
            " else { s(+)right; c(+)right; end }"
        )

    def test_procedures_get_their_own_file(self, tmp_path, capsys):
        assert main(["project", FILETRANSFER, "-o", str(tmp_path)]) == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "filetransfer.c.sp",
            "filetransfer.procs.sp",
            "filetransfer.s.sp",
        ]
        procs = (tmp_path / "filetransfer.procs.sp").read_text().splitlines()
        assert procs[0] == "// format: 1"
        assert procs[1] == (
            "def FileTransfer@c { s?x; if x == 0 then { s(+)left; end }"
            " else { s(+)right; call FileTransfer@c } }"
        )
        assert procs[2] == (
            "def FileTransfer@s { c!payload;"
            " c & { left: end, right: call FileTransfer@s } }"
        )

    def test_unprojectable_exit_1(self, tmp_path, capsys):
        assert main(["project", NOSELECT, "-o", str(tmp_path)]) == 1
        assert list(tmp_path.iterdir()) == []


class TestRunAndSimulate:
    def test_run_trace_shape(self, capsys):
        assert main(["run", AUTH, *AUTH_STATE]) == 0
        out = lines(capsys)
        assert json.loads(out[0]) == {"format": 1}
        records = [json.loads(l) for l in out[1:-1]]
        assert [r["step"] for r in records] == [0, 1, 2, 3, 4]
        assert records[0] == {
            "step": 0,
            "richLabel": "c.0 -> ip.x",
            "label": "c.0 -> ip",
            "actors": ["c", "ip"],
            "stateDigest": "59d441a9acfc17f6",
        }
        tail = json.loads(out[-1])
        assert tail["outcome"] == "terminated"
        assert tail["finalState"] == {"c.t": 42, "s.token": 42}
        assert tail["finalDigest"] == "18e116383e39b729"

    def test_simulate_matches_run(self, capsys):
        assert main(["run", AUTH, *AUTH_STATE, "--policy", "first"]) == 0
        run_out = lines(capsys)
        assert main(["simulate", AUTH, *AUTH_STATE, "--policy", "first"]) == 0
        sim_out = lines(capsys)
        run_labels = [json.loads(l)["label"] for l in run_out[1:-1]]
        sim_labels = [json.loads(l)["label"] for l in sim_out[1:-1]]
        assert run_labels == sim_labels

    def test_fuel_exhaustion_exit_1(self, capsys):
        assert main(["run", FILETRANSFER, "--state", "s.payload=1", "--fuel", "7"]) == 1
        tail = json.loads(lines(capsys)[-1])
        assert tail["outcome"] == "fuel-exhausted"

    def test_json_document_mode(self, capsys):
        assert main(["run", AUTH, *AUTH_STATE, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == 1
        assert doc["outcome"] == "terminated"
        assert [r["step"] for r in doc["trace"]] == [0, 1, 2, 3, 4]


class TestExec:
    def test_terminates_and_traces(self, capsys):
        assert main(["exec", AUTH, *AUTH_STATE, "--seed", "3"]) == 0
        out = lines(capsys)
        assert json.loads(out[0]) == {"format": 1}
        tail = json.loads(out[-1])
        assert tail["outcome"] == "terminated"
        assert tail["finalState"] == {"c.t": 42, "s.token": 42}

    def test_unprojectable_exit(self, capsys):
        assert main(["exec", NOSELECT]) == 1


class TestVerify:
    def test_all_suites_pass(self, capsys):
        assert main(["verify", AUTH, "--depth", "6"]) == 0
        out = lines(capsys)
        assert out[0].startswith("epp-theorem: verified")
        assert out[1].startswith("deadlock-freedom: verified")
        assert out[2].startswith("confluence-chor: verified")
        assert out[3].startswith("confluence-net: verified")
        assert out[-1] == f"{AUTH}: ok"

    def test_hypothesis_failure_exit_1(self, capsys):
        assert main(["verify", NOSELECT]) == 1
        out = lines(capsys)
        assert out[0].startswith("epp-theorem: hypotheses violated")

    def test_projectability_checked_once(self, capsys, monkeypatch):
        original = projection.projectable
        calls = []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(projection, "projectable", counted)
        monkeypatch.setattr(cli, "projectable", counted)
        assert main(["verify", AUTH]) == 0
        assert len(calls) == 1

    def test_json(self, capsys):
        assert main(["verify", AUTH, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == 1
        assert doc["ok"] is True
        suite = doc["suites"]["epp-theorem"]
        assert suite["status"] == "verified"
        assert suite["configs"] == 6
        assert suite["transitions"] == 10


class TestArgumentErrors:
    def test_bad_state_syntax(self, capsys):
        assert main(["run", AUTH, "--state", "nonsense"]) == 2
        assert "pid.var=value" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate", AUTH]) == 2


class TestDeepInput:
    def test_deep_ring_exits_3_without_traceback(self, tmp_path, capsys):
        hops = "".join(f"{a}.x -> {b}.x;\n" for a, b in [("p", "q"), ("q", "p")] * 2500)
        path = tmp_path / "ring.chor"
        path.write_text(f"// format: 1\nmain {{\n{hops}end\n}}\n")
        assert main(["check", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"{path}: input too deeply nested\n"
        assert "Traceback" not in captured.out + captured.err
