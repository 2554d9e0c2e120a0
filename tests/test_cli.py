"""The command line interface, driven in process through main(), and once
as ``python -m chorkit`` in a child process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import CORPUS, load_program

from chorkit import cli, projection, runtime
from chorkit.chor import cc_run
from chorkit.cli import main
from chorkit.core import CanonicalMap
from chorkit.projection import infer_params

AUTH = str(CORPUS / "auth.chor")
NOSELECT = str(CORPUS / "auth_noselect.chor")
FILETRANSFER = str(CORPUS / "filetransfer.chor")
AUTH_STATE = ["--state", "c.credentials=0", "--state", "s.token=42"]

# One ill-formed program per well-formedness rule the gate must catch.
ILL_FORMED = {
    "self-communication": "main { p.1 -> p.x; end }\n",
    "undeclared-process-use": "def X(p) { p.1 -> q.x; end }\nmain { call X }\n",
    "unknown-procedure": "main { call X }\n",
}


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

    def test_process_named_procs_is_refused(self, tmp_path, capsys):
        # its behaviour file would be the procedure table
        src = tmp_path / "t.chor"
        src.write_text("main { procs.1 -> q.x; end }\n")
        assert main(["project", str(src)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"{src}: process procs would overwrite the procedure table {tmp_path / 't.procs.sp'}\n"
        )
        assert list(tmp_path.iterdir()) == [src]


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


# exec transcripts recorded before the runtime's offers became behaviour
# nodes and its grants rich labels; they pin the candidate order and the
# generator's use as well as the output format.
EXEC_GOLDEN = json.loads((Path(__file__).parent / "exec_golden.json").read_text())


class TestExecGolden:
    @pytest.mark.parametrize("key", sorted(EXEC_GOLDEN))
    def test_transcript(self, key, capsys):
        case = EXEC_GOLDEN[key]
        code = main(["exec", str(CORPUS / case["file"]), *case["args"]])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (case["code"], case["stdout"], case["stderr"])


# check, project, run, simulate and verify transcripts recorded before the
# CLI came to make its gate entries, trace records and JSON documents in
# one function each.  A case runs in a fresh directory holding a copy of
# its source file, so every path the CLI prints is relative.
CLI_GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


def golden_argvs() -> dict:
    """The recorded command lines by case key: ten command forms on each
    corpus file and each ``ILL_FORMED`` fixture."""
    files = sorted(p.name for p in CORPUS.glob("*.chor"))
    files += [f"{rule}.chor" for rule in sorted(ILL_FORMED)]
    out = {}
    for name in files:
        stem = name[: -len(".chor")]
        run_flags = AUTH_STATE if stem == "auth" else ["--fuel", "12"] if stem == "counter" else []
        forms = {
            "check": ["check"],
            "project": ["project", "-o", "out"],
            "run": ["run", *run_flags],
            "simulate": ["simulate", *run_flags],
            "verify": ["verify"],
        }
        for form, argv in forms.items():
            out[f"{stem} {form} text"] = [*argv, name]
            out[f"{stem} {form} json"] = [*argv, "--json", name]
    return out


def golden_transcript(argv: list, workdir: Path, capsys) -> dict:
    """Exit code, stdout and stderr of ``argv`` run in ``workdir``."""
    name = argv[-1]
    stem = name[: -len(".chor")]
    source = ILL_FORMED[stem] if stem in ILL_FORMED else (CORPUS / name).read_text(encoding="utf-8")
    (workdir / name).write_text(source, encoding="utf-8")
    code = main(argv)
    captured = capsys.readouterr()
    return {"argv": argv, "code": code, "stdout": captured.out, "stderr": captured.err}


class TestCliGolden:
    def test_cases_are_the_recorded_ones(self):
        assert {k: case["argv"] for k, case in CLI_GOLDEN.items()} == golden_argvs()

    @pytest.mark.parametrize("key", sorted(CLI_GOLDEN))
    def test_transcript(self, key, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        case = CLI_GOLDEN[key]
        assert golden_transcript(case["argv"], tmp_path, capsys) == case


class TestEmitTrace:
    @pytest.mark.parametrize("as_json", [False, True], ids=["jsonl", "json"])
    def test_each_record_is_rendered_once(self, as_json, monkeypatch, capsys):
        res = cc_run(load_program("counter"), fuel=12)
        rendered = []
        original = cli._record_json
        monkeypatch.setattr(cli, "_record_json", lambda r: rendered.append(r) or original(r))
        cli._emit_trace(res.trace, res.outcome, res.final_state, as_json)
        capsys.readouterr()
        assert rendered == list(res.trace)


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

    def test_json(self, capsys):
        assert main(["verify", AUTH, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == 1
        assert doc["ok"] is True
        suite = doc["suites"]["epp-theorem"]
        assert suite["status"] == "verified"
        assert suite["configs"] == 6
        assert suite["transitions"] == 10
        # epp-theorem derives both sides' transitions at each of its 6
        # configurations; every later suite finds them in the shared table.
        counts = {
            name: (s["successorsDerived"], s["successorsReused"])
            for name, s in doc["suites"].items()
        }
        assert counts == {
            "epp-theorem": (12, 0),
            "deadlock-freedom": (0, 6),
            "confluence-chor": (0, 6),
            "confluence-net": (0, 6),
        }


class TestProjectedOnce:
    """Checking projectability is compiling: every subcommand that needs
    the network computes main's projection once per process, and any
    later projection of main is a hit in the memo it was computed
    through."""

    @pytest.mark.parametrize("name", ["auth", "filetransfer"])
    @pytest.mark.parametrize("command", ["project", "simulate", "exec", "verify"])
    def test_main_projected_once_per_process(self, command, name, tmp_path, capsys, monkeypatch):
        path = str(CORPUS / f"{name}.chor")
        units = []
        original_parse = cli.parse

        def parse(*args):
            units.append(original_parse(*args))
            return units[-1]

        original_bproj = projection.bproj
        computed = []

        def bproj(procs, c, r, memo=None):
            if c is units[0].program.main:
                hit = None if memo is None else memo.get((id(c), r))
                if hit is None or hit[0] is not c:
                    computed.append(r)
            return original_bproj(procs, c, r, memo)

        monkeypatch.setattr(cli, "parse", parse)
        monkeypatch.setattr(projection, "bproj", bproj)
        extra = ["-o", str(tmp_path)] if command == "project" else []
        assert main([command, path, *extra]) == 0
        _xs, ps = infer_params(units[0].program)
        assert sorted(computed) == sorted(ps)


class TestNoMapHashed:
    """Only the successor table hashes a store or a network, so the
    commands that build no table hash no map at all."""

    @pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.chor")))
    def test_commands_hash_no_map(self, name, tmp_path, monkeypatch, capsys):
        hashed = []
        original = CanonicalMap.__hash__
        monkeypatch.setattr(CanonicalMap, "__hash__", lambda m: hashed.append(m) or original(m))
        path = str(CORPUS / name)
        state = AUTH_STATE if name == "auth.chor" else []
        fuel, steps = (["--fuel", "12"], ["--max-steps", "12"]) if name == "counter.chor" else ([], [])
        for argv in (
            ["check"], ["check", "--json"], ["project", "-o", str(tmp_path)], ["run", *state, *fuel],
            ["simulate", *state, *fuel], ["exec", *state, *steps], ["exec", "--json", *state, *steps],
        ):
            main([*argv, path])
            capsys.readouterr()
            assert not hashed, (argv, hashed)


class TestGate:
    """Every subcommand refuses an ill-formed program with check's diagnostic."""

    @pytest.mark.parametrize("rule", sorted(ILL_FORMED))
    @pytest.mark.parametrize(
        "command", ["check", "project", "simulate", "exec", "run", "verify"]
    )
    def test_ill_formed_program_is_refused(self, rule, command, tmp_path, capsys):
        path = tmp_path / "bad.chor"
        path.write_text(ILL_FORMED[rule])
        assert main(["check", str(path)]) == 1
        *diagnostic, summary = lines(capsys)
        assert summary == f"{path}: not projectable"
        assert len(diagnostic) == 1 and f"[{rule}]" in diagnostic[0]
        outdir = tmp_path / "out"
        extra = ["-o", str(outdir)] if command == "project" else []
        assert main([command, str(path), *extra]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        if command == "check":
            assert captured.out.splitlines() == [*diagnostic, summary]
        else:
            assert captured.err.splitlines() == diagnostic
            assert captured.out == ""
        assert not outdir.exists()


class TestArgumentErrors:
    def test_bad_state_syntax(self, capsys):
        assert main(["run", AUTH, "--state", "nonsense"]) == 2
        assert "pid.var=value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry",
        ["c.credentials =7", "c.cred.entials=7", "c.credentials=1_000", "c.credentials=\u0663", "c.then=1"],
        ids=["space-in-name", "dot-in-name", "underscore-in-value", "arabic-indic-digit", "keyword"],
    )
    def test_malformed_state_entry(self, entry, capsys):
        assert main(["run", AUTH, "--state", entry]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"bad --state entry {entry!r}, expected pid.var=value\n"

    def test_negative_state_value(self, capsys):
        assert main(["run", AUTH, "--state=c.credentials=-5"]) == 0
        assert json.loads(lines(capsys)[-1])["finalState"] == {"c.credentials": -5, "ip.x": -5}

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate", AUTH]) == 2

    @pytest.mark.parametrize(
        "argv, least",
        [
            (["run", AUTH, "--fuel", "-1"], 0),
            (["simulate", AUTH, "--fuel", "-1"], 0),
            (["exec", AUTH, "--max-steps", "0"], 1),
            (["exec", AUTH, "--timeout-ms", "0"], 1),
            (["verify", AUTH, "--depth", "-1"], 0),
        ],
        ids=["run-fuel", "simulate-fuel", "exec-max-steps", "exec-timeout-ms", "verify-depth"],
    )
    def test_out_of_range_number(self, argv, least, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        command, _, flag, value = argv
        assert captured.err.startswith(f"usage: chorkit {command} ")
        assert captured.err.splitlines()[-1] == (
            f"chorkit {command}: error: argument {flag}: "
            f"must be at least {least}, got {value}"
        )

    def test_smallest_numbers_accepted(self, capsys):
        assert main(["run", AUTH, "--fuel", "0"]) == 1
        assert json.loads(lines(capsys)[-1])["outcome"] == "fuel-exhausted"
        assert main(["verify", AUTH, "--depth", "0"]) == 0

    def test_invalid_utf8_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.chor"
        bad.write_bytes(b"main { c.1 -> \xff s.x; end }\n")
        assert main(["check", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"{bad}: 'utf-8' codec can't decode byte 0xff in position 14: "
            "invalid start byte\n"
        )


class TestParserReuse:
    """``main`` builds its parser on its first call and keeps it: no
    option may leak from one call into the next, and usage errors still
    exit 2."""

    # pairs of calls; the second must behave as if it came first
    PAIRS = [
        (["simulate", AUTH, *AUTH_STATE], ["simulate", AUTH]),
        (["simulate", AUTH, "--state", "nonsense"], ["simulate", AUTH]),
        (["exec", AUTH, "--timeout-ms", "5", "--seed", "3", *AUTH_STATE], ["exec", AUTH]),
        (["exec", AUTH, "--max-steps", "0"], ["exec", AUTH]),
        (["run", AUTH, "--policy", "random", "--fuel", "2", "--json"], ["run", AUTH]),
        (["verify", AUTH, "--depth", "1", "--json"], ["verify", AUTH]),
        (["project", AUTH, "-o", "out"], ["check", AUTH]),
        (["frobnicate", AUTH], ["check", AUTH, "--json"]),
    ]

    @staticmethod
    def _call(argv, capsys) -> tuple:
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("first, second", PAIRS, ids=[" ".join(p[0][:1] + p[0][2:]) for p in PAIRS])
    def test_no_option_leaks(self, first, second, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cli.build_parser.cache_clear()
        alone = self._call(second, capsys)
        self._call(first, capsys)
        assert self._call(second, capsys) == alone

    def test_built_once(self, capsys):
        cli.build_parser.cache_clear()
        for _ in range(2):
            assert main(["check", AUTH]) == 0
            assert main(["exec", AUTH, "--timeout-ms", "0"]) == 2
            assert main([]) == 2
        assert cli.build_parser.cache_info().misses == 1
        assert "usage: chorkit exec " in capsys.readouterr().err

    def test_not_built_at_import(self):
        root = Path(__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        code = "import chorkit.cli as c; print(c.build_parser.cache_info().currsize)"
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert (done.returncode, done.stdout) == (0, "0\n")


class TestWorkerError:
    def test_exec_exits_1_on_a_raising_worker(self, monkeypatch, capsys):
        def broken(*args):
            raise ZeroDivisionError("planted")

        monkeypatch.setattr(runtime, "eval_expr", broken)
        assert main(["exec", AUTH, *AUTH_STATE, "--timeout-ms", "10000"]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out.splitlines()[-1])["outcome"] == "worker-error"
        assert captured.err == f"{AUTH}: worker error: ZeroDivisionError('planted')\n"


class TestReplay:
    def test_exec_exits_1_on_a_run_that_does_not_replay(self, monkeypatch, capsys):
        # workers that send each value plus 1: the run terminates, but its
        # first communication is not the one the sequential semantics takes
        original = runtime.eval_expr
        monkeypatch.setattr(runtime, "eval_expr", lambda e, s, p: original(e, s, p) + 1)
        assert main(["exec", AUTH, *AUTH_STATE]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out.splitlines()[-1])["outcome"] == "terminated"
        assert captured.err == f"{AUTH}: run does not replay at step 0: label not enabled here\n"


class TestDeepInput:
    def test_deep_ring_exits_3_without_traceback(self, tmp_path, capsys):
        hops = "".join(f"{a}.x -> {b}.x;\n" for a, b in [("p", "q"), ("q", "p")] * 2500)
        path = tmp_path / "ring.chor"
        path.write_text(f"// format: 1\nmain {{\n{hops}end\n}}\n")
        assert main(["check", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"{path}: input too deeply nested\n"
        assert "Traceback" not in captured.out + captured.err


class TestModuleEntryPoint:
    def test_python_m_chorkit_runs_from_a_checkout(self):
        root = Path(__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "chorkit", "check", "corpus/auth.chor"],
            cwd=root, env=env, capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "corpus/auth.chor: ok\n", "")
