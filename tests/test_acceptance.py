"""Acceptance gate: the eleven shipping criteria, one verdict line each.

Each test wraps its body in ``criterion``, which appends
``ACCEPTANCE <n> <slug>: PASS|FAIL (<t>s)`` to the terminal summary and
enforces the stated time budget.  Criteria 8 and 11 reuse the verdicts
computed by criterion 4; running them standalone recomputes.
"""

import json
import random
import time
from contextlib import contextmanager

import pytest

import conftest
from conftest import (
    AUTH_CLIENT,
    AUTH_PROVIDER,
    AUTH_SERVER,
    CORPUS,
    PROJECTABLE,
    SEAM_MUTATIONS,
    load_program,
)

from chorkit import checker as checker_mod
from chorkit.checker import (
    check_cc_confluence,
    check_deadlock_freedom,
    check_sp_confluence,
    verify_epp,
)
from chorkit.chor import cc_run
from chorkit.cli import main as cli_main
from chorkit.core import State, obs_label_text
from chorkit.merge import UNDEFINED, xmerge
from chorkit.net import Branch, Cond, Network, Recv, SP_END, SelectSend, Send, sp_run
from chorkit.projection import epp_program, projectable
from chorkit.pruning import xmore_branches
from chorkit.runtime import RuntimeConfig, execute, validate_trace
from chorkit.smallterms import behaviour_space
from chorkit.syntax import parse_behaviour

AUTH_FILE = str(CORPUS / "auth.chor")
NOSELECT_FILE = str(CORPUS / "auth_noselect.chor")


@contextmanager
def criterion(n, slug, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        dt = time.perf_counter() - t0
        line = f"ACCEPTANCE {n} {slug}: FAIL ({dt:.2f}s)"
        conftest.ACCEPTANCE_LINES.append(line)
        print(line)
        raise
    dt = time.perf_counter() - t0
    ok = budget is None or dt < budget
    line = f"ACCEPTANCE {n} {slug}: {'PASS' if ok else 'FAIL'} ({dt:.2f}s)"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, f"time budget exceeded: {dt:.2f}s >= {budget}s"


# Verdicts of criterion 4, reused by criteria 8 and 11.
_VERDICTS: dict = {}


def _corpus_verdicts():
    if not _VERDICTS:
        for name in PROJECTABLE:
            _VERDICTS[name] = verify_epp(load_program(name), depth=10)
    return _VERDICTS


def test_criterion_1_golden_projection(tmp_path):
    with criterion(1, "golden-projection", budget=1.0):
        assert cli_main(["project", AUTH_FILE, "-o", str(tmp_path)]) == 0
        got = {}
        for pid in ("c", "ip", "s"):
            text = (tmp_path / f"auth.{pid}.sp").read_text()
            header, body, trailer = text.split("\n")
            assert header == "// format: 1" and trailer == ""
            got[pid] = parse_behaviour(body)
        assert got["c"] == AUTH_CLIENT
        assert got["ip"] == AUTH_PROVIDER
        assert got["s"] == AUTH_SERVER


def test_criterion_2_golden_failure(capsys):
    with criterion(2, "golden-failure", budget=1.0):
        assert cli_main(["check", NOSELECT_FILE]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out == [
            f"{NOSELECT_FILE}:7:3: projection fails for c at main/cont "
            "(merge-conflict): branch views of this conditional do not merge",
            "  merge(s?t; end, end) undefined",
            f"{NOSELECT_FILE}:7:3: projection fails for s at main/cont "
            "(merge-conflict): branch views of this conditional do not merge",
            "  merge(c!token; end, end) undefined",
            f"{NOSELECT_FILE}: not projectable",
        ]


def test_criterion_3_trace_agreement(capsys):
    with criterion(3, "trace-agreement", budget=1.0):
        expected = {
            0: [
                "c.0 -> ip",
                "tau ip",
                "ip -> s[left]",
                "ip -> c[left]",
                "s.42 -> c",
            ],
            7: [
                "c.7 -> ip",
                "tau ip",
                "ip -> s[right]",
                "ip -> c[right]",
            ],
        }
        for creds, labels in expected.items():
            state = ["--state", f"c.credentials={creds}", "--state", "s.token=42"]
            assert cli_main(["run", AUTH_FILE, *state, "--policy", "first"]) == 0
            run_lines = capsys.readouterr().out.splitlines()
            assert cli_main(["simulate", AUTH_FILE, *state, "--policy", "first"]) == 0
            sim_lines = capsys.readouterr().out.splitlines()
            run_labels = [json.loads(l)["label"] for l in run_lines[1:-1]]
            sim_labels = [json.loads(l)["label"] for l in sim_lines[1:-1]]
            assert run_labels == sim_labels == labels


def test_criterion_4_epp_theorem():
    with criterion(4, "epp-theorem", budget=30.0):
        assert len(PROJECTABLE) >= 10
        verdicts = _corpus_verdicts()
        for name, v in verdicts.items():
            assert v.counterexample is None, (name, str(v))
            assert v.ok, (name, str(v))
        # the growing counter cannot exhaust its space, everything else does
        assert verdicts["counter"].status == "verified-to-depth"
        finite = [n for n in PROJECTABLE if n != "counter"]
        assert all(verdicts[n].status == "verified" for n in finite)


# --- criterion 5: seeded mutations and the detector battery ----------------


def _detect_golden_projection():
    np = epp_program(load_program("auth"))
    assert np.net == Network(
        {"c": AUTH_CLIENT, "ip": AUTH_PROVIDER, "s": AUTH_SERVER}
    )


def _detect_golden_failure():
    p = load_program("auth_noselect")
    failures = projectable((), ("c", "ip", "s"), p)
    assert sorted(f.process for f in failures) == ["c", "s"]
    assert failures[0].conflict == (Recv("s", "t", SP_END), SP_END)


def _detect_verification():
    for name in ("auth", "parallel", "filetransfer", "broadcast"):
        assert verify_epp(load_program(name), depth=10).ok, name


def _detect_trace_agreement():
    p = load_program("auth")
    np = epp_program(p)
    for creds in (0, 7):
        s0 = State({("c", "credentials"): creds, ("s", "token"): 42})
        cc = cc_run(p, s0, policy="first")
        sp = sp_run(np, s0, policy="first")
        assert cc.outcome == sp.outcome == "terminated"
        assert [obs_label_text(r.label) for r in cc.trace] == [
            obs_label_text(r.label) for r in sp.trace
        ]


def _detect_pruning_matcher():
    wider = Network({"p": Branch("q", SP_END, Recv("q", "x", SP_END))})
    narrower = Network({"p": Branch("q", SP_END, None)})
    assert checker_mod._prunes(wider, narrower)
    assert not checker_mod._prunes(narrower, wider)
    assert not checker_mod._prunes(Network(), narrower)


_DETECTORS = (
    _detect_golden_projection,
    _detect_golden_failure,
    _detect_verification,
    _detect_trace_agreement,
    _detect_pruning_matcher,
)


def _failed_detectors():
    # any exception counts: a mutation may surface as a raised error
    # (e.g. compilation refusing the program) rather than a bad value
    failed = []
    for d in _DETECTORS:
        try:
            d()
        except Exception:
            failed.append(d.__name__)
    return failed


def test_criterion_5_mutation_sensitivity(monkeypatch):
    with criterion(5, "mutation-sensitivity", budget=60.0):
        assert _failed_detectors() == []  # control: clean build passes
        caught = {}
        for name, module, attr, broken in SEAM_MUTATIONS:
            with monkeypatch.context() as m:
                m.setattr(module, attr, broken)
                caught[name] = _failed_detectors()
        missed = [name for name, failed in caught.items() if not failed]
        assert missed == [], f"undetected mutations: {missed}"
        assert len(caught) == 5


@pytest.mark.slow
def test_criterion_6_merge_algebra():
    space = behaviour_space(3)
    with criterion(6, "merge-algebra", budget=120.0):
        assert len(space) == 14693
        for a in space:
            assert xmerge(a, a) == a
        for i, a in enumerate(space):
            tail = space[i:]
            row = [xmerge(a, b) for b in tail]
            col = [xmerge(b, a) for b in tail]
            assert row == col, f"commutativity broken in row {i}"
        # 14693^3 triples is far past the 1e7 full-sweep cutoff; sample
        rng = random.Random(1906)
        n = len(space)
        for _ in range(100_000):
            a = space[rng.randrange(n)]
            b = space[rng.randrange(n)]
            c = space[rng.randrange(n)]
            left = xmerge(xmerge(a, b), c)
            right = xmerge(a, xmerge(b, c))
            if left is UNDEFINED:
                assert right is UNDEFINED
            else:
                assert left == right


def _prune_randomly(b, rng):
    t = type(b)
    if t is Branch:
        l, r = b.on_left, b.on_right
        if l is not None:
            l = None if rng.random() < 0.3 else _prune_randomly(l, rng)
        if r is not None:
            r = None if rng.random() < 0.3 else _prune_randomly(r, rng)
        return Branch(b.peer, l, r)
    if t is Send:
        return Send(b.peer, b.expr, _prune_randomly(b.cont, rng))
    if t is Recv:
        return Recv(b.peer, b.var, _prune_randomly(b.cont, rng))
    if t is SelectSend:
        return SelectSend(b.peer, b.label, _prune_randomly(b.cont, rng))
    if t is Cond:
        return Cond(
            b.guard, _prune_randomly(b.then_b, rng), _prune_randomly(b.else_b, rng)
        )
    return b


@pytest.mark.slow
def test_criterion_7_pruning_characterisation():
    space = behaviour_space(3)
    with criterion(7, "pruning-characterisation", budget=120.0):
        for a in space:
            for b in space:
                m = xmerge(a, b)
                assert xmore_branches(a, b) == (m is a or m == a)
        rng = random.Random(1906)
        n = len(space)
        for _ in range(20_000):
            top = space[rng.randrange(n)]
            b1 = _prune_randomly(top, rng)
            b2 = _prune_randomly(top, rng)
            assert xmore_branches(top, b1) and xmore_branches(top, b2)
            m = xmerge(b1, b2)
            # least upper bound: the merge exists and stays below the cover
            assert m is not UNDEFINED
            assert xmore_branches(top, m)
            # upper bound: the merge covers both operands
            assert xmore_branches(m, b1) and xmore_branches(m, b2)
            # downward mergeability: shrinking operands keeps the merge
            b1s = _prune_randomly(b1, rng)
            b2s = _prune_randomly(b2, rng)
            ms = xmerge(b1s, b2s)
            assert ms is not UNDEFINED
            assert xmore_branches(m, ms)


def test_criterion_8_determinism_and_stability():
    with criterion(8, "determinism-stability"):
        verdicts = _corpus_verdicts()
        assert sum(v.determinism_checks for v in verdicts.values()) > 0
        assert sum(v.stability_checks for v in verdicts.values()) > 0
        for name, v in verdicts.items():
            assert v.determinism_violations == 0, name
            assert v.stability_violations == 0, name


def test_criterion_9_deadlock_freedom_and_confluence():
    with criterion(9, "deadlock-confluence", budget=30.0):
        for name in PROJECTABLE:
            p = load_program(name)
            dl = check_deadlock_freedom(p, depth=10)
            assert dl.ok, (name, str(dl))
            cc = check_cc_confluence(p, depth=8)
            assert cc.ok, (name, str(cc))
            sp = check_sp_confluence(epp_program(p), depth=8)
            assert sp.ok, (name, str(sp))


def test_criterion_10_runtime_agreement():
    with criterion(10, "runtime-agreement", budget=30.0):
        auth = load_program("auth")
        auth_np = epp_program(auth)
        pipeline = load_program("pipeline3")
        pipeline_np = epp_program(pipeline)
        runs = 0
        for seed in range(50):
            creds = 0 if seed % 2 == 0 else 7
            s0 = State({("c", "credentials"): creds, ("s", "token"): 42 + seed})
            report = execute(auth_np, s0, RuntimeConfig(seed=seed))
            assert report.outcome == "terminated"
            assert validate_trace(auth_np, s0, report).ok
            assert report.final_state == cc_run(auth, s0, policy="first").final_state
            runs += 1
        for seed in range(50):
            s0 = State({("a", "job"): seed * 3 - 5})
            report = execute(pipeline_np, s0, RuntimeConfig(seed=seed))
            assert report.outcome == "terminated"
            assert validate_trace(pipeline_np, s0, report).ok
            assert (
                report.final_state == cc_run(pipeline, s0, policy="first").final_state
            )
            runs += 1
        assert runs == 100


def test_criterion_11_call_name_locality():
    with criterion(11, "call-name-locality"):
        verdicts = _corpus_verdicts()
        ft = verdicts["filetransfer"]
        assert ft.locality_checks > 0
        assert ft.locality_violations == 0
        for name, v in verdicts.items():
            assert v.locality_violations == 0, name
