"""The three workloads: one closed-loop caller, one operation at a time.

Each workload builds its inputs once.  ``op(k)`` runs the timed part of
operation k, timing only the calls into chorkit; ``after(k, res)`` makes
the operation's untimed calls into chorkit (``exec``); ``check(k, res)``
then checks every output against ``oracle`` or against properties
chorkit must have.  The runner samples the reference kernel just before
``op`` and just after it, so untimed work never sits between an
operation and the samples that correct it, and traces only ``op`` and
``after``, so the checks' own calls into chorkit are not counted.
"""

from __future__ import annotations

import importlib
import io
import json
import random
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import oracle
from chorkit.core import (
    RichCall,
    RichComm,
    RichCond,
    RichSelect,
    State,
    TraceRecord,
    forget,
    label_pids,
    state_digest,
)
from chorkit.net import Network
from chorkit.runtime import ExecutionReport, validate_trace
from chorkit.syntax import parse_behaviour

# Modules by their import path: the package re-exports a function named
# ``merge`` that shadows the submodule as an attribute.
cli = importlib.import_module("chorkit.cli")
merge = importlib.import_module("chorkit.merge")
pruning = importlib.import_module("chorkit.pruning")


@dataclass
class OpResult:
    seconds: float = 0.0  # timed calls into chorkit only
    parts: dict = field(default_factory=dict)  # seconds per phase
    steps: dict = field(default_factory=dict)  # transitions per phase
    work: float = 0.0
    failed: bool = False  # chorkit did not deliver (crash, timeout, exit code)
    wrong: list = field(default_factory=list)  # outputs that disagree
    outputs: list = field(default_factory=list)  # (phase, exit code, stdout) to check

    def time(self, part: str, seconds: float, in_op: bool = True) -> None:
        if in_op:
            self.seconds += seconds
        self.parts[part] = self.parts.get(part, 0.0) + seconds


def run_cli(argv: list) -> tuple:
    """chorkit's CLI in this process: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv)
        dt = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), dt


def _program_pids(p) -> set:
    """Processes a generated program mentions, read off its tuples."""
    out = set()
    stack = [p.main] + [body for _params, body in p.procs.values()]
    for params, _body in p.procs.values():
        out.update(params)
    while stack:
        c = stack.pop()
        k = c[0]
        if k == "com":
            out.update((c[1], c[3]))
            stack.append(c[5])
        elif k == "sel":
            out.update((c[1], c[2]))
            stack.append(c[4])
        elif k == "if":
            out.add(c[1])
            stack.extend((c[3], c[4]))
    return out


class Workload:
    round_len = 1

    def after(self, k: int, res: OpResult) -> None:
        """Untimed calls into chorkit that belong to operation k."""


# ---------------------------------------------------------------------------
# verify


class Verify(Workload):
    """Certify a sequential and a wide program per operation, and refuse
    a small unprojectable one."""

    SUITES = ("epp-theorem", "deadlock-freedom", "confluence-chor", "confluence-net")
    PARTS = ("chain", "wide", "planted")

    def __init__(self, seed: int, outdir: Path) -> None:
        entries = list(inputs.build("verify", seed, outdir)["programs"].values())
        n = len(self.PARTS)
        self.groups = [entries[i:i + n] for i in range(0, len(entries), n)]
        self.round_len = len(self.groups)

    def op(self, k: int) -> OpResult:
        res = OpResult()
        for part, entry in zip(self.PARTS, self.groups[k % self.round_len]):
            p = entry["program"]
            argv = ["verify", "--json", "--depth", str(p.steps), str(entry["path"])]
            code, out, _err, dt = run_cli(argv)
            res.time(part, dt)
            res.work += p.configs or 0
            res.outputs.append((p, code, out))
        return res

    def check(self, k: int, res: OpResult) -> None:
        for p, code, out in res.outputs:
            if p.planted:
                doc = json.loads(out)
                status = doc["suites"]["epp-theorem"]["status"]
                if code != 1 or doc["ok"] or status != "hypotheses-violated":
                    res.wrong.append(f"{p.name}: unprojectable program gave {code}, {status}")
                continue
            if code != 0:
                res.failed = True
                res.wrong.append(f"{p.name}: verify exited {code}")
                continue
            suites = json.loads(out)["suites"]
            for name in self.SUITES:
                s = suites.get(name)
                if s is None or s["status"] != "verified":
                    res.wrong.append(f"{p.name}: {name} {s and s['status']}")
                elif name == "epp-theorem" and s["configs"] != p.configs:
                    res.wrong.append(f"{p.name}: {name} visited {s['configs']}, reachable {p.configs}")
                elif not 1 <= s["configs"] <= p.configs:
                    res.wrong.append(f"{p.name}: {name} visited {s['configs']}, reachable {p.configs}")


# ---------------------------------------------------------------------------
# compile-run

_RICH = [
    (re.compile(r"(\w+)\.(-?\d+) -> (\w+)\.(\w+)\Z"),
     lambda m: RichComm(m[1], int(m[2]), m[3], m[4])),
    (re.compile(r"(\w+) -> (\w+)\[(left|right)\]\Z"), lambda m: RichSelect(m[1], m[2], m[3])),
    (re.compile(r"if (\w+)\Z"), lambda m: RichCond(m[1])),
    (re.compile(r"call (\w+)@(\w+) @ (\w+)\Z"), lambda m: RichCall((m[1], m[2]), m[3])),
]


def _rich(text: str):
    for rx, build in _RICH:
        m = rx.match(text)
        if m:
            return build(m)
    raise ValueError(f"unreadable label {text!r}")


def _state(doc: dict) -> State:
    return State({tuple(k.split(".", 1)): v for k, v in doc.items()})


class CompileRun(Workload):
    """One program through check, project, simulate and exec.

    The operation's time covers check, project and simulate.  exec runs
    and is checked in every operation too, but its time is kept apart
    (phase "exec"): the threaded runtime's timing depends on how the OS
    schedules its worker threads and does not repeat between runs on a
    shared two-vCPU machine, even after drift correction.
    """

    def __init__(self, seed: int, outdir: Path) -> None:
        self.entries = list(inputs.build("compile-run", seed, outdir)["programs"].values())
        self.round_len = len(self.entries)
        self.projdir = outdir / "project"
        self.seed = seed
        for e in self.entries:
            p = e["program"]
            e["expected"] = None if p.planted else oracle.evaluate(p)
            e["state"] = [f"--state={pid}.{x}={v}" for (pid, x), v in sorted(p.state.items())]

    def op(self, k: int) -> OpResult:
        entry = self.entries[k % self.round_len]
        path, planted = str(entry["path"]), entry["program"].planted
        res = OpResult()
        phases = [
            ("check", ["check", "--json", path]),
            ("project", ["project", "--json", "-o", str(self.projdir), path]),
        ]
        if not planted:
            phases.append(("simulate", ["simulate", path] + entry["state"]))
        for phase, argv in phases:
            code, out, _err, dt = run_cli(argv)
            res.time("simulate" if phase == "simulate" else "compile", dt)
            res.outputs.append((phase, code, out))
            if code != 0 and not planted:
                break
        return res

    def after(self, k: int, res: OpResult) -> None:
        entry = self.entries[k % self.round_len]
        if entry["program"].planted or not res.outputs or res.outputs[-1][1] != 0:
            return
        argv = ["exec", str(entry["path"]), f"--seed={self.seed + k}"] + entry["state"]
        code, out, _err, dt = run_cli(argv)
        res.time("exec", dt, in_op=False)
        res.outputs.append(("exec", code, out))

    def check(self, k: int, res: OpResult) -> None:
        entry = self.entries[k % self.round_len]
        p = entry["program"]
        outputs = {phase: (code, out) for phase, code, out in res.outputs}
        if p.planted:
            self._check_planted(p, *outputs["check"], res)
            if outputs["project"][0] != 1:
                res.wrong.append(f"{p.name}: project of an unprojectable program exited {outputs['project'][0]}")
            return
        for phase in ("check", "project", "simulate"):
            if phase not in outputs or outputs[phase][0] != 0:
                res.failed = True
                res.wrong.append(f"{p.name}: {phase} exited {outputs.get(phase, (None,))[0]}")
                return
        self._check_projection(entry, json.loads(outputs["project"][1]), res)
        self._check_run(entry, "simulate", *outputs["simulate"], res)
        res.work = res.steps["simulate"]
        if "exec" in outputs:
            self._check_run(entry, "exec", *outputs["exec"], res)

    @staticmethod
    def _check_planted(p, code: int, out: str, res: OpResult) -> None:
        doc = json.loads(out)
        want = p.planted
        hits = [
            f for f in doc["failures"]
            if f["kind"] == "projection" and f["process"] == want["process"]
            and f["path"] == want["path"] and f["failure"] == want["failure"]
        ]
        if code != 1 or doc["ok"] or not hits:
            res.wrong.append(f"{p.name}: planted conflict not reported ({code}, {doc['failures']})")

    @staticmethod
    def _check_projection(entry: dict, doc: dict, res: OpResult) -> None:
        p, net = entry["program"], entry["net"]
        if set(doc["behaviours"]) != _program_pids(p):
            res.wrong.append(f"{p.name}: projected processes {sorted(doc['behaviours'])}")
        for pid, text in doc["behaviours"].items():
            if parse_behaviour(text) != net.net.get(pid):
                res.wrong.append(f"{p.name}: behaviour of {pid} does not parse back")
        for key, text in doc["procedures"].items():
            name, _, pid = key.partition("@")
            if parse_behaviour(text) != net.procs.get((name, pid)):
                res.wrong.append(f"{p.name}: procedure {key} does not parse back")

    @staticmethod
    def _check_run(entry: dict, phase: str, code: int, out: str, res: OpResult) -> None:
        p, net = entry["program"], entry["net"]
        store, steps = entry["expected"]
        lines = [json.loads(line) for line in out.splitlines()]
        tail = lines[-1] if lines else {}
        records = lines[1:-1]
        res.steps[phase] = len(records)
        if code != 0 or tail.get("outcome") != "terminated":
            res.failed = True
            res.wrong.append(f"{p.name}: {phase} exited {code}, {tail.get('outcome')}")
            return
        if len(records) != steps:
            res.wrong.append(f"{p.name}: {phase} took {len(records)} steps, expected {steps}")
        if tail["finalState"] != oracle.store_json(store):
            res.wrong.append(f"{p.name}: {phase} final store {tail['finalState']}")
        if tail["finalDigest"] != oracle.store_digest(store):
            res.wrong.append(f"{p.name}: {phase} final digest {tail['finalDigest']}")
        s0 = State(p.state)
        pre = state_digest(s0)
        trace = []
        for i, r in enumerate(records):
            rich = _rich(r["richLabel"])
            trace.append(TraceRecord(i, rich, forget(rich), label_pids(rich), pre, r["stateDigest"]))
            pre = r["stateDigest"]
        report = ExecutionReport(tuple(trace), _state(tail["finalState"]), Network(), "terminated")
        verdict = validate_trace(net, s0, report)
        if not verdict.ok:
            res.wrong.append(f"{p.name}: {phase} trace does not replay at {verdict.index}: {verdict.reason}")


# ---------------------------------------------------------------------------
# algebra


class Algebra(Workload):
    """A block of rows of the depth-3 behaviour space against the whole space."""

    ROWS = 16
    SAMPLE = 64  # pairs per operation compared with the reference merge

    def __init__(self, seed: int, outdir: Path) -> None:
        self.space = inputs.build("algebra", seed)["space"]
        order = list(range(len(self.space)))
        random.Random(f"algebra/{seed}").shuffle(order)
        self.order = order
        self.rng = random.Random(f"algebra-sample/{seed}")

    def block(self, k: int) -> list:
        n = len(self.order)
        return [self.space[self.order[(k * self.ROWS + i) % n]] for i in range(self.ROWS)]

    def op(self, k: int) -> OpResult:
        rows = self.block(k)
        space = self.space
        xmerge, xmore, undefined = merge.xmerge, pruning.xmore_branches, merge.UNDEFINED
        bad = 0
        t0 = time.perf_counter()
        for a in rows:
            if xmerge(a, a) != a:
                bad += 1
            for b in space:
                m = xmerge(a, b)
                n = xmerge(b, a)
                if (m is not n) and (m is undefined or n is undefined or m != n):
                    bad += 1
                if xmore(a, b) != (m is a or m == a):
                    bad += 1
        dt = time.perf_counter() - t0
        res = OpResult(work=len(rows) * len(space))
        res.time("laws", dt)
        if bad:
            res.wrong.append(f"block {k}: {bad} law violations")
        return res

    def check(self, k: int, res: OpResult) -> None:
        rows, space = self.block(k), self.space
        xmerge, xmore = merge.xmerge, pruning.xmore_branches
        for _ in range(self.SAMPLE):
            a, b = self.rng.choice(rows), self.rng.choice(space)
            pa, pb = oracle.plain(a), oracle.plain(b)
            if oracle.plain(xmerge(a, b)) != oracle.ref_merge(pa, pb):
                res.wrong.append(f"block {k}: merge of {a!r} and {b!r} differs from the reference")
            if xmore(a, b) != oracle.ref_more(pa, pb):
                res.wrong.append(f"block {k}: preorder on {a!r}, {b!r} differs from the reference")

    def passes(self, k: int) -> tuple:
        """Seconds per pair of the block through xmerge alone, then xmore alone."""
        rows, space = self.block(k), self.space
        xmerge, xmore = merge.xmerge, pruning.xmore_branches
        t0 = time.perf_counter()
        for a in rows:
            for b in space:
                xmerge(a, b)
        t1 = time.perf_counter()
        for a in rows:
            for b in space:
                xmore(a, b)
        t2 = time.perf_counter()
        pairs = len(rows) * len(space)
        return (t1 - t0) / pairs, (t2 - t1) / pairs


WORKLOADS = {"verify": Verify, "compile-run": CompileRun, "algebra": Algebra}
