"""Command-line driver.

Subcommands cover the whole pipeline: static checking, projection to
behaviour files, interpretation of either calculus, concurrent execution,
and bounded verification.

Every subcommand goes through one gate.  Its first level is
well-formedness; its second, reached only by well-formed programs, is
projectability, checked by compiling the program once, and the
compiled network is what ``project``, ``simulate`` and ``exec`` go on
with.  ``check`` reports the gate's failures on stdout;
``project``, ``simulate`` and ``exec`` need both levels, ``run`` and
``verify`` only the first (``verify`` reports projectability as a
hypothesis of the correspondence), and all five print the failures on
stderr and exit 1 without going further.

``exec`` replays every run it reports through ``validate_trace``.

Exit codes: 0 success, 1 gate or verify failures, abnormal run outcomes,
runs that do not replay, or ``project`` refusing a program with a
process named ``procs`` (its behaviour file would be the procedure
table), 2 usage or parse errors, 3 input nested too deeply for the
recursive parser and analyses.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path as FsPath
from typing import List, Optional, Tuple

from .chor import cc_check_wf, cc_run
from .checker import (
    SuccessorTable,
    check_cc_confluence,
    check_deadlock_freedom,
    check_sp_confluence,
    verify_epp,
)
from .core import State, TraceRecord, obs_label_text, rich_label_text, state_digest
from .net import sp_run
from .projection import ProjectionError, epp, infer_params
from .runtime import RuntimeConfig, execute, validate_trace
from .syntax import ParseError, SourceUnit, is_name, parse, print_behaviour

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# Shared helpers


def _load(path: str) -> SourceUnit:
    text = FsPath(path).read_text(encoding="utf-8")
    return parse(text, path)


_INTEGER = re.compile(r"-?[0-9]+")  # the grammar's literals, negated or not


def _parse_state(pairs: Optional[List[str]]) -> State:
    """--state entries look like pid.var=value: two names the parser
    accepts and an integer literal, optionally negated."""
    entries = {}
    for raw in pairs or []:
        key, sep, value = raw.partition("=")
        pid, dot, var = key.partition(".")
        if not (sep and dot and is_name(pid) and is_name(var) and _INTEGER.fullmatch(value)):
            raise argparse.ArgumentTypeError(
                f"bad --state entry {raw!r}, expected pid.var=value"
            )
        entries[(pid, var)] = int(value)
    return State(entries)


def _print_doc(args, **fields) -> None:
    """Print a subcommand's --json document: format, file, then ``fields``."""
    print(json.dumps({"format": FORMAT_VERSION, "file": args.file, **fields}, indent=2))


def _record_json(r: TraceRecord) -> dict:
    return {
        "step": r.step,
        "richLabel": rich_label_text(r.rich),
        "label": obs_label_text(r.label),
        "actors": list(r.actors),
        "stateDigest": r.post_digest,
    }


def _emit_trace(trace, outcome: str, final_state: State, as_json: bool):
    """Print a run as JSONL (header, records, outcome line) or one document."""
    records = [_record_json(r) for r in trace]
    tail = {
        "outcome": outcome,
        "finalState": {f"{pid}.{var}": value for (pid, var), value in final_state.items()},
        "finalDigest": state_digest(final_state),
    }
    if as_json:
        print(json.dumps({"format": FORMAT_VERSION, "trace": records, **tail}, indent=2))
    else:
        lines = [{"format": FORMAT_VERSION}, *records, tail]
        print("\n".join(map(json.dumps, lines)))


def _failure(unit: SourceUnit, head: dict, path, tail: dict, message: str) -> dict:
    """One gate failure entry: ``head``, the program path and its span,
    ``tail``, then the text, ``message`` after the span's location."""
    sp = unit.span_for(tuple(path))
    if sp is None:
        span, loc = None, unit.path
    else:
        span = {"line": sp.line, "col": sp.col, "endLine": sp.end_line, "endCol": sp.end_col}
        loc = f"{unit.path}:{sp.line}:{sp.col}"
    return {**head, "path": list(path), "span": span, **tail, "text": f"{loc}: {message}"}


def _gate(unit: SourceUnit, compile: bool) -> Tuple[List[dict], object, tuple]:
    """The gate's failure entries, what a subcommand goes on with, and the
    pids it was compiled for.

    The first level is well-formedness, and past it the program goes on.
    With ``compile``, the second level is projectability, which only
    makes sense on well-formed programs and is checked by compiling with
    the inferred procedure names and pids; past it the compiled network
    program goes on.  Nothing goes on (None) from a refused program, and
    the pids are empty unless the program was compiled.
    """
    failures = [
        _failure(
            unit, {"kind": "well-formedness", "rule": v.rule}, v.path,
            {"detail": v.detail}, f"[{v.rule}] {v.detail}",
        )
        for v in cc_check_wf(unit.program)
    ]
    if failures:
        return failures, None, ()
    if not compile:
        return failures, unit.program, ()
    xs, ps = infer_params(unit.program)
    try:
        return failures, epp(xs, ps, unit.program), ps
    except ProjectionError as e:
        found = e.failures
    for f in found:
        entry = _failure(
            unit, {"kind": "projection", "process": f.process}, f.path,
            {"failure": f.kind, "detail": f.detail}, str(f),
        )
        if f.conflict is not None:
            left, right = map(print_behaviour, f.conflict)
            entry["conflict"] = [left, right]
            entry["text"] += f"\n  merge({left}, {right}) undefined"
        failures.append(entry)
    return failures, None, ()


def _refused(failures: List[dict]) -> bool:
    """Print the gate's failure entries on stderr; True if there are any."""
    for f in failures:
        print(f["text"], file=sys.stderr)
    return bool(failures)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_check(args) -> int:
    failures = _gate(_load(args.file), True)[0]
    ok = not failures
    if args.json:
        entries = [{k: v for k, v in f.items() if k != "text"} for f in failures]
        _print_doc(args, ok=ok, failures=entries)
    else:
        for f in failures:
            print(f["text"])
        print(f"{args.file}: {'ok' if ok else 'not projectable'}")
    return 0 if ok else 1


def _cmd_project(args) -> int:
    unit = _load(args.file)
    failures, np, ps = _gate(unit, True)
    if _refused(failures):
        return 1
    stem = FsPath(args.file).stem
    outdir = FsPath(args.outdir) if args.outdir else FsPath(args.file).parent
    procs_path = outdir / f"{stem}.procs.sp"
    if "procs" in ps:
        print(
            f"{args.file}: process procs would overwrite the procedure table {procs_path}",
            file=sys.stderr,
        )
        return 1
    outdir.mkdir(parents=True, exist_ok=True)
    behaviours = {pid: print_behaviour(np.net.get(pid)) for pid in ps}
    procedures = {
        f"{name}@{pid}": print_behaviour(body)
        for (name, pid), body in sorted(np.procs.items())
    }
    written = []
    for pid in ps:
        path = outdir / f"{stem}.{pid}.sp"
        path.write_text(
            f"// format: {FORMAT_VERSION}\n{behaviours[pid]}\n", encoding="utf-8"
        )
        written.append(str(path))
    lines = [f"// format: {FORMAT_VERSION}"]
    lines.extend(f"def {key} {{ {body} }}" for key, body in procedures.items())
    procs_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(str(procs_path))
    if args.json:
        _print_doc(args, behaviours=behaviours, procedures=procedures, written=written)
    else:
        for path in written:
            print(path)
    return 0


def _traced(args, compile: bool, run) -> int:
    """The body of ``run``, ``simulate`` and ``exec``: load the file, read
    ``--state``, pass the gate, then ``run(target, s0)``, which returns
    the run and the complaints about it.  Print the trace, then each
    complaint on stderr; only a terminated run without complaints
    succeeds."""
    unit = _load(args.file)
    s0 = _parse_state(args.state)
    failures, target, _ = _gate(unit, compile)
    if _refused(failures):
        return 1
    res, complaints = run(target, s0)
    _emit_trace(res.trace, res.outcome, res.final_state, args.json)
    for line in complaints:
        print(f"{args.file}: {line}", file=sys.stderr)
    return 0 if res.outcome == "terminated" and not complaints else 1


def _cmd_run(args) -> int:
    run = lambda p, s0: (cc_run(p, s0, policy=args.policy, fuel=args.fuel, seed=args.seed), ())
    return _traced(args, False, run)


def _cmd_simulate(args) -> int:
    run = lambda np, s0: (sp_run(np, s0, policy=args.policy, fuel=args.fuel, seed=args.seed), ())
    return _traced(args, True, run)


def _cmd_exec(args) -> int:
    def run(np, s0):
        cfg = RuntimeConfig(
            seed=args.seed, step_timeout_ms=args.timeout_ms, max_steps=args.max_steps
        )
        report = execute(np, s0, cfg)
        complaints = [] if report.error is None else [f"worker error: {report.error!r}"]
        replay = validate_trace(np, s0, report)
        if not replay.ok:
            complaints.append(f"run does not replay at step {replay.index}: {replay.reason}")
        return report, complaints

    return _traced(args, True, run)


def _cmd_verify(args) -> int:
    unit = _load(args.file)
    if _refused(_gate(unit, False)[0]):
        return 1
    program, depth = unit.program, args.depth
    # One table for the file: the suites after epp-theorem reuse the
    # transitions it derived.
    table = SuccessorTable(program)
    suites = [("epp-theorem", verify_epp(program, depth=depth, table=table))]
    suites.append(("deadlock-freedom", check_deadlock_freedom(program, depth=depth, table=table)))
    suites.append(("confluence-chor", check_cc_confluence(program, depth=depth, table=table)))
    if all(v.ok for _, v in suites):
        # epp-theorem passing includes the projectability hypothesis, and
        # it left the network it compiled in the table
        suites.append(("confluence-net", check_sp_confluence(table.net, depth=depth, table=table)))
    ok = all(v.ok for _, v in suites)
    if args.json:
        _print_doc(args, ok=ok, suites={
            name: {
                "status": v.status,
                "configs": v.configs_explored,
                "transitions": v.transitions_matched,
                "detail": str(v),
                "successorsDerived": v.successors_derived,
                "successorsReused": v.successors_reused,
            }
            for name, v in suites
        })
    else:
        for name, v in suites:
            print(f"{name}: {v}")
        print(f"{args.file}: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Argument parsing


def _int_at_least(least: int):
    """An argparse type: an integer no smaller than ``least``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports a ValueError as "invalid int value"
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call in a process and shared after
    that, so callers must not change it.  Parsing leaves nothing behind
    in it: every ``parse_args`` starts from the declared defaults."""
    parser = argparse.ArgumentParser(
        prog="chorkit", description="choreography compiler toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="well-formedness and projectability")
    sp.set_defaults(fn=_cmd_check)

    sp = sub.add_parser("project", help="compile to per-process behaviour files")
    sp.add_argument("-o", "--outdir", default=None)
    sp.set_defaults(fn=_cmd_project)

    runs = [
        ("run", "interpret the choreography", _cmd_run),
        ("simulate", "project, then interpret the network", _cmd_simulate),
        ("exec", "project, then execute concurrently", _cmd_exec),
    ]
    for name, about, fn in runs:
        sp = sub.add_parser(name, help=about)
        sp.add_argument("--state", action="append", metavar="PID.VAR=VALUE")
        sp.add_argument("--seed", type=int, default=0)
        if name == "exec":
            sp.add_argument("--timeout-ms", type=_int_at_least(1), default=2000)
            sp.add_argument("--max-steps", type=_int_at_least(1), default=10000)
        else:
            sp.add_argument("--fuel", type=_int_at_least(0), default=1000)
            sp.add_argument("--policy", choices=("first", "random"), default="first")
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("verify", help="bounded correspondence checking")
    sp.add_argument("--depth", type=_int_at_least(0), default=10)
    sp.set_defaults(fn=_cmd_verify)

    for action in sub.choices.values():
        action.add_argument("--json", action="store_true")
        action.add_argument("file")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.fn(args)
    except (ParseError, UnicodeDecodeError) as e:
        print(f"{args.file}: {e}", file=sys.stderr)
        return 2
    except (argparse.ArgumentTypeError, OSError) as e:
        print(str(e), file=sys.stderr)
        return 2
    except RecursionError:
        print(f"{args.file}: input too deeply nested", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
