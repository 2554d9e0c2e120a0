"""Command-line driver.

Subcommands cover the whole pipeline: static checking, projection to
behaviour files, interpretation of either calculus, concurrent execution,
and bounded verification.  Exit codes: 0 success, 1 check/verify failures
or abnormal run outcomes, 2 usage or parse errors, 3 input nested too
deeply for the recursive parser and analyses.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path as FsPath
from typing import Dict, List, Optional

from .chor import cc_check_wf, cc_run
from .checker import (
    check_cc_confluence,
    check_deadlock_freedom,
    check_sp_confluence,
    verify_epp,
)
from .core import State, TraceRecord, obs_label_text, rich_label_text, state_digest
from .merge import UNDEFINED
from .net import sp_run
from .projection import compile_projectable, infer_params, projectable
from .runtime import RuntimeConfig, execute
from .syntax import ParseError, SourceUnit, parse, print_behaviour

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# Shared helpers


def _load(path: str) -> SourceUnit:
    text = FsPath(path).read_text(encoding="utf-8")
    return parse(text, path)


def _parse_state(pairs: Optional[List[str]]) -> State:
    """--state entries look like pid.var=value."""
    entries = {}
    for raw in pairs or []:
        key, sep, value = raw.partition("=")
        pid, dot, var = key.partition(".")
        if not sep or not dot or not pid or not var:
            raise argparse.ArgumentTypeError(
                f"bad --state entry {raw!r}, expected pid.var=value"
            )
        try:
            entries[(pid, var)] = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad --state value {value!r}, expected an integer"
            )
    return State(entries)


def _state_json(s: State) -> Dict[str, int]:
    return {f"{pid}.{var}": value for (pid, var), value in sorted(s.items())}


def _record_json(r: TraceRecord) -> dict:
    return {
        "step": r.step,
        "richLabel": rich_label_text(r.rich),
        "label": obs_label_text(r.label),
        "actors": list(r.actors),
        "stateDigest": r.post_digest,
    }


def _emit_trace(trace, outcome: str, final_state: State, as_json: bool, extra=None):
    """Print a run as JSONL (header, records, outcome line) or one document."""
    doc = {
        "format": FORMAT_VERSION,
        "trace": [_record_json(r) for r in trace],
        "outcome": outcome,
        "finalState": _state_json(final_state),
        "finalDigest": state_digest(final_state),
    }
    if extra:
        doc.update(extra)
    if as_json:
        print(json.dumps(doc, indent=2))
        return
    print(json.dumps({"format": FORMAT_VERSION}))
    for r in trace:
        print(json.dumps(_record_json(r)))
    tail = {k: v for k, v in doc.items() if k not in ("format", "trace")}
    print(json.dumps(tail))


def _compile(unit: SourceUnit):
    """Infer parameters, check projectability and compile.

    Returns (pids, network program), or None after printing the
    projectability failures on stderr.
    """
    xs, ps = infer_params(unit.program)
    failures = projectable(xs, ps, unit.program)
    if failures:
        for f in failures:
            print(f"{_loc(unit, f.path)}: {f}", file=sys.stderr)
        return None
    return ps, compile_projectable(xs, ps, unit.program)


def _beh_text(b) -> str:
    if b is UNDEFINED:
        return "undefined"
    try:
        return print_behaviour(b)
    except Exception:
        return repr(b)


def _span_json(unit: SourceUnit, path) -> Optional[dict]:
    sp = unit.span_for(tuple(path))
    if sp is None:
        return None
    return {"line": sp.line, "col": sp.col, "endLine": sp.end_line, "endCol": sp.end_col}


def _loc(unit: SourceUnit, path) -> str:
    sp = unit.span_for(tuple(path))
    if sp is None:
        return unit.path
    return f"{unit.path}:{sp.line}:{sp.col}"


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_check(args) -> int:
    unit = _load(args.file)
    program = unit.program
    wf = cc_check_wf(program)
    failures = []
    if wf.violations:
        for v in wf.violations:
            failures.append(
                {
                    "kind": "well-formedness",
                    "rule": v.rule,
                    "path": list(v.path),
                    "span": _span_json(unit, v.path),
                    "detail": v.detail,
                    "text": f"{_loc(unit, v.path)}: [{v.rule}] {v.detail}",
                }
            )
    else:
        # Projectability only makes sense on well-formed programs.
        xs, ps = infer_params(program)
        for f in projectable(xs, ps, program):
            entry = {
                "kind": "projection",
                "process": f.process,
                "path": list(f.path),
                "span": _span_json(unit, f.path),
                "failure": f.kind,
                "detail": f.detail,
                "text": f"{_loc(unit, f.path)}: {f}",
            }
            if f.conflict is not None:
                left, right = (_beh_text(x) for x in f.conflict)
                entry["conflict"] = [left, right]
                entry["text"] += f"\n  merge({left}, {right}) undefined"
            failures.append(entry)
    ok = not failures
    if args.json:
        print(
            json.dumps(
                {
                    "format": FORMAT_VERSION,
                    "file": args.file,
                    "ok": ok,
                    "failures": [
                        {k: v for k, v in f.items() if k != "text"} for f in failures
                    ],
                },
                indent=2,
            )
        )
    else:
        for f in failures:
            print(f["text"])
        print(f"{args.file}: {'ok' if ok else 'not projectable'}")
    return 0 if ok else 1


def _cmd_project(args) -> int:
    compiled = _compile(_load(args.file))
    if compiled is None:
        return 1
    ps, np = compiled
    stem = FsPath(args.file).stem
    outdir = FsPath(args.outdir) if args.outdir else FsPath(args.file).parent
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
    procs_path = outdir / f"{stem}.procs.sp"
    lines = [f"// format: {FORMAT_VERSION}"]
    lines.extend(f"def {key} {{ {body} }}" for key, body in procedures.items())
    procs_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(str(procs_path))
    if args.json:
        print(
            json.dumps(
                {
                    "format": FORMAT_VERSION,
                    "file": args.file,
                    "behaviours": behaviours,
                    "procedures": procedures,
                    "written": written,
                },
                indent=2,
            )
        )
    else:
        for path in written:
            print(path)
    return 0


def _cmd_run(args) -> int:
    unit = _load(args.file)
    s0 = _parse_state(args.state)
    res = cc_run(unit.program, s0, policy=args.policy, fuel=args.fuel, seed=args.seed)
    _emit_trace(res.trace, res.outcome, res.final_state, args.json)
    return 0 if res.outcome == "terminated" else 1


def _cmd_simulate(args) -> int:
    unit = _load(args.file)
    s0 = _parse_state(args.state)
    compiled = _compile(unit)
    if compiled is None:
        return 1
    res = sp_run(compiled[1], s0, policy=args.policy, fuel=args.fuel, seed=args.seed)
    _emit_trace(res.trace, res.outcome, res.final_state, args.json)
    return 0 if res.outcome == "terminated" else 1


def _cmd_exec(args) -> int:
    unit = _load(args.file)
    s0 = _parse_state(args.state)
    compiled = _compile(unit)
    if compiled is None:
        return 1
    cfg = RuntimeConfig(
        seed=args.seed, step_timeout_ms=args.timeout_ms, max_steps=args.max_steps
    )
    report = execute(compiled[1], s0, cfg)
    _emit_trace(report.trace, report.outcome, report.final_state, args.json)
    return 0 if report.outcome == "terminated" else 1


def _cmd_verify(args) -> int:
    unit = _load(args.file)
    program = unit.program
    suites = [("epp-theorem", verify_epp(program, depth=args.depth))]
    suites.append(("deadlock-freedom", check_deadlock_freedom(program, depth=args.depth)))
    suites.append(("confluence-chor", check_cc_confluence(program, depth=args.depth)))
    if all(v.ok for _, v in suites):
        # epp-theorem passing includes the projectability hypothesis
        net = compile_projectable(*infer_params(program), program)
        suites.append(("confluence-net", check_sp_confluence(net, depth=args.depth)))
    ok = all(v.ok for _, v in suites)
    if args.json:
        print(
            json.dumps(
                {
                    "format": FORMAT_VERSION,
                    "file": args.file,
                    "ok": ok,
                    "suites": {
                        name: {
                            "status": v.status,
                            "configs": v.configs_explored,
                            "transitions": v.transitions_matched,
                            "detail": str(v),
                        }
                        for name, v in suites
                    },
                },
                indent=2,
            )
        )
    else:
        for name, v in suites:
            print(f"{name}: {v}")
        print(f"{args.file}: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Argument parsing


def _add_run_flags(sp) -> None:
    sp.add_argument("--state", action="append", metavar="PID.VAR=VALUE")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--fuel", type=int, default=1000)
    sp.add_argument("--policy", choices=("first", "random"), default="first")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chorkit", description="choreography compiler toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="well-formedness and projectability")
    sp.add_argument("file")
    sp.set_defaults(fn=_cmd_check)

    sp = sub.add_parser("project", help="compile to per-process behaviour files")
    sp.add_argument("file")
    sp.add_argument("-o", "--outdir", default=None)
    sp.set_defaults(fn=_cmd_project)

    sp = sub.add_parser("run", help="interpret the choreography")
    sp.add_argument("file")
    _add_run_flags(sp)
    sp.set_defaults(fn=_cmd_run)

    sp = sub.add_parser("simulate", help="project, then interpret the network")
    sp.add_argument("file")
    _add_run_flags(sp)
    sp.set_defaults(fn=_cmd_simulate)

    sp = sub.add_parser("exec", help="project, then execute concurrently")
    sp.add_argument("file")
    sp.add_argument("--state", action="append", metavar="PID.VAR=VALUE")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--timeout-ms", type=int, default=2000)
    sp.add_argument("--max-steps", type=int, default=10000)
    sp.set_defaults(fn=_cmd_exec)

    sp = sub.add_parser("verify", help="bounded correspondence checking")
    sp.add_argument("file")
    sp.add_argument("--depth", type=int, default=10)
    sp.set_defaults(fn=_cmd_verify)

    for action in sub.choices.values():
        action.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.fn(args)
    except ParseError as e:
        print(f"{args.file}: {e}", file=sys.stderr)
        return 2
    except argparse.ArgumentTypeError as e:
        print(str(e), file=sys.stderr)
        return 2
    except OSError as e:
        print(str(e), file=sys.stderr)
        return 2
    except RecursionError:
        print(f"{args.file}: input too deeply nested", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
