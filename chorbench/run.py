"""chorkit benchmark: one workload, one seed, one run.

    python3 chorbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run from the root of a chorkit checkout.  Prints a human-readable report,
then as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  Every timing is corrected for
machine drift with the reference kernel (see kernel.py and README.md);
the report shows raw and corrected values side by side.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

sys.dont_write_bytecode = True

import kernel  # noqa: E402

SETUP_RUNS = 11
MIN_TAIL_BEYOND = 10


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("verify", "compile-run", "algebra"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# Drift correction


def op_rates(before: list, after: list) -> list:
    """Kernel rate for each operation: the mean of the samples taken just
    before and just after it.  Drift on this machine moves within a
    second, so the adjacent samples track it best."""
    return [(b + a) / 2 for b, a in zip(before, after)]


def corrected(raw: float, rate: float) -> float:
    return raw * rate / kernel.NOMINAL_PER_S


def tail(values: list) -> tuple:
    """(percentile, value, operations beyond it): the highest multiple-of-5
    percentile, by nearest rank, with at least MIN_TAIL_BEYOND operations
    beyond it."""
    n = len(values)
    pct = 95
    while pct > 50 and n - math.ceil(n * pct / 100) < MIN_TAIL_BEYOND:
        pct -= 5
    rank = math.ceil(n * pct / 100)
    return pct, sorted(values)[rank - 1], n - rank


# ---------------------------------------------------------------------------
# Set-up time


def measure_setup(workload: str, seed: int) -> tuple:
    """Median raw and corrected set-up seconds over fresh interpreters.

    Children share a bytecode cache under out/ that an untimed first
    child fills, so every timed child imports from a warm cache whatever
    PYTHONDONTWRITEBYTECODE says.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    cmd = [sys.executable, str(BENCH / "setup_child.py"), workload, str(seed)]
    raw, fixed = [], []
    for i in range(SETUP_RUNS + 1):
        done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed: {done.stderr.strip()}")
        if i == 0:
            continue
        doc = json.loads(done.stdout.splitlines()[-1])
        raw.append(doc["seconds"])
        fixed.append(corrected(doc["seconds"], doc["rate"]))
    return statistics.median(raw), statistics.median(fixed)


# ---------------------------------------------------------------------------
# Measuring


def run_op(work, k: int, tracer=None, names=None):
    """Operation k between two kernel samples, then its untimed part and
    its checks.  Returns (result, rate before, rate after); a traced
    operation takes no samples.  An exception escaping chorkit fails the
    operation; a thread left running stops the run (kernel.sample).
    """
    from workloads import OpResult

    before = after = None
    if tracer is None:
        before = kernel.sample()
    else:
        tracer.install(names)
    try:
        try:
            res = work.op(k)
        except Exception as e:  # noqa: BLE001  (any crash is the op's outcome)
            res = OpResult(failed=True, wrong=[f"op {k}: {type(e).__name__}: {e}"])
        if tracer is None:
            after = kernel.sample()
        try:
            work.after(k, res)
        except Exception as e:  # noqa: BLE001
            res.failed = True
            res.wrong.append(f"op {k}: {type(e).__name__}: {e}")
    finally:
        if tracer is not None:
            tracer.uninstall()
    try:
        work.check(k, res)
    except Exception as e:  # noqa: BLE001
        res.failed = True
        res.wrong.append(f"op {k} check: {type(e).__name__}: {e}")
    return res, before, after


def measure(work, seconds: float, tracer=None, tracer_names=None) -> dict:
    """Run whole rounds of operations for ``seconds``.

    With a tracer, each operation runs twice, untraced then traced, so
    the two can be paired for the tracing overhead; the traced one is
    corrected with the rate of its untraced twin, as the kernel cannot
    run while wrappers are installed.
    """
    plain, traced, before, after = [], [], [], []
    start = time.perf_counter()
    k = 0
    while True:
        res, b, a = run_op(work, k)
        plain.append(res)
        before.append(b)
        after.append(a)
        if tracer is not None:
            traced.append(run_op(work, k, tracer, tracer_names)[0])
        k += 1
        if time.perf_counter() - start >= seconds and k % work.round_len == 0:
            break
    return {"plain": plain, "traced": traced, "rates": op_rates(before, after),
            "samples": before + after}


def e2e_metrics(m: dict, setup: tuple) -> tuple:
    ops, rates = m["plain"], m["rates"]
    raw_ms = [r.seconds * 1e3 for r in ops]
    fix_ms = [corrected(x, rate) for x, rate in zip(raw_ms, rates)]
    pct, tail_fix, beyond = tail(fix_ms)
    tail_raw = tail(raw_ms)[1]
    work = sum(r.work for r in ops)
    report = {
        "setup_s": (setup[1], setup[0], "s"),
        "op_ms_p50": (statistics.median(fix_ms), statistics.median(raw_ms), "ms"),
        "op_ms_tail": (tail_fix, tail_raw, "ms"),
        "work_per_s": (work / (sum(fix_ms) / 1e3), work / (sum(raw_ms) / 1e3), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), peak_rss_mb(), "MB"),
    }
    notes = {"ops": len(ops), "tail_percentile": pct, "ops_beyond_tail": beyond}
    return report, notes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def phase_metrics(ops: list, rates: list) -> dict:
    """Per-phase figures of untraced operations, drift-corrected."""

    def part_ms(name):
        vals = [corrected(r.parts[name] * 1e3, rate) for r, rate in zip(ops, rates) if name in r.parts]
        return statistics.median(vals) if vals else 0.0

    def steps_per_s(name):
        steps = sum(r.steps.get(name, 0) for r in ops)
        secs = sum(corrected(r.parts.get(name, 0.0), rate) for r, rate in zip(ops, rates))
        return steps / secs if secs else 0.0

    return {
        "phase.compile_ms_p50": (part_ms("compile"), "ms"),
        "phase.simulate_steps_per_s": (steps_per_s("simulate"), "1/s"),
        "phase.exec_steps_per_s": (steps_per_s("exec"), "1/s"),
        "verify.chain_ms": (part_ms("chain"), "ms"),
        "verify.wide_ms": (part_ms("wide"), "ms"),
    }


LAYER_TIMES = [
    ("checker.verify_epp_ms", "checker.verify_epp"),
    ("checker.deadlock_ms", "checker.deadlock"),
    ("checker.cc_confluence_ms", "checker.cc_confluence"),
    ("checker.sp_confluence_ms", "checker.sp_confluence"),
    ("chor.cc_enabled_ms", "chor.cc_enabled"),
    ("net.sp_enabled_ms", "net.sp_enabled"),
    ("projection.bproj_ms", "projection.bproj"),
    ("projection.projectable_ms", "projection.projectable"),
    ("projection.epp_ms", "projection.epp"),
    ("pruning.net_more_branches_ms", "pruning.net_more_branches"),
    ("merge.xmerge_ms", "merge.xmerge"),
    ("merge.collapse_ms", "merge.collapse"),
    ("core.state_set_ms", "core.state_set"),
    ("core.state_digest_ms", "core.state_digest"),
    ("syntax.parse_ms", "syntax.parse"),
    ("syntax.print_ms", "syntax.print"),
    ("chor.wf_ms", "chor.wf"),
    ("net.sp_run_ms", "net.sp_run"),
    ("runtime.execute_ms", "runtime.execute"),
    ("runtime.wait_ms", "runtime.wait"),
    ("cli.emit_ms", "cli.emit"),
]
LAYER_CALLS = [
    ("checker.joins_calls", "checker.joins"),
    ("chor.cc_enabled_calls", "chor.cc_enabled"),
    ("net.sp_enabled_calls", "net.sp_enabled"),
    ("projection.bproj_calls", "projection.bproj"),
    ("merge.xmerge_calls", "merge.xmerge"),
    ("core.state_set_calls", "core.state_set"),
    ("core.state_digest_calls", "core.state_digest"),
]


def layer_metrics(workload: str, work, m: dict, tracer, space_ms: float) -> dict:
    traced, n = m["traced"], len(m["traced"])
    # Busy time of a layer per traced operation, at the untraced ops' rate.
    rate = statistics.median(m["rates"])
    out = {}
    for metric, name in LAYER_TIMES:
        out[metric] = (corrected(tracer.busy.get(name, 0.0) * 1e3, rate) / n, "ms")
    for metric, name in LAYER_CALLS:
        out[metric] = (tracer.calls.get(name, 0) / n, "count")
    lookups = tracer.calls.get("checker.epp_net", 0)
    hits = tracer.extra.get("checker.epp_cache_hits", 0)
    out["checker.configs"] = (tracer.extra.get("checker.configs", 0) / n, "count")
    out["checker.epp_cache_hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    out["runtime.steps"] = (tracer.extra.get("runtime.steps", 0) / n, "count")
    out.update(phase_metrics(m["plain"], m["rates"]))
    xm_ns = xo_ns = 0.0
    if workload == "algebra":
        per_pair = [work.passes(k) for k in range(3)]
        xm_ns = statistics.median(corrected(a * 1e9, rate) for a, _ in per_pair)
        xo_ns = statistics.median(corrected(b * 1e9, rate) for _, b in per_pair)
    out["algebra.xmerge_ns_per_pair"] = (xm_ns, "ns")
    out["algebra.xmore_ns_per_pair"] = (xo_ns, "ns")
    out["smallterms.space_ms"] = (space_ms, "ms")
    out["bench.ref_per_s"] = (statistics.median(m["samples"]), "1/s")
    ratios = [t.seconds / p.seconds for p, t in zip(m["plain"], traced) if p.seconds > 0]
    out["bench.trace_overhead"] = (statistics.median(ratios), "ratio")
    return out


def write_spans(tracer, path: Path) -> None:
    names = sorted(set(tracer.busy) | set(tracer.calls))
    doc = {
        "layers": {
            n: {"calls": tracer.calls.get(n, 0), "busy_s": tracer.busy.get(n, 0.0),
                "self_s": tracer.self_time.get(n, 0.0)}
            for n in names
        },
        "spans": tracer.spans,
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "chorkit" / "__init__.py").is_file():
        print(f"error: no chorkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracer as tracer_mod
    import workloads

    workdir = OUT / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup = None
        if not args.trace:
            setup = measure_setup(args.workload, args.seed)
        space_ms = 0.0
        tracer = None
        if args.trace:
            tracer = tracer_mod.Tracer()
            if args.workload == "algebra":
                from chorkit import smallterms

                t = tracer_mod.Tracer()
                t.install({"smallterms.space"})
                try:
                    rate0 = kernel.sample()
                    for _ in range(3):
                        smallterms.behaviour_space(3)
                finally:
                    t.uninstall()
                space_ms = corrected(t.busy["smallterms.space"] * 1e3 / 3, rate0)
        work = workloads.WORKLOADS[args.workload](args.seed, workdir)
        gc.collect()
        # algebra calls xmerge hundreds of millions of times: its time is
        # split per pass (Algebra.passes) instead of per call.
        names = None
        if args.workload == "algebra":
            names = {f[0] for f in tracer_mod.FUNCTIONS + tracer_mod.METHODS} - {"merge.xmerge"}
        m = measure(work, args.seconds, tracer, names)
        ops = m["plain"] + m.get("traced", [])
        failed = sum(1 for r in ops if r.failed or r.wrong)
        wrong = [w for r in ops for w in r.wrong]
        for w in wrong[:20]:
            print(f"WRONG: {w}")
        dump = {"samples": m["samples"], "ops_ms": [r.seconds * 1e3 for r in m["plain"]],
                "parts": [r.parts for r in m["plain"]], "setup": setup}
        (OUT / f"ops-{args.workload}-{args.seed}-{args.trace}.json").write_text(json.dumps(dump))
        if args.trace:
            metrics = layer_metrics(args.workload, work, m, tracer, space_ms)
            write_spans(tracer, OUT / f"spans-{args.workload}-{args.seed}.json")
            for name, (value, unit) in metrics.items():
                print(f"{name:34s} {value:14.4f} {unit}")
            final = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
        else:
            report, notes = e2e_metrics(m, setup)
            print(f"{'metric':14s} {'corrected':>14s} {'raw':>14s}")
            for name, (fixed, raw, unit) in report.items():
                print(f"{name:14s} {fixed:14.4f} {raw:14.4f} {unit}")
            print(f"bench.ref_per_s {statistics.median(m['samples']):.0f} "
                  f"(nominal {kernel.NOMINAL_PER_S:.0f})")
            print(json.dumps({"notes": notes}))
            final = {name: {"value": fixed, "unit": unit} for name, (fixed, _raw, unit) in report.items()}
        print(json.dumps({
            "correct": not wrong,
            "attempted": len(ops),
            "failed": failed,
            "metrics": final,
        }))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
