"""Tests of the benchmark itself: python3 -m pytest chorbench/tests -q"""

import random
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import programs  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402


def _texts(pool):
    return [programs.source_text(p) for p in pool]


def test_generation_is_deterministic_per_seed():
    for seed in (0, 7):
        flat = [p for pair in programs.verify_pool(seed) for p in pair]
        again = [p for pair in programs.verify_pool(seed) for p in pair]
        assert _texts(flat) == _texts(again)
        assert flat == again
        assert _texts(programs.compile_run_pool(seed)) == _texts(programs.compile_run_pool(seed))
    assert _texts(programs.compile_run_pool(1)) != _texts(programs.compile_run_pool(2))


def test_sizes_do_not_depend_on_the_seed():
    def shape(pool):
        return [(p.kind, p.configs, p.steps, oracle.evaluate(p)[1]) for p in pool]

    one = [p for pair in programs.verify_pool(1) for p in pair]
    two = [p for pair in programs.verify_pool(2) for p in pair]
    assert shape(one) == shape(two)
    one, two = ([p for p in programs.compile_run_pool(s) if not p.planted] for s in (1, 2))
    assert shape(one) == shape(two)


def _longest_path(p) -> int:
    frontier = {(p.main, tuple(sorted(p.state.items())))}
    depth = 0
    while True:
        nxt = {(c2, st2) for c, st in frontier for _l, c2, st2 in oracle.enabled(p.procs, c, st)}
        if not nxt:
            return depth
        frontier = nxt
        depth += 1


def test_closed_forms_match_brute_force():
    rng = random.Random(11)
    cases = [programs.chain("c", n, r, k, rng) for n, r, k in ((2, 1, 1), (2, 3, 2), (3, 2, 3), (4, 2, 1))]
    cases += [programs.wide("w", k, c, n, rng) for k, c, n in ((2, 0, 2), (2, 1, 1), (3, 2, 1), (3, 1, 2), (4, 2, 1))]
    cases += [programs.ring("r", 3, 4, rng)]
    for p in cases:
        assert oracle.reachable(p) == p.configs, p.params
        assert _longest_path(p) == p.steps, p.params
        assert oracle.evaluate(p)[1] == p.steps, p.params


def test_path_lengths_of_the_other_families():
    rng = random.Random(5)
    for p in (programs.loop3("l", 3, rng), programs.tree("t", 3, 4, rng), programs.planted("u", 5, rng)):
        assert _longest_path(p) == oracle.evaluate(p)[1] == p.steps
    assert oracle.evaluate(programs.loop3("l", 4, rng))[1] == 36


def test_tracer_restores_every_name():
    import chorkit.cli  # noqa: F401  (loads every module the tracer wraps)
    import chorkit.smallterms  # noqa: F401

    def snapshot():
        out = {}
        for m in tracer_mod.chorkit_modules():
            for key, value in vars(m).items():
                if callable(value):
                    out[(m.__name__, key)] = value
                if isinstance(value, type):
                    for attr, v in vars(value).items():
                        out[(m.__name__, key, attr)] = v
        return out

    before = snapshot()
    t = tracer_mod.Tracer()
    t.install()
    patched = {k for k, v in snapshot().items() if before.get(k) is not v}
    assert ("chorkit.chor", "cc_enabled") in patched
    assert ("chorkit.checker", "cc_enabled") in patched
    assert ("chorkit.projection", "xmerge") in patched
    assert ("chorkit.cli", "verify_epp") in patched
    assert ("chorkit.core", "State", "set") in patched
    t.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_counts_recursion_and_spans():
    import chorkit.cli as cli
    from chorkit.syntax import parse

    p = programs.chain("c", 2, 2, 1, random.Random(3))
    prog = parse(programs.source_text(p)).program
    t = tracer_mod.Tracer()
    t.install()
    try:
        verdict = cli.verify_epp(prog, depth=p.steps)
    finally:
        t.uninstall()
    assert verdict.configs_explored == p.configs
    assert t.extra["checker.configs"] == p.configs
    assert t.calls["chor.cc_enabled"] > p.configs  # recursion included
    assert t.busy["checker.verify_epp"] >= t.busy["chor.cc_enabled"] > 0
    ids = {s[0] for s in t.spans}
    assert all(s[4] is None or s[4] in ids for s in t.spans)


def test_reference_code_imports_nothing_from_chorkit():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "import kernel, oracle, programs; kernel.sample(1000);"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'chorkit'))"
    )
    out = subprocess.run([sys.executable, "-c", code, str(BENCH)], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_reference_merge_agrees_on_small_terms():
    from chorkit.merge import xmerge
    from chorkit.pruning import xmore_branches
    from chorkit.smallterms import behaviour_space

    space = behaviour_space(2)
    for a in space:
        for b in space:
            pa, pb = oracle.plain(a), oracle.plain(b)
            assert oracle.plain(xmerge(a, b)) == oracle.ref_merge(pa, pb)
            assert xmore_branches(a, b) == oracle.ref_more(pa, pb)


def test_digest_matches_the_documented_fnv():
    from chorkit.core import State, state_digest

    store = {("p", "x"): 3, ("q", "y"): -7, ("a", "z"): 0}
    assert oracle.store_digest(store) == state_digest(State(store))


def test_tail_keeps_ten_operations_beyond():
    for n in (40, 49, 50, 67, 200):
        pct, value, beyond = run.tail(list(range(n)))
        assert beyond >= 10 and beyond == n - 1 - value
        assert pct == 95 or n - -(-n * (pct + 5) // 100) < 10
