"""Frozen copies of the checker as it was before its suites shared
anything: ``verify_epp`` before the two directions shared one pairing per
configuration, and the deadlock-freedom and confluence suites and their
engine before they shared one successor table.

Completeness scans the network transitions for a partner of each
choreography transition, and soundness scans the other way, re-checking
state, projectability and pruning for every pair and building the same
successors a second time.  Every suite calls ``cc_enabled`` or
``sp_enabled`` afresh at each node it visits, the confluence joins
included.  Slow but plain; the differential tests in ``test_checker.py``
hold the live checker to it.

The projection context is a frozen copy too: it projects every process
over the whole reached term, without the ``bproj`` memo, so a fault in
the memoised projection shows as a difference.  The hypotheses and the
compiled network come from the two-pass copy in
``projection_reference.py``, and strong projectability from its
recursive copy there, so a fault in the one-pass compiler shows too;
well-formedness is the live one, and
``bproj`` and ``_prunes`` are looked up on the live modules at call
time, so a monkeypatched seam reaches both checkers.
"""

from collections import deque

from projection_reference import (
    reference_compile,
    reference_projectable,
    reference_str_projectable,
)

from chorkit import checker, projection
from chorkit.checker import Counterexample, HypothesisFailure, Verdict
from chorkit.chor import End as ChorEnd
from chorkit.chor import cc_check_wf, cc_enabled
from chorkit.core import EMPTY_STATE, RichCall, forget
from chorkit.merge import UNDEFINED
from chorkit.net import Network, NetProgram, sp_enabled, sp_step


class _Context:
    def __init__(self, p, sp, ps):
        self.cc_procs = p.procs
        self.sp_procs = sp.procs
        self.ps = ps
        self.epp_cache = {}

    def epp_net(self, main):
        hit = self.epp_cache.get(main)
        if hit is not None:
            return hit if hit is not _NOT_PROJECTABLE else None
        entries = []
        for pid in self.ps:
            b = projection.bproj(self.cc_procs, main, pid)
            if b is UNDEFINED:
                self.epp_cache[main] = _NOT_PROJECTABLE
                return None
            entries.append((pid, b))
        net = Network(entries)
        self.epp_cache[main] = net
        return net


_NOT_PROJECTABLE = object()


def _explore(root, step, depth, verdict):
    seen = {root}
    queue = deque(((root, 0),))
    truncated = False
    while queue:
        node, d = queue.popleft()
        verdict.configs_explored += 1
        succs, cex = step(node, d)
        if cex is not None:
            verdict.status = "counterexample"
            verdict.counterexample = cex
            return verdict
        if d >= depth:
            if succs:
                truncated = True
            continue
        for succ in succs:
            if succ not in seen:
                seen.add(succ)
                queue.append((succ, d + 1))
    verdict.status = "verified-to-depth" if truncated else "verified"
    return verdict


def _completeness(ctx, node, d, cc_trans, sp_trans, verdict):
    succs = []
    for rich_cc, main2, s2cc in cc_trans:
        obs = forget(rich_cc)
        target = ctx.epp_net(main2)
        if target is None:
            why = "stepped choreography is no longer projectable"
            return succs, Counterexample("completeness", node, d, obs, why)
        found = None
        reasons = []
        for rich_sp, net2, s2sp in sp_trans:
            if forget(rich_sp) != obs:
                continue
            if s2sp != s2cc:
                reasons.append("candidate changes the state differently")
                continue
            if not checker._prunes(net2, target):
                reasons.append(
                    "candidate network does not cover the projection of the successor"
                )
                continue
            found = (main2, net2, s2sp)
            break
        if found is None:
            why = reasons[0] if reasons else "no network transition has this label"
            return succs, Counterexample("completeness", node, d, obs, why)
        verdict.transitions_matched += 1
        succs.append(found)
    return succs, None


def _soundness(ctx, node, d, cc_trans, sp_trans, verdict):
    succs = []
    for rich_sp, net2, s2sp in sp_trans:
        obs = forget(rich_sp)
        if type(rich_sp) is RichCall:
            verdict.locality_checks += 1
            name = rich_sp.proc
            if not (isinstance(name, tuple) and name[1] == rich_sp.pid):
                verdict.locality_violations += 1
                why = f"call label names {name!r} but {rich_sp.pid} acts"
                return succs, Counterexample("locality", node, d, obs, why)
        found = None
        reasons = []
        for rich_cc, main2, s2cc in cc_trans:
            if forget(rich_cc) != obs:
                continue
            if s2cc != s2sp:
                reasons.append("candidate changes the state differently")
                continue
            target = ctx.epp_net(main2)
            if target is None:
                reasons.append("stepped choreography is no longer projectable")
                continue
            if not checker._prunes(net2, target):
                reasons.append(
                    "network after the step does not cover the projection of the successor"
                )
                continue
            found = (main2, net2, s2cc)
            break
        if found is None:
            why = reasons[0] if reasons else "no choreography transition has this label"
            return succs, Counterexample("soundness", node, d, obs, why)
        verdict.transitions_matched += 1
        succs.append(found)
    return succs, None


def _sp_self_checks(ctx, net, s, sp_trans, verdict):
    program = NetProgram(ctx.sp_procs, net)
    by_label: dict = {}
    for rich, net2, s2 in sp_trans:
        by_label.setdefault(rich, []).append((net2, s2))
    for rich, succs in by_label.items():
        verdict.determinism_checks += 1
        first = succs[0]
        if any(other != first for other in succs[1:]):
            verdict.determinism_violations += 1
        verdict.stability_checks += 1
        stepped, _s2 = sp_step(program, s, rich)
        if stepped.procs is not ctx.sp_procs or (stepped.net, _s2) != first:
            verdict.stability_violations += 1


def _hypotheses(p, xs, ps):
    out = []
    violations = cc_check_wf(p)
    for v in violations:
        name = "well-annotation" if v.rule == "undeclared-process-use" else "well-formedness"
        out.append(HypothesisFailure(name, str(v)))
    if violations:
        return tuple(out)
    for f in reference_projectable(xs, ps, p):
        out.append(HypothesisFailure("projectability", str(f)))
    for pid in ps:
        if not reference_str_projectable(p.procs, p.main, pid):
            why = f"main not strongly projectable at {pid}"
            out.append(HypothesisFailure("strong-projectability", why))
    return tuple(out)


def reference_verify_epp(p, depth=10, s0=EMPTY_STATE):
    xs, ps = projection.infer_params(p)
    failures = _hypotheses(p, xs, ps)
    if failures:
        return Verdict("hypotheses-violated", depth, hypothesis_failures=failures)
    sp = reference_compile(xs, ps, p)
    ctx = _Context(p, sp, ps)
    verdict = Verdict("verified", depth)
    root = (p.main, sp.net, s0)
    if not checker._prunes(sp.net, ctx.epp_net(p.main)):
        why = "initial network below its own projection"
        verdict.status = "counterexample"
        verdict.counterexample = Counterexample("invariant", root, 0, None, why)
        return verdict

    def step(node, d):
        main, net, s = node
        cc_trans = cc_enabled(ctx.cc_procs, main, s)
        sp_trans = sp_enabled(ctx.sp_procs, net, s)
        _sp_self_checks(ctx, net, s, sp_trans, verdict)
        succs, cex = _completeness(ctx, node, d, cc_trans, sp_trans, verdict)
        if cex is None:
            more, cex = _soundness(ctx, node, d, cc_trans, sp_trans, verdict)
            succs += more
        return succs, cex

    _explore(root, step, depth, verdict)
    if verdict.ok and (verdict.determinism_violations or verdict.stability_violations):
        why = "network semantics violated determinism or stability"
        verdict.status = "counterexample"
        verdict.counterexample = Counterexample("invariant", root, 0, None, why)
    return verdict


def reference_check_deadlock_freedom(p, depth=10, s0=EMPTY_STATE):
    def step(node, d):
        main, s = node
        succs = [(main2, s2) for _rich, main2, s2 in cc_enabled(p.procs, main, s)]
        if not succs and type(main) is not ChorEnd:
            why = "non-end choreography with no transition"
            return succs, Counterexample("deadlock", node, d, None, why)
        return succs, None

    return _explore((p.main, s0), step, depth, Verdict("verified", depth))


def _check_confluence(enabled_fn, root, depth, join_depth):
    verdict = Verdict("verified", depth)

    def step(node, d):
        succs = enabled_fn(node)
        distinct = list(dict.fromkeys(sk for sk in succs if sk != node))
        for i in range(len(distinct)):
            for j in range(i + 1, len(distinct)):
                verdict.transitions_matched += 1
                if not _joins(enabled_fn, distinct[i], distinct[j], join_depth):
                    pair = (distinct[i], distinct[j])
                    why = f"successors do not join within {join_depth} steps"
                    return succs, Counterexample("confluence", node, d, None, why, pair)
        return succs, None

    return _explore(root, step, depth, verdict)


def _joins(enabled_fn, a, b, join_depth):
    reach_a = {a}
    reach_b = {b}
    frontier_a = {a}
    frontier_b = {b}
    if reach_a & reach_b:
        return True
    for _ in range(join_depth):
        frontier_a = {
            s for k in frontier_a for s in enabled_fn(k) if s not in reach_a
        }
        reach_a |= frontier_a
        if reach_a & reach_b:
            return True
        frontier_b = {
            s for k in frontier_b for s in enabled_fn(k) if s not in reach_b
        }
        reach_b |= frontier_b
        if reach_a & reach_b:
            return True
        if not frontier_a and not frontier_b:
            return False
    return False


def reference_check_cc_confluence(p, depth=8, s0=EMPTY_STATE, join_depth=4):
    def enabled_fn(key):
        main, s = key
        return [(m2, s2) for _t, m2, s2 in cc_enabled(p.procs, main, s)]

    return _check_confluence(enabled_fn, (p.main, s0), depth, join_depth)


def reference_check_sp_confluence(p, depth=8, s0=EMPTY_STATE, join_depth=4):
    def enabled_fn(key):
        net, s = key
        return [(n2, s2) for _t, n2, s2 in sp_enabled(p.procs, net, s)]

    return _check_confluence(enabled_fn, (p.net, s0), depth, join_depth)
