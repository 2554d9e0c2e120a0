"""A frozen copy of ``checker.verify_epp`` as it was before the two
directions shared one pairing per configuration.

Completeness scans the network transitions for a partner of each
choreography transition, and soundness scans the other way, re-checking
state, projectability and pruning for every pair and building the same
successors a second time.  Slow but plain; the differential tests in
``test_checker.py`` hold the live checker to it.

The engine, the projection cache and the hypotheses are the live ones,
and ``_prunes`` is looked up on the live module at call time, so a
monkeypatched seam reaches both checkers.
"""

from chorkit import checker, projection
from chorkit.checker import Counterexample, Verdict, _Context, _explore, check_hypotheses
from chorkit.chor import cc_enabled
from chorkit.core import EMPTY_STATE, RichCall, forget
from chorkit.net import NetProgram, sp_enabled, sp_step


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


def reference_verify_epp(p, depth=10, s0=EMPTY_STATE):
    xs, ps = projection.infer_params(p)
    failures = check_hypotheses(p, xs, ps)
    if failures:
        return Verdict("hypotheses-violated", depth, hypothesis_failures=failures)
    sp = projection.compile_projectable(xs, ps, p)
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
