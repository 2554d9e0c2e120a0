"""Bounded checker for the projection correspondence theorem.

Explores the synchronous product of a choreography and its compiled
network, certifying two directions at every reached pair: every
choreography transition is matched by a network transition with the same
observable label (completeness), and vice versa (soundness).  Matching is
up to pruning: the running network may have fewer branching options than
the freshly projected choreography, because selections already made have
discarded alternatives, so the requirement is that the network after the
step still offers at least the options of the projection of the stepped
choreography.

Exploration is breadth-first with memoisation on canonical forms, so a
reported counterexample is at minimal depth; the correspondence check and
the deadlock-freedom and confluence suites share one engine, ``_explore``.  When the reachable space is
exhausted below the depth bound the certificate is total for the program;
otherwise it holds up to the bound.  Along the way the checker asserts
per-label determinism and procedure-table stability of the network
semantics, and that every network call label names the acting process;
these counts are reported in the verdict.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Tuple

from . import projection, pruning
from .chor import (
    ChorProgram,
    Choreography,
    End as ChorEnd,
    cc_check_wf,
    cc_enabled,
    chor_pids,
)
from .core import (
    EMPTY_STATE,
    ObsLabel,
    RichCall,
    State,
    forget,
    obs_label_text,
)
from .merge import UNDEFINED
from .net import Network, NetProgram, sp_enabled, sp_step


def _prunes(wider: Network, projected: Network) -> bool:
    """The invariant relation: the live network may only have extra options."""
    return pruning.net_more_branches(wider, projected)


@dataclass(frozen=True)
class Counterexample:
    """Where a check failed: the explored node and its BFS depth.

    ``config`` is the node itself: (choreography, network, state) for the
    correspondence, (choreography or network, state) for the suites.  A
    confluence failure also names the two successors that do not join.
    """

    direction: str  # completeness | soundness | locality | invariant | deadlock | confluence
    config: tuple
    depth: int
    label: Optional[ObsLabel]
    explanation: str
    successors: tuple = ()

    def __str__(self) -> str:
        lbl = f" on {obs_label_text(self.label)}" if self.label is not None else ""
        return f"{self.direction} failure at depth {self.depth}{lbl}: {self.explanation}"


@dataclass(frozen=True)
class HypothesisFailure:
    name: str
    detail: str

    def __str__(self) -> str:
        return f"{self.name}: {self.detail}"


@dataclass
class Verdict:
    status: str  # verified | verified-to-depth | counterexample | hypotheses-violated
    depth: int
    configs_explored: int = 0
    transitions_matched: int = 0
    counterexample: Optional[Counterexample] = None
    hypothesis_failures: Tuple[HypothesisFailure, ...] = ()
    determinism_checks: int = 0
    determinism_violations: int = 0
    stability_checks: int = 0
    stability_violations: int = 0
    locality_checks: int = 0
    locality_violations: int = 0

    @property
    def ok(self) -> bool:
        return self.status in ("verified", "verified-to-depth")

    def __str__(self) -> str:
        if self.status == "verified":
            return (
                f"verified (space exhausted; {self.configs_explored} configs, "
                f"{self.transitions_matched} transitions)"
            )
        if self.status == "verified-to-depth":
            return (
                f"verified to depth {self.depth} ({self.configs_explored} configs, "
                f"{self.transitions_matched} transitions)"
            )
        if self.status == "hypotheses-violated":
            body = "; ".join(str(h) for h in self.hypothesis_failures)
            return f"hypotheses violated: {body}"
        return f"counterexample: {self.counterexample}"


def check_hypotheses(
    p: ChorProgram, xs, ps
) -> Tuple[HypothesisFailure, ...]:
    """The preconditions under which the correspondence is claimed.

    Well-formedness of the program, declared-parameter coverage of every
    process the program can mention, projectability, and strong
    projectability of main at every listed process.
    """
    out: list = []
    wf = cc_check_wf(p)
    for v in wf.violations:
        name = "well-annotation" if v.rule == "undeclared-process-use" else "well-formedness"
        out.append(HypothesisFailure(name, str(v)))
    if not wf.ok:
        return tuple(out)
    vars_of = lambda name: p.procs[name].params if name in p.procs else ()
    ps_set = set(ps)
    for pid in sorted(chor_pids(p.main, vars_of) - ps_set):
        out.append(
            HypothesisFailure("pid-coverage", f"process {pid} of main not in ps")
        )
    for name in sorted(xs):
        d = p.procs.get(name)
        if d is None:
            out.append(HypothesisFailure("pid-coverage", f"procedure {name} undefined"))
            continue
        for pid in d.params:
            if pid not in ps_set:
                out.append(
                    HypothesisFailure(
                        "pid-coverage", f"declared process {pid} of {name} not in ps"
                    )
                )
    for f in projection.projectable(xs, ps, p):
        out.append(HypothesisFailure("projectability", str(f)))
    for pid in ps:
        if not projection.str_projectable(p.procs, p.main, pid):
            out.append(
                HypothesisFailure(
                    "strong-projectability", f"main not strongly projectable at {pid}"
                )
            )
    return tuple(out)


class _Context:
    """Per-verification immutable inputs plus the projection cache."""

    __slots__ = ("cc_procs", "sp_procs", "ps", "epp_cache")

    def __init__(self, p: ChorProgram, sp: NetProgram, ps):
        self.cc_procs = p.procs
        self.sp_procs = sp.procs
        self.ps = ps
        self.epp_cache: dict = {}

    def epp_net(self, main: Choreography) -> Optional[Network]:
        """Network of the projection of a reached choreography, or None.

        Only the network depends on the reached term; the compiled
        procedure table is fixed across transitions.
        """
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


def _explore(root, step, depth: int, verdict: Verdict) -> Verdict:
    """The breadth-first engine behind every check.

    ``step(node, d)`` does one check's work at a node reached at depth
    ``d`` and returns (successor nodes, counterexample or None).  Nodes are
    hashable and explored once each; nodes at the depth bound are checked
    but not expanded, and the verdict says whether that cut anything off.
    """
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


def _completeness(ctx: _Context, node, d: int, cc_trans, sp_trans, verdict: Verdict):
    """Match every choreography transition by a network transition.

    Returns (successor nodes, counterexample or None).
    """
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
            if not _prunes(net2, target):
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


def _soundness(ctx: _Context, node, d: int, cc_trans, sp_trans, verdict: Verdict):
    """Match every network transition by a choreography transition."""
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
            if not _prunes(net2, target):
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


def _sp_self_checks(ctx: _Context, net: Network, s: State, sp_trans, verdict: Verdict) -> None:
    """Determinism per rich label and procedure-table stability.

    Re-derives every network transition through sp_step and compares; two
    transitions with one label must agree on network and state.
    """
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


def verify_epp(
    p: ChorProgram,
    depth: int = 10,
    s0: State = EMPTY_STATE,
    xs=None,
    ps=None,
) -> Verdict:
    """Certify the correspondence for one program up to a depth bound.

    Nodes are (choreography, network, state) triples; the enabled
    transitions of both sides are derived once per node and shared by
    the self-checks, completeness and soundness.
    """
    if xs is None or ps is None:
        ixs, ips = projection.infer_params(p)
        xs = ixs if xs is None else xs
        ps = ips if ps is None else ps
    failures = check_hypotheses(p, xs, ps)
    if failures:
        return Verdict("hypotheses-violated", depth, hypothesis_failures=failures)
    sp = projection.compile_projectable(xs, ps, p)
    ctx = _Context(p, sp, ps)
    verdict = Verdict("verified", depth)
    root = (p.main, sp.net, s0)
    if not _prunes(sp.net, ctx.epp_net(p.main) or Network()):
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


# ---------------------------------------------------------------------------
# Deadlock-freedom and confluence suites


def check_deadlock_freedom(
    p: ChorProgram, depth: int = 10, s0: State = EMPTY_STATE
) -> Verdict:
    """Every reachable non-end configuration must have a transition."""

    def step(node, d):
        main, s = node
        succs = [(main2, s2) for _rich, main2, s2 in cc_enabled(p.procs, main, s)]
        if not succs and type(main) is not ChorEnd:
            why = "non-end choreography with no transition"
            return succs, Counterexample("deadlock", node, d, None, why)
        return succs, None

    return _explore((p.main, s0), step, depth, Verdict("verified", depth))


def _check_confluence(enabled_fn, root, depth: int, join_depth: int) -> Verdict:
    """From each reached node, any two one-step successors must reach a
    common node within ``join_depth`` steps each."""
    verdict = Verdict("verified", depth)

    def step(node, d):
        succs = enabled_fn(node)
        # Configurations are not orderable; dedupe preserving first occurrence.
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


def _joins(enabled_fn, a, b, join_depth: int) -> bool:
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


def check_cc_confluence(
    p: ChorProgram, depth: int = 8, s0: State = EMPTY_STATE, join_depth: int = 4
) -> Verdict:
    def enabled_fn(key):
        main, s = key
        return [(m2, s2) for _t, m2, s2 in cc_enabled(p.procs, main, s)]

    return _check_confluence(enabled_fn, (p.main, s0), depth, join_depth)


def check_sp_confluence(
    p: NetProgram, depth: int = 8, s0: State = EMPTY_STATE, join_depth: int = 4
) -> Verdict:
    def enabled_fn(key):
        net, s = key
        return [(n2, s2) for _t, n2, s2 in sp_enabled(p.procs, net, s)]

    return _check_confluence(enabled_fn, (p.net, s0), depth, join_depth)
