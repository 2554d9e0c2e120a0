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

Each observable label names its acting process and a network has at most
one transition per acting process, so a label has at most one network
partner.  Completeness pairs each choreography transition with that
partner and checks state and pruning for the pair; once it has passed,
soundness reduces to label inclusion, since every network transition
whose label the choreography also offers has just been checked.

Projecting each reached choreography is incremental.  One ``verify_epp``
call keeps one ``bproj`` memo, keyed by node identity and process, that
answers only for the very node it stored and keeps that node alive.
Checking the projectability hypothesis compiles the program once,
through that memo, and the network it compiles is the initial one.  A
step rebuilds only the part of the term in front of the action it
takes, so the successor is projected only there, and every other
behaviour comes back as the object already projected, which is often
the live network's own: the pruning check relates a process whose two
behaviours are one object by reflexivity, without walking them.  The
memo lives for one call, so a projection seam patched between calls is
always seen.

Exploration is breadth-first with memoisation on canonical forms, so a
reported counterexample is at minimal depth; the correspondence check and
the deadlock-freedom and confluence suites share one engine, ``_explore``.
They also share one ``SuccessorTable`` per program, which derives the
enabled transitions of each reached (choreography, state) and (network,
state) once: ``chorkit verify`` builds one per file and passes it to all
four suites, so the later suites and the confluence joins mostly reuse
what ``verify_epp`` derived; a suite called without one builds its own.
When the reachable space is exhausted below the depth bound the
certificate is total for the program; otherwise it holds up to the bound.
Along the way the checker asserts per-label determinism and
procedure-table stability of the network semantics, and that every
network call label names the acting process; these counts are reported
in the verdict.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Tuple

from . import projection, pruning
from .chor import (
    ChorProgram,
    Choreography,
    End as ChorEnd,
    cc_check_wf,
    cc_enabled,
    program_pids,
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
    # correspondence: one per matched transition per direction; confluence: pairs checked
    transitions_matched: int = 0
    counterexample: Optional[Counterexample] = None
    hypothesis_failures: Tuple[HypothesisFailure, ...] = ()
    determinism_checks: int = 0
    determinism_violations: int = 0
    stability_checks: int = 0
    stability_violations: int = 0
    locality_checks: int = 0
    locality_violations: int = 0
    # What the exploration cost the successor table: transition lists it
    # derived and lists it served again.  Not part of the verdict, which
    # is the same whether the table started empty or not.
    successors_derived: int = field(default=0, compare=False)
    successors_reused: int = field(default=0, compare=False)

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


def check_hypotheses(p: ChorProgram, xs, ps) -> Tuple[HypothesisFailure, ...]:
    """The preconditions under which the correspondence is claimed."""
    return _hypotheses(p, xs, ps, {})[0]


def _hypotheses(p: ChorProgram, xs, ps, memo: dict):
    """The hypothesis failures, and the network program compiled on the
    way (None unless the program is projectable).

    Well-formedness of the program, projectability (checked by compiling
    with ``projection.epp`` through ``memo``; its coverage conjuncts ask
    that ``xs`` and ``ps`` name every procedure and process the program
    can reach), and strong projectability of main at every listed
    process, which reads main's projections back from the same memo.
    """
    out: list = []
    wf = cc_check_wf(p)
    for v in wf.violations:
        name = "well-annotation" if v.rule == "undeclared-process-use" else "well-formedness"
        out.append(HypothesisFailure(name, str(v)))
    if not wf.ok:
        return tuple(out), None
    try:
        sp = projection.epp(xs, ps, p, memo)
    except projection.ProjectionError as e:
        sp = None
        out.extend(HypothesisFailure("projectability", str(f)) for f in e.failures)
    for pid in ps:
        if not projection.str_projectable(p.procs, p.main, pid, memo):
            out.append(
                HypothesisFailure(
                    "strong-projectability", f"main not strongly projectable at {pid}"
                )
            )
    return tuple(out), sp


class _Context:
    """Per-verification immutable inputs plus the projection caches: the
    network of each reached choreography, and the call's ``bproj`` memo."""

    __slots__ = ("cc_procs", "sp_procs", "ps", "epp_cache", "memo")

    def __init__(self, p: ChorProgram, sp: NetProgram, ps, memo: dict):
        self.cc_procs = p.procs
        self.sp_procs = sp.procs
        self.ps = ps
        self.epp_cache: dict = {}
        self.memo = memo

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
            b = projection.bproj(self.cc_procs, main, pid, self.memo)
            if b is UNDEFINED:
                self.epp_cache[main] = _NOT_PROJECTABLE
                return None
            entries.append((pid, b))
        net = Network(entries)
        self.epp_cache[main] = net
        return net


_NOT_PROJECTABLE = object()


class SuccessorTable:
    """The enabled transitions of one program's configurations, each
    derived once.

    ``cc((choreography, state))`` memoises ``cc_enabled`` over the
    choreography program's procedures, with the walk stopped once every
    process of the program is blocked; ``sp((network, state))`` memoises
    ``sp_enabled`` over the network program's; ``verify_epp`` stores the
    network program it compiles in ``net``.  A table serves one program
    for one ``chorkit verify`` run, and the lists it hands out are shared,
    so callers must not mutate them.  ``derived`` and ``reused`` count the
    lists computed and the lists served again.
    """

    __slots__ = ("chor", "net", "derived", "reused", "_cc", "_sp", "_pids")

    def __init__(self, chor: Optional[ChorProgram] = None, net: Optional[NetProgram] = None):
        self.chor = chor
        self.net = net
        self.derived = 0
        self.reused = 0
        self._cc: dict = {}
        self._sp: dict = {}
        self._pids = None if chor is None else program_pids(chor)

    def cc(self, key: tuple) -> list:
        trans = self._cc.get(key)
        if trans is None:
            main, s = key
            trans = self._cc[key] = cc_enabled(
                self.chor.procs, main, s, frozenset(), self._pids
            )
            self.derived += 1
        else:
            self.reused += 1
        return trans

    def sp(self, key: tuple) -> list:
        trans = self._sp.get(key)
        if trans is None:
            trans = self._sp[key] = sp_enabled(self.net.procs, *key)
            self.derived += 1
        else:
            self.reused += 1
        return trans


def _explore(root, step, depth: int, verdict: Verdict, table: SuccessorTable) -> Verdict:
    """The breadth-first engine behind every check.

    ``step(node, d)`` does one check's work at a node reached at depth
    ``d`` and returns (successor nodes, counterexample or None).  Nodes are
    hashable and explored once each; nodes at the depth bound are checked
    but not expanded, and the verdict says whether that cut anything off,
    and how many transition lists ``table`` derived and reused meanwhile.
    """
    derived, reused = table.derived, table.reused
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
            break
        if d >= depth:
            if succs:
                truncated = True
            continue
        for succ in succs:
            if succ not in seen:
                seen.add(succ)
                queue.append((succ, d + 1))
    else:
        verdict.status = "verified-to-depth" if truncated else "verified"
    verdict.successors_derived = table.derived - derived
    verdict.successors_reused = table.reused - reused
    return verdict


def _completeness(ctx: _Context, node, d: int, cc_trans, index: dict, verdict: Verdict):
    """Match every choreography transition by its one network partner.

    ``index`` maps each observable label to the network transition that
    carries it.  Returns (successor nodes, counterexample or None).
    """
    succs = []
    for rich_cc, main2, s2 in cc_trans:
        obs = forget(rich_cc)
        target = ctx.epp_net(main2)
        partner = index.get(obs)
        if target is None:
            why = "stepped choreography is no longer projectable"
        elif partner is None:
            why = "no network transition has this label"
        elif partner[2] != s2:
            why = "candidate changes the state differently"
        elif not _prunes(partner[1], target):
            why = "candidate network does not cover the projection of the successor"
        else:
            verdict.transitions_matched += 1
            succs.append((main2, partner[1], s2))
            continue
        return succs, Counterexample("completeness", node, d, obs, why)
    return succs, None


def _soundness(node, d: int, cc_trans, sp_trans, verdict: Verdict):
    """Every network transition must be local and carry a choreography label.

    Completeness has already checked each such transition against its one
    choreography partner.  Returns a counterexample or None.
    """
    cc_labels = {forget(rich) for rich, _main2, _s2 in cc_trans}
    for rich_sp, _net2, _s2 in sp_trans:
        obs = forget(rich_sp)
        if type(rich_sp) is RichCall:
            verdict.locality_checks += 1
            name = rich_sp.proc
            if not (isinstance(name, tuple) and name[1] == rich_sp.pid):
                verdict.locality_violations += 1
                why = f"call label names {name!r} but {rich_sp.pid} acts"
                return Counterexample("locality", node, d, obs, why)
        if obs not in cc_labels:
            why = "no choreography transition has this label"
            return Counterexample("soundness", node, d, obs, why)
        verdict.transitions_matched += 1
    return None


def _sp_self_checks(ctx: _Context, net: Network, s: State, sp_trans, verdict: Verdict) -> dict:
    """Determinism per observable label and procedure-table stability.

    Returns the index of the network transitions by observable label.  A
    label that repeats is a determinism violation and keeps its first
    transition; each distinct label is re-derived once through sp_step.
    """
    program = NetProgram(ctx.sp_procs, net)
    index: dict = {}
    for tr in sp_trans:
        rich = tr[0]
        obs = forget(rich)
        if obs in index:
            verdict.determinism_violations += 1
            continue
        index[obs] = tr
        verdict.determinism_checks += 1
        verdict.stability_checks += 1
        stepped, s2 = sp_step(program, s, rich)
        if stepped.procs is not ctx.sp_procs or (stepped.net, s2) != tr[1:]:
            verdict.stability_violations += 1
    return index


def verify_epp(
    p: ChorProgram,
    depth: int = 10,
    s0: State = EMPTY_STATE,
    *,
    table: Optional[SuccessorTable] = None,
) -> Verdict:
    """Certify the correspondence for one program up to a depth bound.

    The hypotheses are checked against the procedure names and processes
    ``projection.infer_params`` finds; checking projectability compiles
    the network program, once.  Nodes are (choreography, network,
    state) triples.  The enabled transitions of both sides come from
    ``table`` (a fresh one for ``p`` if None), which also keeps the
    compiled network program in ``table.net``, and are paired once per
    node, by observable label: completeness looks up each choreography
    transition's one network partner, so soundness only checks that every
    network label is a choreography label (and that call labels are
    local).

    The call creates one ``bproj`` memo, keyed by ``(id(node), pid)``,
    that compiles the initial network and projects every reached
    choreography; it answers only when its stored node is the queried
    node, and dies with the call.
    """
    xs, ps = projection.infer_params(p)
    memo: dict = {}
    failures, sp = _hypotheses(p, xs, ps, memo)
    if failures:
        return Verdict("hypotheses-violated", depth, hypothesis_failures=failures)
    if table is None:
        table = SuccessorTable(p)
    table.net = sp
    ctx = _Context(p, sp, ps, memo)
    verdict = Verdict("verified", depth)
    root = (p.main, sp.net, s0)
    if not _prunes(sp.net, ctx.epp_net(p.main)):
        why = "initial network below its own projection"
        verdict.status = "counterexample"
        verdict.counterexample = Counterexample("invariant", root, 0, None, why)
        return verdict

    def step(node, d):
        main, net, s = node
        cc_trans = table.cc((main, s))
        sp_trans = table.sp((net, s))
        index = _sp_self_checks(ctx, net, s, sp_trans, verdict)
        succs, cex = _completeness(ctx, node, d, cc_trans, index, verdict)
        if cex is None:
            cex = _soundness(node, d, cc_trans, sp_trans, verdict)
        return succs, cex

    _explore(root, step, depth, verdict, table)
    if verdict.ok and (verdict.determinism_violations or verdict.stability_violations):
        why = "network semantics violated determinism or stability"
        verdict.status = "counterexample"
        verdict.counterexample = Counterexample("invariant", root, 0, None, why)
    return verdict


# ---------------------------------------------------------------------------
# Deadlock-freedom and confluence suites


def check_deadlock_freedom(
    p: ChorProgram,
    depth: int = 10,
    s0: State = EMPTY_STATE,
    *,
    table: Optional[SuccessorTable] = None,
) -> Verdict:
    """Every reachable non-end configuration must have a transition."""
    if table is None:
        table = SuccessorTable(p)

    def step(node, d):
        succs = [tr[1:] for tr in table.cc(node)]
        if not succs and type(node[0]) is not ChorEnd:
            why = "non-end choreography with no transition"
            return succs, Counterexample("deadlock", node, d, None, why)
        return succs, None

    return _explore((p.main, s0), step, depth, Verdict("verified", depth), table)


def _check_confluence(
    enabled, root, depth: int, join_depth: int, table: SuccessorTable
) -> Verdict:
    """From each reached node, any two one-step successors must reach a
    common node within ``join_depth`` steps each.  ``enabled`` is one of
    ``table``'s two memos."""
    verdict = Verdict("verified", depth)

    def succs_fn(node):
        return [tr[1:] for tr in enabled(node)]

    def step(node, d):
        succs = succs_fn(node)
        # Configurations are not orderable; dedupe preserving first occurrence.
        distinct = list(dict.fromkeys(sk for sk in succs if sk != node))
        for i in range(len(distinct)):
            for j in range(i + 1, len(distinct)):
                verdict.transitions_matched += 1
                if not _joins(succs_fn, distinct[i], distinct[j], join_depth):
                    pair = (distinct[i], distinct[j])
                    why = f"successors do not join within {join_depth} steps"
                    return succs, Counterexample("confluence", node, d, None, why, pair)
        return succs, None

    return _explore(root, step, depth, verdict, table)


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
    p: ChorProgram,
    depth: int = 8,
    s0: State = EMPTY_STATE,
    join_depth: int = 4,
    *,
    table: Optional[SuccessorTable] = None,
) -> Verdict:
    if table is None:
        table = SuccessorTable(p)
    return _check_confluence(table.cc, (p.main, s0), depth, join_depth, table)


def check_sp_confluence(
    p: NetProgram,
    depth: int = 8,
    s0: State = EMPTY_STATE,
    join_depth: int = 4,
    *,
    table: Optional[SuccessorTable] = None,
) -> Verdict:
    """``table``, when given, must hold ``p`` as its ``net``."""
    if table is None:
        table = SuccessorTable(net=p)
    return _check_confluence(table.sp, (p.net, s0), depth, join_depth, table)
