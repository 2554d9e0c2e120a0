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

Exploration is breadth-first with memoisation on configuration keys, so
a reported counterexample is at minimal depth.  The correspondence
check and the deadlock-freedom and confluence suites share one engine,
``_explore``, and one ``SuccessorTable`` per program, whose one memo
``at`` derives the transitions of each reached configuration of either
calculus once (``next`` gives its successor keys), and which interns
what it meets, so that every key is a tuple of ids (the rules are
stated there).  ``chorkit verify`` builds one table per file and passes
it to all four suites, so the later suites and the confluence joins
mostly reuse what ``verify_epp`` derived; a suite called without one
builds its own.  How ``verify_epp`` projects reached choreographies
incrementally, through one memo per call, is stated at ``verify_epp``.
When the reachable space is exhausted below the depth bound the
certificate is total for the program; otherwise it holds up to the
bound.  Along the way the checker asserts per-label determinism and
stability of the network semantics (``sp_step`` derives each transition
again, on its own, to the same network and store, and leaves the
procedure table alone), and that every network call label names the
acting process; these counts are reported in the verdict.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple, Optional, Tuple

from . import projection, pruning
from .chor import (
    Call,
    ChorProgram,
    Choreography,
    Cond,
    End as ChorEnd,
    Interaction,
    RunningCall,
    cc_check_wf,
    cc_enabled,
    infer_params,
)
from .core import (
    EMPTY_STATE,
    CanonicalMap,
    NotEnabledError,
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


class Counterexample(NamedTuple):
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


class HypothesisFailure(NamedTuple):
    name: str
    detail: str

    def __str__(self) -> str:
        return f"{self.name}: {self.detail}"


class Verdict:
    """What a check found, and the counts it kept on the way.

    ``status`` is verified, verified-to-depth, counterexample or
    hypotheses-violated; ``transitions_matched`` counts each matched
    transition per direction in the correspondence, and the pairs
    checked in a confluence suite.  Mutable, as the engine and the
    suites count into it, so unhashable.  The last two fields count the
    transition lists the successor table derived and served again, a
    cost that ``==`` leaves out: the verdict is the same either way.
    """

    __slots__ = (
        "status", "depth", "configs_explored", "transitions_matched", "counterexample",
        "hypothesis_failures", "determinism_checks", "determinism_violations",
        "stability_checks", "stability_violations", "locality_checks",
        "locality_violations", "successors_derived", "successors_reused",
    )
    __hash__ = None

    def __init__(
        self, status: str, depth: int, configs_explored: int = 0,
        transitions_matched: int = 0, counterexample: Optional[Counterexample] = None,
        hypothesis_failures: Tuple[HypothesisFailure, ...] = (),
        determinism_checks: int = 0, determinism_violations: int = 0,
        stability_checks: int = 0, stability_violations: int = 0,
        locality_checks: int = 0, locality_violations: int = 0,
        successors_derived: int = 0, successors_reused: int = 0,
    ) -> None:
        values = locals()
        for name in Verdict.__slots__:
            setattr(self, name, values[name])

    def __eq__(self, other) -> bool:
        if type(other) is not Verdict:
            return NotImplemented
        compared = Verdict.__slots__[:-2]
        return [getattr(self, n) for n in compared] == [getattr(other, n) for n in compared]

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in Verdict.__slots__)
        return f"Verdict({body})"

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


def check_hypotheses(p: ChorProgram, xs, ps, memo: dict):
    """The failures of the preconditions under which the correspondence
    is claimed, and the network program compiled on the way (None unless
    the program is projectable): well-formedness of the program,
    projectability (checked by compiling with ``projection.epp`` through
    ``memo``; its coverage conjuncts ask that ``xs`` and ``ps`` name
    every procedure and process the program can reach), and strong
    projectability of main at every listed process, which reads main's
    projections back from the same memo.
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
    """Per-verification immutable inputs plus the projection caches that
    ``verify_epp`` describes."""

    __slots__ = ("cc_procs", "sp_procs", "ps", "epp_cache", "memo", "covered")

    def __init__(self, p: ChorProgram, sp: NetProgram, ps, memo: dict):
        self.cc_procs = p.procs
        self.sp_procs = sp.procs
        self.ps = ps
        self.epp_cache: dict = {}
        self.memo = memo
        self.covered: dict = {}

    def epp_net(self, main: Choreography) -> Optional[Network]:
        """Network of the projection of a reached choreography, or None.

        Only the network depends on the reached term; the compiled
        procedure table is fixed across transitions.
        """
        hit = self.epp_cache.get(id(main))
        if hit is not None:
            return hit if hit is not _NOT_PROJECTABLE else None
        entries = []
        for pid in self.ps:
            b = projection.bproj(self.cc_procs, main, pid, self.memo)
            if b is UNDEFINED:
                self.epp_cache[id(main)] = _NOT_PROJECTABLE
                return None
            entries.append((pid, b))
        net = Network(entries)
        self.epp_cache[id(main)] = net
        return net


_NOT_PROJECTABLE = object()
_TERMS = frozenset((Interaction, Cond, RunningCall, Call, ChorEnd))  # choreography nodes


class SuccessorTable:
    """The enabled transitions of one program's configurations, each
    derived once, over choreography terms, stores and networks interned
    by the table.

    The table keeps one object for each class of structurally equal
    choreography terms, of equal stores (``State``) and of equal
    networks (``Network``).  ``intern`` maps each to that one, and
    ``_known`` maps the id of every object the table keeps to (object,
    interned object), keeping it alive so that its id is not reused
    while the table lives.  A term's intern key is its node's type and
    each field: the id of the child's interned term where the field is
    a choreography term, the field itself otherwise.  The table interns
    the program's main when it is built, and main is its own interned
    term.  A successor that ``cc_enabled`` derives is new only in the
    prefix it rebuilt in front of the action it took (or in a procedure
    body, on its first unfolding): its tail is a term the table has
    walked already, so ``intern`` walks only that prefix, with its own
    stack.  A map is keyed by its value, in the same dict (a term's key
    is a tuple, never equal to a map); ``_intern_map``, the one place a
    map is hashed (a network's hash reads all its behaviours), keeps the
    first of each class, and ``key`` keeps every root, so no map is
    hashed twice.  The roots and every successor the table hands out
    are interned, so a configuration's key is a tuple of ids:
    ``(term, state)``, ``(network, state)`` or, in ``verify_epp``,
    ``(term, network, state)``.  Every key of the checker (the engine's
    visited set, the transition memo, the network of each reached term,
    the coverage memo, the confluence joins) is built from these ids, so
    a lookup neither hashes nor compares a term or a map, whatever its
    size; ``config`` maps a key back to its objects.

    ``at(key)`` memoises the transitions of a configuration of either
    calculus, in one dict, since the ids of terms and networks differ: a
    network's come from ``sp_enabled`` over the network program's
    procedures, which ``verify_epp`` compiles and stores in ``net``, and
    a term's from ``cc_enabled`` over the choreography program's, with
    the walk stopped once every process of the program is blocked.
    ``next(key)`` gives a configuration's successor keys, without
    repeats, in the order of its transitions.  ``params`` holds what
    ``infer_params`` finds for the choreography program.  A table serves
    one program for one ``chorkit verify`` run, so its intern table lives
    and dies with that program; the lists it hands out are shared, so
    callers must not mutate them.  ``derived`` and ``reused`` count the
    transition lists computed and served again (a successor tuple built
    from a list counts as the list), and ``visited`` the nodes
    ``intern`` has walked.
    """

    __slots__ = (
        "chor", "net", "params", "derived", "reused", "visited",
        "_pids", "_known", "_canonical", "_at", "_next",
    )

    def __init__(self, chor: Optional[ChorProgram] = None, net: Optional[NetProgram] = None):
        self.chor = chor
        self.net = net
        self.derived = 0
        self.reused = 0
        self.visited = 0
        self._known: dict = {}  # id(object) -> (object, interned object)
        self._canonical: dict = {}  # intern key or map -> interned object
        self._at: dict = {}  # key -> transitions
        self._next: dict = {}  # key -> successor keys
        self.params = self._pids = None
        if chor is not None:
            self.params = infer_params(chor)
            self._pids = frozenset(self.params[1])
            self.intern(chor.main)

    def intern(self, c):
        """The table's one term, store or network equal to ``c``."""
        known = self._known
        hit = known.get(id(c))
        if hit is not None:
            return hit[1]
        if isinstance(c, CanonicalMap):
            return self._intern_map(c)
        canonical = self._canonical
        todo = [c]
        visited = 0
        while todo:
            n = todo[-1]
            if id(n) in known:  # reached twice before it was done
                todo.pop()
                continue
            t = type(n)
            if t not in _TERMS:
                raise TypeError(f"not a choreography: {n!r}")
            key = [t]
            for f in n:
                if type(f) in _TERMS:
                    hit = known.get(id(f))
                    if hit is None:  # intern the child first
                        todo.append(f)
                        break
                    f = id(hit[1])
                key.append(f)
            else:
                todo.pop()
                visited += 1
                known[id(n)] = (n, canonical.setdefault(tuple(key), n))
        self.visited += visited
        return known[id(c)][1]

    def _intern_map(self, m: CanonicalMap) -> CanonicalMap:
        """The table's one store or network equal to ``m``, new to ``intern``."""
        first = self._canonical.setdefault(m, m)
        if first is m:
            self._known[id(m)] = (m, m)
        return first

    def key(self, config: tuple) -> tuple:
        """A configuration's key: the ids of its interned parts, each kept."""
        known = self._known
        return tuple(id(known.setdefault(id(x), (x, self.intern(x)))[1]) for x in config)

    def config(self, key: tuple) -> tuple:
        """The configuration a key stands for."""
        known = self._known
        return tuple(known[i][1] for i in key)

    def at(self, key: tuple) -> list:
        trans = self._at.get(key)
        if trans is None:
            intern, known = self.intern, self._known
            c, s = known[key[0]][1], known[key[1]][1]
            if type(c) is Network:
                found = sp_enabled(self.net.procs, c, s)
            else:
                found = cc_enabled(self.chor.procs, c, s, frozenset(), self._pids)
            trans = self._at[key] = [(label, intern(c2), intern(s2)) for label, c2, s2 in found]
            self.derived += 1
        else:
            self.reused += 1
        return trans

    def next(self, key: tuple) -> tuple:
        nxt = self._next.get(key)
        if nxt is None:
            nxt = self._next[key] = tuple(
                dict.fromkeys((id(c2), id(s2)) for _l, c2, s2 in self.at(key))
            )
        else:
            self.reused += 1
        return nxt


def _explore(root, step, depth: int, verdict: Verdict, table: SuccessorTable) -> Verdict:
    """The breadth-first engine behind every check.

    ``step(node, d)`` does one check's work at a node reached at depth
    ``d`` and returns (successor nodes, counterexample or None).  Nodes
    are configuration keys (``SuccessorTable.key``).  Each is explored
    once; nodes at the depth bound are checked but not expanded, and the
    verdict says whether that cut anything off, and how many transition
    lists ``table`` derived and reused meanwhile.
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


def _completeness(ctx: _Context, cc_trans, cc_obs, index: dict, verdict: Verdict):
    """Match every choreography transition by its one network partner.

    ``cc_obs`` holds the observable label of each transition, and
    ``index`` maps each observable label to the network transition that
    carries it.  Both sides' successors are interned by one table, so
    equal stores are one object.  Returns (successor keys, the first
    failure's (direction, label, explanation) or None).
    """
    succs = []
    covered = ctx.covered
    for (_rich, main2, s2), obs in zip(cc_trans, cc_obs):
        target = ctx.epp_net(main2)
        partner = index.get(obs)
        if target is None:
            why = "stepped choreography is no longer projectable"
        elif partner is None:
            why = "no network transition has this label"
        elif partner[2] is not s2:
            why = "candidate changes the state differently"
        else:
            net2 = partner[1]
            pair = (id(main2), id(net2))
            ok = covered.get(pair)
            if ok is None:
                ok = covered[pair] = _prunes(net2, target)
            if ok:
                verdict.transitions_matched += 1
                succs.append((pair[0], pair[1], id(s2)))
                continue
            why = "candidate network does not cover the projection of the successor"
        return succs, ("completeness", obs, why)
    return succs, None


def _soundness(cc_obs, sp_trans, sp_obs, verdict: Verdict):
    """Every network transition must be local and carry a choreography label.

    Completeness has already checked each such transition against its one
    choreography partner.  Returns the first failure's (direction, label,
    explanation) or None.
    """
    cc_labels = set(cc_obs)
    for (rich_sp, _net2, _s2), obs in zip(sp_trans, sp_obs):
        if type(rich_sp) is RichCall:
            verdict.locality_checks += 1
            name = rich_sp.proc
            if not (isinstance(name, tuple) and name[1] == rich_sp.pid):
                verdict.locality_violations += 1
                return "locality", obs, f"call label names {name!r} but {rich_sp.pid} acts"
        if obs not in cc_labels:
            return "soundness", obs, "no choreography transition has this label"
        verdict.transitions_matched += 1
    return None


def _sp_self_checks(
    ctx: _Context, net: Network, s: State, sp_trans, sp_obs, verdict: Verdict
) -> dict:
    """Determinism per observable label and stability.

    Returns the index of the network transitions by observable label
    (``sp_obs`` holds each transition's).  A label that repeats is a
    determinism violation and keeps its first transition.  Each distinct
    label is re-derived once through ``sp_step``, which derives only the
    transition its label names and shares no code with ``sp_enabled``:
    a stability violation is a transition the two derive differently, a
    label ``sp_step`` finds not enabled, or a step after which the
    procedure table is not the compiled one.  The comparison is
    structural, since ``sp_step``'s network and store are new objects.
    """
    program = NetProgram(ctx.sp_procs, net)
    index: dict = {}
    for tr, obs in zip(sp_trans, sp_obs):
        if obs in index:
            verdict.determinism_violations += 1
            continue
        index[obs] = tr
        verdict.determinism_checks += 1
        verdict.stability_checks += 1
        try:
            stepped, s2 = sp_step(program, s, tr[0])
            stable = stepped.procs is ctx.sp_procs and (stepped.net, s2) == tr[1:]
        except NotEnabledError:
            stable = False
        if not stable:
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
    ``infer_params`` found when ``table`` (a fresh one if None, built
    for ``p``) was built; checking projectability compiles the network
    program once, into ``table.net``.  Nodes are the keys of
    (choreography, network, state) triples (see ``SuccessorTable``).
    Both sides' transitions come from ``table`` and are paired once per
    node by observable label, each label forgotten once: completeness
    looks up each choreography transition's one network partner, so
    soundness only checks that every network label is a choreography
    label (and that call labels are local).  The stability check derives
    each network transition a second time, independently, with
    ``sp_step``.

    Projection is incremental.  The call creates one ``bproj`` memo,
    keyed by ``(id(node), pid)``, that answers only for the very node it
    stored and keeps that node alive; it compiles the initial network
    and projects every reached choreography.  A step rebuilds only the
    part of the term in front of the action it takes, so the successor
    is projected only there, and every other behaviour comes back as the
    object already projected, often the live network's own, which the
    pruning check relates by reflexivity without walking it.  A prefix
    reached again along another interleaving is the interned term
    already projected, and the network of each term is cached by its id.
    Whether a successor network covers the projection of its term is
    asked once per pair of the two.  The memo and both caches die with
    the call, so a projection seam patched between calls is always seen.
    """
    if table is None:
        table = SuccessorTable(p)
    xs, ps = table.params
    main = table.intern(p.main)
    memo: dict = {}
    failures, sp = check_hypotheses(p, xs, ps, memo)
    if failures:
        return Verdict("hypotheses-violated", depth, hypothesis_failures=failures)
    table.net = sp
    ctx = _Context(p, sp, ps, memo)
    verdict = Verdict("verified", depth)
    root = table.key((main, sp.net, s0))
    if not _prunes(sp.net, ctx.epp_net(main)):
        why = "initial network below its own projection"
        verdict.status = "counterexample"
        verdict.counterexample = Counterexample("invariant", table.config(root), 0, None, why)
        return verdict

    def step(node, d):
        i, n, j = node
        cc_trans = table.at((i, j))
        sp_trans = table.at((n, j))
        sp_obs = [forget(tr[0]) for tr in sp_trans]
        index = _sp_self_checks(ctx, *table.config((n, j)), sp_trans, sp_obs, verdict)
        cc_obs = [forget(tr[0]) for tr in cc_trans]
        succs, fail = _completeness(ctx, cc_trans, cc_obs, index, verdict)
        if fail is None:
            fail = _soundness(cc_obs, sp_trans, sp_obs, verdict)
            if fail is None:
                return succs, None
        return succs, Counterexample(fail[0], table.config(node), d, *fail[1:])

    _explore(root, step, depth, verdict, table)
    if verdict.ok and (verdict.determinism_violations or verdict.stability_violations):
        why = "network semantics violated determinism or stability"
        verdict.status = "counterexample"
        verdict.counterexample = Counterexample("invariant", table.config(root), 0, None, why)
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
        succs = table.next(node)
        if not succs:
            config = table.config(node)
            if type(config[0]) is not ChorEnd:
                why = "non-end choreography with no transition"
                return succs, Counterexample("deadlock", config, d, None, why)
        return succs, None

    root = table.key((p.main, s0))
    return _explore(root, step, depth, Verdict("verified", depth), table)


def _check_confluence(root, depth: int, join_depth: int, table: SuccessorTable):
    """From each reached node, any two one-step successors must reach a
    common node within ``join_depth`` steps each."""
    verdict = Verdict("verified", depth)
    config, nxt = table.config, table.next

    def step(node, d):
        succs = nxt(node)
        distinct = [sk for sk in succs if sk != node]
        for i in range(len(distinct)):
            for j in range(i + 1, len(distinct)):
                verdict.transitions_matched += 1
                if not _joins(nxt, distinct[i], distinct[j], join_depth):
                    pair = (config(distinct[i]), config(distinct[j]))
                    why = f"successors do not join within {join_depth} steps"
                    cex = Counterexample("confluence", config(node), d, None, why, pair)
                    return succs, cex
        return succs, None

    return _explore(root, step, depth, verdict, table)


def _joins(nxt, a, b, join_depth: int) -> bool:
    """Whether ``a`` and ``b`` reach a common key within ``join_depth``
    steps each.  The two reach sets are disjoint until one side's new
    frontier meets the other's set, so only the frontier is tested."""
    if a == b:
        return True
    reach = ({a}, {b})
    frontier = [{a}, {b}]
    for _ in range(join_depth):
        for side in (0, 1):
            seen = reach[side]
            frontier[side] = {s for k in frontier[side] for s in nxt(k) if s not in seen}
            seen |= frontier[side]
            if not frontier[side].isdisjoint(reach[1 - side]):
                return True
        if not frontier[0] and not frontier[1]:
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
    root = table.key((p.main, s0))
    return _check_confluence(root, depth, join_depth, table)


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
    root = table.key((p.net, s0))
    return _check_confluence(root, depth, join_depth, table)
