"""Reference computations the benchmark checks chorkit's outputs against.

Nothing here imports chorkit.  The evaluator and the explorer implement
the choreography semantics afresh over the tuples of ``programs``; the
reference merge and preorder work on plain tuples converted from any
tagged tree.
"""

from __future__ import annotations

from collections import deque

from programs import eval_expr, eval_guard

# ---------------------------------------------------------------------------
# Final stores and step counts


def evaluate(p) -> tuple:
    """Run a program head first; return (final store, step count).

    Every generated program is confluent, so the final store and the
    number of transitions do not depend on the scheduler.  A call counts
    one transition per declared process entering it.
    """
    store = dict(p.state)
    steps = 0
    c = p.main
    while True:
        k = c[0]
        if k == "com":
            store[(c[3], c[4])] = eval_expr(c[2], store, c[1])
            c = c[5]
        elif k == "sel":
            c = c[4]
        elif k == "if":
            c = c[3] if eval_guard(c[2], store, c[1]) else c[4]
        elif k == "call":
            params, c = p.procs[c[1]]
            steps += len(params) - 1
        else:
            break
        steps += 1
    return {key: v for key, v in store.items() if v != 0}, steps


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def store_digest(store: dict) -> str:
    text = ";".join(f"{p}.{x}={v}" for (p, x), v in sorted(store.items()) if v != 0)
    return f"{fnv1a64(text.encode('utf-8')):016x}"


def store_json(store: dict) -> dict:
    return {f"{p}.{x}": v for (p, x), v in sorted(store.items()) if v != 0}


# ---------------------------------------------------------------------------
# Brute-force exploration (used by the benchmark's tests at small sizes)


def _pids(label) -> tuple:
    return label[1:3] if label[0] in ("com", "sel") else (label[-1],)


def _set(store: tuple, key, value) -> tuple:
    d = dict(store)
    if value:
        d[key] = value
    else:
        d.pop(key, None)
    return tuple(sorted(d.items()))


def enabled(procs, c, store: tuple) -> list:
    """Every transition of (c, store): (label, successor, store')."""
    k = c[0]
    if k == "com" or k == "sel":
        s, r = c[1], (c[3] if k == "com" else c[2])
        if k == "com":
            value = eval_expr(c[2], dict(store), s)
            out = [(("com", s, r, value), c[5], _set(store, (r, c[4]), value))]
        else:
            out = [(("sel", s, r, c[3]), c[4], store)]
        for label, c2, st2 in enabled(procs, c[-1], store):
            if s not in _pids(label) and r not in _pids(label):
                out.append((label, c[:-1] + (c2,), st2))
        return out
    if k == "if":
        taken = c[3] if eval_guard(c[2], dict(store), c[1]) else c[4]
        out = [(("cond", c[1]), taken, store)]
        other = {lab: (c2, st2) for lab, c2, st2 in enabled(procs, c[4], store)}
        for label, then2, st2 in enabled(procs, c[3], store):
            hit = other.get(label)
            if c[1] not in _pids(label) and hit is not None and hit[1] == st2:
                out.append((label, ("if", c[1], c[2], then2, hit[0]), st2))
        return out
    if k == "call" or k == "rc":
        name = c[1]
        params, body = procs[name]
        pending = params if k == "call" else c[2]
        if k == "rc":
            body = c[3]
        out = []
        for pid in pending:
            rest = tuple(q for q in pending if q != pid)
            out.append((("call", name, pid), ("rc", name, rest, body) if rest else body, store))
        if k == "rc":
            for label, b2, st2 in enabled(procs, body, store):
                if not set(_pids(label)) & set(pending):
                    out.append((label, ("rc", name, pending, b2), st2))
        return out
    return []


def reachable(p) -> int:
    """Number of reachable (choreography, store) configurations."""
    root = (p.main, tuple(sorted(p.state.items())))
    seen = {root}
    queue = deque([root])
    while queue:
        c, store = queue.popleft()
        for _label, c2, st2 in enabled(p.procs, c, store):
            if (c2, st2) not in seen:
                seen.add((c2, st2))
                queue.append((c2, st2))
    return len(seen)


# ---------------------------------------------------------------------------
# Reference merge and branching preorder

UNDEF = "undefined"


def plain(t):
    """A tagged tree as nested tuples (tag, fields...); anything else kept."""
    if isinstance(t, tuple) and hasattr(t, "_fields"):
        return (t[-1],) + tuple(plain(x) for x in t[:-1])
    if t is None or isinstance(t, (str, int, tuple)):
        return t
    return UNDEF


def ref_merge(a, b):
    """Merge as defined: equal heads merge their continuations, branchings
    union their options, anything else (or any failed part) is undefined."""
    if a == UNDEF or b == UNDEF or a[0] != b[0]:
        return UNDEF
    tag = a[0]
    if tag == "sp.end":
        return a
    if tag == "sp.call":
        return a if a[1] == b[1] else UNDEF
    if tag == "sp.branch":
        if a[1] != b[1]:
            return UNDEF
        opts = []
        for x, y in ((a[2], b[2]), (a[3], b[3])):
            m = x if y is None else y if x is None else ref_merge(x, y)
            if m == UNDEF:
                return UNDEF
            opts.append(m)
        return (tag, a[1], opts[0], opts[1])
    if tag == "sp.cond":
        if a[1] != b[1]:
            return UNDEF
        t, e = ref_merge(a[2], b[2]), ref_merge(a[3], b[3])
        return UNDEF if UNDEF in (t, e) else (tag, a[1], t, e)
    if a[1] != b[1] or a[2] != b[2]:  # send, receive, selection
        return UNDEF
    m = ref_merge(a[3], b[3])
    return UNDEF if m == UNDEF else (tag, a[1], a[2], m)


def ref_more(a, b) -> bool:
    """a equals b except that a's branchings may offer extra options."""
    if a == UNDEF or b == UNDEF:
        return a == b
    if a[0] != b[0]:
        return False
    tag = a[0]
    if tag == "sp.end":
        return True
    if tag == "sp.call":
        return a[1] == b[1]
    if tag == "sp.branch":
        return a[1] == b[1] and all(
            y is None or (x is not None and ref_more(x, y))
            for x, y in ((a[2], b[2]), (a[3], b[3]))
        )
    if tag == "sp.cond":
        return a[1] == b[1] and ref_more(a[2], b[2]) and ref_more(a[3], b[3])
    return a[1] == b[1] and a[2] == b[2] and ref_more(a[3], b[3])
