"""Seeded program families, their source text and their closed forms.

Programs are plain tuples, independent of chorkit's own syntax tree:

    ("end",)
    ("com", sender, expr, receiver, var, cont)
    ("sel", sender, receiver, label, cont)
    ("if", pid, guard, then, else)
    ("call", name)

Expressions are ("lit", n), ("var", x), ("add"|"sub"|"mul", e1, e2);
guards are ("eq"|"lt"|"le", e1, e2).  A program is a ``Program`` with a
procedure table ``{name: (params, body)}`` and a main body.  Each family
records the parameters it was drawn with and the closed forms derived
from them in README.md (reachable configurations, path length).  This
module imports nothing from chorkit.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Optional, Tuple

END = ("end",)


class Program(NamedTuple):
    name: str
    kind: str
    procs: Dict[str, Tuple[tuple, tuple]]
    main: tuple
    params: dict
    # closed forms: reachable configurations (None where the family does
    # not define them) and the length of every maximal path
    configs: Optional[int]
    steps: int
    state: Dict[Tuple[str, str], int] = {}
    planted: Optional[dict] = None


def lit(n):
    return ("lit", n)


def var(x):
    return ("var", x)


def add(e, n):
    return ("add", e, lit(n))


def seq(etas, tail):
    """Chain interaction tuples (kind, ...fields) in front of ``tail``."""
    cont = tail
    for eta in reversed(etas):
        cont = eta + (cont,)
    return cont


def com(s, e, r, x):
    return ("com", s, e, r, x)


def sel(s, r, label):
    return ("sel", s, r, label)


# ---------------------------------------------------------------------------
# Printing to the .chor grammar


def expr_text(e) -> str:
    k = e[0]
    if k == "lit":
        return str(e[1])
    if k == "var":
        return e[1]
    op = {"add": "+", "sub": "-", "mul": "*"}[k]
    return f"({expr_text(e[1])} {op} {expr_text(e[2])})"


def guard_text(g) -> str:
    op = {"eq": "==", "lt": "<", "le": "<="}[g[0]]
    return f"{expr_text(g[1])} {op} {expr_text(g[2])}"


def _body_lines(c, indent: str, out: List[str]) -> None:
    while True:
        k = c[0]
        if k == "com":
            out.append(f"{indent}{c[1]}.{expr_text(c[2])} -> {c[3]}.{c[4]};")
            c = c[5]
        elif k == "sel":
            out.append(f"{indent}{c[1]} -> {c[2]}[{c[3]}];")
            c = c[4]
        elif k == "if":
            out.append(f"{indent}if {c[1]}.{guard_text(c[2])} then {{")
            _body_lines(c[3], indent + "  ", out)
            out.append(f"{indent}}} else {{")
            _body_lines(c[4], indent + "  ", out)
            out.append(f"{indent}}}")
            return
        elif k == "call":
            out.append(f"{indent}call {c[1]}")
            return
        else:
            out.append(f"{indent}end")
            return


def source_text(p: Program) -> str:
    out = ["// format: 1", f"// {p.name}: {p.kind} {p.params}", ""]
    for name, (params, body) in p.procs.items():
        out.append(f"def {name}({', '.join(params)}) {{")
        _body_lines(body, "  ", out)
        out.append("}")
        out.append("")
    out.append("main {")
    _body_lines(p.main, "  ", out)
    out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Families


def _ring_etas(pids, rounds: int, rng: random.Random) -> list:
    """Token passing p0 -> p1 -> ... -> p0, ``rounds`` times round."""
    n = len(pids)
    return [
        com(pids[i % n], add(var("t"), rng.randint(1, 9)), pids[(i + 1) % n], "t")
        for i in range(n * rounds)
    ]


def _loop2(a: str, b: str, rounds: int):
    """Counter loop over two processes; entry to each round is gradual."""
    body = seq(
        [com(a, add(var("n"), 1), b, "m"), com(b, var("m"), a, "n")],
        (
            "if",
            a,
            ("lt", var("n"), lit(rounds)),
            seq([sel(a, b, "left")], ("call", "Loop")),
            seq([sel(a, b, "right")], END),
        ),
    )
    return (a, b), body


def chain(name: str, procs_n: int, rounds: int, loops: int, rng) -> Program:
    """A token ring of P*R interactions, then a Loop of N rounds.

    The Loop runs on the ring's last two processes, so neither can enter
    it before the ring is done and the space stays a single path except
    for the two orders of each gradual call entry.
    Configurations: P*R + 7N + 1.  Path length: P*R + 6N.
    """
    pids = [f"p{i}" for i in range(procs_n)]
    main = seq(_ring_etas(pids, rounds, rng), ("call", "Loop"))
    pr = procs_n * rounds
    return Program(
        name,
        "chain",
        {"Loop": _loop2(pids[-1], pids[0], loops)},
        main,
        {"P": procs_n, "R": rounds, "N": loops},
        configs=pr + 7 * loops + 1,
        steps=pr + 6 * loops,
    )


def _pair_etas(a: str, b: str, length: int, rng) -> list:
    out = []
    for i in range(length):
        if i % 2 == 0:
            out.append(com(a, add(var("x"), rng.randint(1, 9)), b, "y"))
        else:
            out.append(com(b, add(var("y"), rng.randint(1, 9)), a, "x"))
    return out


def _value_after(etas, pid: str, x: str) -> int:
    """Value of pid.x after running straight-line etas from the empty store."""
    store: dict = {}
    for eta in etas:
        store[(eta[3], eta[4])] = eval_expr(eta[2], store, eta[1])
    return store.get((pid, x), 0)


def wide(name: str, pairs: int, conds: int, length: int, rng) -> Program:
    """K independent pairs of L interactions; the last C pairs then branch.

    Each branching pair decides on a.x, tells b with a selection and
    runs a branch of two interactions; the rest of the program follows
    both branches.  The seed picks the branch each pair takes, not the
    size: configurations are (L+1)^(K-C) * (L+4)^C and the path length
    is K*L + 3C.
    """
    plain = pairs - conds
    etas = []
    for i in range(plain):
        etas.extend(_pair_etas(f"a{i}", f"b{i}", length, rng))
    specs, chosen = [], []
    for j in range(plain, pairs):
        a, b = f"a{j}", f"b{j}"
        prefix = _pair_etas(a, b, length, rng)
        then_etas = [sel(a, b, "left"), com(a, add(var("x"), rng.randint(1, 9)), b, "z")]
        else_etas = [sel(a, b, "right"), com(b, add(var("y"), rng.randint(1, 9)), a, "w")]
        take_then = rng.random() < 0.5
        x_val = _value_after(prefix, a, "x")
        guard = ("eq", var("x"), lit(x_val if take_then else x_val + 1))
        specs.append((a, prefix, guard, then_etas, else_etas))
        chosen.append("then" if take_then else "else")
    # Build the branching pairs innermost first.
    tail = END
    for a, prefix, guard, then_etas, else_etas in reversed(specs):
        tail = seq(prefix, ("if", a, guard, seq(then_etas, tail), seq(else_etas, tail)))
    return Program(
        name,
        "wide",
        {},
        seq(etas, tail),
        {"K": pairs, "C": conds, "L": length, "taken": chosen},
        configs=(length + 1) ** plain * (length + 4) ** conds,
        steps=pairs * length + 3 * conds,
    )


def ring(name: str, procs_n: int, rounds: int, rng) -> Program:
    pids = [f"p{i}" for i in range(procs_n)]
    n = procs_n * rounds
    return Program(
        name,
        "ring",
        {},
        seq(_ring_etas(pids, rounds, rng), END),
        {"P": procs_n, "R": rounds},
        configs=n + 1,
        steps=n,
    )


def loop3(name: str, rounds: int, rng) -> Program:
    """A three-process counter loop entered gradually on every round.

    c is told last, so a and b start each round's body while c has not
    entered yet.  Path length: 9N (3 entries per round, 3 interactions,
    the conditional and 2 selections).
    """
    a, b, c = "a", "b", "c"
    k = rng.randint(1, 5)
    body = seq(
        [
            com(a, add(var("n"), 1), b, "m"),
            com(b, add(var("m"), k), c, "k"),
            com(c, ("sub", var("k"), lit(k)), a, "n"),
        ],
        (
            "if",
            a,
            ("lt", var("n"), lit(rounds)),
            seq([sel(a, b, "left"), sel(a, c, "left")], ("call", "Loop")),
            seq([sel(a, b, "right"), sel(a, c, "right")], END),
        ),
    )
    return Program(
        name,
        "loop",
        {"Loop": ((a, b, c), body)},
        ("call", "Loop"),
        {"N": rounds, "k": k},
        configs=None,
        steps=9 * rounds,
    )


def tree(name: str, depth: int, leaf_len: int, rng) -> Program:
    """A conditional tree of the given depth decided by p.

    p tells q every decision; w and u are never told and do the same
    thing in every leaf, so their projections are merges of all 2^D
    leaves.  The initial store sets p.x, which picks the path; every
    path has 3D + L + 1 transitions.
    """
    def node(d: int):
        if d == 0:
            etas = [com("q", add(var("y"), rng.randint(1, 9)), "w", "z")]
            for i in range(leaf_len - 1):
                etas.append(com("w", add(var("z"), 1), "u", "v") if i % 2 == 0
                            else com("u", add(var("v"), 1), "w", "z"))
            etas.append(com("w", var("z"), "p", "r"))
            return seq(etas, END)
        threshold = rng.randint(0, 99)
        return (
            "if",
            "p",
            ("lt", var("x"), lit(threshold)),
            seq([sel("p", "q", "left"), com("p", add(var("x"), d), "q", "y")], node(d - 1)),
            seq([sel("p", "q", "right"), com("q", add(var("y"), d), "p", "s")], node(d - 1)),
        )

    x0 = rng.randint(0, 99)
    main = node(depth)
    return Program(
        name,
        "tree",
        {},
        main,
        {"D": depth, "leaf": leaf_len, "x0": x0},
        configs=None,
        steps=3 * depth + leaf_len + 1,
        state={("p", "x"): x0},
    )


def planted(name: str, prefix: int, rng) -> Program:
    """An unprojectable program: r cannot tell which way q decided.

    The conflict sits at the conditional, after ``prefix`` interactions,
    so ``check`` must report process r at main/cont/.../cont.  q.y is
    positive when q decides, so the else branch (end) is taken: the path
    has prefix + 1 transitions.
    """
    etas = []
    for i in range(prefix):
        etas.append(com("p", add(var("x"), rng.randint(1, 9)), "q", "y") if i % 2 == 0
                    else com("q", var("y"), "p", "x"))
    cond = (
        "if",
        "q",
        ("eq", var("y"), lit(0)),
        seq([com("q", add(var("y"), 1), "r", "z")], END),
        END,
    )
    return Program(
        name,
        "planted",
        {},
        seq(etas, cond),
        {"prefix": prefix},
        configs=None,
        steps=prefix + 1,
        planted={
            "process": "r",
            "path": ["main"] + ["cont"] * prefix,
            "failure": "merge-conflict",
        },
    )


# ---------------------------------------------------------------------------
# Workload pools


def verify_pool(seed: int, size: int = 6) -> List[Tuple[Program, Program, Program]]:
    """(sequential, wide, planted unprojectable) programs for verify."""
    rng = random.Random(f"verify/{seed}")
    return [
        (chain(f"chain{i}", 3, 24, 3, rng), wide(f"wide{i}", 4, 2, 1, rng), planted(f"planted{i}", 6, rng))
        for i in range(size)
    ]


def compile_run_pool(seed: int) -> List[Program]:
    """One round of compile-run programs, in the order of COMPILE_RUN_ROUND.

    Sizes are fixed; the seed draws values, thresholds and the initial
    store, so every seed asks for the same amount of work.
    """
    rng = random.Random(f"compile-run/{seed}")
    make = {"tree": tree, "ring": ring, "loop": loop3, "planted": planted}
    return [make[kind](f"{kind}{i}", *size, rng) for i, (kind, *size) in enumerate(COMPILE_RUN_ROUND)]


# Trees (depth, leaf length) and rings (processes, rounds) cost about the
# same to check, project and simulate here, loops (rounds) and planted
# programs (prefix length) about half as much.  Two thirds of a round
# are trees and rings, so the median operation lies inside that group
# rather than in the gap between the two groups.
COMPILE_RUN_ROUND = (
    ("tree", 5, 8), ("ring", 2, 150), ("loop", 100), ("tree", 5, 8),
    ("ring", 3, 100), ("planted", 300), ("tree", 5, 8), ("ring", 3, 100),
    ("loop", 90), ("tree", 5, 8), ("ring", 2, 150), ("planted", 320),
)


# The evaluator lives with the programs so that closed forms and expected
# stores share one definition of expressions.


def eval_expr(e, store, pid: str) -> int:
    k = e[0]
    if k == "lit":
        return e[1]
    if k == "var":
        return store.get((pid, e[1]), 0)
    a = eval_expr(e[1], store, pid)
    b = eval_expr(e[2], store, pid)
    if k == "add":
        r = a + b
    elif k == "sub":
        r = a - b
    else:
        r = a * b
    return (r + (1 << 63)) % (1 << 64) - (1 << 63)


def eval_guard(g, store, pid: str) -> bool:
    a = eval_expr(g[1], store, pid)
    b = eval_expr(g[2], store, pid)
    return a == b if g[0] == "eq" else a < b if g[0] == "lt" else a <= b
