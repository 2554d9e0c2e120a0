"""Shared fixtures: corpus loading and hand-built reference behaviours."""

import sys
import threading
from collections import deque
from pathlib import Path

import pytest

from chorkit import checker as checker_mod
from chorkit import chor as chor_mod
from chorkit import net as net_mod
from chorkit import projection as projection_mod
from chorkit.chor import ChorProgram, cc_enabled
from chorkit.core import EMPTY_STATE, Eq, Lit, VarRef
from chorkit.merge import UNDEFINED
from chorkit.net import SP_END, Branch, Cond, Recv, SelectSend, Send
from chorkit.syntax import SourceUnit, parse

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

PROJECTABLE = [
    "auth",
    "broadcast",
    "counter",
    "deepcond",
    "filetransfer",
    "nested",
    "parallel",
    "pingpong",
    "pipeline3",
    "rich",
    "seqsel",
    "twobuyers",
]


def load(name: str) -> SourceUnit:
    path = CORPUS / f"{name}.chor"
    return parse(path.read_text(encoding="utf-8"), str(path))


def load_program(name: str) -> ChorProgram:
    return load(name).program


def explore(p: ChorProgram, s0=EMPTY_STATE, depth=12):
    """Reachable (main, state) configurations with their transitions.

    Depth-bounded breadth-first walk; the bound matters only for programs
    with an infinite state space such as the growing counter.
    """
    seen = {(p.main, s0)}
    queue = deque([(p.main, s0, 0)])
    out = []
    while queue:
        main, s, d = queue.popleft()
        trans = cc_enabled(p.procs, main, s)
        out.append((main, s, trans))
        if d >= depth:
            continue
        for _, m2, s2 in trans:
            if (m2, s2) not in seen:
                seen.add((m2, s2))
                queue.append((m2, s2, d + 1))
    return out


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """Fail a test that leaves a runtime worker thread (``proc-*``) alive."""
    before = set(threading.enumerate())
    yield
    leaked = [
        t.name
        for t in threading.enumerate()
        if t not in before and t.name.startswith("proc-") and t.is_alive()
    ]
    assert not leaked, f"worker threads left running: {leaked}"


@pytest.fixture
def default_recursion_limit():
    """Run the test at Python's default recursion limit, 1000."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)


@pytest.fixture(scope="session")
def auth():
    return load_program("auth")


@pytest.fixture(scope="session")
def auth_noselect():
    return load_program("auth_noselect")


@pytest.fixture(scope="session")
def filetransfer():
    return load_program("filetransfer")


@pytest.fixture(scope="session")
def pipeline3():
    return load_program("pipeline3")


# Reference projections of the authentication choreography, written out
# by hand from its text: the client sends credentials and waits for the
# verdict, the server waits for the verdict and sends the token on
# success, the provider receives and decides.

AUTH_CLIENT = Send(
    "ip",
    VarRef("credentials"),
    Branch("ip", Recv("s", "t", SP_END), SP_END),
)

AUTH_SERVER = Branch("ip", Send("c", VarRef("token"), SP_END), SP_END)

AUTH_PROVIDER = Recv(
    "c",
    "x",
    Cond(
        Eq(VarRef("x"), Lit(0)),
        SelectSend("s", "left", SelectSend("c", "left", SP_END)),
        SelectSend("s", "right", SelectSend("c", "right", SP_END)),
    ),
)


def has_undefined(b) -> bool:
    """Whether UNDEFINED occurs anywhere in a behaviour tree."""
    if b is UNDEFINED:
        return True
    if type(b) in (Send, Recv, SelectSend):
        return has_undefined(b.cont)
    if type(b) in (Branch, Cond):
        return any(x is not None and has_undefined(x) for x in b[1:3])
    return False


# Seeded mutations of live seams, as (name, module, attribute, broken
# stand-in); acceptance criterion 5 must notice each one.

SEAM_MUTATIONS = [
    (
        "bproj-drops-selection-clause",
        projection_mod,
        "_branch_offer",
        lambda sender, label, cont: cont,
    ),
    (
        "checker-skips-pruning-match",
        checker_mod,
        "_prunes",
        lambda wider, projected: True,
    ),
    (
        "selection-delivers-wrong-branch",
        net_mod,
        "_chosen_option",
        lambda b, label: b.on_right if label == "left" else b.on_left,
    ),
    (
        "delay-past-interaction-missing",
        chor_mod,
        "_may_delay_past_eta",
        lambda label, eta_pids: False,
    ),
    (
        "running-call-ignores-pending",
        projection_mod,
        "_running_call_projection",
        lambda procs, c, r: projection_mod.bproj(procs, c.body, r),
    ),
]


# One line per acceptance criterion, replayed after the test summary so
# the verdicts survive output capturing.

ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
