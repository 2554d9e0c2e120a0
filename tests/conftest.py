"""Shared fixtures: corpus loading and hand-built reference behaviours."""

from pathlib import Path

import pytest

from chorkit.chor import ChorProgram
from chorkit.core import Eq, Lit, VarRef
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


# One line per acceptance criterion, replayed after the test summary so
# the verdicts survive output capturing.

ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
