"""Choreography compiler toolkit.

A small language of global choreographies, a calculus of stateful
processes, projection from the former to the latter, a bounded checker
for their operational correspondence, and a threaded runtime for
projected networks.
"""

from .chor import (
    CHOR_END,
    Call,
    ChorProgram,
    CommEta,
    Cond,
    End,
    Interaction,
    ProcDef,
    RunningCall,
    SelectEta,
    cc_check_wf,
    cc_enabled,
    cc_run,
    cc_step,
)
from .core import (
    Add,
    And,
    BoolLit,
    Eq,
    Le,
    Lit,
    Lt,
    Mul,
    Not,
    State,
    Sub,
    TraceRecord,
    VarRef,
    eval_bexpr,
    eval_expr,
    forget,
    state_digest,
)
from .merge import UNDEFINED, xmerge
from .net import (
    Branch,
    EMPTY_NET,
    NetProgram,
    Network,
    Recv,
    SP_END,
    SelectSend,
    Send,
    sp_enabled,
    sp_run,
    sp_step,
)
from .checker import (
    check_cc_confluence,
    check_deadlock_freedom,
    check_sp_confluence,
    verify_epp,
)
from .projection import bproj, epp, epp_program, infer_params, projectable
from .pruning import net_more_branches
from .runtime import ExecutionReport, RuntimeConfig, execute, validate_trace
from .syntax import (
    ParseError,
    parse,
    parse_behaviour,
    print_behaviour,
    print_choreography,
)

__version__ = "0.1.0"
