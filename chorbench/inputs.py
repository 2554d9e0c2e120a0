"""Build a workload's inputs with chorkit: generate, parse and project.

This is the work ``setup_s`` times in a fresh interpreter, and the run
builds the same inputs again to check outputs against.
"""

from __future__ import annotations

from pathlib import Path

import programs
from chorkit.projection import epp_program, infer_params, projectable
from chorkit.smallterms import behaviour_space
from chorkit.syntax import parse

SPACE_DEPTH = 3
SPACE_SIZE = 14_693


def programs_for(workload: str, seed: int) -> list:
    if workload == "verify":
        return [p for group in programs.verify_pool(seed) for p in group]
    return programs.compile_run_pool(seed)


def build(workload: str, seed: int, outdir: Path = None) -> dict:
    """Inputs of one run; with ``outdir``, also write each source file."""
    if workload == "algebra":
        space = behaviour_space(SPACE_DEPTH)
        if len(space) != SPACE_SIZE:
            raise RuntimeError(f"behaviour space has {len(space)} terms")
        return {"space": space}
    built = {}
    for p in programs_for(workload, seed):
        text = programs.source_text(p)
        program = parse(text, p.name).program
        if p.planted is None:
            net = epp_program(program)
        else:
            xs, ps = infer_params(program)
            if not projectable(xs, ps, program):
                raise RuntimeError(f"{p.name} should not be projectable")
            net = None
        path = None
        if outdir is not None:
            path = outdir / f"{p.name}.chor"
            path.write_text(text, encoding="utf-8")
        built[p.name] = {"program": p, "chor": program, "net": net, "path": path}
    return {"programs": built}
