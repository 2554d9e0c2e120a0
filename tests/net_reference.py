"""A frozen copy of ``chorkit.net.sp_step`` as it was before it derived
only the transition its label names.

``reference_sp_step`` enumerates every transition of the network with
``sp_enabled`` and keeps the one whose rich label equals the given one.
Slow but plain; ``test_net.py::TestStepAgainstReference`` holds the live
function to it.
"""

from chorkit.net import NetProgram, NotEnabledError, sp_enabled


def reference_sp_step(p, s, label):
    for t, n2, s2 in sp_enabled(p.procs, p.net, s):
        if t == label:
            return NetProgram(p.procs, n2), s2
    raise NotEnabledError(label)
