"""Spans and counts at chorkit's layer boundaries, installed from outside.

``Tracer.install`` wraps each target function under every name it is
bound to in a loaded ``chorkit`` module (``chor.cc_enabled`` and
``checker.cc_enabled`` are one function bound twice), so calls from any
layer, recursive ones included, go through the wrapper.  A wrapper
counts every call and opens a span only for the outermost call of its
name; a span records its name, start, end and parent span.  Busy time is
the sum of outermost span durations (inclusive); self time subtracts the
spans of other layers nested inside.  ``uninstall`` puts every original
back.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (metric prefix, module, attribute) for plain functions, and
# (metric prefix, module, class, attribute) for methods.
FUNCTIONS = [
    ("checker.verify_epp", "checker", "verify_epp"),
    ("checker.deadlock", "checker", "check_deadlock_freedom"),
    ("checker.cc_confluence", "checker", "check_cc_confluence"),
    ("checker.sp_confluence", "checker", "check_sp_confluence"),
    ("checker.joins", "checker", "_joins"),
    ("chor.cc_enabled", "chor", "cc_enabled"),
    ("chor.wf", "chor", "cc_check_wf"),
    ("net.sp_enabled", "net", "sp_enabled"),
    ("net.sp_run", "net", "sp_run"),
    ("projection.bproj", "projection", "bproj"),
    ("projection.projectable", "projection", "projectable"),
    ("projection.epp", "projection", "epp"),
    ("pruning.net_more_branches", "pruning", "net_more_branches"),
    ("merge.xmerge", "merge", "xmerge"),
    ("merge.collapse", "merge", "collapse"),
    ("core.state_digest", "core", "state_digest"),
    ("syntax.parse", "syntax", "parse"),
    ("syntax.print", "syntax", "print_behaviour"),
    ("runtime.execute", "runtime", "execute"),
    ("runtime.wait", "runtime", "_drain_offers"),
    ("cli.emit", "cli", "_emit_trace"),
    ("smallterms.space", "smallterms", "behaviour_space"),
]
METHODS = [
    ("core.state_set", "core", "State", "set"),
    ("checker.epp_net", "checker", "_Context", "epp_net"),
]
VERDICT_FUNCTIONS = {
    "checker.verify_epp",
    "checker.deadlock",
    "checker.cc_confluence",
    "checker.sp_confluence",
}

MAX_SPANS = 200_000


def chorkit_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "chorkit" or n.startswith("chorkit."))]


class Tracer:
    def __init__(self) -> None:
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)  # seconds, outermost spans
        self.self_time = defaultdict(float)
        self.extra = defaultdict(float)  # configs, cache hits, trace steps
        self.spans: list = []  # (id, name, start, end, parent id)
        self._stack: list = []  # [span id, name, start, child seconds]
        self._depth = defaultdict(int)
        self._patches: list = []  # (owner, attribute, original)
        self._next_id = 0

    # -- installation -------------------------------------------------

    def install(self, names=None) -> None:
        """Wrap the listed metric prefixes (all when ``names`` is None)."""
        mods = {name: importlib.import_module(f"chorkit.{name}")
                for name in {f[1] for f in FUNCTIONS + METHODS}}
        for name, mod, attr in FUNCTIONS:
            if names is not None and name not in names:
                continue
            original = getattr(mods[mod], attr)
            wrapper = self._wrap(name, original)
            for m in chorkit_modules():
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, wrapper)
        for name, mod, cls_name, attr in METHODS:
            if names is not None and name not in names:
                continue
            cls = getattr(mods[mod], cls_name)
            original = cls.__dict__[attr]
            wrap = self._wrap_epp_net if name == "checker.epp_net" else self._wrap
            self._patches.append((cls, attr, original))
            setattr(cls, attr, wrap(name, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- wrappers -----------------------------------------------------

    def _enter(self, name: str):
        self.calls[name] += 1
        depth = self._depth[name]
        self._depth[name] = depth + 1
        if depth:
            return None
        parent = self._stack[-1][0] if self._stack else None
        self._next_id += 1
        frame = [self._next_id, name, time.perf_counter(), 0.0, parent]
        self._stack.append(frame)
        return frame

    def _leave(self, name: str, frame) -> None:
        self._depth[name] -= 1
        if frame is None:
            return
        end = time.perf_counter()
        span_id, _, start, child, parent = self._stack.pop()
        dur = end - start
        self.busy[name] += dur
        self.self_time[name] += dur - child
        if self._stack:
            self._stack[-1][3] += dur
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, name, start, end, parent))

    def _wrap(self, name: str, fn):
        enter, leave, extra = self._enter, self._leave, self.extra
        verdict = name in VERDICT_FUNCTIONS
        steps = name == "runtime.execute"

        def wrapper(*args, **kwargs):
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(name, frame)
            if verdict:
                extra["checker.configs"] += result.configs_explored
            elif steps:
                extra["runtime.steps"] += len(result.trace)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_epp_net(self, name: str, fn):
        enter, leave, extra = self._enter, self._leave, self.extra

        def epp_net(ctx, main):
            if main in ctx.epp_cache:
                extra["checker.epp_cache_hits"] += 1
            frame = enter(name)
            try:
                return fn(ctx, main)
            finally:
                leave(name, frame)

        epp_net.__wrapped__ = fn
        return epp_net
