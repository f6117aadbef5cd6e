"""Layer spans for the traced benchmark run, installed from outside ``src``.

:func:`install` wraps each layer's entry point (module functions, class
methods, registered spec instances) with a timing shim and returns a
:class:`Tracer`; :func:`uninstall` puts the originals back.  The program
itself is not modified: every shim lives in this file and is installed by
the benchmark around the calls it makes into the library.

A span records its name, start, end, parent span and request id in
memory.  A layer's *self time* is its span's duration minus the time its
child spans cover, so nested layers (``lp.solve`` around ``lp.presolve``
around nothing) never double-count.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: Every span the traced run reports, grouped by layer.
SPANS = (
    "lp.solve", "lp.presolve", "lp.detect", "lp.engine.tableau",
    "lp.engine.revised", "lp.engine.colgen", "lp.replan",
    "collectives.build_lp", "collectives.extract", "collectives.verify",
    "collectives.schedule",
    "platform.perturb", "core.matching", "sim.compile",
    "sim.replay.reference", "sim.replay.compiled", "sim.materialize",
)

#: Spans whose presence under an ``lp.solve`` span means the memo cache
#: missed (a hit returns before presolve or any engine runs).
_SOLVE_WORK = {"lp.presolve", "lp.detect", "lp.engine.tableau",
               "lp.engine.revised", "lp.engine.colgen"}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    request: int = -1
    children: List[int] = field(default_factory=list)
    #: ``lp.solve`` only: whether the call consulted the memo cache.
    cached: bool = True


class Tracer:
    """In-memory span recorder plus the counters read at span exits."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.request = -1
        self.paused = False
        self._open: List[int] = []
        self._patches: List[tuple] = []

    def wrap(self, name: str, fn: Callable,
             on_exit: Optional[Callable] = None) -> Callable:
        tracer = self

        def shim(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._open[-1] if tracer._open else None
            span = Span(name, time.perf_counter(), parent=parent,
                        request=tracer.request)
            tracer.spans.append(span)
            if parent is not None:
                tracer.spans[parent].children.append(idx)
            tracer._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._open.pop()
            if on_exit is not None:
                on_exit(tracer, span, args, kwargs, result)
            return result

        shim.__wrapped__ = fn
        return shim

    # -- aggregation ----------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        out = {name: 0.0 for name in SPANS}
        for s in self.spans:
            covered = sum(self.spans[c].end - self.spans[c].start
                          for c in s.children)
            out[s.name] += (s.end - s.start) - covered
        return out

    def calls(self) -> Dict[str, int]:
        out = {name: 0 for name in SPANS}
        for s in self.spans:
            out[s.name] += 1
        return out

    def solve_lookups(self):
        """``(hits, lookups)`` over ``lp.solve`` calls that consulted the
        memo cache (``cache=False`` calls are not lookups)."""
        hits = lookups = 0
        for s in self.spans:
            if s.name != "lp.solve" or not s.cached:
                continue
            lookups += 1
            if not any(self.spans[c].name in _SOLVE_WORK
                       for c in s.children):
                hits += 1
        return hits, lookups


# ----------------------------------------------------------------------
# counters read at span exit
# ----------------------------------------------------------------------
def _on_solve(tracer: Tracer, span: Span, args, kwargs, result) -> None:
    span.cached = kwargs.get("cache", True)
    if any(tracer.spans[c].name in _SOLVE_WORK for c in span.children):
        stats = result.stats or {}
        tracer.counters["lp.vars_raw"] += stats.get("vars_raw") or 0
        tracer.counters["lp.vars_presolved"] += \
            stats.get("vars_presolved") or 0
        if stats.get("engine") == "colgen":
            for key in ("rounds", "columns", "master_s", "pricing_s"):
                tracer.counters[f"lp.colgen.{key}"] += stats.get(key) or 0


def _on_replan(tracer: Tracer, span: Span, args, kwargs, result) -> None:
    tracer.counters["lp.replans"] += 1
    tracer.counters["lp.replans_warm"] += int(bool(result.warm))


def _on_matching(tracer: Tracer, span: Span, args, kwargs, result) -> None:
    tracer.counters["core.matchings"] += len(result)


def _on_result(engine: str):
    def hook(tracer: Tracer, span: Span, args, kwargs, result) -> None:
        tracer.counters[f"sim.replays.{engine}"] += 1
    return hook


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------
def _patch(tracer: Tracer, owner, attr: str, name: str,
           on_exit=None) -> None:
    original = getattr(owner, attr)
    # an attribute found on a class (or an instance's class) is removed
    # again on uninstall rather than pinned onto ``owner``
    own = original if attr in vars(owner) else None
    tracer._patches.append((owner, attr, own))
    setattr(owner, attr, tracer.wrap(name, original, on_exit))


def install() -> Tracer:
    """Wrap every layer entry point; returns the recording tracer."""
    import repro.collectives as collectives
    import repro.core.schedule as core_schedule
    import repro.lp as lp
    import repro.lp.colgen as colgen
    import repro.lp.dispatch as dispatch
    import repro.lp.resolve as resolve
    import repro.platform.perturb as perturb
    import repro.sim.compiled as compiled
    from repro.collectives.base import CollectiveSolution
    from repro.lp.exact_simplex import ExactSimplexSolver
    from repro.lp.revised_simplex import RevisedSimplexSolver
    from repro.sim.executor import ScheduleExecutor

    tracer = Tracer()
    # ``repro.lp.solve`` is what the specs call; both names get one shim
    solve_shim = tracer.wrap("lp.solve", dispatch.solve, _on_solve)
    for owner in (lp, dispatch):
        tracer._patches.append((owner, "solve", dispatch.solve))
        owner.solve = solve_shim
    _patch(tracer, dispatch, "run_presolve", "lp.presolve")
    _patch(tracer, colgen, "detect", "lp.detect")
    _patch(tracer, ExactSimplexSolver, "solve", "lp.engine.tableau")
    _patch(tracer, RevisedSimplexSolver, "solve", "lp.engine.revised")
    _patch(tracer, colgen, "solve_colgen", "lp.engine.colgen")
    _patch(tracer, resolve, "replan", "lp.replan", _on_replan)

    for spec in collectives.available_collectives():
        _patch(tracer, spec, "build_lp", "collectives.build_lp")
        _patch(tracer, spec, "extract", "collectives.extract")
    _patch(tracer, CollectiveSolution, "verify", "collectives.verify")
    _patch(tracer, collectives, "schedule_collective",
           "collectives.schedule")
    _patch(tracer, core_schedule, "schedule_from_rates",
           "collectives.schedule")

    # ``replan`` reaches the platform layer through its own import
    for owner in (perturb, resolve):
        _patch(tracer, owner, "perturb", "platform.perturb")
    _patch(tracer, perturb, "failure_trace", "platform.perturb")
    _patch(tracer, core_schedule, "decompose_matchings", "core.matching",
           _on_matching)
    _patch(tracer, compiled, "compile_schedule", "sim.compile")
    _patch(tracer, ScheduleExecutor, "run_period", "sim.replay.reference")
    _patch(tracer, compiled.VectorizedExecutor, "run_periods",
           "sim.replay.compiled")
    _patch(tracer, ScheduleExecutor, "result", "sim.materialize",
           _on_result("reference"))
    _patch(tracer, compiled.VectorizedExecutor, "result", "sim.materialize",
           _on_result("compiled"))
    return tracer


def uninstall(tracer: Tracer) -> None:
    """Restore every entry point ``tracer`` wrapped."""
    while tracer._patches:
        owner, attr, original = tracer._patches.pop()
        if original is None:
            delattr(owner, attr)
        else:
            setattr(owner, attr, original)
