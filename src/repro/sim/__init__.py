"""SimGrid-style discrete-event simulation of the one-port model.

The paper's claims live in the abstract one-port model of Section 2: at any
instant a processor performs at most one send and one receive, computation
overlaps communication, and a transfer of ``m`` units over edge ``(i, j)``
occupies both ports for ``m * c(i, j)``.  This package implements exactly
that model and acts as the referee for every schedule the library emits:

- :mod:`repro.sim.executor` — the reference replay of
  :class:`~repro.core.schedule.PeriodicSchedule` objects with
  store-and-forward buffers (the Section 3.4 initialization / steady-state
  / clean-up structure emerges from empty buffers),
- :mod:`repro.sim.compiled` — the vectorized replay of count-exact
  schedules, bit-identical to the reference on what it accepts,
- :mod:`repro.sim.engine` — :func:`~repro.sim.engine.resolve_sim_engine`,
  which picks between the two,
- :mod:`repro.sim.trace` — event traces and one-port invariant validation,
- :mod:`repro.sim.operators` — genuinely non-commutative reduction operators
  used to validate result correctness.

Every plan the library emits, the classical baselines included, is a
periodic schedule replayed here; there is no second simulator.
"""

from repro.sim.executor import SimulationResult, simulate_schedule
from repro.sim.trace import Trace, TraceEvent, validate_one_port
from repro.sim.operators import SeqConcat, noncommutative_reduce

__all__ = [
    "SimulationResult",
    "simulate_schedule",
    "Trace",
    "TraceEvent",
    "validate_one_port",
    "SeqConcat",
    "noncommutative_reduce",
]
