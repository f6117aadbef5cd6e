"""Independent correctness checks for every benchmark request.

A request passes when

- its exact throughput equals the optimum pinned for the named tiers, or
  agrees with a float HiGHS solve of the same problem to within
  ``HIGHS_RTOL`` relative for seeded instances;
- ``verify()`` found nothing and the schedule runs at that throughput;
- the replay reported no ``errors`` and no ``one_port_violations``;
- the replay's one-period delivery window settles on the LP optimum
  (``TP * T`` operations times the spec's stream count) and holds it for
  at least the last ``STEADY_TAIL`` periods.

The number of periods before that window first settles is the request's
warm-up.  Checks run outside the timed region of a request.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

HIGHS_RTOL = 1e-6
STEADY_TAIL = 3


def window_counts(result, schedule) -> List[int]:
    """Completed operations in each period ``(kT, (k+1)T]`` of a replay,
    counted with the schedule's delivery mode."""
    T, n = Fraction(schedule.period), result.periods
    per_item = []
    for item in schedule.deliveries:
        counts = [0] * n
        for t in result.delivery_times.get(item, ()):
            # exact ceil(t / T) - 1 in integers (times are ints or
            # Fractions): a landing at kT belongs to the window ending there
            k = -(-t.numerator * T.denominator
                  // (t.denominator * T.numerator)) - 1
            if 0 <= k < n:
                counts[k] += 1
        per_item.append(counts)
    if not per_item:
        return [0] * n
    mode = schedule.delivery_mode or ("sum" if schedule.compute else "min")
    fold = sum if mode == "sum" else min
    return [fold(col) for col in zip(*per_item)]


def warmup_periods(counts: List[int], target) -> Optional[int]:
    """Periods before the window reaches ``target`` for good, or ``None``
    when the replay never holds it for ``STEADY_TAIL`` periods."""
    k = len(counts)
    while k > 0 and counts[k - 1] == target:
        k -= 1
    return k if len(counts) - k >= STEADY_TAIL else None


def check_replay(schedule, result, throughput, streams: int = 1
                 ) -> Tuple[List[str], Optional[int]]:
    """Replay-side checks; returns ``(problems, warm-up periods)``."""
    problems = [f"replay error: {e}" for e in result.errors[:3]]
    problems += [f"one-port violation: {v}"
                 for v in result.one_port_violations[:3]]
    if schedule.throughput != throughput:
        problems.append(f"schedule runs at {schedule.throughput}, "
                        f"plan at {throughput}")
    target = schedule.ops_per_period() * streams
    counts = window_counts(result, schedule)
    warmup = warmup_periods(counts, target)
    if warmup is None:
        problems.append(f"window never settles on {target} ops/period "
                        f"in {len(counts)} periods (last {counts[-4:]})")
    return problems, warmup


class Oracle:
    """Reference optima, memoized per instance across a run."""

    def __init__(self) -> None:
        self._highs: Dict[object, float] = {}

    def highs_optimum(self, key, problem, collective, mode) -> float:
        if key not in self._highs:
            from repro.collectives import solve_collective

            kwargs = {"mode": mode} if mode else {}
            sol = solve_collective(problem, collective=collective,
                                   backend="highs", rationalize=False,
                                   cache=False, **kwargs)
            self._highs[key] = float(sol.throughput)
        return self._highs[key]

    def check_optimum(self, key, sol, expected, mode) -> List[str]:
        if expected is not None:
            if sol.throughput != expected:
                return [f"TP {sol.throughput} != pinned {expected}"]
            return []
        ref = self.highs_optimum(key, sol.problem, sol.collective, mode)
        got = float(sol.throughput)
        if abs(got - ref) > HIGHS_RTOL * max(abs(ref), 1e-12):
            return [f"TP {sol.throughput} ({got:.9g}) != HiGHS {ref:.9g}"]
        return []

