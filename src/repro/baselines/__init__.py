"""Baseline collective algorithms for comparison.

The paper's thesis is that steady-state LP scheduling beats the classical
makespan-oriented, single-route / single-tree approaches when operations are
pipelined.  These baselines make that comparison concrete.

Every baseline is a fixed per-operation plan priced at ``1 / max load``
and returned as a :class:`~repro.collectives.base.CollectiveSolution`, so
it verifies, schedules (``schedule_collective``) and replays
(``simulate_collective``) on the same periodic pipeline as the LP.

Scatter
    - :func:`~repro.baselines.scatter_baselines.direct_scatter_solution` —
      the source sends every message itself along shortest paths
      (store-and-forward), through the registered ``direct-scatter`` spec,
    - :func:`~repro.baselines.scatter_baselines.spt_scatter_throughput` —
      the LP restricted to a single shortest-path tree (single-route
      ablation).

Reduce
    - :func:`~repro.baselines.reduce_baselines.flat_reduce_tree` — everyone
      ships its value to the target, which merges alone,
    - :func:`~repro.baselines.reduce_baselines.binary_reduce_tree` — an
      order-preserving balanced binary merge tree,
    - :func:`~repro.baselines.reduce_baselines.best_single_tree_throughput`
      — the best *one* reduction tree extracted from the LP solution,
      pipelined alone (multi-tree ablation); each candidate is priced
      through :func:`~repro.baselines.reduce_baselines.single_tree_solution`
      so its rate is an exact rational and its loads pass shared
      verification; the two heuristic trees above go through it too.

Classical algorithm specs (:mod:`repro.baselines.algorithms`)
    The textbook collectives, registered as first-class ``CollectiveSpec``
    plug-ins — reachable by name through ``solve_collective(problem,
    collective=...)`` and replayable on both simulation engines:

    - ``direct-scatter`` — source-routed scatter on shortest paths,
    - ``ring-reduce-scatter`` / ``ring-all-gather`` / ``ring-all-reduce``
      — the bidirectional-chain / ring-walk family,
    - ``halving-reduce-scatter`` / ``doubling-all-gather`` /
      ``rabenseifner-all-reduce`` — the recursive power-of-two family.

    Each spec solves analytically (throughput = 1 / bottleneck load, an
    exact rational), emits a real :class:`PeriodicSchedule`, and is
    order-preserving so non-commutative combine operators stay correct.

The optimality-gap auto-tuner (:mod:`repro.tune`, CLI ``repro tune``)
    solves the LP optimum for an instance, replays every applicable
    classical baseline on the simulation engine, and prints an
    exact-rational gap table (``repro.viz.gap_table``):
    ``gap = TP_LP / TP_baseline >= 1``, with each baseline's simulated
    steady-window rate matching its analytic rate bit-exactly.
"""

from repro.baselines.scatter_baselines import (
    direct_scatter_solution,
    spt_scatter_throughput,
)
from repro.baselines.reduce_baselines import (
    best_single_tree_throughput,
    binary_reduce_tree,
    flat_reduce_tree,
    single_tree_resource_load,
    single_tree_solution,
)

__all__ = [
    "direct_scatter_solution",
    "spt_scatter_throughput",
    "best_single_tree_throughput",
    "binary_reduce_tree",
    "flat_reduce_tree",
    "single_tree_resource_load",
    "single_tree_solution",
]
