"""Seeded inputs for the three workloads: pools, request streams, tiers.

Every input is a pure function of ``(workload, seed, size)``: the same
seed yields the same requests in the same order.  Inputs are plain
library objects (problems, rate tables); the benchmark hands them to the
public API and nothing else.

A workload is one *round* of requests, issued again and again: every
round of a run asks for the same requests in the same order.  A run
keeps issuing whole rounds until its time budget is spent, and times
each request as the median of its rounds after the first; the
deterministic outputs
(periods, warm-up, counters) are read from the first round, which every
run completes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.allreduce import AllReduceProblem
from repro.core.reduce_op import ReduceProblem
from repro.core.scatter import ScatterProblem
from repro.platform.examples import (
    figure2_platform, figure2_targets, figure6_platform,
    figure9_participants, figure9_platform, figure9_target,
)
from repro.platform.generators import fat_tree, random_connected, ring

#: Plans per round of a scatter entry and of any other entry.  Scatters
#: are millisecond requests and the rest take up to seconds; planning
#: scatters more often puts the median plan latency inside the
#: millisecond cluster, not on the gap between the two, and keeps a
#: round short enough for a run to hold several.  All plans but an
#: entry's first can be served from the LP memo cache.
SCATTER_REPEATS, OTHER_REPEATS = 6, 1
#: Pool entry ``i`` is also replanned once per round, under
#: ``failure_trace(platform, seed=TRACE_SEEDS[i % 4])``: fixed scenarios
#: keep every round's cost alike, and replans are 10 of the 40 requests.
#: The menu starts at 1 because trace 0 on ``rand7-reduce`` (and trace 7
#: on ``rand6-reduce``) never returns from the warm dual simplex inside
#: ``replan`` -- a known defect, see README.md.
TRACE_SEEDS = (1, 2, 3, 4)


@dataclass
class Entry:
    """One plannable instance: a problem plus how to solve and replay it.

    ``expected_tp`` pins the exact optimum already recorded for the named
    tiers; ``None`` sends the oracle to a float HiGHS solve instead.
    """

    name: str
    problem: object
    collective: Optional[str] = None
    mode: Optional[str] = None
    expected_tp: Optional[Fraction] = None
    solve_kwargs: Dict[str, object] = field(default_factory=dict)
    sim_kwargs: Dict[str, object] = field(default_factory=dict)


@dataclass
class Request:
    """``plan`` solves ``entry``; ``replan`` applies
    ``failure_trace(platform, seed=trace_seed)`` to the round's plan of
    the same entry and re-solves it warm."""

    kind: str
    entry: Entry
    trace_seed: Optional[int] = None


@dataclass
class RateTable:
    """A schedule-layer input: per-edge item rates, no LP behind them."""

    name: str
    rates: Dict[Tuple[str, str, str], Tuple[Fraction, Fraction]]
    throughput: Fraction
    deliveries: Dict[str, str]
    sources: Dict[str, str]
    periods: int


# ----------------------------------------------------------------------
# planner-mix
# ----------------------------------------------------------------------
def paper_entries() -> List[Entry]:
    """The paper-figure requests with their recorded exact optima."""
    fig9 = figure9_platform()
    return [
        Entry("fig2-scatter",
              ScatterProblem(figure2_platform(), "Ps", figure2_targets()),
              expected_tp=Fraction(1, 2)),
        Entry("fig6-reduce",
              ReduceProblem(figure6_platform(), [0, 1, 2], 0),
              expected_tp=Fraction(1)),
        Entry("fig9-reduce",
              ReduceProblem(fig9, figure9_participants(), figure9_target(),
                            msg_size=10, task_work=10),
              expected_tp=Fraction(2, 9)),
        Entry("fig6-allreduce-pipelined",
              AllReduceProblem(figure6_platform(), [0, 1, 2], task_work=2),
              collective="all-reduce", mode="pipelined",
              expected_tp=Fraction(1, 4)),
        Entry("fig9-allreduce4-sequential",
              AllReduceProblem(fig9, figure9_participants()[:4],
                               msg_size=10, task_work=10),
              collective="all-reduce", mode="sequential",
              expected_tp=Fraction(2, 27)),
    ]


def random_entries(size: str) -> List[Entry]:
    """Scatter on 5-, 6- and 7-node ``random_connected`` platforms and
    reduce on the 5- and 6-node ones (platform seed 0, the generator's
    default cost and speed draws).

    The 7-node reduce and the pipelined all-reduce are left out: the
    first alone took a third of a round, and one request of the second
    outlasts a run (see README.md, "left out").
    """
    out: List[Entry] = []
    sizes = (5,) if size == "small" else (5, 6, 7)
    for n in sizes:
        g = random_connected(n, extra_edges=n // 2, seed=0)
        nodes = g.nodes()
        out.append(Entry(f"rand{n}-scatter",
                         ScatterProblem(g, nodes[0], nodes[1:])))
        if n < 7:
            out.append(Entry(f"rand{n}-reduce",
                             ReduceProblem(g, nodes, nodes[0])))
    return out


def planner_mix_rounds(seed: int, size: str) -> Iterator[List[Request]]:
    """The seeded round over the fixed pool, endlessly.

    The round plans every pool entry ``SCATTER_REPEATS`` or
    ``OTHER_REPEATS`` times in an order drawn from ``seed``, and follows
    each entry's first plan with its replan.
    """
    pool = paper_entries() + random_entries(size)
    draws, traces = [], {}
    for i, entry in enumerate(pool):
        scatter = isinstance(entry.problem, ScatterProblem)
        draws += [entry] * (SCATTER_REPEATS if scatter else OTHER_REPEATS)
        traces[entry.name] = TRACE_SEEDS[i % len(TRACE_SEEDS)]
    round_: List[Request] = []
    replanned = set()
    for entry in random.Random(seed).sample(draws, len(draws)):
        round_.append(Request("plan", entry))
        if entry.name not in replanned:
            replanned.add(entry.name)
            round_.append(Request("replan", entry,
                                  trace_seed=traces[entry.name]))
    while True:
        yield round_


# ----------------------------------------------------------------------
# solve-scale
# ----------------------------------------------------------------------
def scale_entries(size: str) -> List[Entry]:
    """The colgen-routed exact tiers, solved cold and replayed untraced.

    Each is the smallest of its family that the dispatcher still routes
    to colgen (over ``COLGEN_VAR_LIMIT`` presolved variables), so a
    round takes seconds and a run holds several: ring64 scatter (7939
    variables), fat-tree k=6 scatter (17120) and the fig9 6-host
    pipelined all-reduce (7104).  The scatters' optima are the source
    port's bound, 1/(receivers); the all-reduce is checked against
    HiGHS.  The small size (self-test only) swaps in a ring, a fat-tree
    and a host count small enough for the tableau.
    """
    ring_n, fat_k, hosts = (64, 6, 6) if size == "full" else (16, 4, 4)
    g_ring = ring(ring_n, cost=1)
    ring_nodes = g_ring.nodes()
    g_fat = fat_tree(fat_k)
    fat_hosts = g_fat.compute_nodes()
    cold = {"cache": False}
    untraced = {"record_trace": False}
    return [
        Entry(f"ring{ring_n}-scatter",
              ScatterProblem(g_ring, ring_nodes[0], ring_nodes[1:]),
              expected_tp=Fraction(1, ring_n - 1),
              solve_kwargs=cold, sim_kwargs=untraced),
        Entry(f"fattree{fat_k}-scatter",
              ScatterProblem(g_fat, fat_hosts[0], fat_hosts[1:]),
              expected_tp=Fraction(1, len(fat_hosts) - 1),
              solve_kwargs=cold, sim_kwargs=untraced),
        Entry(f"fig9-{hosts}host-allreduce-pipelined",
              AllReduceProblem(figure9_platform(),
                               figure9_participants()[:hosts],
                               msg_size=10, task_work=10),
              collective="all-reduce", mode="pipelined",
              solve_kwargs=cold, sim_kwargs=untraced),
    ]


def solve_scale_rounds(seed: int, size: str) -> Iterator[List[Request]]:
    """Each round solves every tier once.  The seed varies nothing: the
    order stays fixed because it sets the process's peak memory."""
    requests = [Request("plan", e) for e in scale_entries(size)]
    while True:
        yield requests


# ----------------------------------------------------------------------
# schedule-scale
# ----------------------------------------------------------------------
def cluster_rate_table(size: str) -> RateTable:
    """A 401-node clustered distribution, as a bare rate table.

    A hub fans one distinct item per leaf out through 20 relays (19
    leaves each); every item flows hub -> relay -> leaf at rate 1/400
    with unit transfer time, so the period is T = 400 and the hub's 380
    sends serialize on its port.  It is the 1025-node cluster of
    ``benchmarks/perf_report.py`` (32 relays x 31 leaves, one 21 s
    request) cut to a size whose requests take about a second, so a run
    holds many, while the matching decomposition still takes most of
    the time.  The small size keeps 4 relays x 3 leaves at rate 1/16.
    """
    relays, leaves, den = (20, 19, 400) if size == "full" else (4, 3, 16)
    rate, unit = Fraction(1, den), Fraction(1)
    rates: Dict[Tuple[str, str, str], Tuple[Fraction, Fraction]] = {}
    deliveries: Dict[str, str] = {}
    for r in range(relays):
        relay = f"R{r:02d}"
        for i in range(leaves):
            leaf, item = f"L{r:02d}_{i:02d}", f"m{r:02d}_{i:02d}"
            rates[("hub", relay, item)] = (rate, unit)
            rates[(relay, leaf, item)] = (rate, unit)
            deliveries[item] = leaf
    return RateTable(f"cluster{1 + relays * (leaves + 1)}", rates, rate,
                     deliveries, {item: "hub" for item in deliveries},
                     periods=1000 if size == "full" else 24)


def schedule_scale_rounds(seed: int, size: str) -> Iterator[List[RateTable]]:
    """One rate table per round; the seed has nothing to vary here."""
    table = cluster_rate_table(size)
    while True:
        yield [table]


def rounds(workload: str, seed: int, size: str = "full") -> Iterator[list]:
    if workload == "planner-mix":
        return planner_mix_rounds(seed, size)
    if workload == "solve-scale":
        return solve_scale_rounds(seed, size)
    if workload == "schedule-scale":
        return schedule_scale_rounds(seed, size)
    raise ValueError(f"unknown workload {workload!r}")
