"""``SimComm`` — an mpi4py-flavoured façade over the simulated platform.

Ranks map to compute nodes of a :class:`~repro.platform.graph.PlatformGraph`.
Single-shot collectives (``scatter``, ``reduce``) are list-scheduled on a
small one-port clock (each node's send port, receive port and CPU are
granted in request order) and return both the results and the makespan —
the quantity classical collective algorithms optimize.  The ``*_series``
variants build the paper's steady-state schedules and return measured
throughput — the quantity this paper optimizes.  Having both on one object
makes the makespan-vs-throughput contrast of the introduction tangible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.reduce_op import ReduceProblem, solve_reduce
from repro.core.scatter import ScatterProblem, solve_scatter, build_scatter_schedule
from repro.core.schedule import build_reduce_schedule
from repro.platform.graph import NodeId, PlatformGraph
from repro.platform.routing import shortest_path
from repro.sim.executor import simulate_reduce, simulate_scatter
from repro.sim.operators import SeqConcat, noncommutative_reduce


class _PortClock:
    """When each node's send port, receive port and CPU next fall free.

    A transfer starts once the data is ready and both ports are free, and
    holds both for ``size * cost``; a task holds the CPU.  Requests are
    served in call order — list scheduling, which is what defines a
    single operation's makespan.
    """

    def __init__(self, platform: PlatformGraph) -> None:
        self.platform = platform
        self.free: Dict[tuple, object] = {}

    def _book(self, resources, ready, duration) -> object:
        start = max([ready] + [self.free.get(r, 0) for r in resources])
        end = start + duration
        for r in resources:
            self.free[r] = end
        return end

    def route(self, path: List[NodeId], size) -> object:
        """Store-and-forward from time 0 along ``path``; returns the
        arrival time."""
        ready = 0
        for u, v in zip(path, path[1:]):
            ready = self._book((("send", u), ("recv", v)), ready,
                               size * self.platform.cost(u, v))
        return ready

    def compute(self, node: NodeId, duration, ready) -> object:
        return self._book((("cpu", node),), ready, duration)


@dataclass
class SeriesReport:
    """Result of a pipelined series of collectives."""

    kind: str
    lp_throughput: object
    measured_throughput: float
    completed_ops: int
    horizon: object
    correct: bool


class SimComm:
    """A communicator whose ranks live on platform compute nodes.

    Parameters
    ----------
    platform:
        The platform graph.
    ranks:
        Compute nodes in rank order; defaults to ``platform.compute_nodes()``.
    """

    def __init__(self, platform: PlatformGraph,
                 ranks: Optional[Sequence[NodeId]] = None) -> None:
        self.platform = platform
        self.ranks: List[NodeId] = list(ranks if ranks is not None
                                        else platform.compute_nodes())
        if len(self.ranks) < 2:
            raise ValueError("a communicator needs at least 2 ranks")
        for r in self.ranks:
            if r not in platform:
                raise ValueError(f"rank node {r!r} not in platform")

    # ------------------------------------------------------------------
    def size(self) -> int:
        return len(self.ranks)

    def node_of(self, rank: int) -> NodeId:
        return self.ranks[rank]

    # ------------------------------------------------------------------
    # single-shot collectives (makespan semantics, list scheduling)
    # ------------------------------------------------------------------
    def scatter(self, values: Sequence, root: int = 0) -> Tuple[List, object]:
        """One scatter from ``root``; returns (per-rank values, makespan)."""
        if len(values) != self.size():
            raise ValueError("need exactly one value per rank")
        src = self.node_of(root)
        clock = _PortClock(self.platform)
        out: List = [None] * self.size()
        makespan = 0
        for rank, value in enumerate(values):
            out[rank] = value
            if rank == root:
                continue
            path = shortest_path(self.platform, src, self.node_of(rank))
            if path is None:
                raise ValueError(f"rank {rank} unreachable from root")
            makespan = max(makespan, clock.route(path, 1))
        return out, makespan

    def reduce(self, values: Sequence, root: int = 0,
               op=SeqConcat) -> Tuple[object, object]:
        """One reduce to ``root`` (flat strategy); returns (result, makespan)."""
        if len(values) != self.size():
            raise ValueError("need exactly one value per rank")
        dst = self.node_of(root)
        clock = _PortClock(self.platform)
        ready = 0
        for rank in range(self.size()):
            if rank == root:
                continue
            path = shortest_path(self.platform, self.node_of(rank), dst)
            if path is None:
                raise ValueError(f"rank {rank} cannot reach root")
            ready = max(ready, clock.route(path, 1))
        result = noncommutative_reduce(list(values), op=op)
        speed = self.platform.speed(dst)
        if speed:
            for j in range(1, self.size()):
                ready = clock.compute(dst, Fraction(1) / speed, ready)
        return result, ready

    # ------------------------------------------------------------------
    # pipelined series (steady-state semantics, LP schedules)
    # ------------------------------------------------------------------
    def scatter_series(self, root: int = 0, n_periods: int = 50,
                       backend: str = "auto") -> SeriesReport:
        """Run a pipelined series of scatters at the LP-optimal rate."""
        src = self.node_of(root)
        targets = [n for n in self.ranks if n != src]
        problem = ScatterProblem(self.platform, src, targets)
        sol = solve_scatter(problem, backend=backend)
        if not sol.exact:
            raise RuntimeError("series execution needs an exact LP solution")
        sched = build_scatter_schedule(sol)
        res = simulate_scatter(sched, problem, n_periods=n_periods)
        return SeriesReport(kind="scatter", lp_throughput=sol.throughput,
                            measured_throughput=float(res.measured_throughput()),
                            completed_ops=res.completed_ops(),
                            horizon=res.horizon, correct=res.correct)

    def reduce_series(self, root: int = 0, n_periods: int = 50,
                      op=SeqConcat, backend: str = "auto",
                      msg_size: object = 1, task_work: object = 1) -> SeriesReport:
        """Run a pipelined series of reduces at the LP-optimal rate."""
        problem = ReduceProblem(self.platform, participants=self.ranks,
                                target=self.node_of(root), msg_size=msg_size,
                                task_work=task_work)
        sol = solve_reduce(problem, backend=backend)
        if not sol.exact:
            raise RuntimeError("series execution needs an exact LP solution")
        sched = build_reduce_schedule(sol)
        res = simulate_reduce(sched, problem, n_periods=n_periods, op=op)
        return SeriesReport(kind="reduce", lp_throughput=sol.throughput,
                            measured_throughput=float(res.measured_throughput()),
                            completed_ops=res.completed_ops(),
                            horizon=res.horizon, correct=res.correct)
