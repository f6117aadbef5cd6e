"""Unit tests for baseline algorithms — and the paper's qualitative claims:
the steady-state LP throughput dominates every baseline.

Every baseline is a fixed per-operation plan: it is scheduled and replayed
on the same periodic pipeline as the LP, and its measured steady-window
rate equals its analytic ``1 / max load`` exactly."""

from fractions import Fraction

import pytest

from repro.baselines.reduce_baselines import (
    best_single_tree_throughput, binary_reduce_tree, flat_reduce_tree,
    single_tree_resource_load, single_tree_solution,
)
from repro.baselines.scatter_baselines import (
    direct_scatter_solution, spt_scatter_throughput,
)
from repro.collectives import schedule_collective
from repro.core.reduce_op import ReduceProblem, solve_reduce
from repro.core.scatter import ScatterProblem, solve_scatter
from repro.core.trees import TreeTransfer
from repro.platform.examples import (
    figure6_platform, figure9_participants, figure9_platform, figure9_target,
)
from repro.platform.generators import random_connected
from repro.sim.executor import simulate_collective
from repro.sim.operators import MatMul2x2Mod, SeqConcat


def _replay(solution, problem, op=SeqConcat):
    """Schedule ``solution`` and replay it past its pipeline fill.

    A plan fills at most one stage per period, so one warm-up period per
    planned transfer and task always reaches steady state.
    """
    sched = schedule_collective(solution)
    ops = len(solution.send) + len(solution.cons or ())
    return simulate_collective(sched, problem, n_periods=ops + 4,
                               collective=solution.collective, op=op,
                               record_trace=False)


class TestDirectScatter:
    def test_runs_and_respects_one_port(self, fig2_problem):
        sol = direct_scatter_solution(fig2_problem)
        assert sol.verify() == []
        res = _replay(sol, fig2_problem)
        assert res.correct
        assert res.steady_window_throughput(periods=4) == Fraction(1, 2)

    def test_completion_times_monotone(self, fig2_problem):
        res = _replay(direct_scatter_solution(fig2_problem), fig2_problem)
        for times in res.delivery_times.values():
            assert times and times == sorted(times)

    def test_lp_dominates_direct(self, fig2_problem, fig2_solution):
        sol = direct_scatter_solution(fig2_problem)
        assert sol.throughput <= fig2_solution.throughput

    def test_random_platform(self):
        g = random_connected(7, extra_edges=3, seed=3)
        nodes = g.nodes()
        problem = ScatterProblem(g, nodes[0], nodes[1:4])
        sol = direct_scatter_solution(problem)
        res = _replay(sol, problem)
        assert res.correct
        assert sol.throughput == Fraction(1, 10)
        assert res.steady_window_throughput(periods=4) == sol.throughput
        assert sol.throughput <= solve_scatter(problem).throughput


class TestSptScatter:
    def test_single_route_never_beats_lp(self, fig2_problem, fig2_solution):
        spt_tp = spt_scatter_throughput(fig2_problem)
        assert spt_tp <= fig2_solution.throughput

    def test_fig2_single_route_equals_half(self, fig2_problem):
        # In fig2, the SPT routes m0 via Pa and m1 via Pb; the source port
        # is the binding resource either way, so TP stays 1/2 — multi-route
        # helps only when a relay/edge binds first.
        assert spt_scatter_throughput(fig2_problem) == Fraction(1, 2)

    def test_multi_route_strictly_helps_when_relays_bind(self):
        # Two targets behind relay `a`; relay `b` offers a slow detour to
        # t2.  The SPT routes everything through `a` (its out-port binds at
        # TP = 1/2); the LP offloads part of t2's traffic to `b` and reaches
        # TP = 3/5.
        from repro.platform.graph import PlatformGraph

        g = PlatformGraph()
        for n in ("s", "a", "b", "t1", "t2"):
            g.add_node(n, 1)
        g.add_edge("s", "a", Fraction(1, 4))
        g.add_edge("s", "b", Fraction(1, 4))
        g.add_edge("a", "t1", 1)
        g.add_edge("a", "t2", 1)
        g.add_edge("b", "t2", 3)
        problem = ScatterProblem(g, "s", ["t1", "t2"])
        full = solve_scatter(problem, backend="exact").throughput
        spt = spt_scatter_throughput(problem)
        assert full == Fraction(3, 5)
        assert spt == Fraction(1, 2)
        assert full > spt


class TestFlatTreeReduce:
    def test_correct_results(self, fig6_problem):
        sol = single_tree_solution(flat_reduce_tree(fig6_problem), fig6_problem)
        assert sol.verify() == []
        res = _replay(sol, fig6_problem)
        assert res.correct
        assert res.steady_window_throughput(periods=4) == Fraction(1, 2)

    def test_lp_dominates_flat(self, fig6_problem, fig6_solution):
        sol = single_tree_solution(flat_reduce_tree(fig6_problem), fig6_problem)
        assert sol.throughput <= fig6_solution.throughput

    def test_matmul_operator(self, fig6_problem):
        sol = single_tree_solution(flat_reduce_tree(fig6_problem), fig6_problem)
        assert _replay(sol, fig6_problem, op=MatMul2x2Mod).correct


class TestBinaryTreeReduce:
    def test_correct_results(self, fig6_problem):
        sol = single_tree_solution(binary_reduce_tree(fig6_problem),
                                   fig6_problem)
        assert sol.verify() == []
        res = _replay(sol, fig6_problem)
        assert res.correct
        assert res.steady_window_throughput(periods=4) == Fraction(1, 2)

    def test_lp_dominates_binary(self, fig6_problem, fig6_solution):
        sol = single_tree_solution(binary_reduce_tree(fig6_problem),
                                   fig6_problem)
        assert sol.throughput <= fig6_solution.throughput

    def test_handles_target_not_root_of_tree(self):
        g = figure6_platform()
        problem = ReduceProblem(g, participants=[1, 2, 0], target=0)
        tree = binary_reduce_tree(problem)
        # the merged result lands on node 1 and is forwarded to node 0
        assert tree.transfers[-1] == TreeTransfer(1, 0, (0, 2))
        assert _replay(single_tree_solution(tree, problem), problem).correct


def _rand7_reduce():
    g = random_connected(7, extra_edges=3, seed=3)
    return ReduceProblem(g, g.nodes()[:5], g.nodes()[0])


# (name, reduce problem, flat-tree rate, binary-tree rate)
TREE_RATES = [
    ("fig6", lambda: ReduceProblem(figure6_platform(), [0, 1, 2], 0),
     Fraction(1, 2), Fraction(1, 2)),
    ("fig9", lambda: ReduceProblem(figure9_platform(), figure9_participants(),
                                   figure9_target(), msg_size=10,
                                   task_work=10),
     Fraction(1, 5), Fraction(4, 27)),
    ("random7", _rand7_reduce, Fraction(1, 12), Fraction(1, 10)),
]


@pytest.mark.parametrize("name,make,flat,binary", TREE_RATES,
                         ids=[r[0] for r in TREE_RATES])
def test_tree_baselines_replay_at_analytic_rate(name, make, flat, binary):
    """Each heuristic tree, pipelined, runs at exactly ``1 / max load``,
    never above the LP optimum, with correct results under both
    non-commutative operators."""
    problem = make()
    lp = solve_reduce(problem).throughput
    for ctor, rate in ((flat_reduce_tree, flat), (binary_reduce_tree, binary)):
        sol = single_tree_solution(ctor(problem), problem)
        assert sol.throughput == rate and rate <= lp
        for op in (SeqConcat, MatMul2x2Mod):
            res = _replay(sol, problem, op=op)
            assert res.correct, (ctor.__name__, op.__name__)
            assert res.steady_window_throughput(periods=4) == rate


class TestSingleTree:
    def test_resource_load_accounts_everything(self, fig6_solution):
        tree = fig6_solution.extract()[0]
        load = single_tree_resource_load(tree, fig6_solution.problem)
        assert sum(1 for (kind, _n) in load if kind == "cpu") >= 1
        assert all(v > 0 for v in load.values())

    def test_single_tree_never_beats_lp(self, fig6_solution):
        rate, tree = best_single_tree_throughput(
            fig6_solution.extract(), fig6_solution.problem)
        assert tree is not None
        assert rate <= fig6_solution.throughput

    def test_multi_tree_strictly_helps_on_fig9(self, fig9_solution):
        """Figures 11-12: the optimum mixes two trees; either alone is
        strictly worse."""
        trees = fig9_solution.extract()
        assert len(trees) >= 2
        rate, _ = best_single_tree_throughput(trees, fig9_solution.problem)
        assert float(rate) < float(fig9_solution.throughput)

    def test_empty_tree_list(self, fig6_solution):
        rate, tree = best_single_tree_throughput([], fig6_solution.problem)
        assert rate == 0 and tree is None
