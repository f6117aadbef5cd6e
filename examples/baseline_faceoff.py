#!/usr/bin/env python3
"""Steady-state scheduling vs classical baselines on a heterogeneous cluster.

Generates a Tiers-like platform, then compares pipelined throughput of:

- the steady-state LP schedule (this paper),
- flat-tree reduce (everyone sends to the target),
- order-preserving binary-tree reduce,
- the best single reduction tree extracted from the LP solution.

Every strategy is a periodic schedule replayed on the same simulator, with
the reduced values checked; a single tree runs at ``1 / max load``.

Run:  python examples/baseline_faceoff.py
"""

from repro.baselines.reduce_baselines import (
    best_single_tree_throughput, binary_reduce_tree, flat_reduce_tree,
    single_tree_solution,
)
from repro.collectives import schedule_collective
from repro.core.reduce_op import ReduceProblem, solve_reduce
from repro.platform.generators import tiers
from repro.sim.executor import simulate_collective
from repro.viz.tables import format_table


def main() -> None:
    g = tiers(seed=7, wan_nodes=3, mans_per_wan=1, lans_per_man=1,
              hosts_per_lan=2)
    hosts = g.compute_nodes()[:4]
    problem = ReduceProblem(g, participants=hosts, target=hosts[0],
                            msg_size=2, task_work=4)
    print(f"platform: {g!r}")
    print(f"participants: {hosts} -> target {hosts[0]}\n")

    solution = solve_reduce(problem)
    rows = []

    def replay(name, sol, bound):
        # one warm-up period per planned transfer and task fills the pipe
        warmup = len(sol.send) + len(sol.cons)
        run = simulate_collective(schedule_collective(sol), problem,
                                  n_periods=warmup + 8, record_trace=False)
        assert run.correct, f"{name}: wrong reduced values"
        rows.append([name, f"{float(run.steady_window_throughput()):.4f}",
                     bound])

    if solution.exact:
        replay("steady-state LP (this paper)", solution,
               f"{float(solution.throughput):.4f} (optimal)")
    for name, ctor in (("flat tree", flat_reduce_tree),
                       ("binary tree", binary_reduce_tree)):
        tree = single_tree_solution(ctor(problem), problem)
        assert tree.throughput <= solution.throughput
        replay(name, tree, f"{float(tree.throughput):.4f} (1 / max load)")

    single, _ = best_single_tree_throughput(solution.extract(), problem)
    rows.append(["best single LP tree (pipelined)", f"{float(single):.4f}", ""])

    print(format_table(["strategy", "throughput (ops/time-unit)", "bound"],
                       rows, title="Series of Reduces — who wins"))


if __name__ == "__main__":
    main()
