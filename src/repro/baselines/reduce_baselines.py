"""Makespan-heuristic and single-tree reduce baselines.

All baselines respect the non-commutative operator: partial results only
ever merge *adjacent* logical intervals, in order.  Each heuristic is a
fixed :class:`ReductionTree`; pipelined alone it runs at ``1 / max load``
(:func:`single_tree_solution`), so it schedules and replays through the
same periodic pipeline as every LP solution.

``flat_reduce_tree``
    Every participant ships its value straight to the target along a
    shortest path; the target merges everything itself, left to right.
    This is the trivial MPI_Reduce-on-one-node strategy.

``binary_reduce_tree``
    A balanced, order-preserving binary merge tree over ranks: interval
    ``[k, m]`` splits at its midpoint; the merge of ``[k, m]`` runs on the
    node hosting the left half's result (data moves right-to-left, as in
    classical tree reductions), and the root result is forwarded to the
    target.  This is the strongest *static single-tree* heuristic one
    normally deploys.

``best_single_tree_throughput``
    Ablation: take the LP's extracted trees, keep only the best one, and
    compute its standalone pipelined throughput analytically — pipelining
    one tree saturates its most-loaded resource, so the rate is
    ``1 / max resource load per operation``.  Comparing against ``TP(G)``
    isolates the value of *mixing several trees* (Figures 11-12 use two).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.reduce_op import ReduceProblem
from repro.core.trees import ReductionTree, TreeTask, TreeTransfer
from repro.platform.graph import NodeId
from repro.platform.routing import shortest_path


def _route(problem: ReduceProblem, src: NodeId, dst: NodeId,
           interval, transfers: List[TreeTransfer]) -> None:
    """Forward ``v[interval]`` store-and-forward along a shortest path."""
    path = shortest_path(problem.platform, src, dst)
    if path is None:
        raise ValueError(f"{src!r} cannot reach {dst!r}")
    transfers.extend(TreeTransfer(src=u, dst=v, interval=interval)
                     for u, v in zip(path, path[1:]))


def flat_reduce_tree(problem: ReduceProblem) -> ReductionTree:
    """Everyone sends to the target; the target merges alone, in order."""
    n = problem.n_values
    transfers: List[TreeTransfer] = []
    for j in range(n):
        if problem.owner(j) != problem.target:
            _route(problem, problem.owner(j), problem.target, (j, j),
                   transfers)
    # merge j folds v_j into v[0, j-1]
    tasks = [TreeTask(node=problem.target, task=(0, j - 1, j))
             for j in range(1, n)]
    return ReductionTree(weight=None, transfers=tuple(transfers),
                         tasks=tuple(tasks))


def binary_reduce_tree(problem: ReduceProblem) -> ReductionTree:
    """Order-preserving balanced binary merge tree."""
    transfers: List[TreeTransfer] = []
    tasks: List[TreeTask] = []

    def merge(k: int, m: int) -> NodeId:
        """Reduce interval [k, m]; returns the node holding the result."""
        if k == m:
            return problem.owner(k)
        mid = (k + m) // 2
        left = merge(k, mid)
        right = merge(mid + 1, m)
        if right != left:
            _route(problem, right, left, (mid + 1, m), transfers)
        tasks.append(TreeTask(node=left, task=(k, mid, m)))
        return left

    n = problem.n_values
    root = merge(0, n - 1)
    if root != problem.target:
        _route(problem, root, problem.target, (0, n - 1), transfers)
    return ReductionTree(weight=None, transfers=tuple(transfers),
                         tasks=tuple(tasks))


def single_tree_resource_load(tree: ReductionTree,
                              problem: ReduceProblem) -> Dict[Tuple[str, NodeId], object]:
    """Per-operation busy time of every resource when running one tree.

    Resources: ``("send", node)``, ``("recv", node)``, ``("cpu", node)``.
    """
    g = problem.platform
    load: Dict[Tuple[str, NodeId], object] = {}

    def bump(key, amount):
        load[key] = load.get(key, 0) + amount

    for tr in tree.transfers:
        t = problem.size(tr.interval) * g.cost(tr.src, tr.dst)
        bump(("send", tr.src), t)
        bump(("recv", tr.dst), t)
    for tk in tree.tasks:
        bump(("cpu", tk.node), problem.task_time(tk.node, tk.task))
    return load


def single_tree_solution(tree: ReductionTree,
                         problem: ReduceProblem) -> "CollectiveSolution":
    """One tree, pipelined alone, as a shared-pipeline ``ReduceSolution``.

    The standalone rate saturates the tree's most-loaded resource:
    ``rate = 1 / max_load``, kept an exact ``Fraction`` for rational
    loads (``1 / worst`` in floats can round an occupation of exactly 1
    to just above it and trip the one-port check).  The returned solution
    carries the tree at that weight, so ``schedule_collective`` replays
    exactly this tree, and it runs the same ``verify()`` /
    ``edge_occupation()`` / ``alpha()`` path as every LP solution — the
    analytic accounting is cross-checked against the registered reduce
    spec's invariants, not trusted.
    """
    from repro.core.reduce_op import ReduceSolution

    load = single_tree_resource_load(tree, problem)
    worst = max(load.values()) if load else 0
    if worst <= 0:
        raise ValueError("tree occupies no resource; no standalone rate")
    rate = Fraction(1) / worst  # float only when the platform is inexact
    send: Dict[tuple, object] = {}
    cons: Dict[tuple, object] = {}
    for tr in tree.transfers:
        key = (tr.src, tr.dst, tr.interval)
        send[key] = send.get(key, 0) + rate
    for tk in tree.tasks:
        key = (tk.node, tk.task)
        cons[key] = cons.get(key, 0) + rate
    weighted = ReductionTree(weight=rate, transfers=tree.transfers,
                             tasks=tree.tasks)
    return ReduceSolution(problem=problem, throughput=rate, send=send,
                          cons=cons, lp_solution=None,
                          exact=isinstance(rate, Fraction),
                          trees=[weighted])


def best_single_tree_throughput(trees: Sequence[ReductionTree],
                                problem: ReduceProblem) -> Tuple[object, Optional[ReductionTree]]:
    """Best standalone pipelined rate over the given trees.

    A single tree, pipelined, is limited by its most-loaded port/CPU:
    ``rate = 1 / max_load``.  Every candidate rate is built through
    :func:`single_tree_solution` and must pass the shared ``verify()``
    path (conservation, one-port, alpha).  Returns ``(rate, best tree)``.
    """
    best_rate = 0
    best_tree: Optional[ReductionTree] = None
    for tree in trees:
        load = single_tree_resource_load(tree, problem)
        worst = max(load.values()) if load else None
        if worst is None or worst <= 0:
            continue
        sol = single_tree_solution(tree, problem)
        errors = sol.verify(tol=0 if sol.exact else 1e-9)
        if errors:
            raise ValueError(
                f"single-tree baseline fails shared verification: {errors[:3]}")
        rate = sol.throughput
        if rate > best_rate:
            best_rate, best_tree = rate, tree
    return best_rate, best_tree
