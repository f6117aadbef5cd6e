"""Reduction-tree extraction — the ``EXTRACT_TREES`` algorithm (Section 4.4).

A *reduction tree* is a list of tasks (computations ``cons(T_{k,l,m}, Pi)``
and transfers ``send(Pi -> Pj, v[k,m])``) such that every input of a task is
either the result of another task of the tree or an initial value ``v[j,j]``
at its owner, and the overall result is ``v[0, n-1]`` at the target.

``extract_trees`` greedily peels trees off an LP solution: find a tree among
tasks with positive remaining rate, weight it by the minimum remaining rate
of its tasks, subtract, repeat until the whole throughput ``TP`` is
accounted for.  Theorem 1: at most ``2 n^4`` trees, each extraction in
polynomial time, and the weighted trees sum exactly to the solution used.

Termination safeguard: ``FIND_TREE`` as printed can
chase its own tail on solutions containing per-interval transfer cycles.
:func:`repro.core.reduce_op.solve_reduce` cancels those cycles up front, and
the resolver below prefers in-place production over transfers; under those
two conditions every resolution step either strictly shrinks the interval or
walks an acyclic flow, so the walk terminates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core import intervals as iv
from repro.platform.graph import NodeId

Interval = Tuple[int, int]
Task = Tuple[int, int, int]


@dataclass(frozen=True)
class TreeTransfer:
    """Transfer of ``v[interval]`` from ``src`` to ``dst`` (one per reduce)."""

    src: NodeId
    dst: NodeId
    interval: Interval


@dataclass(frozen=True)
class TreeTask:
    """Execution of ``T_task`` on ``node`` (one per reduce)."""

    node: NodeId
    task: Task


@dataclass
class ReductionTree:
    """A reduction tree with its steady-state weight (rate per time-unit)."""

    weight: object
    transfers: Tuple[TreeTransfer, ...]
    tasks: Tuple[TreeTask, ...]

    def all_ops(self) -> List[object]:
        return list(self.transfers) + list(self.tasks)

    def leaf_intervals(self) -> List[Interval]:
        """Leaves actually consumed: inputs never produced within the tree."""
        produced = {iv.task_output(t.task) for t in self.tasks}
        needed: List[Interval] = []
        for t in self.tasks:
            for inp in iv.task_inputs(t.task):
                if inp not in produced:
                    needed.append(inp)
        if not self.tasks:  # degenerate: pure forwarding of a single value
            needed = [self.transfers[0].interval] if self.transfers else []
        return needed

    def describe(self) -> str:
        lines = [f"tree (weight {self.weight}):"]
        for t in self.tasks:
            lines.append(f"  cons T{t.task} on {t.node!r}")
        for tr in self.transfers:
            lines.append(f"  send v[{tr.interval[0]},{tr.interval[1]}] "
                         f"{tr.src!r} -> {tr.dst!r}")
        return "\n".join(lines)


class TreeExtractionError(RuntimeError):
    """FIND_TREE got stuck before the full throughput was decomposed."""


OpKey = Tuple  # ("send", i, j, interval) | ("cons", node, task)


def solution_op_values(solution) -> Dict[OpKey, object]:
    """Flatten a :class:`ReduceSolution` into the mutable map ``A``."""
    a: Dict[OpKey, object] = {}
    for (i, j, interval), f in solution.send.items():
        a[("send", i, j, interval)] = f
    for (node, task), r in solution.cons.items():
        a[("cons", node, task)] = r
    return a


def find_tree(a: Dict[OpKey, object], problem, eps=0) -> Optional[ReductionTree]:
    """One reduction tree among ops with remaining rate > ``eps``.

    Resolution strategy for an unmet input ``(v[k,m] at node)``:

    1. if it is a fresh value at its owner, it is free;
    2. else, if some task producing ``v[k,m]`` has remaining rate at
       ``node``, compute in place (smallest split point ``l`` first);
    3. else, follow an incoming transfer with remaining rate (deterministic
       neighbor order).

    Returns ``None`` when no complete tree exists (remaining rate exhausted).
    """
    g = problem.platform
    n = problem.n_values
    target = problem.target
    full = iv.full_interval(n)

    transfers: List[TreeTransfer] = []
    tasks: List[TreeTask] = []
    used: Dict[OpKey, int] = {}
    inputs: List[Tuple[Interval, NodeId]] = [(full, target)]

    def available(key: OpKey) -> bool:
        return a.get(key, 0) > eps and used.get(key, 0) == 0

    guard = 0
    max_steps = 4 * (len(a) + 1) * (n + 1)
    while inputs:
        guard += 1
        if guard > max_steps:
            raise TreeExtractionError(
                "FIND_TREE did not terminate — per-interval flows are "
                "probably cyclic (run remove_cycles first)")
        interval, node = inputs.pop()
        if iv.is_leaf(interval) and problem.owner(interval[0]) == node:
            continue
        # 2. in-place production
        produced = False
        if g.is_compute(node):
            for task in iv.tasks_producing(interval):
                key = ("cons", node, task)
                if available(key):
                    used[key] = 1
                    tasks.append(TreeTask(node=node, task=task))
                    left, right = iv.task_inputs(task)
                    inputs.append((left, node))
                    inputs.append((right, node))
                    produced = True
                    break
        if produced:
            continue
        # 3. incoming transfer
        moved = False
        for q in sorted(g.predecessors(node), key=str):
            key = ("send", q, node, interval)
            if available(key):
                used[key] = 1
                transfers.append(TreeTransfer(src=q, dst=node, interval=interval))
                inputs.append((interval, q))
                moved = True
                break
        if not moved:
            return None

    weight = min(a[key] for key in used) if used else None
    if weight is None:
        # degenerate: target owns everything (cannot happen for n >= 2)
        return None
    return ReductionTree(weight=weight, transfers=tuple(transfers),
                         tasks=tuple(tasks))


def extract_trees(solution, eps: Optional[float] = None) -> List[ReductionTree]:
    """``EXTRACT_TREES(A)``: decompose a solution into weighted trees.

    For exact solutions the weights sum to exactly ``TP``; for float
    solutions the loop stops when the remaining throughput is below ``eps``
    (default ``1e-9``) and weights are capped so they never exceed the
    remaining throughput.
    """
    exact = solution.exact
    if eps is None:
        eps = 0 if exact else 1e-9
    a = solution_op_values(solution)
    remaining = solution.throughput
    trees: List[ReductionTree] = []
    limit = 2 * (len(solution.problem.platform.nodes()) ** 4) + 16
    while remaining > (eps if not exact else 0):
        if len(trees) > limit:
            raise TreeExtractionError(
                f"extracted more than the 2n^4 bound ({limit}) — aborting")
        tree = find_tree(a, solution.problem, eps=eps if not exact else 0)
        if tree is None:
            if exact:
                raise TreeExtractionError(
                    f"no tree found with {remaining} throughput unaccounted")
            break  # float residue below tolerance ladder — accept
        w = tree.weight
        if w > remaining:
            w = remaining  # cap (float path only; exact math never overshoots)
            tree = ReductionTree(weight=w, transfers=tree.transfers,
                                 tasks=tree.tasks)
        for op in tree.all_ops():
            if isinstance(op, TreeTransfer):
                key = ("send", op.src, op.dst, op.interval)
            else:
                key = ("cons", op.node, op.task)
            a[key] = a[key] - w
            if not exact and a[key] <= eps:
                a[key] = 0
        remaining = remaining - w
        trees.append(tree)
    return trees


def trees_weight_sum(trees: List[ReductionTree]) -> object:
    return sum((t.weight for t in trees), 0)


def incidence(trees: List[ReductionTree]) -> Dict[OpKey, object]:
    """``sum_T w(T) * chi_T`` — should reproduce the solution map ``A``.

    Used by tests to verify Lemma 2 / Theorem 1: the extracted weighted
    trees decompose the cleaned LP solution exactly.
    """
    total: Dict[OpKey, object] = {}
    for tree in trees:
        for op in tree.all_ops():
            if isinstance(op, TreeTransfer):
                key = ("send", op.src, op.dst, op.interval)
            else:
                key = ("cons", op.node, op.task)
            total[key] = total.get(key, 0) + tree.weight
    return total
