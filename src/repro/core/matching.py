"""Bipartite weighted matching decomposition (Section 3.3).

The paper builds, from the LP solution, a bipartite graph with one *send
port* and one *receive port* per processor and one weighted edge per
transfer; the one-port constraints say every port's weighted degree is at
most the period ``T``.  The weighted edge-coloring algorithm of Schrijver
[23, vol. A ch. 20] then splits the graph into weighted matchings with total
weight at most ``T`` — each matching is a set of transfers that may run
simultaneously, and the sequence of matchings is the periodic schedule.

We implement the classical Birkhoff–von-Neumann-style constructive proof:

1. pad with dummy nodes/edges until every port's weighted degree is exactly
   ``T`` (possible because total sender weight equals total receiver weight),
2. scale every weight by the lcm of their denominators, so the peeling
   runs on an integer micro-unit scale; the padded multigraph is
   weighted-regular, so by Hall's theorem its support contains a perfect
   matching; find one with Kuhn's augmenting paths, each an iterative
   (explicit-stack) depth-first search,
3. peel off the minimum weight ``θ`` along that matching — regularity is
   preserved and at least one edge disappears, so at most ``|E| + |U| + |V|``
   matchings are produced (polynomially many, as Theorem 1 requires).  The
   matching is warm-started: only the edges that reach zero leave it, and
   only their senders are re-augmented for the next peel,
4. report each matching restricted to its real (non-dummy) edges with its
   duration ``θ`` converted back exactly; durations sum to exactly ``T``.

Weights must be exact (int or ``Fraction``): with floats the padding's
deficits need not cancel, so inexact input is refused up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, Hashable, List, Sequence, Tuple

PortId = Hashable


class DecompositionError(ValueError):
    """The matching decomposition (or slot packing) could not complete."""


def require_exact(x) -> None:
    """Raise ``TypeError`` unless ``x`` is an int or a ``Fraction``."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"need exact rational, got {type(x).__name__}")


@dataclass
class Matching:
    """One color class: transfers that run simultaneously for ``duration``."""

    duration: object
    pairs: List[Tuple[PortId, PortId]]

    def __iter__(self):
        return iter(self.pairs)


def weighted_degrees(edges: Sequence[Tuple[PortId, PortId, object]]):
    """(sender degree map, receiver degree map) of a weighted edge list."""
    du: Dict[PortId, object] = {}
    dv: Dict[PortId, object] = {}
    for u, v, w in edges:
        du[u] = du.get(u, 0) + w
        dv[v] = dv.get(v, 0) + w
    return du, dv


def decompose_matchings(edges: Sequence[Tuple[PortId, PortId, object]],
                        cap=None) -> List[Matching]:
    """Decompose ``{(sender, receiver): weight}`` into weighted matchings.

    ``cap`` is the period ``T``; it must dominate every port's weighted
    degree.  Defaults to the maximum weighted degree.  Returned durations sum
    to ``cap`` (idle time shows up as matchings with an empty ``pairs`` list
    when every remaining edge is a dummy).  Weights and ``cap`` must be
    int or ``Fraction`` (``TypeError`` otherwise); durations are
    ``Fraction`` when any of them is, ``int`` otherwise.
    """
    for _u, _v, w in edges:
        require_exact(w)
    if cap is not None:
        require_exact(cap)
    exact = isinstance(cap, Fraction) or any(
        isinstance(w, Fraction) for _u, _v, w in edges)
    edges = [(u, v, w) for (u, v, w) in edges if w > 0]
    if not edges:
        return []
    du, dv = weighted_degrees(edges)
    maxdeg = max(list(du.values()) + list(dv.values()))
    if cap is None:
        cap = maxdeg
    elif maxdeg > cap:
        raise ValueError(f"port degree {maxdeg} exceeds cap {cap}")

    # (sender, receiver, weight, real?) — padding edges are not real
    work: List[Tuple[PortId, PortId, object, bool]] = [
        (u, v, w, True) for (u, v, w) in edges]

    # --- pad to a weighted-regular bipartite multigraph of degree `cap` ---
    senders = list(du)
    receivers = list(dv)
    # equalize side sizes with dummy ports
    n = max(len(senders), len(receivers))
    for i in range(n - len(senders)):
        senders.append(("__dummy_sender__", i))
        du[senders[-1]] = 0
    for i in range(n - len(receivers)):
        receivers.append(("__dummy_receiver__", i))
        dv[receivers[-1]] = 0
    deficit_u = {u: cap - du[u] for u in senders}
    deficit_v = {v: cap - dv[v] for v in receivers}
    su = [u for u in senders if deficit_u[u] > 0]
    sv = [v for v in receivers if deficit_v[v] > 0]
    iu = iv = 0
    while iu < len(su) and iv < len(sv):
        u, v = su[iu], sv[iv]
        w = min(deficit_u[u], deficit_v[v])
        work.append((u, v, w, False))
        deficit_u[u] -= w
        deficit_v[v] -= w
        if deficit_u[u] == 0:
            iu += 1
        if deficit_v[v] == 0:
            iv += 1
    if any(deficit_u[u] != 0 for u in senders) or any(deficit_v[v] != 0 for v in receivers):
        raise DecompositionError("padding failed — unbalanced deficits")

    # --- peel perfect matchings on the integer micro-unit scale ---
    scale = lcm(*(Fraction(w).denominator for _u, _v, w, _r in work))
    sid = {u: i for i, u in enumerate(senders)}
    rid = {v: i for i, v in enumerate(receivers)}
    e_u = [sid[u] for u, _v, _w, _r in work]
    e_v = [rid[v] for _u, v, _w, _r in work]
    e_w = [int(w * scale) for _u, _v, w, _r in work]
    adj: List[List[int]] = [[] for _ in senders]
    for k, u in enumerate(e_u):
        adj[u].append(k)
    match_u = [-1] * n
    match_v = [-1] * n
    seen = [-1] * n
    searches = 0
    free = list(range(n))
    left = int(cap * scale)     # every port's remaining weighted degree
    out: List[Matching] = []
    while True:
        for u in free:
            searches += 1
            if not _augment(u, adj, e_u, e_v, match_u, match_v, seen, searches):
                raise DecompositionError(
                    f"no perfect matching — graph not regular? stuck at "
                    f"{senders[u]!r}")
        theta = min(e_w[k] for k in match_u)
        out.append(Matching(
            duration=Fraction(theta, scale) if exact else theta,
            pairs=[work[k][:2] for k in match_u if work[k][3]]))
        free = []
        for u, k in enumerate(match_u):
            e_w[k] -= theta
            if e_w[k] == 0:
                adj[u].remove(k)
                match_u[u] = match_v[e_v[k]] = -1
                free.append(u)
        left -= theta
        if left == 0:
            return out


def _augment(root: int, adj: List[List[int]], e_u: List[int], e_v: List[int],
             match_u: List[int], match_v: List[int], seen: List[int],
             stamp: int) -> bool:
    """Match free sender ``root`` along an augmenting path (Kuhn's step).

    Depth-first over an explicit stack, so the path length is not bounded
    by the interpreter's recursion limit.  ``seen[v] == stamp`` marks the
    receivers this search already visited.
    """
    stack = [root]              # senders on the current alternating path
    cursor = [0]                # next adjacency index to try, per sender
    path: List[int] = []        # path[i] reaches the receiver stack[i + 1] holds
    while stack:
        edges = adj[stack[-1]]
        i = cursor[-1]
        while i < len(edges):
            k = edges[i]
            i += 1
            v = e_v[k]
            if seen[v] == stamp:
                continue
            seen[v] = stamp
            path.append(k)
            if match_v[v] < 0:          # free receiver: flip the path
                for j in path:
                    match_u[e_u[j]] = match_v[e_v[j]] = j
                return True
            cursor[-1] = i
            stack.append(e_u[match_v[v]])
            cursor.append(0)
            break
        else:                           # dead end: back up one edge
            stack.pop()
            cursor.pop()
            if path:
                path.pop()
    return False
