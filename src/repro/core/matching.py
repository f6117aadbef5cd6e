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
2. the padded multigraph is weighted-regular, so by Hall's theorem its
   support contains a perfect matching; find one (Kuhn's augmenting paths),
3. peel off the minimum weight ``θ`` along that matching — regularity is
   preserved and at least one edge disappears, so at most ``|E| + |U| + |V|``
   matchings are produced (polynomially many, as Theorem 1 requires),
4. report each matching restricted to its real (non-dummy) edges with its
   duration ``θ``; durations sum to exactly ``T``.

Weights must be exact (int or ``Fraction``): with floats the padding's
deficits need not cancel, so inexact input is refused up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Hashable, List, Sequence, Tuple

PortId = Hashable


class DecompositionError(ValueError):
    """The matching decomposition (or slot packing) could not complete."""


def require_exact(x) -> None:
    """Raise ``TypeError`` unless ``x`` is an int or a ``Fraction``."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"need exact rational, got {type(x).__name__}")


@dataclass
class _MEdge:
    u: PortId
    v: PortId
    weight: object
    real: bool


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
    int or ``Fraction`` (``TypeError`` otherwise).
    """
    for _u, _v, w in edges:
        require_exact(w)
    if cap is not None:
        require_exact(cap)
    edges = [(u, v, w) for (u, v, w) in edges if w > 0]
    if not edges:
        return []
    du, dv = weighted_degrees(edges)
    maxdeg = max(list(du.values()) + list(dv.values()))
    if cap is None:
        cap = maxdeg
    elif maxdeg > cap:
        raise ValueError(f"port degree {maxdeg} exceeds cap {cap}")

    work: List[_MEdge] = [_MEdge(u, v, w, True) for (u, v, w) in edges]

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
        work.append(_MEdge(u, v, w, False))
        deficit_u[u] -= w
        deficit_v[v] -= w
        if deficit_u[u] == 0:
            iu += 1
        if deficit_v[v] == 0:
            iv += 1
    if any(deficit_u[u] != 0 for u in senders) or any(deficit_v[v] != 0 for v in receivers):
        raise DecompositionError("padding failed — unbalanced deficits")

    # --- peel perfect matchings ---
    out: List[Matching] = []
    while work:
        match = _perfect_matching(work, senders, receivers)
        theta = min(e.weight for e in match)
        pairs = [(e.u, e.v) for e in match if e.real]
        out.append(Matching(duration=theta, pairs=pairs))
        nxt: List[_MEdge] = []
        matched = set(id(e) for e in match)
        for e in work:
            if id(e) in matched:
                e.weight = e.weight - theta
            if e.weight > 0:
                nxt.append(e)
        work = nxt
    return out


def _perfect_matching(edges: List[_MEdge], senders: List[PortId],
                      receivers: List[PortId]) -> List[_MEdge]:
    """Perfect matching on the support of a regular bipartite multigraph.

    Kuhn's augmenting-path algorithm over edge objects.  Existence is
    guaranteed by regularity (Hall's condition); failure raises.
    """
    adj: Dict[PortId, List[_MEdge]] = {u: [] for u in senders}
    for e in edges:
        adj[e.u].append(e)
    match_v: Dict[PortId, _MEdge] = {}

    def try_augment(u: PortId, visited: set) -> bool:
        for e in adj[u]:
            if e.v in visited:
                continue
            visited.add(e.v)
            cur = match_v.get(e.v)
            if cur is None or try_augment(cur.u, visited):
                match_v[e.v] = e
                return True
        return False

    import sys
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * (len(senders) + len(receivers)) + 100))
    try:
        for u in senders:
            if not try_augment(u, set()):
                raise DecompositionError(
                    f"no perfect matching — graph not regular? stuck at {u!r}")
    finally:
        sys.setrecursionlimit(old_limit)
    return list(match_v.values())
