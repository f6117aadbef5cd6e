"""Unit tests for the bipartite matching decomposition."""

import random
import sys
from fractions import Fraction

import pytest

from repro.core.matching import decompose_matchings, weighted_degrees


def check_decomposition(edges, matchings, cap):
    """Common invariants of any valid decomposition."""
    # 1. durations sum to exactly cap
    assert sum((m.duration for m in matchings), 0) == cap
    # 2. every matching is node-disjoint
    for m in matchings:
        snd = [u for u, _ in m.pairs]
        rcv = [v for _, v in m.pairs]
        assert len(snd) == len(set(snd))
        assert len(rcv) == len(set(rcv))
    # 3. total time per edge is reproduced exactly
    shipped = {}
    for m in matchings:
        for (u, v) in m.pairs:
            shipped[(u, v)] = shipped.get((u, v), 0) + m.duration
    want = {}
    for (u, v, w) in edges:
        want[(u, v)] = want.get((u, v), 0) + w
    assert shipped == want


class TestDecompose:
    def test_single_edge(self):
        edges = [("s1", "r1", 3)]
        ms = decompose_matchings(edges)
        check_decomposition(edges, ms, 3)

    def test_two_disjoint_edges_run_together(self):
        edges = [("s1", "r1", 2), ("s2", "r2", 2)]
        ms = decompose_matchings(edges)
        real = [m for m in ms if m.pairs]
        assert len(real) == 1 and len(real[0].pairs) == 2
        check_decomposition(edges, ms, 2)

    def test_conflicting_edges_serialize(self):
        edges = [("s1", "r1", 1), ("s1", "r2", 1)]
        ms = decompose_matchings(edges)
        check_decomposition(edges, ms, 2)

    def test_fraction_weights(self):
        edges = [("a", "x", Fraction(1, 3)), ("a", "y", Fraction(1, 6)),
                 ("b", "x", Fraction(1, 6))]
        ms = decompose_matchings(edges)
        check_decomposition(edges, ms, Fraction(1, 2))

    def test_cap_above_max_degree_pads_idle(self):
        edges = [("s", "r", 1)]
        ms = decompose_matchings(edges, cap=5)
        check_decomposition(edges, ms, 5)

    def test_cap_below_degree_rejected(self):
        with pytest.raises(ValueError):
            decompose_matchings([("s", "r", 3)], cap=2)

    def test_float_weights_rejected_up_front(self):
        # float deficits need not cancel, so padding or the matching
        # search could fail deep inside; inexact weights are refused first
        edges = [(3, 3, 0.1), (2, 3, 0.7), (2, 3, 0.3), (1, 1, 0.3),
                 (1, 0, 1 / 3), (2, 1, 0.3)]
        with pytest.raises(TypeError, match="need exact rational"):
            decompose_matchings(edges)
        with pytest.raises(TypeError):
            decompose_matchings([("s", "r", 1)], cap=1.5)

    def test_empty_input(self):
        assert decompose_matchings([]) == []

    def test_zero_weight_edges_dropped(self):
        ms = decompose_matchings([("s", "r", 0), ("s", "q", 2)])
        check_decomposition([("s", "q", 2)], ms, 2)

    def test_polynomial_matching_count(self):
        # count is bounded by edges + padding, never explodes
        edges = [(f"s{i}", f"r{j}", 1) for i in range(4) for j in range(4)]
        ms = decompose_matchings(edges)
        assert len(ms) <= len(edges) + 9
        check_decomposition(edges, ms, 4)

    def test_figure3_instance(self):
        """The paper's Figure 3: the Fig-2 LP communication graph decomposes
        into matchings of total weight 12 (four in the paper's solution)."""
        edges = [("Ps", "rPa", 3), ("Ps", "rPb", 9),
                 ("Pa", "rP0", 2), ("Pb", "rP0", 4), ("Pb", "rP1", 8)]
        ms = decompose_matchings(edges, cap=12)
        check_decomposition(edges, ms, 12)
        real = [m for m in ms if m.pairs]
        assert len(real) <= 5  # paper exhibits 4; any small count is valid

    def test_unbalanced_sides(self):
        edges = [("s1", "r1", 1), ("s2", "r1", 1), ("s3", "r1", 1)]
        ms = decompose_matchings(edges)
        check_decomposition(edges, ms, 3)

    def test_regular_graph_perfect_matchings(self):
        # 2-regular bipartite graph: every matching should be perfect
        edges = [("a", "x", 1), ("a", "y", 1), ("b", "x", 1), ("b", "y", 1)]
        ms = decompose_matchings(edges)
        for m in ms:
            assert len(m.pairs) == 2
        check_decomposition(edges, ms, 2)


#: Weights the randomized instances draw from: mixed denominators plus
#: plain ints, so the micro-unit scale is a nontrivial lcm.
MIXED_WEIGHTS = (Fraction(1, 3), Fraction(1, 7), Fraction(5, 12),
                 Fraction(3, 4), Fraction(2, 5), 1, 2)


def random_multigraph(rng, all_int):
    """Exact bipartite multigraph: unequal sides, parallel edges allowed."""
    senders = [f"s{i}" for i in range(rng.randint(1, 6))]
    receivers = [f"r{j}" for j in range(rng.randint(1, 6))]
    edges = []
    for _ in range(rng.randint(1, 14)):
        w = rng.randint(1, 9) if all_int else rng.choice(MIXED_WEIGHTS)
        edges.append((rng.choice(senders), rng.choice(receivers), w))
    if rng.random() < 0.3:          # a parallel copy of an existing edge
        u, v, _w = rng.choice(edges)
        edges.append((u, v, rng.randint(1, 3) if all_int
                      else rng.choice(MIXED_WEIGHTS)))
    return edges


class TestRandomizedDecompositions:
    @pytest.mark.parametrize("seed", range(200))
    def test_random_multigraph(self, seed):
        rng = random.Random(seed)
        all_int = seed % 4 == 0
        edges = random_multigraph(rng, all_int)
        du, dv = weighted_degrees(edges)
        maxdeg = max(list(du.values()) + list(dv.values()))
        cap = None
        if seed % 3 == 0:           # cap above the maximum degree
            cap = maxdeg + (rng.randint(1, 4) if all_int
                            else rng.choice(MIXED_WEIGHTS))
        ms = decompose_matchings(edges, cap=cap)
        check_decomposition(edges, ms, maxdeg if cap is None else cap)
        assert len(ms) <= len(edges) + len(du) + len(dv)
        exact = any(isinstance(x, Fraction) for x in
                    [w for _u, _v, w in edges] + [cap])
        for m in ms:
            if exact:
                assert isinstance(m.duration, Fraction)
            else:
                assert type(m.duration) is int


class TestDeepAugmentingPaths:
    def test_2000_ports_never_touch_the_recursion_limit(self, monkeypatch):
        """One augmenting path runs through all 1000 senders.

        Sender ``s_i`` lists ``r_{i+1}`` before ``r_i``, so the greedy
        pass leaves ``s_999`` with only taken receivers and the search
        must walk the whole chain back to ``r_0``: deeper than the
        default recursion limit, yet the search is iterative.
        """
        def refuse(_limit):
            raise AssertionError("decomposition touched the recursion limit")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        n = 1000
        edges = []
        for i in range(n - 1):
            edges += [(f"s{i}", f"r{i + 1}", 1), (f"s{i}", f"r{i}", 1)]
        edges.append((f"s{n - 1}", f"r{n - 1}", 1))
        ms = decompose_matchings(edges)
        check_decomposition(edges, ms, 2)
        assert len(ms) == 2


class TestWeightedDegrees:
    def test_degrees(self):
        du, dv = weighted_degrees([("a", "x", 2), ("a", "y", 3), ("b", "x", 4)])
        assert du == {"a": 5, "b": 4}
        assert dv == {"x": 6, "y": 3}
