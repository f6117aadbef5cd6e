"""Unit tests for the bipartite matching decomposition."""

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


class TestWeightedDegrees:
    def test_degrees(self):
        du, dv = weighted_degrees([("a", "x", 2), ("a", "y", 3), ("b", "x", 4)])
        assert du == {"a": 5, "b": 4}
        assert dv == {"x": 6, "y": 3}
