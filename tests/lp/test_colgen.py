"""Dantzig-Wolfe column generation (PR 8): structure detection, pricing,
determinism, differential equivalence.

Four layers are pinned here:

- **Differential.** ``solve_colgen`` must reproduce the fraction-free
  tableau's exact rational optimum on randomized scatter/reduce
  instances and on hand-built block-angular LPs, and its expanded
  edge-flow solution must satisfy the *raw* LP exactly (``tol=0``).
  (The conformance suite extends this bit-identity to every registered
  collective on the platform fleet.)
- **Pricing.** Negative-reduced-cost detection is checked against
  hand-computed duals on a block small enough to solve by inspection,
  and the Dijkstra path pricer against an enumerable graph — including
  the preconditions under which it must decline (``None``) and leave
  the block to LP pricing.
- **Determinism.** Two solves of one LP must produce the identical
  solution *and* the identical admitted column set (``columns_digest``),
  per the contract in :mod:`repro.lp.colgen`'s docstring.
- **Routing.** ``backend="colgen"`` through dispatch, auto-routing above
  ``COLGEN_VAR_LIMIT``, the incompatible-flag errors, and the fallback
  paths (minimization, no blocks, infeasible seed master).
"""

import random
from fractions import Fraction

import pytest

from repro.collectives import get_collective
from repro.core.scatter import ScatterProblem, build_scatter_lp
from repro.lp import dispatch
from repro.lp.colgen import _BlockPricer, _dijkstra_price, detect, solve_colgen
from repro.lp.exact_simplex import ExactSimplexSolver
from repro.lp.model import LinearProgram
from repro.lp.revised_simplex import (IncrementalColumnMaster,
                                      RevisedSimplexSolver,
                                      SimplexInvariantError)
from repro.lp.solution import SolveStatus
from repro.platform import generators as gen

SEED = 20260809


def _two_block_lp():
    """max TP with two single-commodity blocks sharing one capacity row.

    Block k is the cone ``a_k == b_k`` (one conservation row); the
    ``alpha[k]`` rows tie TP under each commodity's rate and the
    ``edge[cap]`` row makes the commodities compete for one link.
    """
    lp = LinearProgram("two-block")
    tp = lp.var("TP")
    a0, b0 = lp.var("a0"), lp.var("b0")
    a1, b1 = lp.var("a1"), lp.var("b1")
    lp.add(a0 - b0 == 0, name="cons[0]")
    lp.add(a1 - b1 == 0, name="cons[1]")
    lp.add(tp - a0 <= 0, name="alpha[0]")
    lp.add(tp - a1 <= 0, name="alpha[1]")
    lp.add(a0 + b0 + a1 + b1 <= 1, name="edge[cap]")
    lp.maximize(tp)
    return lp


class TestDetect:
    def test_two_block_lp_decomposes(self):
        lp = _two_block_lp()
        struct = detect(lp)
        assert struct is not None
        assert len(struct.blocks) == 2
        # TP is the only master variable; every block var is covered once
        assert struct.master_var_idx == [lp.get("TP").index]
        covered = sorted(j for b in struct.blocks for j in b.var_idx)
        assert covered == [lp.get(n).index for n in ("a0", "b0", "a1", "b1")]
        # capacity/alpha rows stay in the master, conservation rows do not
        names = [lp.constraints[ci].name for ci in struct.master_rows]
        assert "edge[cap]" in names and "alpha[0]" in names
        assert "cons[0]" not in names

    def test_scatter_lp_decomposes_per_commodity(self):
        g = gen.ring(5)
        nodes = g.compute_nodes()
        lp = build_scatter_lp(ScatterProblem(g, nodes[0], nodes[1:]))
        struct = detect(lp)
        assert struct is not None and len(struct.blocks) >= 2
        block_vars = {j for b in struct.blocks for j in b.var_idx}
        assert block_vars.isdisjoint(struct.master_var_idx)
        assert block_vars | set(struct.master_var_idx) == \
            set(range(lp.num_vars()))

    def test_minimization_returns_none(self):
        lp = _two_block_lp()
        lp.minimize(lp.get("TP") * 1)
        assert detect(lp) is None

    def test_no_blocks_returns_none(self):
        lp = LinearProgram("flat")
        x, y = lp.var("x", ub=2), lp.var("y", ub=3)
        lp.add(x + y <= 4, name="cap")
        lp.maximize(x + y)
        assert detect(lp) is None


class TestPricing:
    def test_negative_reduced_cost_against_hand_duals(self):
        """Block cone ``a0 == b0`` sliced at ``a0 + b0 = 1`` has the
        single vertex ``(1/2, 1/2)``; with duals y on the master rows
        the reduced cost is ``y . (A_master x)``, computable by hand."""
        lp = _two_block_lp()
        struct = detect(lp)
        block = struct.blocks[0]
        assert block.var_names == ("a0", "b0")
        pos = {lp.constraints[ci].name: p
               for p, ci in enumerate(struct.master_rows)}
        pricer = _BlockPricer(block)

        # y(alpha[0]) = 3, y(edge[cap]) = 1:
        # w = (1*1 + 3*(-1), 1*1) = (-2, 1); rc = w . (1/2, 1/2) = -1/2
        duals = {pos["alpha[0]"]: Fraction(3), pos["edge[cap]"]: Fraction(1)}
        tag, rc, vertex, _warm = pricer.price(duals, None)
        assert tag == "col"
        assert rc == Fraction(-1, 2)
        assert vertex == {0: Fraction(1, 2), 1: Fraction(1, 2)}

        # y(edge[cap]) = 1 alone: w = (1, 1), rc = 1 >= 0 -> priced out
        res = pricer.price({pos["edge[cap]"]: Fraction(1)}, None)
        assert res[0] == "none"

    def test_dijkstra_picks_cheapest_path(self):
        graph = {"source": "s", "sink": "t",
                 "arcs": (("s", "a", 0), ("a", "t", 1), ("s", "t", 2))}
        # two-hop path costs 1 + 0 = 1, direct arc costs -2
        w = [Fraction(1), Fraction(0), Fraction(-2)]
        tag, rc, vertex = _dijkstra_price(graph, w)
        assert (tag, rc) == ("col", Fraction(-2))
        assert vertex == {2: Fraction(1)}
        # make the two-hop route win instead (the discount must sit on
        # the *sink* arc — negative non-sink costs void the precondition)
        w = [Fraction(1), Fraction(-5), Fraction(-2)]
        tag, rc, vertex = _dijkstra_price(graph, w)
        assert (tag, rc) == ("col", Fraction(-4))
        assert vertex == {0: Fraction(1), 1: Fraction(1)}

    def test_dijkstra_priced_out_and_want_any(self):
        graph = {"source": "s", "sink": "t", "arcs": (("s", "t", 0),)}
        assert _dijkstra_price(graph, [Fraction(2)]) == ("none",)
        tag, rc, vertex = _dijkstra_price(graph, [Fraction(2)],
                                          want_any=True)
        assert (tag, rc, vertex) == ("col", Fraction(2), {0: Fraction(1)})

    def test_dijkstra_declines_invalid_preconditions(self):
        # a negative-cost non-sink arc breaks Dijkstra's optimality
        graph = {"source": "s", "sink": "t",
                 "arcs": (("s", "a", 0), ("a", "t", 1))}
        assert _dijkstra_price(graph, [Fraction(-1), Fraction(0)]) is None
        # an arc *out of* the sink breaks the path decomposition
        graph = {"source": "s", "sink": "t",
                 "arcs": (("s", "t", 0), ("t", "s", 1))}
        assert _dijkstra_price(graph, [Fraction(1), Fraction(1)]) is None

    def test_spec_pricing_graphs_enable_path_pricing(self):
        g = gen.ring(6)
        nodes = g.compute_nodes()
        problem = ScatterProblem(g, nodes[0], nodes[1:])
        lp = build_scatter_lp(problem)
        graphs = get_collective("scatter").pricing_graphs(problem)
        assert graphs, "scatter spec must supply pricing graphs"
        sol = solve_colgen(lp, pricing=graphs)
        assert sol.optimal and sol.exact
        assert sol.stats["path_blocks"] >= 1
        assert sol.objective == ExactSimplexSolver().solve(lp).objective


class TestDifferential:
    @pytest.mark.parametrize("trial", range(6))
    def test_random_scatter_matches_tableau(self, trial):
        rng = random.Random(SEED + trial)
        g = gen.heterogenize(
            gen.random_connected(rng.randint(4, 7),
                                 extra_edges=rng.randint(1, 4),
                                 seed=SEED + trial),
            seed=trial)
        nodes = g.compute_nodes()
        lp = build_scatter_lp(ScatterProblem(g, nodes[0], nodes[1:]))
        colgen = solve_colgen(lp)
        tableau = ExactSimplexSolver().solve(lp)
        assert colgen.optimal and tableau.optimal
        assert colgen.exact
        assert colgen.objective == tableau.objective
        assert lp.check_feasible(colgen.values, tol=0) == []

    def test_two_block_lp_exact_optimum(self):
        # by hand: both commodities run at TP, the shared link carries
        # 2*TP per commodity's (a, b) pair -> 4*TP <= 1 -> TP = 1/4
        sol = solve_colgen(_two_block_lp())
        assert sol.optimal and sol.objective == Fraction(1, 4)
        assert sol.stats["blocks"] == 2
        assert sol.stats["rounds"] >= 1

    def test_unbounded_transfers(self):
        lp = _two_block_lp()
        # dropping the capacity row leaves TP unbounded above
        lp.constraints[:] = [c for c in lp.constraints
                             if c.name != "edge[cap]"]
        assert solve_colgen(lp).status is SolveStatus.UNBOUNDED


class TestDeterminism:
    def test_serial_solves_are_identical(self):
        """Two solves: identical solution values, identical admitted
        column set, identical round/pricing counters — and the column
        set pinned, so a change in admission order cannot slip by."""
        g = gen.heterogenize(gen.ring(8), seed=3)
        nodes = g.compute_nodes()
        lp = build_scatter_lp(ScatterProblem(g, nodes[0], nodes[1:]))
        base, again = solve_colgen(lp), solve_colgen(lp)
        assert base.optimal and base.stats["rounds"] >= 2
        assert base.objective == Fraction(1, 14)
        assert base.stats["columns_digest"] == "f0606b9ea34c08ec"
        assert again.values == base.values
        for key in ("columns_digest", "rounds", "columns",
                    "columns_priced", "seed_columns"):
            assert again.stats[key] == base.stats[key], key


class TestFallbacksAndRouting:
    def test_minimization_falls_back(self):
        lp = LinearProgram("mini")
        x = lp.var("x", ub=4)
        lp.add(x >= 1, name="lo")
        lp.minimize(x * 1)
        sol = solve_colgen(lp)
        assert sol.optimal and sol.objective == 1
        assert sol.stats["fallback"] == "minimize"
        assert sol.backend == "colgen"

    def test_no_blocks_falls_back(self):
        lp = LinearProgram("flat")
        x, y = lp.var("x", ub=2), lp.var("y", ub=3)
        lp.add(x + y <= 4, name="cap")
        lp.maximize(x + y)
        sol = solve_colgen(lp)
        assert sol.optimal and sol.objective == 4
        assert sol.stats["fallback"] == "no blocks"

    def test_infeasible_master_falls_back(self):
        # the block cone only contains the zero ray (a == 0 == b), so
        # the seed round cannot populate the demand row and the round-0
        # master is infeasible -> direct fallback diagnoses the full LP
        lp = LinearProgram("infeas")
        tp = lp.var("TP")
        a, b = lp.var("a"), lp.var("b")
        lp.add(a + b == 0, name="cons[0]")
        lp.add(a - b == 0, name="cons[1]")
        lp.add(a + b >= 1, name="demand")
        lp.add(tp - a <= 0, name="alpha[0]")
        lp.maximize(tp)
        sol = solve_colgen(lp)
        assert sol.status is SolveStatus.INFEASIBLE
        assert sol.stats["fallback"] == "master infeasible"

    def test_float_lp_rejected(self):
        lp = LinearProgram("float")
        x = lp.var("x", ub=1.5)
        lp.maximize(x * 1)
        with pytest.raises(ValueError, match="colgen requires"):
            solve_colgen(lp)

    def test_dispatch_backend_colgen_matches_exact(self):
        g = gen.ring(5)
        nodes = g.compute_nodes()
        lp = build_scatter_lp(ScatterProblem(g, nodes[0], nodes[1:]))
        exact = dispatch.solve(lp, backend="exact", cache=False)
        colgen = dispatch.solve(lp, backend="colgen", cache=False)
        assert colgen.exact and colgen.objective == exact.objective
        assert colgen.stats["engine"] == "colgen"
        # the PR 8 var-count contract: both sides recorded, and colgen
        # bypasses presolve so they coincide
        assert colgen.stats["vars_raw"] == lp.num_vars()
        assert colgen.stats["vars_presolved"] == lp.num_vars()

    def test_auto_routes_to_colgen_above_limit(self, monkeypatch):
        monkeypatch.setattr(dispatch, "COLGEN_VAR_LIMIT", 10)
        g = gen.ring(5)
        nodes = g.compute_nodes()
        lp = build_scatter_lp(ScatterProblem(g, nodes[0], nodes[1:]))
        sol = dispatch.solve(lp, backend="auto", cache=False)
        assert sol.exact and sol.stats["engine"] == "colgen"

    def test_incompatible_flags_rejected(self):
        lp = _two_block_lp()
        with pytest.raises(ValueError):
            dispatch.solve(lp, backend="colgen", dual=True, cache=False)
        with pytest.raises(ValueError):
            dispatch.solve(lp, backend="colgen", canonical=True,
                           cache=False)


class TestIncrementalMaster:
    def test_spliced_column_matches_full_rebuild(self):
        """A zero-objective column spliced into the live core must land
        on the same optimum as rebuilding the master from scratch."""
        lp = LinearProgram("master")
        tp = lp.var("TP")
        c0 = lp.var("col0")
        lp.add(tp - c0 <= 0, name="alpha[0]")
        lp.add(c0 + tp * 0 <= 1, name="edge[cap]")
        lp.maximize(tp)
        inc = IncrementalColumnMaster(lp, RevisedSimplexSolver())
        res = inc.solve_full()
        assert res.optimal and res.objective == 1

        # a second column relaxes alpha[0] twice as fast as it spends
        # capacity -> optimum moves to TP = 2
        res2 = inc.add_and_resolve([("col1", {0: Fraction(-2),
                                              1: Fraction(1)})])
        assert res2 is not None and res2.optimal
        assert res2.objective == 2
        assert res2.values.get("col1") == 1

        rebuilt = LinearProgram("rebuilt")
        tp = rebuilt.var("TP")
        c0, c1 = rebuilt.var("col0"), rebuilt.var("col1")
        rebuilt.add(tp - c0 - 2 * c1 <= 0, name="alpha[0]")
        rebuilt.add(c0 + c1 <= 1, name="edge[cap]")
        rebuilt.maximize(tp)
        full = IncrementalColumnMaster(rebuilt,
                                       RevisedSimplexSolver()).solve_full()
        assert full.optimal and full.objective == res2.objective

    def test_resolve_without_live_core_raises_typed_error(self):
        """The no-core guard is a real check, not an ``assert`` that
        ``python -O`` would strip."""
        lp = LinearProgram("master")
        tp = lp.var("TP")
        lp.add(tp <= 1, name="edge[cap]")
        lp.maximize(tp)
        with pytest.raises(SimplexInvariantError, match="live master core"):
            IncrementalColumnMaster(lp).resolve()
