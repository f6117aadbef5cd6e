"""Unit tests for the simulated MPI communicator."""

from fractions import Fraction

import pytest

from repro.mpi.comm import SimComm
from repro.platform.examples import figure2_platform, figure6_platform
from repro.platform.generators import complete
from repro.platform.graph import PlatformGraph
from repro.sim.operators import SeqConcat, noncommutative_reduce


@pytest.fixture
def comm():
    return SimComm(figure6_platform())


class TestConstruction:
    def test_default_ranks_are_compute_nodes(self, comm):
        assert comm.size() == 3
        assert comm.node_of(0) == 0

    def test_too_few_ranks_rejected(self):
        g = complete(2)
        with pytest.raises(ValueError):
            SimComm(g, ranks=[g.nodes()[0]])

    def test_unknown_rank_node_rejected(self):
        with pytest.raises(ValueError):
            SimComm(figure6_platform(), ranks=[0, "nope"])


class TestSingleShot:
    def test_scatter_values_and_makespan(self, comm):
        values = ["x", "y", "z"]
        out, makespan = comm.scatter(values, root=0)
        assert out == values
        assert makespan == 2

    def test_scatter_wrong_arity(self, comm):
        with pytest.raises(ValueError):
            comm.scatter(["a"], root=0)

    def test_reduce_matches_reference(self, comm):
        values = [SeqConcat.leaf(j, 0) for j in range(3)]
        result, makespan = comm.reduce(values, root=0)
        assert result == noncommutative_reduce(values)
        # two unit receives, then two merges at speed 2, all exact
        assert makespan == 3 and isinstance(makespan, Fraction)


def _graph(*edges):
    g = PlatformGraph()
    for src, dst in edges:
        g.add_edge(src, dst, 1)
    return g


class TestPortClock:
    """Single-shot makespans pin the one-port list schedule behind them."""

    def test_transfer_duration(self):
        _, makespan = SimComm(figure2_platform(), ["Pa", "P0"]).scatter([0, 1])
        assert makespan == Fraction(2, 3)  # size 1 x cost 2/3

    def test_makespan(self, comm):
        # the root's two unit sends back to back
        assert comm.scatter([0, 1, 2])[1] == 2

    def test_sends_serialize_on_sender(self):
        comm = SimComm(figure2_platform(), ["Ps", "Pa", "Pb"])
        assert comm.scatter([0, 1, 2])[1] == 2

    def test_receives_serialize_on_receiver(self):
        # a router root merges nothing: the makespan is the last receive
        comm = SimComm(_graph(("a", "x"), ("b", "x")), ["x", "a", "b"])
        values = [SeqConcat.leaf(j, 0) for j in range(3)]
        assert comm.reduce(values)[1] == 2

    def test_disjoint_transfers_overlap(self):
        # s -> b runs while a forwards to t
        comm = SimComm(_graph(("s", "a"), ("a", "t"), ("s", "b")),
                       ["s", "t", "b"])
        assert comm.scatter([0, 1, 2])[1] == 2

    def test_route_transfer_store_and_forward(self):
        _, makespan = SimComm(figure2_platform(), ["Ps", "P1"]).scatter([0, 1])
        assert makespan == Fraction(7, 3)  # 1 (Ps->Pb) + 4/3 (Pb->P1)

    def test_ready_time_respected(self):
        # a's send port is free at 1, but t's message only reaches a at 2
        comm = SimComm(_graph(("s", "a"), ("a", "t")), ["s", "a", "t"])
        assert comm.scatter([0, 1, 2])[1] == 3

    def test_compute_serializes(self, comm):
        # fig6: receives end at 2, then node 0 runs two 1/2 merges in turn
        assert comm.reduce([SeqConcat.leaf(j, 0) for j in range(3)])[1] == 3


class TestSeries:
    def test_scatter_series_reaches_lp_rate(self, comm):
        report = comm.scatter_series(root=0, n_periods=50)
        assert report.correct
        assert report.measured_throughput <= float(report.lp_throughput) + 1e-9
        assert report.measured_throughput >= 0.8 * float(report.lp_throughput)

    def test_reduce_series_reaches_lp_rate(self, comm):
        report = comm.reduce_series(root=0, n_periods=50)
        assert report.correct
        assert float(report.lp_throughput) == 1.0  # the Figure 6 optimum
        assert report.measured_throughput >= 0.8

    def test_series_throughput_beats_single_shot_rate(self, comm):
        """The whole point of the paper: pipelining beats repeating the
        makespan-optimal single operation."""
        values = [SeqConcat.leaf(j, 0) for j in range(3)]
        _res, makespan = comm.reduce(values, root=0)
        single_rate = 1.0 / float(makespan)
        report = comm.reduce_series(root=0, n_periods=60)
        assert report.measured_throughput > single_rate
