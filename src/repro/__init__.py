"""repro — steady-state throughput optimization of scatter and reduce
operations on heterogeneous platforms.

Reproduction of Legrand, Marchal, Robert, *"Optimizing the steady-state
throughput of scatter and reduce operations on heterogeneous platforms"*
(INRIA RR-4872, 2003 / IPPS 2004).

Quickstart::

    from repro.platform import figure2_platform
    from repro.core import ScatterProblem, solve_scatter, build_scatter_schedule
    from repro.sim.executor import simulate_scatter

    problem = ScatterProblem(figure2_platform(), "Ps", ["P0", "P1"])
    solution = solve_scatter(problem)           # TP == 1/2, exact
    schedule = build_scatter_schedule(solution) # periodic one-port schedule
    result = simulate_scatter(schedule, problem, n_periods=50)
    assert result.correct

Layout: ``platform`` (graphs, generators, the paper's figures), ``lp``
(exact and float solvers), ``core`` (the paper's LPs, trees and periodic
schedules), ``collectives`` (the registry-driven solve → schedule →
simulate pipeline), ``sim`` (periodic replay on the one-port model),
``baselines`` (classical plans on the same pipeline) and ``mpi``
(``SimComm``).  ``pytest benchmarks/`` prints the paper-vs-measured row
of every figure.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
