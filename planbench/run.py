"""End-to-end planner benchmark: whole requests through the public API.

Each request is ``solve_collective``/``replan`` -> ``verify`` ->
``schedule_collective``/``schedule_from_rates`` -> ``simulate_*``, issued
one after another from a single process and thread (a closed loop with
one client).  Every result is checked against an independent reference
(:mod:`oracle`) outside the timed region.

Usage, from the repository root::

    python3 planbench/run.py --workload planner-mix --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` reruns the
first round with every layer entry point wrapped (:mod:`tracing`) and
prints the per-layer metrics instead.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``planbench/README.md`` for the workloads, metrics and seeds.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform as _platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
HELDOUT_SEED = 9001
#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_PROBES = 3
#: Rounds a run issues at the least, however long they take.  The first
#: is the warm-up (lazy imports, first calls) and is not timed; each
#: request's time is the median of the other rounds.
MIN_ROUNDS = 4
#: Speed probes: after each request the run times the calibration
#: kernel, ``PROBE_ITERATIONS`` at a time, for ``PROBE_SHARE`` of the
#: request's time but at most ``PROBE_MAX_S`` (and at least once).
#: ``PROBE_REF_S`` is one probe's time at the reference speed (about the
#: fastest the 2-CPU build host runs it); timings are reported at that
#: speed.
PROBE_ITERATIONS = 4000
PROBE_SHARE = 0.2
PROBE_MAX_S = 0.1
PROBE_REF_S = 0.010
#: Speed probes a setup interpreter takes after its imports.
SETUP_SPEED_PROBES = 10

END_TO_END_UNITS = {
    "setup_s": "s", "plans_per_s": "1/s", "plan_s_p50": "s",
    "plan_s_p90": "s", "period_T_gmean": "tu",
    "warmup_periods_mean": "periods", "peak_rss_mb": "MB",
}


# ----------------------------------------------------------------------
# library access (module attributes are looked up per call, so the
# traced run's wrappers are seen)
# ----------------------------------------------------------------------
def load_library():
    import repro.collectives as collectives
    import repro.core.schedule as core_schedule
    import repro.lp.dispatch as dispatch
    import repro.lp.resolve as resolve
    import repro.platform.perturb as perturb
    import repro.sim.compiled  # noqa: F401  (the compiled engine's numpy)
    import repro.sim.executor as executor

    return SimpleNamespace(
        collectives=collectives, core_schedule=core_schedule,
        dispatch=dispatch, resolve=resolve, perturb=perturb,
        executor=executor)


def horizon(problem) -> int:
    """Replay length: enough periods to fill a pipeline as deep as the
    platform and then hold the steady window."""
    return 2 * len(problem.platform.nodes()) + 8


# ----------------------------------------------------------------------
# one request
# ----------------------------------------------------------------------
@dataclass
class Record:
    index: int
    round: int
    slot: int
    kind: str
    name: str
    seconds: float = 0.0
    period: Optional[Fraction] = None
    warmup: Optional[int] = None
    problems: List[str] = field(default_factory=list)
    transfers: int = 0
    slot_events: int = 0
    #: speed probes taken right after the request
    probes: List[float] = field(default_factory=list)
    engine: str = ""

    @property
    def ok(self) -> bool:
        return not self.problems


class Runner:
    """Issues a workload's rounds and checks each result."""

    def __init__(self, workload: str, seed: int, size: str, lib) -> None:
        import oracle
        import workloads

        self.workload, self.seed, self.size = workload, seed, size
        self.lib = lib
        self.workloads = workloads
        self.oracle_mod = oracle
        self.tracer = None
        self.oracle = oracle.Oracle()

    @contextmanager
    def _paused(self):
        tracer = self.tracer
        if tracer is None:
            yield
            return
        tracer.paused = True
        try:
            yield
        finally:
            tracer.paused = False

    def run(self, seconds: float, min_rounds: int = MIN_ROUNDS,
            max_rounds: Optional[int] = None) -> List[Record]:
        """Whole rounds until ``seconds`` have passed and at least
        ``min_rounds`` are done."""
        records: List[Record] = []
        t0 = time.perf_counter()
        stream = self.workloads.rounds(self.workload, self.seed, self.size)
        for r, requests in enumerate(stream):
            if max_rounds is not None and r >= max_rounds:
                break
            if r >= min_rounds and time.perf_counter() - t0 >= seconds:
                break
            # every round starts from an empty memo cache, so every round
            # does the same work
            self.lib.dispatch.clear_cache()
            plans: Dict[str, object] = {}
            for slot, req in enumerate(requests):
                rec = Record(len(records), r, slot,
                             getattr(req, "kind", "plan"),
                             getattr(req, "entry", req).name)
                if self.tracer is not None:
                    self.tracer.request = rec.index
                # untimed: no request pays for garbage an earlier one left,
                # so a request's cost does not depend on the seeded order
                gc.collect()
                try:
                    if self.workload == "schedule-scale":
                        self._rate_table(req, rec)
                    else:
                        self._collective(req, rec, plans)
                except Exception as exc:  # a failed request is a data point
                    traceback.print_exc(file=sys.stderr)
                    rec.problems.append(f"{type(exc).__name__}: {exc}")
                records.append(rec)
                rec.probes = probe_speed(min(PROBE_SHARE * rec.seconds,
                                             PROBE_MAX_S))
        return records

    def _collective(self, req, rec: Record, plans) -> None:
        lib, entry = self.lib, req.entry
        t0 = time.perf_counter()
        if req.kind == "plan":
            kwargs = dict(entry.solve_kwargs)
            if entry.mode:
                kwargs["mode"] = entry.mode
            sol = lib.collectives.solve_collective(
                entry.problem, collective=entry.collective, **kwargs)
        else:
            base = plans[entry.name]
            events = lib.perturb.failure_trace(base.problem.platform,
                                               seed=req.trace_seed)
            sol = lib.resolve.replan(base, events).solution
        errors = sol.verify()
        sched = lib.collectives.schedule_collective(sol)
        result = lib.executor.simulate_collective(
            sched, sol.problem, horizon(sol.problem),
            collective=sol.collective, **entry.sim_kwargs)
        rec.seconds = time.perf_counter() - t0
        if req.kind == "plan":
            plans[entry.name] = sol

        with self._paused():
            rec.problems += [f"verify: {e}" for e in errors[:3]]
            if req.kind == "plan":
                key, expected = entry.name, entry.expected_tp
            else:
                key, expected = (entry.name, req.trace_seed), None
            rec.problems += self.oracle.check_optimum(key, sol, expected,
                                                      entry.mode)
            found, rec.warmup = self.oracle_mod.check_replay(
                sched, result, sol.throughput,
                sol.spec.ops_bound_factor(sol.problem))
            rec.problems += found
            self._replay_stats(rec, sched, result)

    def _rate_table(self, table, rec: Record) -> None:
        lib = self.lib
        supplies = {(src, item): (lambda it: (lambda seq: (it, seq)))(item)
                    for item, src in table.sources.items()}
        t0 = time.perf_counter()
        sched = lib.core_schedule.schedule_from_rates(
            table.rates, table.throughput, table.deliveries, name=table.name)
        result = lib.executor.simulate_schedule(
            sched, supplies, table.periods, record_trace=False)
        rec.seconds = time.perf_counter() - t0

        with self._paused():
            if sched.throughput != table.throughput:
                rec.problems.append(f"TP {sched.throughput} != rate-table "
                                    f"rate {table.throughput}")
            rec.problems += [f"schedule: {e}" for e in sched.validate()[:3]]
            found, rec.warmup = self.oracle_mod.check_replay(
                sched, result, table.throughput)
            rec.problems += found
            self._replay_stats(rec, sched, result)

    @staticmethod
    def _replay_stats(rec: Record, sched, result) -> None:
        rec.period = Fraction(sched.period)
        rec.transfers = sum(len(s.transfers) for s in sched.slots)
        rec.slot_events = rec.transfers * result.periods
        rec.engine = result.engine


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def quantile(values: List[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def probe_speed(budget: float) -> List[float]:
    """Time the calibration kernel until ``budget`` seconds are spent,
    at least once: samples of the host's current speed."""
    probes: List[float] = []
    while not probes or sum(probes) < budget:
        probes.append(calibration_probe(PROBE_ITERATIONS))
    return probes


def reference_seconds(records: List[Record]) -> List[float]:
    """Each request's time at the reference speed.

    The host shares its CPUs with other tenants and its speed swings by
    up to 2x, within seconds and for whole runs, so a raw time
    measures the neighbours as much as the planner.  A request's time
    is scaled by ``PROBE_REF_S`` over the mean of the speed probes that
    bracket it (the ones after the request before it, and its own).
    The probe is fixed code outside the library, so a slower planner
    still reads slower.
    """
    out = []
    for i, r in enumerate(records):
        near = r.probes + (records[i - 1].probes if i else [])
        out.append(r.seconds * PROBE_REF_S / statistics.fmean(near))
    return out


def slot_times(records: List[Record], times: List[float]
               ) -> Dict[int, Tuple[Record, float]]:
    """Per slot of the round, its first record and the median of its
    ``times`` over the rounds after the warm-up round (over the one
    round, when there is only one); a slot that failed in any round is
    left out."""
    failed = {r.slot for r in records if not r.ok}
    warmup = 0 if records[-1].round > 0 else -1
    by_slot: Dict[int, List[float]] = {}
    first: Dict[int, Record] = {}
    for r, t in zip(records, times):
        first.setdefault(r.slot, r)
        if r.slot not in failed and r.round > warmup:
            by_slot.setdefault(r.slot, []).append(t)
    return {slot: (first[slot], statistics.median(ts))
            for slot, ts in sorted(by_slot.items())}


def end_to_end(records: List[Record], times: List[float],
               setup_s: float) -> Dict[str, float]:
    """The gated metrics, from one time per record (``times``)."""
    done = slot_times(records, times).values()
    busy = sum(t for _, t in done)
    plans = [t for r, t in done if r.kind == "plan"]
    # plans only: the pool is the same for every seed, replans are not
    first = [r for r in records
             if r.ok and r.round == 0 and r.kind == "plan"]
    return {
        "setup_s": setup_s,
        "plans_per_s": len(done) / busy if busy else 0.0,
        "plan_s_p50": quantile(plans, 0.5) if plans else 0.0,
        "plan_s_p90": quantile(plans, 0.9) if plans else 0.0,
        "period_T_gmean": math.exp(statistics.fmean(
            math.log(r.period) for r in first)) if first else 0.0,
        "warmup_periods_mean": statistics.fmean(
            r.warmup for r in first) if first else 0.0,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, records: List[Record], traced_raw: float,
              traced_s: float, untraced_s: float, calib: List[float]
              ) -> Dict[str, tuple]:
    """``name -> (value, unit)`` for the traced round.  Times are at the
    reference speed (the round's measured times scale by
    ``traced_s / traced_raw``), except the calibration probes."""
    import tracing

    out: Dict[str, tuple] = {}
    self_s, calls = tracer.self_times(), tracer.calls()
    scale = traced_s / traced_raw if traced_raw else 1.0
    for name in tracing.SPANS:
        out[f"{name}.self_s"] = (scale * self_s[name], "s")
        out[f"{name}.calls"] = (calls[name], "count")
    c = tracer.counters
    hits, lookups = tracer.solve_lookups()
    replays = c["sim.replays.compiled"] + c["sim.replays.reference"]
    out.update({
        "lp.cache_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "lp.vars_raw": (c["lp.vars_raw"], "count"),
        "lp.vars_presolved": (c["lp.vars_presolved"], "count"),
        "lp.colgen.rounds": (c["lp.colgen.rounds"], "count"),
        "lp.colgen.columns": (c["lp.colgen.columns"], "count"),
        "lp.colgen.master_s": (scale * c["lp.colgen.master_s"], "s"),
        "lp.colgen.pricing_s": (scale * c["lp.colgen.pricing_s"], "s"),
        "lp.replan_warm_ratio": (c["lp.replans_warm"] / c["lp.replans"]
                                 if c["lp.replans"] else 0.0, "ratio"),
        "core.matchings": (c["core.matchings"], "count"),
        "core.transfers_per_period": (sum(r.transfers for r in records),
                                      "count"),
        "sim.compiled_ratio": (c["sim.replays.compiled"] / replays
                               if replays else 0.0, "ratio"),
        "sim.slot_events": (sum(r.slot_events for r in records), "count"),
        "trace.coverage": (sum(self_s.values()) / traced_raw
                           if traced_raw else 0.0, "ratio"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "calib.probe_start_s": (calib[0], "s"),
        "calib.probe_end_s": (calib[1], "s"),
    })
    return out


# ----------------------------------------------------------------------
# run metadata
# ----------------------------------------------------------------------
def calibration_probe(iterations: int = 30000) -> float:
    """Fixed pure-Python Fraction/dict work; its time tracks how fast
    this machine runs the interpreter-bound code the planner is made of.
    The garbage collector is off meanwhile, so no setting the library
    makes and no garbage it leaves changes the kernel's cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc, table = Fraction(0), {}
        for i in range(1, iterations + 1):
            f = Fraction(i, i % 97 + 1)
            acc += f
            table[i % 1013] = table.get(i % 1013, 0) + f.numerator
        took = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if acc <= 0 or len(table) != min(iterations, 1013):
        raise RuntimeError("calibration probe computed a wrong result")
    return took


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(workload: str, seed: int, size: str) -> Tuple[float, float]:
    """Median import + input-generation time over fresh interpreters, as
    measured and at the reference speed."""
    raw, ref = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--size", size],
            check=True, capture_output=True, text=True, timeout=120)
        took, probe = map(float, out.stdout.split())
        raw.append(took)
        ref.append(took * PROBE_REF_S / probe)
    return statistics.median(raw), statistics.median(ref)


def setup_probe(workload: str, seed: int, size: str) -> Tuple[float, float]:
    """This interpreter's set-up time and its mean speed probe after."""
    load_library()
    import workloads

    next(workloads.rounds(workload, seed, size))
    took = time.perf_counter() - _T_START
    probes = [calibration_probe(PROBE_ITERATIONS)
              for _ in range(SETUP_SPEED_PROBES)]
    return took, statistics.fmean(probes)


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def print_records(records: List[Record], times: List[float]) -> None:
    """The first round's requests, each with its first measured time and
    its median reference-speed time over the rounds, and every failure
    of a later round."""
    median = {slot: t for slot, (_, t) in slot_times(records, times).items()}
    print(f"{'#':>4} {'kind':6} {'request':30} {'first_s':>9} "
          f"{'ref_s':>9} {'T':>10} {'warmup':>6} {'engine':9} status")
    for r in records:
        if r.round > 0 and r.ok:
            continue
        status = "ok" if r.ok else f"FAIL (round {r.round}) " + \
            "; ".join(r.problems)
        shown = median.get(r.slot)
        print(f"{r.slot:>4} {r.kind:6} {r.name:30} {r.seconds:>9.4f} "
              f"{'-' if shown is None else f'{shown:.4f}':>9} "
              f"{str(r.period):>10} "
              f"{'-' if r.warmup is None else r.warmup:>6} "
              f"{r.engine:9} {status}")


def print_metrics(title: str, metrics: Dict[str, tuple]) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("planner-mix", "solve-scale", "schedule-scale"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; the "
                         f"held-out seed is {HELDOUT_SEED})")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small: reduced tiers for the self-test")
    ap.add_argument("--min-rounds", type=int, default=MIN_ROUNDS,
                    help=f"rounds to issue however long they take "
                         f"(default {MIN_ROUNDS})")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"planbench: library sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        took, probe = setup_probe(args.workload, args.seed, args.size)
        print(f"{took:.6f} {probe:.6f}")
        return 0

    setup_raw, setup_ref = measure_setup(args.workload, args.seed, args.size)
    lib = load_library()
    calib = [calibration_probe()]
    print(f"planbench workload={args.workload} seed={args.seed} "
          f"size={args.size} seconds={args.seconds:g} trace={args.trace}")
    print(f"commit={git_commit()} python={_platform.python_version()} "
          f"nproc={os.cpu_count()} calib_start_s={calib[0]:.4f}")

    runner = Runner(args.workload, args.seed, args.size, lib)
    t0 = time.perf_counter()
    records = runner.run(args.seconds, max(1, args.min_rounds))
    wall = time.perf_counter() - t0
    ref = reference_seconds(records)
    print_records(records, ref)
    failed = sum(not r.ok for r in records)
    slots = slot_times(records, ref).values()
    replans = [t for r, t in slots if r.kind == "replan"]
    plans = sum(r.kind == "plan" for r in records)
    print(f"requests={len(records)} (plans={plans}, "
          f"replans={len(records) - plans}, rounds={records[-1].round + 1}) "
          f"failed={failed} failed_frac={failed / len(records):.4f} "
          f"wall_s={wall:.3f}")
    if replans:
        print(f"replan_s_p50={quantile(replans, 0.5):.6f} s "
              f"over {len(replans)} replans (reference speed)")
    probes = [p for r in records for p in r.probes]
    print(f"speed probes={len(probes)} median_s="
          f"{statistics.median(probes):.6f} mean_s="
          f"{statistics.fmean(probes):.6f} ref_s={PROBE_REF_S}")
    print_metrics("end-to-end metrics as measured (untraced):",
                  {name: (value, END_TO_END_UNITS[name])
                   for name, value in end_to_end(
                       records, [r.seconds for r in records],
                       setup_raw).items()})
    metrics = {name: (value, END_TO_END_UNITS[name])
               for name, value in end_to_end(records, ref,
                                             setup_ref).items()}
    print_metrics("end-to-end metrics at the reference speed (untraced):",
                  metrics)

    if args.trace:
        import tracing

        untraced_s = sum(t for _, t in slots)
        tracer = tracing.install()
        runner.tracer = tracer
        try:
            traced = runner.run(0, min_rounds=1, max_rounds=1)
        finally:
            runner.tracer = None
            tracing.uninstall(tracer)
        failed += sum(not r.ok for r in traced)
        records += traced
    calib.append(calibration_probe())
    print(f"calib_start_s={calib[0]:.4f} calib_end_s={calib[1]:.4f}")
    if args.trace:
        traced_raw = sum(r.seconds for r in traced)
        traced_s = sum(reference_seconds(traced))
        metrics = per_layer(tracer, traced, traced_raw, traced_s,
                            untraced_s, calib)
        print_metrics(f"per-layer metrics (traced round, {len(traced)} "
                      f"requests, traced {traced_s:.3f} s vs untraced "
                      f"{untraced_s:.3f} s at the reference speed):",
                      metrics)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
