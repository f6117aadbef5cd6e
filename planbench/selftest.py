"""Reduced-size self-test of the benchmark.

Runs ``run.py --size small --min-rounds 2`` on every workload: once
untraced and twice traced with the same seed.  Checks that

- the last stdout line is the JSON object with exactly the contract's
  keys, and carries every metric ``BENCHMARK.json`` names (end-to-end
  when untraced, per-layer when traced), each with its unit;
- every span of :data:`tracing.SPANS` is reported;
- no request failed;
- the deterministic outputs (``period_T_gmean``, ``warmup_periods_mean``,
  failures and every count) are identical across the two runs of one
  seed.

Run from the repository root (a few minutes)::

    python3 planbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
         "--size", "small", "--min-rounds", "2"],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def printed(lines, name: str) -> str:
    """A metric's value as the human-readable report printed it."""
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and parts[0] == name:
            return parts[1]
    raise AssertionError(f"{name} not printed")


def deterministic(result, lines):
    """Everything two runs of one seed must agree on exactly."""
    keep = {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "ratio")
            and name != "trace.coverage"}
    keep["failed"] = result["failed"]
    keep["attempted"] = result["attempted"]
    keep["period_T_gmean"] = printed(lines, "period_T_gmean")
    keep["warmup_periods_mean"] = printed(lines, "warmup_periods_mean")
    return keep


def check_contract(result, metrics, workload: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, workload
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in metrics}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, (workload, set(got) ^ set(want))
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


def test_workload(workload: str) -> None:
    bench = spec()
    untraced, _ = run(workload, 0)
    check_contract(untraced, bench["end_to_end"], workload)
    first, first_lines = run(workload, 1)
    second, second_lines = run(workload, 1)
    for result in (first, second):
        check_contract(result, bench["per_layer"], workload)
        for span in tracing.SPANS:
            assert f"{span}.self_s" in result["metrics"], span
            assert f"{span}.calls" in result["metrics"], span
    a = deterministic(first, first_lines)
    b = deterministic(second, second_lines)
    diff = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
    assert not diff, (workload, diff)


def main() -> int:
    for workload in (w["name"] for w in spec()["workloads"]):
        test_workload(workload)
        print(f"ok  {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
