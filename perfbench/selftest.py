"""Self-test of the benchmark on a tiny corpus (well under a minute).

    python3 perfbench/selftest.py

For every workload it checks that

* a ``--trace 0`` run prints every end-to-end metric of BENCHMARK.json with
  its unit, and that an injected wrong answer makes it report
  ``"correct": false`` and exit non-zero;
* a ``--trace 1`` run prints every per-layer metric with its unit, answers
  correctly, and its layer self times plus a non-negative
  ``unattributed_s`` add up to the traced wall time.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SIZE = "60"


def _run(workload: str, trace: int, *extra: str):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--size", SIZE, *extra],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{workload}: no output\n{proc.stderr}")
    return proc.returncode, json.loads(lines[-1]), proc.stderr


def _assert_metrics(workload: str, result: dict, wanted: list) -> None:
    printed = result["metrics"]
    for metric in wanted:
        name = metric["name"]
        assert name in printed, f"{workload}: {name} missing"
        assert printed[name]["unit"] == metric["unit"], f"{workload}: {name} unit"
        assert math.isfinite(printed[name]["value"]), f"{workload}: {name} value"
    assert set(printed) == {m["name"] for m in wanted}, f"{workload}: extra metrics"
    assert result["attempted"] >= 1 and result["failed"] == 0, workload


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = [m["name"] for m in spec["per_layer"] if m["name"].startswith("self.")]
    for workload in [w["name"] for w in spec["workloads"]]:
        code, result, _ = _run(workload, 0, "--inject-wrong-answer")
        _assert_metrics(workload, result, spec["end_to_end"])
        assert result["correct"] is False and code != 0, \
            f"{workload}: an injected wrong answer passed the check"

        code, result, stderr = _run(workload, 1)
        _assert_metrics(workload, result, spec["per_layer"])
        assert result["correct"] is True and code == 0, f"{workload}: {stderr}"
        values = {k: v["value"] for k, v in result["metrics"].items()}
        total = sum(values[name] for name in layers) + values["unattributed_s"]
        assert abs(total - values["trace.wall_s"]) < 1e-6, \
            f"{workload}: layers do not add up to the wall time"
        # Negative would mean a span was counted twice.
        assert values["unattributed_s"] >= 0, f"{workload}: overlapping spans"
        assert values["trace.overhead_ratio"] > 0, workload
        print(f"ok  {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
