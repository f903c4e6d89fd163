"""Smoke test of the benchmark itself, at tiny sizes.

Usage (from the repository root)::

    python3 perfbench/smoke.py

Runs every workload with ``--size smoke`` for one second, untraced and
traced, and checks that each run exits 0, passes
its output checks with no failed operation, and emits exactly the
metrics ``BENCHMARK.json`` names, each with its unit and a finite value
(end-to-end values also above 0).  Then checks that the benchmark
refuses to run, printing no result, when the program's sources are
missing.  Exit status 1 on any problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_run(benchmark: dict, workload: str, trace: int) -> list:
    proc = _run(ROOT, "--workload", workload, "--seed", "3",
                "--seconds", "1", "--trace", str(trace), "--size", "smoke")
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} "
                        f"failed={result['failed']}")
    specs = benchmark["per_layer" if trace else "end_to_end"]
    wanted = {spec["name"]: spec["unit"] for spec in specs}
    got = result["metrics"]
    if set(got) != set(wanted):
        problems.append(
            f"{label}: missing {sorted(set(wanted) - set(got))}, "
            f"unexpected {sorted(set(got) - set(wanted))}"
        )
    for name, metric in got.items():
        value = metric["value"]
        if metric.get("unit") != wanted.get(name):
            problems.append(f"{label}: {name} unit {metric.get('unit')!r}")
        if not math.isfinite(value) or (not trace and value <= 0):
            problems.append(f"{label}: {name} = {value}")
    return problems


def check_refuses_without_program() -> list:
    """In a directory with only the benchmark's own files the command
    must fail without printing a result."""
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "--workload", "replay-taxi", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["the benchmark ran without the program's sources"]
    return []


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    problems = check_refuses_without_program()
    # Every workload the benchmark can run, including any that
    # BENCHMARK.json leaves out (README.md says which and why).
    for workload in sorted(WORKLOADS):
        for trace in (0, 1):
            found = check_run(benchmark, workload, trace)
            print(f"{workload:<14} trace={trace} "
                  f"{'ok' if not found else 'FAILED'}")
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
