"""Compare two sets of benchmark runs, metric by metric.

Usage::

    python3 perfbench/compare.py BASE CHANGE

``BASE`` and ``CHANGE`` are files or directories of files holding the
standard output of ``perfbench/run.py`` runs (any number of runs per
file; the ``{"record": ...}`` lines are read).  For every workload and
every end-to-end metric in ``BENCHMARK.json`` it prints both sides'
median and quartiles and a verdict, following the rules of the
repository's benchmark contract:

* ``unresolved`` — the base's own spread (quartile distance over its
  median) is wider than the metric's bound, and not every change run
  reads better than every base run;
* ``worse`` — the change's median is worse than the base's by more than
  the bound;
* ``improved`` — the change wins at least nine tenths of the run pairs
  (paired by seed where both sides ran it, else in order; ties count for
  neither) and the medians differ by more than the base's quartile
  distance;
* ``no worse`` — otherwise.

Exit status 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


def load_records(path: Path) -> List[dict]:
    """Every run record in a file or in the files of a directory."""
    files = sorted(p for p in path.rglob("*") if p.is_file()) if (
        path.is_dir()
    ) else [path]
    records = []
    for file in files:
        for line in file.read_text(encoding="utf-8").splitlines():
            if line.startswith('{"record"'):
                record = json.loads(line)["record"]
                if not record["trace"]:
                    records.append(record)
    return records


def _better(value: float, other: float, higher: bool) -> bool:
    return value > other if higher else value < other


def verdict(base: List[float], change: List[float], pairs, spec: dict) -> str:
    higher = spec["better"] == "higher"
    bound = spec["bound"]
    base_med, change_med = stats.median(base), stats.median(change)
    q1, _, q3 = stats.quartiles(base)
    spread = (q3 - q1) / base_med
    every_run_better = all(
        _better(c, b, higher) for c in change for b in base
    )
    if spread > bound and not every_run_better:
        return "unresolved"
    worse_by = (base_med - change_med if higher else change_med - base_med)
    if worse_by > bound * base_med:
        return "worse"
    wins = sum(_better(c, b, higher) for b, c in pairs)
    if wins >= 0.9 * len(pairs) and _better(change_med, base_med, higher) and (
        abs(change_med - base_med) > q3 - q1
    ):
        return "improved"
    return "no worse"


def _pairs(base: List[dict], change: List[dict], metric: str):
    by_seed = {r["seed"]: r for r in base}
    if all(r["seed"] in by_seed for r in change):
        return [
            (by_seed[r["seed"]]["metrics"][metric]["value"],
             r["metrics"][metric]["value"])
            for r in change
        ]
    return [
        (b["metrics"][metric]["value"], c["metrics"][metric]["value"])
        for b, c in zip(base, change)
    ]


def compare(base: List[dict], change: List[dict], specs: List[dict]) -> int:
    grouped: Dict[str, Dict[str, List[dict]]] = {}
    for side, records in (("base", base), ("change", change)):
        for record in records:
            grouped.setdefault(record["workload"], {"base": [], "change": []})
            grouped[record["workload"]][side].append(record)
    worse = 0
    header = (f"{'workload':<14} {'metric':<18} {'base median [q1, q3]':>30} "
              f"{'change median [q1, q3]':>30} {'delta':>8}  verdict")
    print(header)
    for workload, sides in sorted(grouped.items()):
        if not sides["base"] or not sides["change"]:
            print(f"{workload:<14} (runs on one side only)")
            continue
        for spec in specs:
            name = spec["name"]
            values = {
                side: [r["metrics"][name]["value"] for r in runs]
                for side, runs in sides.items()
            }
            result = verdict(
                values["base"], values["change"],
                _pairs(sides["base"], sides["change"], name), spec,
            )
            worse += result == "worse"
            cells = []
            for side in ("base", "change"):
                q1, med, q3 = stats.quartiles(values[side])
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
            base_med = stats.median(values["base"])
            delta = (stats.median(values["change"]) - base_med) / base_med
            print(f"{workload:<14} {name:<18} {cells[0]:>30} {cells[1]:>30} "
                  f"{100 * delta:>+7.1f}%  {result}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument(
        "--benchmark", type=Path, default=HERE.parent / "BENCHMARK.json",
        help="benchmark definition with the metrics' bounds",
    )
    args = parser.parse_args(argv)
    specs = json.loads(args.benchmark.read_text())["end_to_end"]
    base, change = load_records(args.base), load_records(args.change)
    if not base or not change:
        parser.error("no untraced run records found on one side")
    return compare(base, change, specs)


if __name__ == "__main__":
    sys.exit(main())
