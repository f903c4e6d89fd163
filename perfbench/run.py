"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload replay-taxi --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs untraced then traced work and reports the per-layer
metrics.  Every run checks the program's outputs.  The second-to-last
stdout line is the full record (environment, samples, tails, checks) as
``{"record": ...}``; the last line is the result object.  Workloads,
metrics and their rationale: perfbench/README.md.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from spans import SpanRecorder  # noqa: E402

#: Set-ups per run; ``setup_s`` is the import time plus their median.
SETUP_REPEATS = 5


def _import_program() -> float:
    """Import the program from the checkout's ``src``; seconds taken."""
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    import repro  # noqa: F401
    import repro.cli  # noqa: F401
    import repro.experiments  # noqa: F401
    import repro.query  # noqa: F401
    import repro.serving  # noqa: F401

    return time.perf_counter() - started


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _filesystem(path: Path) -> str:
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as handle:
            for line in handle:
                parts = line.split()
                mount = parts[1]
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def environment(workdir: Path, seed: int) -> dict:
    import numpy

    from repro.engine.kernels_fast import backend

    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernels_backend": backend(),
        "state_dir_fs": _filesystem(workdir),
        "seed": seed,
    }


def _metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _tail_metrics(prefix: str, samples) -> dict:
    found = stats.tail(samples)
    if found is None:  # too few samples: the maximum stands in
        found = (100.0, max(samples) if samples else 0.0, len(samples))
    pct, value, n = found
    return {
        f"{prefix}_tail_ms": _metric(1e3 * value, "ms"),
        f"{prefix}_tail_pct": _metric(pct, "%"),
        f"{prefix}_tail_n": _metric(n, "count"),
    }


def end_to_end(m, setup_s: float) -> dict:
    return {
        "setup_s": _metric(setup_s, "s"),
        # The slowest block: see README.md, "Blocks".  A run that ended
        # before its first block (a failed check) reports 0.
        "steps_per_s": _metric(min(m.step_rates, default=0.0), "1/s"),
        "ingest_ack_p50_ms": _metric(
            1e3 * max(m.ingest_p50s, default=0.0), "ms"
        ),
        "query_p50_ms": _metric(
            1e3 * max(m.query_p50s, default=0.0), "ms"
        ),
        "peak_rss_mb": _metric(m.peak_rss_mb, "MB"),
    }


def per_layer(m, failed: int, attempted: int) -> dict:
    steps = max(1, m.extra.get("prefix_steps", m.steps))
    metrics = dict(m.per_layer)
    replay_steps = max(1, m.extra.get("replay_steps", m.steps))
    metrics.update(
        {
            "reports_total": _metric(m.reports_total, "count"),
            "mechanism.publish_frac": _metric(
                m.publications / steps, "1"
            ),
            "oracle.speculation.rewind_frac": _metric(
                m.rewind / m.speculate if m.speculate else 0.0, "1"
            ),
            "persist.wal.commits": _metric(
                m.extra.get("wal_commits", 0) / replay_steps, "1/step"
            ),
            "persist.checkpoint.bytes": _metric(
                m.extra.get("checkpoint_bytes", 0) / replay_steps,
                "B/step",
            ),
            "trace_overhead_frac": _metric(
                m.extra["trace_overhead_frac"], "1"
            ),
            "gen_lag_tail_ms": _tail_metrics("gen_lag", m.lag_s)[
                "gen_lag_tail_ms"
            ],
            "backlog_end": _metric(m.backlog_end, "count"),
            "failed_frac": _metric(failed / attempted, "1"),
        }
    )
    socket = m.extra.get("socket", {})
    metrics.update(
        {
            "socket.steps_per_s": _metric(
                socket.get("steps_per_s", 0.0), "1/s"
            ),
            "socket.ingest_ack_p50_ms": _metric(
                socket.get("ingest_ack_p50_ms", 0.0), "ms"
            ),
            "socket.query_p50_ms": _metric(
                socket.get("query_p50_ms", 0.0), "ms"
            ),
        }
    )
    metrics.update(_tail_metrics("ingest_ack", m.ingest_lat_s))
    metrics.update(_tail_metrics("query", m.query_lat_s))
    return metrics


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "smoke"), default="full",
        help="smoke: tiny inputs for the benchmark's own smoke test",
    )
    args = parser.parse_args(argv)
    # A terminated run still stops its servers (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "repro").is_dir():
        parser.error(f"no program to measure: {ROOT / 'src' / 'repro'}")

    import_s = _import_program()
    outdir = ROOT / ".perfbench"
    workdir = outdir / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.size, workdir)
    recorder = SpanRecorder() if args.trace else None
    try:
        setup_times = []
        for repeat in range(SETUP_REPEATS):
            started = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - started)
            if repeat < SETUP_REPEATS - 1:
                workload.discard()
        setup_s = import_s + stats.median(setup_times)
        if recorder is not None:
            m = workload.trace(args.seconds, recorder)
        else:
            m = workload.measure(args.seconds)
        failures = workload.check()
    finally:
        if recorder is not None:
            recorder.uninstall()
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    failed = m.failed + len(failures)
    attempted = max(1, m.attempted)
    metrics = (
        per_layer(m, failed, attempted)
        if args.trace
        else end_to_end(m, setup_s)
    )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "env": environment(workdir, args.seed),
        "import_s": import_s,
        "setup_times_s": setup_times,
        "run_s": time.perf_counter() - STARTED,
        "blocks": {
            "step_rates": m.step_rates,
            "ingest_ack_p50_ms": [1e3 * v for v in m.ingest_p50s],
            "query_p50_ms": [1e3 * v for v in m.query_p50s],
        },
        "samples": {
            "step_rates": len(m.step_rates),
            "ingest_ack": len(m.ingest_lat_s),
            "query": len(m.query_lat_s),
        },
        "tails": {
            **_tail_metrics("ingest_ack", m.ingest_lat_s),
            **_tail_metrics("query", m.query_lat_s),
        },
        "failed_frac": failed / attempted,
        "failures": failures,
        "extra": dict(m.extra),
        "metrics": metrics,
    }
    if recorder is not None:
        recorder.write(
            str(outdir / f"spans-{args.workload}-{args.seed}.jsonl")
        )
        record["spans_kept"] = len(recorder.spans)
        record["spans_dropped"] = recorder.dropped
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
