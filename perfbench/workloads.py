"""The four benchmark workloads.

Each workload drives ``repro`` only through its public entry points and
has the same shape: :meth:`setup` (repeatable; the benchmark runs it
several times and keeps the last), :meth:`measure` (untraced, for the
end-to-end metrics), :meth:`trace` (untraced then traced work, for the
per-layer metrics), :meth:`check` (the output checks) and
:meth:`close`.  Why each workload exists is written in README.md.
"""

from __future__ import annotations

import base64
import contextlib
import io
import json
import math
import os
import shutil
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import client
import stats
from spans import SpanRecorder, layer_metrics

#: Budget slack the accountant itself allows (``repro.engine.accountant``).
SPEND_TOLERANCE = 1e-9

#: The DSL query mix, in rotation.  ``{t}`` is the last timestamp the
#: target has ingested when the query is answered.
QUERY_MIX = (
    "point({i})",
    "topk(5)",
    "range({i}, {j})",
    "mean({i}) @ {t0}..{t}",
)


def query_text(q: int, t: int, domain: int) -> str:
    """The ``q``-th query of the rotation, over timestamps up to ``t``."""
    i = (7 * q) % domain
    return QUERY_MIX[q % len(QUERY_MIX)].format(
        i=i, j=min(domain - 1, i + 7), t0=max(0, t - 15), t=t
    )


class Measurement:
    """What one untraced or traced measurement produced."""

    def __init__(self):
        self.steps = 0
        self.step_rates: List[float] = []
        self.ingest_lat_s: List[float] = []
        self.query_lat_s: List[float] = []
        #: Per-block medians; the run reports the slowest block
        #: (README.md, "Blocks").
        self.ingest_p50s: List[float] = []
        self.query_p50s: List[float] = []
        self.lag_s: List[float] = []
        self.backlog_end = 0
        self.attempted = 0
        self.failed = 0
        self.reports_total = 0
        self.publications = 0
        self.speculate = 0
        self.rewind = 0
        self.peak_rss_mb = 0.0
        self.per_layer: Dict[str, dict] = {}
        self.extra: Dict[str, object] = {}

    def block(self, ingest_s: List[float], query_s: List[float]) -> None:
        """Close one block of work: keep its samples and its medians."""
        self.ingest_lat_s += ingest_s
        self.query_lat_s += query_s
        if ingest_s:
            self.ingest_p50s.append(stats.median(ingest_s))
        if query_s:
            self.query_p50s.append(stats.median(query_s))


def _peak_rss_tree_mb(pid: int) -> float:
    """Peak resident memory (VmHWM) of ``pid`` and its children, MiB."""
    pids = [pid]
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                pids.extend(int(p) for p in handle.read().split())
    except OSError:
        pass
    total_kb = 0
    for p in pids:
        try:
            with open(f"/proc/{p}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def _self_peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_spend(label: str, spend: float, epsilon: float) -> List[str]:
    if spend <= epsilon + SPEND_TOLERANCE:
        return []
    return [f"{label}: max window spend {spend!r} exceeds epsilon {epsilon}"]


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
class _InProcess:
    """Base of the two in-process workloads: repeat identical
    rounds until the time is up, then query the round's releases."""

    name = ""
    WARM_MIXES, MIXES_PER_SESSION = 4, 40

    def __init__(self, seed: int, size: str, workdir: Path):
        del size, workdir  # subclasses pick their sizes; no files
        self.seed = int(seed)
        self.rounds: List[dict] = []
        self.failures: List[str] = []

    def discard(self) -> None:
        pass

    def close(self) -> None:
        pass

    def _query(self, results, m: Measurement) -> None:
        """Answer the query mix over each result, one block per result.
        One sample is the mean latency of one full rotation of the mix,
        so a sample does not depend on which query type it timed."""
        from repro.query import QueryEngine, QueryPlanner, parse_expr

        q = 0
        for result in results:
            latencies = []
            planner = QueryPlanner(QueryEngine.from_result(result))
            last_t = result.horizon - 1
            for mix in range(self.WARM_MIXES + self.MIXES_PER_SESSION):
                texts = [query_text(q + k, last_t, result.domain_size)
                         for k in range(len(QUERY_MIX))]
                q += len(texts)
                started = time.perf_counter()
                for text in texts:
                    planner.answer(parse_expr(text))
                elapsed = time.perf_counter() - started
                m.attempted += len(texts)
                # The first rotations run on caches the pass just
                # evicted; a user querying a finished run does not.
                if mix >= self.WARM_MIXES:
                    latencies.append(elapsed / len(texts))
            m.block([], latencies)

    def _round(self, m: Measurement) -> float:
        raise NotImplementedError

    def measure(self, seconds: float) -> Measurement:
        m = Measurement()
        started = time.perf_counter()
        while not m.step_rates or time.perf_counter() - started < seconds:
            self._round(m)
        m.peak_rss_mb = _self_peak_rss_mb()
        return m

    def trace(self, seconds: float, recorder: SpanRecorder) -> Measurement:
        """Untraced and traced rounds of the same work, alternating."""
        del seconds  # two rounds each way; a round is a few seconds
        untraced, m = Measurement(), Measurement()
        walls = _alternate(
            lambda: self._round(untraced), lambda: self._round(m), recorder
        )
        m.per_layer = layer_metrics(recorder, sum(walls[True]), m.steps)
        _trace_extra(m, recorder, walls)
        m.ingest_lat_s = untraced.ingest_lat_s
        m.query_lat_s = untraced.query_lat_s
        return m


def _alternate(untraced, traced, recorder: SpanRecorder, times: int = 2):
    """Run ``untraced()`` and ``traced()`` alternately, ``times`` each,
    the second under the recorder; their wall times by tracedness."""
    recorder.install()
    recorder.reset()
    walls = {False: [], True: []}
    for _ in range(times):
        for is_traced, work in ((False, untraced), (True, traced)):
            recorder.enabled = is_traced
            try:
                walls[is_traced].append(work())
            finally:
                recorder.enabled = False
    return walls


def _trace_extra(m: Measurement, recorder: SpanRecorder, walls) -> None:
    m.speculate = recorder.counts.get("speculate_run", 0)
    m.rewind = recorder.counts.get("rng_restore", 0)
    m.extra["trace_overhead_frac"] = min(walls[True]) / min(walls[False])
    m.extra["wal_commits"] = recorder.counts.get("wal_commit", 0)
    m.extra["checkpoint_bytes"] = recorder.checkpoint_bytes


class ReplayTaxi(_InProcess):
    """Three solo ``run_stream`` passes on fresh Taxi simulators."""

    name = "replay-taxi"
    CONFIGS = (("LPD", "olh"), ("LBD", "oue"), ("LBU", "grr"))
    EPSILON, WINDOW, CHUNK, PREFIX = 1.0, 20, 256, 32
    SIZES = {"full": (20_000, 64, 1_000), "smoke": (1_000, 8, 40)}

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.n_users, self.domain, self.horizon = self.SIZES[size]

    def _dataset(self, horizon: Optional[int] = None):
        from repro import TaxiSimulator

        return TaxiSimulator(
            n_users=self.n_users,
            domain_size=self.domain,
            horizon=horizon or self.horizon,
            seed=self.seed,
        )

    def _run(self, mechanism, oracle, horizon=None):
        from repro import run_stream

        return run_stream(
            mechanism, self._dataset(horizon), self.EPSILON, self.WINDOW,
            oracle=oracle, seed=self.seed, chunk=self.CHUNK,
        )

    def setup(self) -> None:
        for mechanism, oracle in self.CONFIGS:  # warm-up passes
            self._run(mechanism, oracle, horizon=self.horizon // 8)

    def _round(self, m: Measurement) -> float:
        started = time.perf_counter()
        results, passes, busy = [], [], 0.0
        for mechanism, oracle in self.CONFIGS:
            t0 = time.perf_counter()
            result = self._run(mechanism, oracle)
            elapsed = time.perf_counter() - t0
            busy += elapsed
            passes.append(elapsed)
            m.attempted += 1
            results.append(result)
        steps = sum(r.horizon for r in results)
        m.steps += steps
        m.step_rates.append(steps / busy)
        m.reports_total += sum(r.total_reports for r in results)
        m.publications += sum(r.publication_count for r in results)
        m.block(passes, [])
        self._query(results, m)
        self.rounds.append(
            {
                "reports": [r.total_reports for r in results],
                "publications": [r.publication_count for r in results],
                "releases": [r.releases[: self.PREFIX] for r in results],
            }
        )
        for (mechanism, oracle), r in zip(self.CONFIGS, results):
            self.failures += _check_spend(
                f"{mechanism}/{oracle}", r.max_window_spend, self.EPSILON
            )
        return time.perf_counter() - started

    def check(self) -> List[str]:
        """Chunked releases equal the per-step ``observe()`` loop on a
        prefix; exact counts repeat in every round."""
        from repro import StreamSession

        failures = list(self.failures)
        first = self.rounds[0]
        for k, (mechanism, oracle) in enumerate(self.CONFIGS):
            session = StreamSession(
                mechanism, self._dataset(), self.EPSILON, self.WINDOW,
                horizon=self.horizon, oracle=oracle, seed=self.seed,
            ).start()
            loop = np.array(
                [session.observe(t).release for t in range(self.PREFIX)]
            )
            if not np.array_equal(loop, first["releases"][k]):
                failures.append(
                    f"{mechanism}/{oracle}: chunked releases differ from "
                    f"the observe() loop on the first {self.PREFIX} steps"
                )
        for r in self.rounds[1:]:
            if (r["reports"], r["publications"]) != (
                first["reports"], first["publications"]
            ):
                failures.append("exact counts differ between rounds")
        return failures


class SweepGrid(_InProcess):
    """``execute_cells`` over one 70-cell grid on one Taxi dataset."""

    name = "sweep-grid"
    MECHANISMS = ("LBU", "LSP", "LBD", "LBA", "LPU", "LPD", "LPA")
    ORACLES = ("grr", "oue", "olh", "sue", "hr")
    EPSILONS, WINDOW = (0.5, 1.0), 20
    SIZES = {"full": (20_000, 64, 400), "smoke": (1_000, 8, 30)}
    #: Sessions per round whose releases are queried afterwards.
    QUERIED = 4

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.n_users, self.domain, self.horizon = self.SIZES[size]
        self.specs = []
        self.captured: list = []
        self._patched = None

    def _specs(self, horizon=None):
        from repro.experiments import DatasetSpec, grid_specs

        dataset = DatasetSpec.of(
            "Taxi", n_users=self.n_users, horizon=self.horizon,
            domain_size=self.domain, seed=self.seed,
        )
        specs = []
        for oracle in self.ORACLES:
            specs += grid_specs(
                self.MECHANISMS, dataset, epsilons=self.EPSILONS,
                windows=(self.WINDOW,), oracle=oracle, horizon=horizon,
                tag="perfbench",
            )
        return specs

    def setup(self) -> None:
        from repro.engine import SessionGroup
        from repro.experiments import execute_cells

        if self._patched is None:
            # Keep the shared pass's session results so the round's
            # releases can be queried like a user inspecting a sweep.
            run = SessionGroup.run
            captured = self.captured

            def run_and_keep(group):
                results = run(group)
                captured[:] = results
                return results

            SessionGroup.run = run_and_keep
            self._patched = run
        self.specs = self._specs()
        execute_cells(
            self._specs(horizon=self.horizon // 8), base_seed=self.seed,
            jobs=1, coalesce=True,
        )

    def close(self) -> None:
        if self._patched is not None:
            from repro.engine import SessionGroup

            SessionGroup.run = self._patched
            self._patched = None

    def _round(self, m: Measurement) -> float:
        from repro.experiments import execute_cells

        started = time.perf_counter()
        cells = execute_cells(
            self.specs, base_seed=self.seed, jobs=1, coalesce=True
        )
        elapsed = time.perf_counter() - started
        sessions = list(self.captured)
        steps = len(cells) * self.horizon
        m.steps += steps
        m.step_rates.append(steps / elapsed)
        m.attempted += len(cells)
        m.reports_total += sum(s.total_reports for s in sessions)
        m.publications += sum(s.publication_count for s in sessions)
        stride = max(1, len(sessions) // self.QUERIED)
        m.block([elapsed], [])
        self._query(sessions[::stride][: self.QUERIED], m)
        self.rounds.append(
            {
                "cells": [c.as_dict() for c in cells],
                "reports": [s.total_reports for s in sessions],
            }
        )
        for spec, s in zip(self.specs, sessions):
            self.failures += _check_spend(
                f"{spec.mechanism}/{spec.oracle}/eps={spec.epsilon}",
                s.max_window_spend, spec.epsilon,
            )
        return time.perf_counter() - started

    def check(self) -> List[str]:
        """The shared pass equals ``coalesce=False`` on one cell per
        oracle; results and exact counts repeat in every round."""
        from repro.experiments import execute_cells

        failures = list(self.failures)
        first = self.rounds[0]
        for oracle in self.ORACLES:
            index = next(
                i for i, s in enumerate(self.specs) if s.oracle == oracle
            )
            solo = execute_cells(
                [self.specs[index]], base_seed=self.seed, jobs=1,
                coalesce=False,
            )[0].as_dict()
            shared = first["cells"][index]
            if not _same(solo, shared):
                failures.append(
                    f"cell {index} ({oracle}): shared pass {shared} != "
                    f"per-cell {solo}"
                )
        for r in self.rounds[1:]:
            if r["reports"] != first["reports"] or not all(
                _same(a, b) for a, b in zip(r["cells"], first["cells"])
            ):
                failures.append(
                    "results or exact counts differ between rounds"
                )
        return failures


def _same(a: dict, b: dict) -> bool:
    """Field-wise equality with NaN equal to NaN."""
    return a.keys() == b.keys() and all(
        a[k] == b[k]
        or (
            isinstance(a[k], float)
            and isinstance(b[k], float)
            and math.isnan(a[k])
            and math.isnan(b[k])
        )
        for k in a
    )


# ----------------------------------------------------------------------
# Serve workloads
# ----------------------------------------------------------------------
class _Serve:
    """Base of the two serve workloads."""

    name = ""
    RATE = 100.0
    QUERY_EVERY = 10
    WARMUP = 64
    POOL = 1024
    #: Requests after the warm-up in the measured feed (``measure``).
    FEED = 1200
    TIMEOUT_S = 20.0
    WINDOW = 32
    BLOCKS = 6
    #: Report ``serving.front`` (socket minus in-process time per step).
    FRONT = False
    EPSILON = 1.0
    W = 20
    method = oracle = ""
    n_users = domain = chunk = 0

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = int(seed)
        self.workdir = workdir
        self.src = str(Path(__file__).resolve().parent.parent / "src")
        if size == "smoke":
            self.n_users, self.POOL, self.WARMUP, self.FEED = 200, 64, 8, 60
        self.proc: Optional[subprocess.Popen] = None
        self.conn: Optional[client.Connection] = None
        self.sock: Optional[socket.socket] = None
        self.lines: List[bytes] = []
        self.sent: List[bytes] = []
        self.replies: List[bytes] = []
        self.events: List[bytes] = []
        self.ingests = 0
        self.queries = 0
        self.setups = 0
        self.replayed = False
        self.replay_failures: List[str] = []

    # -- feed ------------------------------------------------------------
    def _rows(self) -> np.ndarray:
        """The feed's snapshot pool: a Taxi stream over the population."""
        from repro import TaxiSimulator

        stream = TaxiSimulator(
            n_users=self.n_users, domain_size=self.domain,
            horizon=self.POOL, seed=self.seed,
        )
        return stream.values_range(0, self.POOL)

    def _encode(self, row: np.ndarray) -> bytes:
        raise NotImplementedError

    def next_request(self) -> client.Request:
        """The feed: an ingest, with one DSL query after every tenth."""
        if self.ingests and self.ingests % self.QUERY_EVERY == 0 and (
            self.queries < self.ingests // self.QUERY_EVERY
        ):
            text = query_text(self.queries, self.ingests - 1, self.domain)
            self.queries += 1
            return "query", (
                json.dumps({"op": "query", "expr": text}) + "\n"
            ).encode()
        line = self.lines[self.ingests % self.POOL]
        self.ingests += 1
        return "ingest", line

    # -- process ---------------------------------------------------------
    def _command(self) -> List[str]:
        raise NotImplementedError

    def _spawn(self, **popen) -> subprocess.Popen:
        env = dict(os.environ, PYTHONPATH=self.src)
        self.stderr = open(self.workdir / "server.err", "wb")
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *self._command()],
            stdout=subprocess.PIPE, stderr=self.stderr, env=env, **popen,
        )

    def _connect(self) -> None:
        raise NotImplementedError

    def _stop(self) -> None:
        raise NotImplementedError

    def _reset_feed(self) -> None:
        self.ingests = self.queries = 0
        self.sent, self.replies = [], []

    def setup(self) -> None:
        self.setups += 1
        self.lines = [self._encode(row) for row in self._rows()]
        self._reset_feed()
        self._connect()
        warm = [self.next_request() for _ in range(self.WARMUP)]
        warm += self._registrations()
        self._closed(warm)

    def _registrations(self) -> List[client.Request]:
        return []

    def _closed(self, requests: List[client.Request]) -> dict:
        """Send ``requests`` pipelined; the last reply, parsed."""
        replies = client.run_closed(self.conn, requests, self.TIMEOUT_S)
        self.sent += [line for _, line in requests]
        self.replies += replies
        return json.loads(replies[-1])

    def discard(self) -> None:
        self._stop()

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            for pipe in (self.proc.stdin, self.proc.stdout):
                if pipe is not None:
                    pipe.close()
            self.proc = None
            self.stderr.close()

    # -- measurement -----------------------------------------------------
    def _run_socket(self, seconds: float) -> Measurement:
        """``BLOCKS`` blocks of an open-loop phase then a saturated
        phase, a summary after the first block's fixed feed prefix and
        another at the end."""
        m = Measurement()
        span = seconds / (2 * self.BLOCKS)
        try:
            for block in range(self.BLOCKS):
                count = max(2 * self.QUERY_EVERY, int(self.RATE * span))
                requests = [self.next_request() for _ in range(count)]
                open_loop = self._phase(m, client.run_open_loop(
                    self.conn, requests, self.RATE, self.TIMEOUT_S))
                if block == 0:
                    # Counters after a fixed prefix of the feed repeat
                    # exactly; the saturated phases' lengths do not.
                    summary = self._closed([SUMMARY])
                    m.reports_total = int(summary["total_reports"])
                    m.publications = int(summary["publications"])
                    m.extra["prefix_steps"] = int(summary["steps"])
                sat = self._phase(m, client.run_saturated(
                    self.conn, self.next_request, span, self.WINDOW,
                    self.TIMEOUT_S))
                m.block(
                    [s for k, s in open_loop.latency_s if k == "ingest"],
                    [s for k, s in open_loop.latency_s if k == "query"],
                )
                m.lag_s += open_loop.lag_s
                m.backlog_end = max(m.backlog_end, open_loop.backlog_end)
                m.step_rates.append(sat.acked_ingests / sat.elapsed_s)
                m.steps += sat.acked_ingests
            self._closed([SUMMARY])
            m.peak_rss_mb = _peak_rss_tree_mb(self.proc.pid)
            self.events = list(self.conn.events)
            self._stop()
        except client.ClientError as error:
            m.failed += 1
            m.extra["client_error"] = str(error)
        m.attempted = len(self.sent)
        return m

    def _phase(self, m: Measurement, phase: client.Phase) -> client.Phase:
        self.sent += [line for _, line in phase.sent]
        self.replies += phase.replies
        m.failed += phase.errors
        return phase

    def measure(self, seconds: float) -> Measurement:
        """A fixed feed through the live server (for the output check and
        peak memory), then in-process replays of it until ``seconds``."""
        m = Measurement()
        feed = [self.next_request() for _ in range(self.FEED)]
        summary = self._closed(feed + [SUMMARY])
        m.reports_total = int(summary["total_reports"])
        m.publications = int(summary["publications"])
        m.peak_rss_mb = _peak_rss_tree_mb(self.proc.pid)
        self.events = list(self.conn.events)
        self._stop()
        started = time.perf_counter()
        # A replay that disagrees with the server adds no block: stop at
        # the first one, so the run ends and reports the failed check.
        while not self.replay_failures and (
            not m.step_rates or time.perf_counter() - started < seconds
        ):
            self._replay(m)
        m.attempted = len(self.sent) * (1 + len(m.step_rates))
        return m

    def _summary(self) -> Optional[dict]:
        for line in reversed(self.replies):
            reply = json.loads(line)
            if reply.get("op") == "summary":
                return reply
        return None

    def _check_acks(self) -> List[str]:
        failures = []
        acks = [json.loads(r) for r in self.replies]
        ts = [a["t"] for a in acks if a.get("op") == "ingest"]
        if ts != list(range(len(ts))) or len(ts) != self.ingests:
            failures.append(
                f"ingest acks are not contiguous: {len(ts)} acks for "
                f"{self.ingests} ingests"
            )
        errors = [a for a in acks if "error" in a]
        if errors:
            failures.append(f"{len(errors)} error replies, first {errors[0]}")
        summary = self._summary()
        if summary is None:
            failures.append("no summary reply")
        else:
            failures += _check_spend(
                self.name, summary["max_window_spend"], self.EPSILON
            )
        return failures

    def trace(self, seconds: float, recorder: SpanRecorder) -> Measurement:
        """Socket run (open-loop latency, saturated rate, tails), then the
        identical feed replayed in-process untraced and traced."""
        m = self._run_socket(seconds)
        m.extra["socket"] = {
            "steps_per_s": stats.median_or_zero(m.step_rates),
            "ingest_ack_p50_ms": 1e3 * stats.median_or_zero(m.ingest_p50s),
            "query_p50_ms": 1e3 * stats.median_or_zero(m.query_p50s),
        }
        walls = _alternate(self._replay, self._replay, recorder)
        _trace_extra(m, recorder, walls)
        steps = self.ingests
        # Both traced replays count: per-step figures use their sum.
        m.extra["replay_steps"] = steps * len(walls[True])
        extra = {}
        if self.FRONT and m.step_rates:
            # Socket time per step the in-process replay does not spend:
            # wire decode, pipe IPC and the asyncio front.
            extra["serving.front"] = m.extra["replay_steps"] * (
                1.0 / stats.median(m.step_rates)
                - min(walls[False]) / steps
            )
        m.per_layer = layer_metrics(
            recorder, sum(walls[True]), m.extra["replay_steps"], extra
        )
        return m

    def _replay(self, m: Optional[Measurement] = None) -> float:
        """Replay the sent feed in-process and check its answers against
        the served ones; the wall time.  With ``m``, the replay is one
        block: each request's latency runs from when the loop took its
        line to when its answer was written."""
        raise NotImplementedError

    def _replay_block(self, m, pulled, answered, elapsed) -> None:
        kinds = [b'"op": "ingest"' in line for line in self.sent]
        latency = [done - took for took, done in zip(pulled, answered)]
        m.block(
            [s for s, ingest in zip(latency, kinds) if ingest],
            [s for s, ingest in zip(latency, kinds) if not ingest],
        )
        m.step_rates.append(sum(kinds) / elapsed)
        m.steps += sum(kinds)

    def check(self) -> List[str]:
        if not self.replayed:
            self._replay()
        return self._check_acks() + self.replay_failures


class ServeSolo(_Serve):
    """``repro serve`` stdin loop with a durable state directory."""

    name = "serve-solo"
    method, oracle = "LBD", "oue"
    n_users, domain, chunk = 2_000, 32, 1
    CAPACITY, CHECKPOINT_EVERY = 512, 16
    STANDING = (
        ("hot", "threshold(point(0) > 0.5, sigmas=2)"),
        ("shift", "changepoint(1, drift=0.01, threshold=0.2)"),
    )

    def _encode(self, row):
        return (json.dumps({"op": "ingest", "values": row.tolist()})
                + "\n").encode()

    def _flags(self, state_dir: Optional[Path]) -> List[str]:
        flags = [
            "--method", self.method, "--oracle", self.oracle,
            "--domain-size", str(self.domain),
            "--epsilon", str(self.EPSILON), "--window", str(self.W),
            "--seed", str(self.seed), "--chunk", str(self.chunk),
            "--capacity", str(self.CAPACITY),
        ]
        if state_dir is None:
            return flags
        return flags + [
            "--state-dir", str(state_dir),
            "--checkpoint-every", str(self.CHECKPOINT_EVERY),
        ]

    def _state_dir(self, label: str) -> Path:
        path = self.workdir / f"state-{label}-{self.setups}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def _command(self):
        self.state = self._state_dir("socket")
        return self._flags(self.state)

    def _connect(self) -> None:
        self.proc = self._spawn(stdin=subprocess.PIPE)
        self.conn = client.Connection.for_process(self.proc)

    def _registrations(self):
        return [
            ("query", (json.dumps({"op": "standing", "action": "register",
                                   "id": sid, "expr": expr}) + "\n").encode())
            for sid, expr in self.STANDING
        ]

    def _stop(self) -> None:
        if self.proc is None:
            return
        self.conn.close()
        self.conn = None
        self.proc.stdin.close()  # EOF: the loop checkpoints and exits
        os.set_blocking(self.proc.stdout.fileno(), True)
        self.proc.stdout.read()
        self.proc.wait(timeout=self.TIMEOUT_S)
        self.proc.stdout.close()
        self.stderr.close()
        self.proc = None
        shutil.rmtree(self.state, ignore_errors=True)

    def _replay(self, m: Optional[Measurement] = None) -> float:
        """``repro.cli.main(["serve", ..., "--input", "-"])`` in-process
        on exactly the lines the socket run sent.  A measured block runs
        without ``--state-dir``: fsync latency on the checkout's disk
        follows the host's I/O load, not the program (README.md); the
        traced replays keep it, so the persist layers are measured."""
        from repro import cli

        self.replayed = True
        state = None if m is not None else self._state_dir("replay")
        feed = _Feed([line.decode() for line in self.sent])
        out = _Sink()
        stdin, sys.stdin = sys.stdin, feed
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(["serve", *self._flags(state), "--input",
                                 "-"])
        finally:
            sys.stdin = stdin
        elapsed = time.perf_counter() - started
        if state is not None:
            shutil.rmtree(state, ignore_errors=True)
        events = [ln for ln, _ in out.lines if ln.startswith('{"event"')]
        answers = [(ln, t) for ln, t in out.lines
                   if not ln.startswith('{"event"')]
        got = [r.decode() for r in self.replies]
        if code != 0 or [ln for ln, _ in answers] != got:
            first = next(
                (i for i, ((a, _), b) in enumerate(zip(answers, got))
                 if a != b),
                min(len(answers), len(got)),
            )
            self.replay_failures.append(
                f"in-process replay differs from the served answers at "
                f"reply {first} (exit {code}, {len(answers)} vs {len(got)})"
            )
        elif m is not None:
            self._replay_block(m, feed.pulled, [t for _, t in answers],
                               elapsed)
        if events != [e.decode() for e in self.events]:
            self.replay_failures.append(
                "standing-query alerts differ from the in-process replay"
            )
        return elapsed


class _Feed:
    """Stands in for stdin: yields the feed's lines, stamping each one
    when the loop takes it."""

    def __init__(self, lines: List[str]):
        self.lines = lines
        self.pulled: List[float] = []

    def __iter__(self):
        for line in self.lines:
            self.pulled.append(time.perf_counter())
            yield line


class _Sink(io.TextIOBase):
    """Stands in for stdout: keeps each written line with its time."""

    def __init__(self):
        self.lines: List[tuple] = []
        self._partial = ""

    def write(self, text: str) -> int:
        *complete, self._partial = (self._partial + text).split("\n")
        now = time.perf_counter()
        self.lines += [(line, now) for line in complete]
        return len(text)


class ServeSharded(_Serve):
    """``repro serve --shards 2`` socket server, b64 ``u1`` ingests."""

    name = "serve-sharded"
    method, oracle = "LPA", "olh"
    n_users, domain, chunk = 8_000, 32, 8
    SHARDS, CAPACITY = 2, 512
    WINDOW = 64
    FRONT = True

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.decoded: List[tuple] = []

    def _encode(self, row):
        packed = base64.b64encode(row.astype(np.uint8).tobytes()).decode()
        return (json.dumps({"op": "ingest", "b64": packed, "dtype": "u1"})
                + "\n").encode()

    def _command(self):
        return [
            "--shards", str(self.SHARDS), "--n-users", str(self.n_users),
            "--method", self.method, "--oracle", self.oracle,
            "--domain-size", str(self.domain),
            "--epsilon", str(self.EPSILON), "--window", str(self.W),
            "--seed", str(self.seed), "--chunk", str(self.chunk),
            "--capacity", str(self.CAPACITY),
        ]

    def _connect(self) -> None:
        self.proc = self._spawn()
        hello = stats.readline_within(self.proc.stdout, self.TIMEOUT_S)
        port = json.loads(hello)["port"]
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.conn = client.Connection.for_socket(self.sock)

    def _stop(self) -> None:
        if self.proc is None:
            return
        self._closed([("query", b'{"op": "shutdown"}\n')])
        self.replies.pop()
        self.sent.pop()
        self.conn.close()
        self.conn = None
        self.sock.close()
        self.sock = None
        self.proc.wait(timeout=self.TIMEOUT_S)
        self.proc.stdout.close()
        self.stderr.close()
        self.proc = None

    def _decoded_feed(self) -> List[tuple]:
        """The sent lines as ``(op, payload)``: an ingest's snapshot as
        an array, any other request as its parsed object.  Decoding is
        the server's front, so it happens here, outside the timed
        replay."""
        if len(self.decoded) != len(self.sent):
            self.decoded = []
            for line in self.sent:
                request = json.loads(line)
                payload = request
                if request["op"] == "ingest":
                    raw = base64.b64decode(request["b64"])
                    payload = np.frombuffer(raw, np.uint8).astype(np.int64)
                self.decoded.append((request["op"], payload))
        return self.decoded

    def _replay(self, m: Optional[Measurement] = None) -> float:
        """The identical feed through ``ShardedSession.ingest_many`` and
        ``QueryPlanner.answer`` in-process, batched like the server:
        ``--chunk`` ingests, or fewer when a query arrives."""
        from repro.query import QueryPlanner, query_from_request
        from repro.serving import ShardedSession

        self.replayed = True
        feed = self._decoded_feed()
        started = time.perf_counter()
        tier = ShardedSession(
            self.method, n_users=self.n_users, domain_size=self.domain,
            epsilon=self.EPSILON, window=self.W, num_shards=self.SHARDS,
            oracle=self.oracle, seed=self.seed, capacity=self.CAPACITY,
            retain=self.chunk,
        ).start()
        planner = QueryPlanner(tier.engine)
        answers: List[dict] = []
        buffer: List[np.ndarray] = []
        pulled: List[float] = []
        answered: List[float] = []

        def flush():
            if buffer:
                acks = tier.ingest_many(np.stack(buffer))
                answers.extend({"op": "ingest", **ack} for ack in acks)
                answered.extend([time.perf_counter()] * len(acks))
                buffer.clear()

        for op, request in feed:
            pulled.append(time.perf_counter())
            if op == "ingest":
                buffer.append(request)
                if len(buffer) == self.chunk:
                    flush()
                continue
            flush()
            if op == "summary":
                answers.append({"op": "summary", **tier.summary()})
            else:
                answers.append(
                    {**planner.answer(query_from_request(request)),
                     "as_of": tier.merged.latest_t}
                )
            answered.append(time.perf_counter())
        flush()
        elapsed = time.perf_counter() - started
        got = [json.loads(r) for r in self.replies]
        want = [json.loads(json.dumps(a)) for a in answers]
        mismatch = [
            i for i, (a, b) in enumerate(zip(got, want))
            if a != b and not (a.get("op") == b.get("op") == "summary"
                               and all(a[k] == b[k] for k in SUMMARY_KEYS))
        ]
        if mismatch or len(got) != len(want):
            self.replay_failures.append(
                f"in-process replay differs from the served answers at "
                f"{len(mismatch)} replies (first {mismatch[:1]}; "
                f"{len(got)} vs {len(want)} replies)"
            )
        elif m is not None:
            self._replay_block(m, pulled, answered, elapsed)
        return elapsed


SUMMARY: client.Request = ("query", b'{"op": "summary"}\n')

#: Summary fields the socket server and ``ShardedSession`` share.
SUMMARY_KEYS = ("steps", "publications", "total_reports", "max_window_spend",
                "shard_users", "num_shards")

WORKLOADS = {
    w.name: w for w in (ReplayTaxi, SweepGrid, ServeSolo, ServeSharded)
}
