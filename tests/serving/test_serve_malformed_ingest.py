"""Satellite regression: malformed ingest values must not kill serve.

Python's ``json`` happily parses ``Infinity`` into ``float("inf")``,
and ``int(float("inf"))`` raises ``OverflowError`` — an exception class
the legacy ``repro serve`` loop did not catch, so one malformed record
could take down a server holding buffered (``--chunk > 1``) timestamps.
The server must instead emit a structured JSON error line and keep
serving the rest of the feed.

The loop decodes ingests with the sharded front's decoder, so it also
takes the packed ``b64`` form and rejects a ``values`` that is not an
array.
"""

import base64
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

N_USERS = 30
DOMAIN = 4


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def _serve_cmd(chunk=3):
    return [
        sys.executable, "-m", "repro", "serve",
        "--method", "LBD", "--oracle", "grr",
        "--domain-size", str(DOMAIN), "--epsilon", "1", "--window", "4",
        "--seed", "11", "--chunk", str(chunk), "--capacity", "0",
    ]


def _ingest_lines(n, seed=5):
    rng = np.random.default_rng(seed)
    return [
        json.dumps(
            {
                "op": "ingest",
                "values": rng.integers(0, DOMAIN, N_USERS).tolist(),
            }
        )
        for _ in range(n)
    ]


def _infinity_line():
    # json.dumps would also emit bare Infinity, but build it explicitly:
    # the point is a record whose values parse to non-finite floats.
    return (
        '{"op": "ingest", "values": ['
        + ", ".join(["Infinity"] * N_USERS)
        + "]}"
    )


def test_infinity_values_emit_an_error_line_not_a_crash():
    feed = _ingest_lines(6)
    feed.insert(2, _infinity_line())
    feed.insert(5, '{"op": "ingest", "values": [-Infinity, NaN]}')
    feed.append(json.dumps({"op": "point", "item": 0}))
    proc = subprocess.run(
        _serve_cmd(),
        input="\n".join(feed) + "\n",
        capture_output=True,
        text=True,
        env=_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = [json.loads(line) for line in proc.stdout.splitlines()]
    errors = [obj for obj in out if "error" in obj]
    assert len(errors) == 2
    assert any("OverflowError" in obj["error"] for obj in errors)
    # Every well-formed ingest was acked with a consecutive timestamp —
    # the buffered chunk survived both malformed records.
    acked = [obj["t"] for obj in out if obj.get("op") == "ingest"]
    assert acked == list(range(6))
    answer = [obj for obj in out if obj.get("op") == "point"]
    assert len(answer) == 1 and "estimate" in answer[0]


def test_chunk_one_still_reports_instead_of_dying():
    """The overflow predates batching: cover the unbuffered path too."""
    feed = [_infinity_line(), *_ingest_lines(2, seed=9)]
    proc = subprocess.run(
        _serve_cmd(chunk=1),
        input="\n".join(feed) + "\n",
        capture_output=True,
        text=True,
        env=_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = [json.loads(line) for line in proc.stdout.splitlines()]
    assert sum("error" in obj for obj in out) == 1
    assert [obj["t"] for obj in out if obj.get("op") == "ingest"] == [0, 1]


def _run(feed, chunk=3):
    proc = subprocess.run(
        _serve_cmd(chunk=chunk),
        input="\n".join(feed) + "\n",
        capture_output=True,
        text=True,
        env=_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _as_b64(line):
    """The same ingest request in the packed ``b64``/``u1`` form."""
    values = np.asarray(json.loads(line)["values"], dtype=np.uint8)
    return json.dumps(
        {
            "op": "ingest",
            "b64": base64.b64encode(values.tobytes()).decode("ascii"),
            "dtype": "u1",
        }
    )


def test_b64_ingest_equals_list_ingest():
    """The solo loop takes the packed wire form too: the same snapshots
    sent as b64 give the same stdout, byte for byte."""
    feed = _ingest_lines(6, seed=13)
    tail = [
        json.dumps({"op": "point", "item": 1}),
        json.dumps({"op": "range", "lo": 0, "hi": 2}),
    ]
    mixed = [
        _as_b64(line) if i % 2 else line for i, line in enumerate(feed)
    ]
    packed = [_as_b64(line) for line in feed]
    want = _run(feed + tail)
    assert _run(mixed + tail) == want
    assert _run(packed + tail) == want


def test_malformed_b64_emits_error_lines():
    feed = _ingest_lines(4, seed=17)
    feed.insert(1, json.dumps({"op": "ingest", "b64": "!!", "dtype": "u1"}))
    feed.insert(
        3, json.dumps({"op": "ingest", "b64": "AA==", "dtype": "f8"})
    )
    out = [json.loads(line) for line in _run(feed).splitlines()]
    errors = [obj for obj in out if "error" in obj]
    assert len(errors) == 2
    assert any("dtype" in obj["error"] for obj in errors)
    assert [obj["t"] for obj in out if obj.get("op") == "ingest"] == [
        0, 1, 2, 3,
    ]


def test_values_that_are_not_an_array_are_rejected():
    """A digit string or an object of the right length used to ingest
    its characters or keys as a snapshot."""
    feed = _ingest_lines(3, seed=19)
    feed.insert(1, json.dumps({"op": "ingest", "values": "0" * N_USERS}))
    feed.insert(
        2,
        json.dumps(
            {
                "op": "ingest",
                "values": {"0" * (k + 1): 0 for k in range(N_USERS)},
            }
        ),
    )
    out = [json.loads(line) for line in _run(feed).splitlines()]
    errors = [obj["error"] for obj in out if "error" in obj]
    assert len(errors) == 2
    assert all("JSON array" in error for error in errors)
    assert [obj["t"] for obj in out if obj.get("op") == "ingest"] == [
        0, 1, 2,
    ]
