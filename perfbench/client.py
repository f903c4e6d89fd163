"""Single-threaded load client for the serve workloads.

One selector loop drives one pipe pair (the solo stdin loop) or one
socket (the sharded server).  Replies come back in request order on the
one connection, so each reply is matched to the oldest unanswered
request; unsolicited ``{"event": ...}`` lines (standing-query alerts)
are kept aside.  Two phases:

* open loop — request ``i`` is due at ``start + i / rate`` whatever the
  server does, and its latency runs from that due time, so a stall also
  counts against every request queued behind it.  The client records
  how late it sent each request (generator lag) and the backlog left
  when the last request fell due;
* saturated — the client keeps ``window`` requests in flight until the
  deadline, then drains.
"""

from __future__ import annotations

import os
import selectors
import socket
import time
from typing import Callable, List, Optional, Tuple

#: A request: (kind, encoded line).  ``kind`` is "ingest" or "query".
Request = Tuple[str, bytes]


class ClientError(RuntimeError):
    """The server stopped answering, closed the connection or timed out."""


class Connection:
    """Non-blocking line transport over a pipe pair or a socket."""

    def __init__(self, rfd: int, wfd: int, sock: Optional[socket.socket]):
        self.rfd, self.wfd, self.sock = rfd, wfd, sock
        os.set_blocking(rfd, False)
        os.set_blocking(wfd, False)
        self.selector = selectors.DefaultSelector()
        self.selector.register(rfd, selectors.EVENT_READ, "r")
        self._rbuf = b""
        self._wbuf = bytearray()
        self._writing = False
        self.events: List[bytes] = []

    @classmethod
    def for_process(cls, proc) -> "Connection":
        return cls(proc.stdout.fileno(), proc.stdin.fileno(), None)

    @classmethod
    def for_socket(cls, sock: socket.socket) -> "Connection":
        return cls(sock.fileno(), sock.fileno(), sock)

    def close(self) -> None:
        self.selector.close()

    # ------------------------------------------------------------------
    def queue(self, line: bytes) -> None:
        self._wbuf += line

    def _want_write(self, on: bool) -> None:
        if on == self._writing:
            return
        self._writing = on
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if on else 0)
        if self.rfd == self.wfd:
            self.selector.modify(self.rfd, events, "rw")
        elif on:
            self.selector.register(self.wfd, selectors.EVENT_WRITE, "w")
        else:
            self.selector.unregister(self.wfd)

    def _send(self) -> None:
        try:
            sent = (
                self.sock.send(self._wbuf)
                if self.sock is not None
                else os.write(self.wfd, self._wbuf)
            )
        except (BlockingIOError, InterruptedError):
            return
        except (BrokenPipeError, ConnectionError) as error:
            raise ClientError(f"server closed the connection: {error}")
        del self._wbuf[:sent]

    def poll(self, timeout: float) -> List[Tuple[float, bytes]]:
        """Flush what can be written, wait up to ``timeout`` and return
        the complete reply lines read, each with its arrival time."""
        if self._wbuf:
            self._send()
        self._want_write(bool(self._wbuf))
        lines: List[Tuple[float, bytes]] = []
        for _, mask in self.selector.select(max(0.0, timeout)):
            if mask & selectors.EVENT_WRITE and self._wbuf:
                self._send()
            if mask & selectors.EVENT_READ:
                try:
                    data = (
                        self.sock.recv(1 << 20)
                        if self.sock is not None
                        else os.read(self.rfd, 1 << 20)
                    )
                except (BlockingIOError, InterruptedError):
                    continue
                if not data:
                    raise ClientError("server closed its output")
                now = time.perf_counter()
                self._rbuf += data
                *complete, self._rbuf = self._rbuf.split(b"\n")
                for line in complete:
                    if line.startswith(b'{"event"'):
                        self.events.append(line)
                    elif line.strip():
                        lines.append((now, line))
        return lines


class Phase:
    """Outcome of one client phase: replies with per-request timing."""

    def __init__(self):
        self.sent: List[Request] = []
        self.replies: List[bytes] = []
        self.latency_s: List[Tuple[str, float]] = []
        self.lag_s: List[float] = []
        self.errors = 0
        self.backlog_end = 0
        self.elapsed_s = 0.0
        self.acked_ingests = 0

    def reply(self, kind: str, line: bytes) -> None:
        self.replies.append(line)
        if line.startswith(b'{"error"'):
            self.errors += 1
        elif kind == "ingest":
            self.acked_ingests += 1


def run_open_loop(
    conn: Connection,
    requests: List[Request],
    rate: float,
    timeout_s: float,
) -> Phase:
    """Send ``requests`` at ``rate`` per second; wait for every reply."""
    phase = Phase()
    pending: List[Tuple[str, float]] = []
    head = 0
    start = time.perf_counter() + 0.01
    last_due = start + (len(requests) - 1) / rate
    i = 0
    backlog_taken = False
    while i < len(requests) or head < len(pending):
        now = time.perf_counter()
        while i < len(requests) and start + i / rate <= now:
            due = start + i / rate
            kind, line = requests[i]
            conn.queue(line)
            phase.sent.append(requests[i])
            pending.append((kind, due))
            phase.lag_s.append(now - due)
            i += 1
        if not backlog_taken and now >= last_due and i == len(requests):
            phase.backlog_end = len(pending) - head
            backlog_taken = True
        wait = (start + i / rate - now) if i < len(requests) else 0.05
        if i == len(requests) and now - last_due > timeout_s:
            raise ClientError(
                f"{len(pending) - head} replies missing after "
                f"{timeout_s:.0f} s"
            )
        for arrived, line in conn.poll(min(wait, 0.05)):
            kind, due = pending[head]
            head += 1
            phase.reply(kind, line)
            phase.latency_s.append((kind, arrived - due))
    phase.elapsed_s = time.perf_counter() - start
    return phase


def run_saturated(
    conn: Connection,
    next_request: Callable[[], Request],
    seconds: float,
    window: int,
    timeout_s: float,
) -> Phase:
    """Keep ``window`` requests in flight for ``seconds``, then drain."""
    phase = Phase()
    kinds: List[str] = []
    head = 0
    start = time.perf_counter()
    deadline = start + seconds
    last_reply = start
    while True:
        now = time.perf_counter()
        if now < deadline:
            while len(kinds) - head < window:
                request = next_request()
                conn.queue(request[1])
                phase.sent.append(request)
                kinds.append(request[0])
        elif head == len(kinds):
            break
        if now - last_reply > timeout_s:
            raise ClientError(
                f"no reply for {timeout_s:.0f} s with "
                f"{len(kinds) - head} requests in flight"
            )
        for arrived, line in conn.poll(0.05):
            kind = kinds[head]
            head += 1
            last_reply = arrived
            phase.reply(kind, line)
    phase.elapsed_s = last_reply - start
    return phase


def run_closed(conn: Connection, requests: List[Request], timeout_s: float):
    """Send ``requests`` pipelined and return their reply lines."""
    replies: List[bytes] = []
    for _, line in requests:
        conn.queue(line)
    start = time.perf_counter()
    while len(replies) < len(requests):
        if time.perf_counter() - start > timeout_s:
            raise ClientError(
                f"{len(requests) - len(replies)} replies missing after "
                f"{timeout_s:.0f} s"
            )
        replies.extend(line for _, line in conn.poll(0.05))
    return replies
