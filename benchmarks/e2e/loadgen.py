"""The load generator: one process, one request connection.

A minimal keep-alive HTTP/1.1 client over a raw socket (pre-encoded
request bytes out, ``Content-Length`` body in), so the client's own
cost per request stays in the tens of microseconds and the latency it
reports is the daemon's.  Latency runs from just before ``sendall`` to
the response body *parsed* — what a JSON client waits for.

Closed loop: each connection sends its next request when the previous
answer arrived.  Open loop: requests are sent on a schedule and timed
from their *due* instant, so a stall is charged to every request that
was due during it; with one connection a late answer delays the next
send, and that lateness is reported too.
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time

#: Every Nth response body is kept for the correctness check.
CHECK_EVERY = 50
#: Per-request engine counters are kept for this many window requests,
#: a fixed prefix, so their means repeat exactly on 1-connection loops.
COUNTED_PREFIX = 1000
#: The open loop sleeps until this close to a due time, then spins.
_SPIN_SECONDS = 0.0002
_RECV = 1 << 16


class RunFailed(Exception):
    """The run cannot report numbers; ``run.py`` exits with status 4."""


class Connection:
    """One keep-alive connection to the daemon."""

    def __init__(self, port, timeout=30.0):
        self.socket = socket.create_connection(("127.0.0.1", port), timeout)
        self.socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def roundtrip(self, raw):
        """Send request bytes; return ``(status, body_bytes)``."""
        sock = self.socket
        sock.sendall(raw)
        buffer = sock.recv(_RECV)
        while b"\r\n\r\n" not in buffer:
            chunk = sock.recv(_RECV)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            buffer += chunk
        head, _, body = buffer.partition(b"\r\n\r\n")
        status = int(head[9:12])
        marker = head.lower().find(b"content-length:")
        if marker < 0:
            raise ConnectionError(f"no Content-Length in {head!r}")
        end = head.find(b"\r\n", marker)
        length = int(head[marker + 15:end if end >= 0 else None])
        while len(body) < length:
            chunk = sock.recv(_RECV)
            if not chunk:
                raise ConnectionError("daemon closed mid-body")
            body += chunk
        return status, body

    def get(self, path):
        return self.roundtrip(
            f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("latin-1")
        )

    def post_json(self, path, payload):
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        status, answer = self.roundtrip(head + body)
        return status, json.loads(answer)

    def get_json(self, path):
        status, answer = self.get(path)
        return status, json.loads(answer)

    def close(self):
        self.socket.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


def percentile(ordered, fraction):
    """Nearest-rank percentile of an ascending-sorted sample."""
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


class Lane:
    """What one connection observed during the window."""

    def __init__(self):
        self.latencies = []   # seconds, 200-responses only
        self.offsets = []     # when each was sent/due, seconds into window
        self.lateness = []    # seconds, open loop only
        self.sent = 0
        self.errors = []      # "status 429", repr(exception), ...
        self.kept = []        # (window position, parsed body)
        self.counted = []     # (window position, body["stats"])
        self.bytes = 0
        self.finished = 0.0


def _one(connection, raw, position, lane, began, start):
    """Issue one request; file its outcome under ``lane``."""
    lane.sent += 1
    try:
        status, body = connection.roundtrip(raw)
        answer = json.loads(body)
    except (OSError, ValueError) as error:
        lane.errors.append(repr(error))
        return
    done = time.perf_counter()
    if status != 200:
        lane.errors.append(f"status {status}")
        return
    lane.latencies.append(done - began)
    lane.offsets.append(began - start)
    lane.bytes += len(body)
    if position % CHECK_EVERY == 0:
        lane.kept.append((position, answer))
    if position < COUNTED_PREFIX:
        lane.counted.append((position, answer["stats"]))


def closed_loop(port, raws, order, seconds):
    """Send ``order`` over one connection for ``seconds``, each request
    when the previous answer arrived, in the calling thread.

    ``order`` must outlast the window: at its end the loop would replay
    old requests against warm caches and overstate the daemon, so that
    fails the run instead.  Returns ``(lane, elapsed_seconds)``.
    """
    lane = Lane()
    with Connection(port) as connection:
        start = time.perf_counter()
        deadline = start + seconds
        for position, query in enumerate(order):
            began = time.perf_counter()
            if began >= deadline:
                break
            _one(connection, raws[query], position, lane, began, start)
        else:
            raise RunFailed(
                f"the daemon outran the {len(order)} generated requests "
                f"before the {seconds} s window closed: raise the draw "
                "rates in inputs.py"
            )
        lane.finished = time.perf_counter()
    return lane, lane.finished - start


def open_loop(port, raws, order, due, seconds):
    """Send ``order[i]`` at ``due[i]`` seconds; one connection.

    Latency is timed from the due instant.  Returns
    ``(lane, elapsed_seconds)`` where elapsed is at least ``seconds``:
    a backlog that outlives the window lowers the throughput.
    """
    lane = Lane()
    with Connection(port) as connection:
        start = time.perf_counter()
        for position, offset in enumerate(due):
            target = start + offset
            while True:
                now = time.perf_counter()
                wait = target - now
                if wait <= 0:
                    break
                if wait > _SPIN_SECONDS:
                    time.sleep(wait - _SPIN_SECONDS)
            lane.lateness.append(now - target)
            _one(connection, raws[order[position]], position, lane, target,
                 start)
        lane.finished = time.perf_counter()
    return lane, max(lane.finished - start, seconds)


class Reloader(threading.Thread):
    """The admin connection: POST /reload A -> B -> A ... on a schedule.

    Reload ``n`` starts ``n * period_seconds`` after :meth:`start` (or
    as soon as the previous one has finished, if that is later), so
    every window sees the same number of flips at the same instants.
    """

    def __init__(self, port, targets, period_seconds):
        super().__init__(daemon=True)
        self.port = port
        self.targets = targets
        self.period_seconds = period_seconds
        self.durations = []
        self.errors = []
        self._halt = threading.Event()

    def run(self):
        try:
            with Connection(self.port, timeout=60.0) as connection:
                origin = time.perf_counter()
                turn = 0
                while not self._halt.wait(max(
                    0.0, origin + turn * self.period_seconds
                    - time.perf_counter()
                )):
                    target = self.targets[turn % len(self.targets)]
                    began = time.perf_counter()
                    status, answer = connection.post_json(
                        "/reload", {"snapshot": target}
                    )
                    if status != 200:
                        self.errors.append(f"status {status}: {answer}")
                    else:
                        self.durations.append(time.perf_counter() - began)
                    turn += 1
        except (OSError, ValueError) as error:
            self.errors.append(repr(error))

    def finish(self):
        """Let the reload in flight complete, then join."""
        self._halt.set()
        self.join(60.0)
        if self.is_alive():
            self.errors.append("reload never completed")
