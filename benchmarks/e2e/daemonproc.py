"""The real daemon in its own process: spawn, readiness, RSS, reaping.

``python -m repro serve <snapshot> --port 0`` prints the ephemeral port
it bound; readiness is the first 200 on ``GET /healthz``.  Shutdown is
graceful (``POST /shutdown``), then SIGTERM, then SIGKILL — and a daemon
that did not exit 0 with an empty stderr and no ``/dev/shm`` leftovers
fails the run.
"""

from __future__ import annotations

import os
import re
import select
import subprocess
import sys
import time

import paths
from loadgen import Connection, RunFailed

_PORT = re.compile(r"on http://127\.0\.0\.1:(\d+) ")
READY_TIMEOUT = 60.0
#: Prefix of repro.shard.shm segment names; the daemon's pid follows.
_SHM_PREFIX = "xrefshard_"


class DaemonError(RunFailed):
    """The daemon did not start."""


def share_one_cpu():
    """Pin this thread to the last CPU it may use.

    The daemon is spawned right after and inherits it, as does every
    thread the runner starts later, so the load generator and the daemon
    take turns on one CPU.  A closed loop has one side waiting for the
    other anyway, and the CPU never goes idle during the window.  Left
    to the scheduler, or with a CPU each, every request pays two
    wake-ups of a halted vCPU, and what those cost is the hypervisor's
    mood: on this 2-vCPU guest ``cold_small`` p50 read 1.25-2.21 ms over
    eight runs with a CPU each and 1.21-1.24 ms (one 1.70) with one
    shared (README, "Noise procedure").  Idempotent: narrowing to the
    last of an already narrowed set changes nothing.
    """
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[-1:])


class Daemon:
    """One ``repro serve`` child process."""

    def __init__(self, snapshot_path, extra_args, workdir):
        self._stopped = None
        self.port = None
        self.stderr_path = os.path.join(
            workdir, f"daemon_{time.monotonic_ns()}.stderr"
        )
        self._stderr = open(self.stderr_path, "wb")
        began = time.perf_counter()
        share_one_cpu()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", snapshot_path,
             "--port", "0", *extra_args],
            stdout=subprocess.PIPE, stderr=self._stderr,
            stdin=subprocess.DEVNULL, env=paths.child_env(), cwd=workdir,
        )
        try:
            self.port = self._read_port()
            self._await_healthz()
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - began

    @property
    def pid(self):
        return self.process.pid

    def _read_port(self):
        stdout = self.process.stdout
        deadline = time.monotonic() + READY_TIMEOUT
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.process.poll() is not None:
                raise DaemonError(
                    f"daemon never announced its port: {line!r} "
                    f"{self._stderr_text()}"
                )
            if select.select([stdout], [], [], min(remaining, 0.2))[0]:
                chunk = os.read(stdout.fileno(), 4096)
                if not chunk:
                    raise DaemonError(
                        f"daemon closed stdout: {self._stderr_text()}"
                    )
                line += chunk
        match = _PORT.search(line.decode("utf-8", "replace"))
        if match is None:
            raise DaemonError(f"unexpected daemon banner {line!r}")
        return int(match.group(1))

    def _await_healthz(self):
        deadline = time.monotonic() + READY_TIMEOUT
        while True:
            try:
                with Connection(self.port) as connection:
                    status, _ = connection.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise DaemonError("daemon never answered /healthz")
            time.sleep(0.01)

    def connect(self):
        return Connection(self.port)

    def cpus(self):
        """The CPUs the daemon's main thread may run on."""
        return sorted(os.sched_getaffinity(self.pid))

    def rss_peak_kb(self):
        with open(f"/proc/{self.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise DaemonError("no VmHWM in /proc status")

    def _stderr_text(self):
        self._stderr.flush()
        with open(self.stderr_path, "rb") as handle:
            return handle.read().decode("utf-8", "replace")

    def _shm_leftovers(self):
        try:
            entries = os.listdir("/dev/shm")
        except OSError:
            return []
        mine = f"{_SHM_PREFIX}{self.pid:x}_"
        return sorted(e for e in entries if e.startswith(mine))

    def stop(self):
        """Reap the daemon; returns what the hygiene check needs.

        Idempotent.  ``clean`` is true only for a graceful exit with
        status 0, nothing on stderr and no shared-memory leftovers.
        """
        if self._stopped is not None:
            return self._stopped
        process = self.process
        how = "already-exited"
        if process.poll() is None:
            how = "graceful"
            try:
                if self.port is None:
                    raise ConnectionError("daemon never announced a port")
                with Connection(self.port, timeout=5.0) as connection:
                    connection.post_json("/shutdown", {})
            except (OSError, ValueError):  # refused, or not a JSON answer
                how = "sigterm"
                process.terminate()
            try:
                process.wait(10.0)
            except subprocess.TimeoutExpired:
                how = "sigterm"
                process.terminate()
                try:
                    process.wait(5.0)
                except subprocess.TimeoutExpired:
                    how = "sigkill"
                    process.kill()
                    process.wait()
        if process.stdout is not None:
            process.stdout.close()
        stderr = self._stderr_text()
        self._stderr.close()
        leftovers = self._shm_leftovers()
        self._stopped = {
            "how": how,
            "exit_status": process.returncode,
            "stderr": stderr,
            "shm_leftovers": leftovers,
            "clean": (how == "graceful" and process.returncode == 0
                      and not stderr.strip() and not leftovers),
        }
        return self._stopped
