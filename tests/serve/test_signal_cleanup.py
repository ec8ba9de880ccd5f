"""SIGTERM/SIGINT stop a real ``repro serve`` process gracefully.

The daemon's asyncio signal handlers take the same path as
``/shutdown`` — stop accepting, drain the query thread, release the
snapshot — so the process must exit 0, say so on stdout and write
nothing to stderr.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys

import pytest

SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
)


def subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_DIR] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    return env


class TestServingDaemon:
    @pytest.mark.parametrize(
        "signum", [signal.SIGTERM, signal.SIGINT], ids=["SIGTERM", "SIGINT"]
    )
    def test_signal_drains_and_exits_cleanly(self, serve_snapshots, signum):
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                serve_snapshots[0], "--port", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=subprocess_env(),
        )
        try:
            ready = process.stdout.readline()
            assert "serving" in ready and "http://" in ready
            process.send_signal(signum)
            stdout, stderr = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, stderr
        assert "daemon stopped" in stdout
        assert stderr == ""
