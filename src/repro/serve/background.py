"""In-process daemon harness for tests and benchmarks.

Runs :func:`repro.serve.server.run_server` on a background thread with
an ephemeral port, hands out :class:`~repro.serve.client.ServeClient`
connections, and stops the daemon through the same graceful path as
``/shutdown``.  A startup failure (missing snapshot, bad port) is
re-raised in the caller's thread from :meth:`start`.
"""

from __future__ import annotations

import threading

from .client import ServeClient
from .server import run_server


class BackgroundServer:
    """``with BackgroundServer("corpus.frz") as daemon: ...``"""

    def __init__(self, source, host="127.0.0.1", port=0,
                 startup_timeout=60.0, **server_kwargs):
        self.source = source
        self.host = host
        self.port = port  # rebound to the real port once started
        self.startup_timeout = startup_timeout
        self.server_kwargs = server_kwargs
        self.server = None
        self._thread = None
        self._ready = threading.Event()
        self._error = None

    # ------------------------------------------------------------------
    def start(self):
        if self._thread is not None:
            raise RuntimeError("BackgroundServer already started")

        def main():
            try:
                run_server(
                    self.source, host=self.host, port=self.port,
                    ready_callback=self._on_ready,
                    # Signal handlers can only be installed on the main
                    # thread; tests SIGTERM a *subprocess* instead.
                    handle_signals=False,
                    **self.server_kwargs,
                )
            except BaseException as exc:  # noqa: BLE001 — report to caller
                self._error = exc
            finally:
                self._ready.set()

        self._thread = threading.Thread(
            target=main, name="xrefine-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(self.startup_timeout):
            raise TimeoutError(
                f"daemon did not start within {self.startup_timeout}s"
            )
        if self._error is not None:
            self._thread.join()
            raise self._error
        return self

    def _on_ready(self, server):
        self.server = server
        self.port = server.port
        self._ready.set()

    def stop(self, timeout=30.0):
        """Graceful shutdown (drain, release snapshot)."""
        server = self.server
        if server is not None and server.loop is not None:
            server.loop.call_soon_threadsafe(server.request_shutdown)
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():
                raise TimeoutError(
                    f"daemon did not stop within {timeout}s"
                )
        if self._error is not None:
            raise self._error

    def client(self, timeout=30.0):
        return ServeClient(self.host, self.port, timeout=timeout)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()
        return False

    def __repr__(self):
        state = "running" if self.server is not None else "stopped"
        return f"BackgroundServer({self.source!r}, {state})"
