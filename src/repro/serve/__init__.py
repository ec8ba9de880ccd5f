"""Always-on serving daemon with zero-downtime snapshot hot-swap.

The library used to pay a fresh-process startup for every caller; this
package turns the engine into a long-lived service the way the paper's
interactive refinement loop assumes — a user's failed query is refined
against a **live** index, immediately.

``repro.serve`` is an asyncio TCP/HTTP server that owns a single
:class:`~repro.XRefine` and layers the production concerns on top of
it:

* **Endpoints** — ``POST /search``, ``POST /search_many``,
  ``POST /explain``, ``POST /reload``, ``POST /shutdown``,
  ``GET /stats``, ``GET /healthz`` (JSON in, JSON out; see
  :mod:`repro.serve.server`).
* **Zero-downtime hot-swap** — ``/reload`` loads a newer frozen
  snapshot in the background, drains in-flight requests against the
  old version stamp, atomically flips the engine, and releases the old
  snapshot's mmap only after the last reader exits
  (:mod:`repro.serve.lifecycle`).
* **One query queue** — every job that touches the engine waits in a
  bounded FIFO in front of the one query thread: past
  ``max_inflight`` waiting requests, overload is a typed 429 instead of
  piled-up queue latency, and a query identical to one queued or
  running joins its evaluation (singleflight)
  (:class:`repro.serve.server.QueryQueue`).

Quickstart::

    python -m repro serve corpus.frz --port 8391

    >>> from repro.serve import ServeClient
    >>> client = ServeClient("127.0.0.1", 8391)
    >>> client.search("on line data base", k=3)["refinements"]
"""

from .background import BackgroundServer
from .client import ServeClient, ServeClientError
from .lifecycle import SnapshotHandle, SnapshotManager
from .server import RefineServer, run_server

__all__ = [
    "BackgroundServer",
    "RefineServer",
    "ServeClient",
    "ServeClientError",
    "SnapshotHandle",
    "SnapshotManager",
    "run_server",
]
