"""The always-on refinement daemon.

:class:`RefineServer` is an asyncio TCP/HTTP server that owns one
:class:`~repro.XRefine` via a :class:`~repro.serve.lifecycle.SnapshotManager`
and serves it forever:

====================  ==================================================
``POST /search``      One refinement search (``query``, ``k``,
                      ``algorithm``, ``rank_results``).
``POST /search_many`` A batch (``queries`` plus the same knobs).
``POST /explain``     ``/search`` with its ``QueryPlan`` attached.
``POST /reload``      Zero-downtime hot swap onto ``snapshot``.
``POST /shutdown``    Graceful stop.
``GET /stats``        Engine + serving counters.
``GET /healthz``      Liveness (never touches the query thread).
====================  ==================================================

Concurrency model — the part everything else leans on:

* The **event loop** does protocol work (framing, JSON, request
  validation and query normalization) and answers ``/search``
  **result-cache hits** itself: one probe under the result cache's
  lock (:meth:`~repro.XRefine.cached_body`) and one socket write of the
  body bytes stored with the cached response.  A hit never reaches the
  query queue and takes no snapshot handle (the bytes reference no
  mmap) — so it does not queue behind a slow miss or a pending flip and
  is never shed with a 429.
* Every job that touches the engine — a ``/search`` miss, ``/explain``,
  ``/search_many``, ``/stats``' cache counters, ``/reload``'s flip —
  goes through one **query queue** (:class:`QueryQueue`): a bounded
  FIFO in front of one query thread (the engine evaluates one query at
  a time).
  Evaluations count against ``max_inflight`` and are shed with a 429
  past it; an evaluation identical to one queued or running joins it
  (singleflight).  The query thread also renders each ``/search``
  answer to bytes, once, stamps ``generation`` where a flip cannot be
  concurrent, and keeps the bytes on the cached response
  (``RefinementResponse.wire_body``); a response cached without bytes
  (by ``/search_many`` or ``/explain``) falls through to this thread on
  its first ``/search`` and is rendered there.  Either way a request is
  exactly one counted cache lookup: made on the loop if it hits there,
  on the query thread otherwise.
* Why a loop-side hit is swap-safe: the probe reads ``index.version``
  and the cache entry under the same lock
  :meth:`~repro.XRefine.swap_index` holds while it flips the index and
  purges every other version's entries.  The bytes live and die with
  the entry, so a body labelled generation *g* is unreachable from the
  moment *g* stops serving; on a hit, ``generation`` names the
  generation that evaluated the answer, which is the serving one.
* ``/reload`` does its slow half (loading the new snapshot, then
  pre-mining recently served queries' rule sets against it — hits
  count as served) on a separate **reload executor**, so serving
  continues at full rate, and queues its fast half —
  :meth:`SnapshotManager.flip` — on the query queue, outside the bound.
  FIFO order is the drain: the flip cannot start until every
  already-queued evaluation has finished, and nothing evaluates
  mid-flip; shutdown drains the queue the same way before the snapshot
  closes.  Requests admitted after the flip see the new generation;
  the old generation's mmap is released by the refcount when its last
  reader exits.

Error mapping: validation failures (:class:`~repro.errors.QueryError`)
are 400s, overload (:class:`~repro.errors.ServerOverloadedError`) is a
429 with ``Retry-After`` (whole seconds, as HTTP allows; the body's
``retry_after`` is the precise float), a failed reload
(:class:`~repro.errors.IndexingError`) is a 500 whose body names the
type — and leaves the old snapshot serving.  Every error body is
``{"error": ..., "error_type": ...}``.
"""

from __future__ import annotations

import asyncio
import math
import signal
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from queue import SimpleQueue

from ..errors import QueryError, ReproError, ServerOverloadedError
from ..index.tokenize_text import query_terms
from ..kernels.backend import backend_name
from ..perf.result_cache import DEFAULT_CAPACITY
from .http import HttpError, encode_body, read_request, render_response
from .lifecycle import SnapshotManager
from .wire import (
    decode_reload_body,
    decode_search_body,
    decode_search_many_body,
    encode_response,
)

DEFAULT_PORT = 8391
#: Default bound on waiting requests: generous next to one query thread,
#: it keeps worst-case queueing at ``max_inflight`` × (per-query cost).
DEFAULT_MAX_INFLIGHT = 64


class QueryQueue:
    """The query thread and the one bounded, coalescing FIFO before it.

    :meth:`submit`, :meth:`run` and :meth:`drain` are called on the
    event loop, which alone touches the key map and the counters (no
    lock); the thread only pops jobs and hands each outcome back.
    """

    def __init__(self, max_inflight=DEFAULT_MAX_INFLIGHT):
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.max_inflight = max_inflight
        self._jobs = SimpleQueue()
        self._keyed = {}  # key -> future of its queued or running entry
        self._stopped = False
        self.inflight = self.admitted = self.rejected = self.peak = 0
        #: Keyed entries queued, and requests that joined one instead.
        self.leaders = self.coalesced = 0
        threading.Thread(
            target=self._work, name="xrefine-query", daemon=True
        ).start()

    async def submit(self, call, key=None):
        """``call()`` run on the query thread, counted against the bound.

        Raises ``ServerOverloadedError`` while ``max_inflight`` requests
        wait; a ``key`` already queued or running is joined instead.
        """
        if self.inflight >= self.max_inflight:
            self.rejected += 1
            raise ServerOverloadedError(
                f"server overloaded: {self.inflight} requests in "
                f"flight (limit {self.max_inflight})",
                retry_after=0.05,  # seconds
            )
        self.inflight += 1
        self.admitted += 1
        self.peak = max(self.peak, self.inflight)
        try:
            future = self._keyed.get(key)
            if future is not None:
                self.coalesced += 1
                # A joiner cancelled at teardown leaves the entry be.
                return await asyncio.shield(future)
            future = self._put(call, key)
            if key is not None:
                self._keyed[key] = future
                self.leaders += 1
            return await future
        finally:
            self.inflight -= 1

    async def run(self, call):
        """``call()`` run on the query thread, outside the bound."""
        return await self._put(call, None)

    async def drain(self):
        """Refuse new jobs, wait for every queued one, stop the thread."""
        last = self._put(lambda: None, None)
        self._stopped = True
        self._jobs.put(None)
        await last

    def _put(self, call, key):
        if self._stopped:
            raise RuntimeError("the query thread has stopped")
        future = asyncio.get_running_loop().create_future()
        self._jobs.put((call, key, future))
        return future

    def _work(self):
        while (job := self._jobs.get()) is not None:
            call, key, future = job
            try:
                result, error = call(), None
            except Exception as exc:  # noqa: BLE001 — the waiters' error
                result, error = None, exc
            future.get_loop().call_soon_threadsafe(
                self._settle, future, key, result, error
            )
            # Pin nothing of a finished job while the queue is idle.
            del job, call, future, result, error

    def _settle(self, future, key, result, error):
        if key is not None:
            del self._keyed[key]
        if future.cancelled():
            return
        if error is None:
            future.set_result(result)
        else:
            future.set_exception(error)
            future.exception()  # each waiter re-raises it; never "unread"

    def stats(self):
        """The ``admission`` and ``singleflight`` blocks of ``/stats``."""
        return {
            "admission": {
                "max_inflight": self.max_inflight, "inflight": self.inflight,
                "admitted": self.admitted, "rejected": self.rejected,
                "peak": self.peak,
            },
            "singleflight": {
                "leaders": self.leaders, "coalesced": self.coalesced,
                "inflight": len(self._keyed),
            },
        }


class RefineServer:
    """One engine, one port, zero-downtime reloads."""

    #: Recently served query signatures kept for reload pre-mining.
    RECENT_TERMS_LIMIT = 128
    #: Hot signatures pre-warmed per reload-executor burst, and the
    #: pause between bursts that hands the interpreter back to the
    #: query thread (long enough for a few queued evaluations to
    #: drain at steady-state service times).
    PREWARM_CHUNK = 1
    PREWARM_PAUSE_SECONDS = 0.015
    #: Sleep between tree-decode chunks of the reload's snapshot open,
    #: so the load yields the interpreter to in-flight evaluations.
    LOAD_PAUSE_SECONDS = 0.005

    def __init__(self, source, host="127.0.0.1", port=0, model=None,
                 cache_size=DEFAULT_CAPACITY,
                 max_inflight=DEFAULT_MAX_INFLIGHT, subresult_size=None):
        self.manager = SnapshotManager(
            source, model=model, cache_size=cache_size,
            subresult_size=subresult_size,
        )
        self.host = host
        self.port = port  # rebound to the real port after start()
        self.queue = QueryQueue(max_inflight)
        self._reload_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="xrefine-reload"
        )
        self._server = None
        self.loop = None
        self._stopping = None
        self._started = time.monotonic()
        #: LRU set of recently served term tuples (event-loop only);
        #: /reload pre-mines these against the incoming snapshot.
        self._recent_terms = OrderedDict()
        self.requests = 0
        self.errors = 0
        self.reloads = 0
        #: ``/search`` responses served from the event loop (a result-
        #: cache hit whose rendered bytes were re-sent as they were).
        self.inline_hits = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self):
        """Bind and start accepting (use port 0 for an ephemeral port)."""
        self.loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_until_stopped(self):
        """Serve until :meth:`request_shutdown`, then tear down."""
        async with self._server:
            await self._stopping.wait()
        await self._shutdown_resources()

    def request_shutdown(self):
        """Signal the serve loop to stop (threadsafe via the loop)."""
        if self._stopping is not None:
            self._stopping.set()

    async def _shutdown_resources(self):
        # Both single-thread queues finish what is queued first, so
        # every admitted evaluation completes before the snapshot closes.
        await self.queue.drain()
        await self.loop.run_in_executor(None, self._reload_pool.shutdown)
        self.manager.close()

    @property
    def uptime_seconds(self):
        return time.monotonic() - self._started

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer):
        try:
            while not self._stopping.is_set():
                try:
                    request = await read_request(reader)
                except HttpError as err:
                    writer.write(render_response(
                        err.status,
                        {"error": str(err), "error_type": "HttpError"},
                        keep_alive=False,
                    ))
                    await writer.drain()
                    break
                if request is None:
                    break
                status, payload, extra = await self._dispatch(request)
                keep_alive = request.keep_alive and not self._stopping.is_set()
                writer.write(render_response(
                    status, payload, keep_alive=keep_alive,
                    extra_headers=extra,
                ))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, request):
        """Route one request; returns (status, payload, extra_headers)."""
        self.requests += 1
        route = (request.method, request.path)
        try:
            if route == ("POST", "/search"):
                return 200, await self._search(request.json()), ()
            if route == ("POST", "/explain"):
                return 200, await self._search(
                    request.json(), explain=True
                ), ()
            if route == ("POST", "/search_many"):
                return 200, await self._search_many(request.json()), ()
            if route == ("POST", "/reload"):
                return 200, await self._reload(request.json()), ()
            if route == ("POST", "/shutdown"):
                self.request_shutdown()
                return 200, {"ok": True, "stopping": True}, ()
            if route == ("GET", "/healthz"):
                return 200, {
                    "ok": True,
                    "generation": self.manager.generation,
                    "uptime_seconds": round(self.uptime_seconds, 3),
                    "kernels": backend_name(),
                }, ()
            if route == ("GET", "/stats"):
                return 200, await self._stats(), ()
            if request.path in (
                "/search", "/search_many", "/explain", "/reload",
                "/shutdown", "/stats", "/healthz",
            ):
                self.errors += 1
                return 405, {
                    "error": f"{request.method} not allowed on "
                             f"{request.path}",
                    "error_type": "HttpError",
                }, ()
            self.errors += 1
            return 404, {
                "error": f"no such endpoint: {request.path}",
                "error_type": "HttpError",
            }, ()
        except HttpError as err:
            self.errors += 1
            return err.status, {
                "error": str(err), "error_type": "HttpError",
            }, ()
        except ServerOverloadedError as err:
            self.errors += 1
            return 429, {
                "error": str(err),
                "error_type": "ServerOverloadedError",
                "retry_after": err.retry_after,
            }, (("Retry-After", str(math.ceil(err.retry_after))),)
        except QueryError as err:
            self.errors += 1
            return 400, {
                "error": str(err), "error_type": "QueryError",
            }, ()
        except ReproError as err:
            self.errors += 1
            return 500, {
                "error": str(err),
                "error_type": type(err).__name__,
            }, ()
        except Exception as err:  # noqa: BLE001 — the daemon must not die
            self.errors += 1
            return 500, {
                "error": f"internal error: {err!r}",
                "error_type": "InternalError",
            }, ()

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def _note_terms(self, terms):
        """Record a served query signature for reload pre-mining.

        Event-loop only (like the query queue's bookkeeping), so no
        lock is needed.
        """
        recent = self._recent_terms
        recent.pop(terms, None)
        recent[terms] = None
        while len(recent) > self.RECENT_TERMS_LIMIT:
            recent.popitem(last=False)

    async def _search(self, body, explain=False):
        params = decode_search_body(body)
        engine = self.manager.engine
        k = params["k"]
        algorithm = params["algorithm"]
        rank_results = params["rank_results"]
        # Validation and normalization are index-independent, so they
        # run here, once; the query thread is handed the term tuple.
        # Validating *before* the probe matters: ``True`` and ``1.0``
        # hash like ``1`` and would hit the ``k=1`` entry.
        terms = engine.normalize(params["query"], k, algorithm)
        self._note_terms(terms)
        if not explain:
            # Loop-side hit: the bytes the query thread rendered when
            # it made this answer, found under the result-cache lock
            # (see the module docstring for why that is swap-safe).
            # It never reaches the query queue and takes no snapshot
            # handle — the bytes reference no mmap.
            cached = engine.cached_body(terms, k, algorithm, rank_results)
            if cached is not None:
                self.inline_hits += 1
                return cached
        # The engine's result-cache key extended with the snapshot
        # generation, so identical queries coalesce only within one.
        key = (
            "explain" if explain else "search",
            terms,
            k,
            algorithm,
            rank_results,
            engine._model_key(),
            self.manager.generation,
        )

        def call():
            response = engine.search(
                terms,
                k=k,
                algorithm=algorithm,
                rank_results=rank_results,
                explain=explain,
            )
            # `generation` is read on the query thread, where a flip
            # cannot be concurrent: the label always matches the
            # generation the answer was evaluated against, even for
            # requests admitted mid-drain (their `handle` may pin the
            # previous generation).
            if explain:
                payload = encode_response(response, include_plan=True)
                payload["plan_text"] = response.plan.describe()
                payload["generation"] = self.manager.generation
                return payload
            if response.wire_body is None:
                # Rendered once, here, and kept with the cached
                # response: every later hit re-sends these bytes, and
                # the flip that ends this generation purges them with
                # the entry.
                payload = encode_response(response)
                payload["generation"] = self.manager.generation
                response.wire_body = encode_body(payload)
            return response.wire_body

        return await self._evaluate(call, key)

    async def _evaluate(self, call, key=None):
        """Queue ``call`` with the serving generation pinned until done."""
        handle = self.manager.current()
        try:
            return await self.queue.submit(call, key)
        finally:
            handle.release()

    async def _search_many(self, body):
        params = decode_search_many_body(body)
        engine = self.manager.engine
        for query in params["queries"]:
            self._note_terms(tuple(query_terms(query)))

        def call():
            responses = engine.search_many(
                params["queries"],
                k=params["k"],
                algorithm=params["algorithm"],
                rank_results=params["rank_results"],
            )
            return {
                "responses": [encode_response(r) for r in responses],
                # Query-thread read; see _search.
                "generation": self.manager.generation,
            }

        return await self._evaluate(call)

    async def _reload(self, body):
        source = decode_reload_body(body)
        # Slow half off the hot path: serving continues at full rate
        # while the new snapshot loads.  An IndexingError here (missing
        # or corrupt snapshot) propagates as a typed 500 and nothing
        # has changed — the old generation keeps serving.
        new_index = await self.loop.run_in_executor(
            self._reload_pool, self.manager.load, source,
            self.LOAD_PAUSE_SECONDS,
        )
        # Still the slow half: pre-warm the recently served query
        # signatures against the new generation (rule mining, posting
        # decode, search-for inference), so their first
        # post-flip occurrence skips the cold costs on the query
        # thread.  Mined in small chunks with pauses between them —
        # mining is GIL-heavy, and an unbroken burst on the reload
        # thread would inflate concurrent requests' tail latency.
        prewarmed = 0
        hot = list(self._recent_terms)
        for start in range(0, len(hot), self.PREWARM_CHUNK):
            prewarmed += await self.loop.run_in_executor(
                self._reload_pool, self.manager.prepare, new_index,
                hot[start:start + self.PREWARM_CHUNK],
            )
            await asyncio.sleep(self.PREWARM_PAUSE_SECONDS)
        # Fast half on the query thread: FIFO behind every queued
        # evaluation (the drain), and nothing evaluates mid-flip.
        flip = await self.queue.run(
            lambda: self.manager.flip(new_index, source, prewarmed)
        )
        self.reloads += 1
        return {"ok": True, **flip}

    async def _stats(self):
        manager = self.manager
        engine_stats = await self.queue.run(manager.engine.cache_stats)
        return {
            "generation": manager.generation,
            "source": str(manager.current_source),
            "swaps": manager.swaps,
            "reloads": self.reloads,
            "kernels": backend_name(),
            "engine": engine_stats,
            **self.queue.stats(),  # "admission", "singleflight"
            "server": {
                "requests": self.requests,
                "errors": self.errors,
                "inline_hits": self.inline_hits,
                "uptime_seconds": round(self.uptime_seconds, 3),
            },
        }

    def __repr__(self):
        return (
            f"RefineServer({self.host}:{self.port}, "
            f"gen={self.manager.generation})"
        )


async def _amain(server, ready_callback, handle_signals):
    await server.start()
    if handle_signals:
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                server.loop.add_signal_handler(
                    signum, server.request_shutdown
                )
            except (NotImplementedError, RuntimeError):
                break
    if ready_callback is not None:
        ready_callback(server)
    await server.serve_until_stopped()


def run_server(source, host="127.0.0.1", port=DEFAULT_PORT, *,
               model=None, cache_size=DEFAULT_CAPACITY,
               max_inflight=DEFAULT_MAX_INFLIGHT, ready_callback=None,
               handle_signals=True, subresult_size=None):
    """Build a :class:`RefineServer` and serve until shutdown.

    ``ready_callback(server)`` fires once the socket is bound (the CLI
    prints the port; the test harness grabs ``server.loop`` to stop it
    from another thread).  With ``handle_signals`` (the default),
    SIGTERM/SIGINT trigger the same graceful path as ``/shutdown`` —
    drain, release the snapshot.
    """
    server = RefineServer(
        source, host=host, port=port, model=model,
        cache_size=cache_size, max_inflight=max_inflight,
        subresult_size=subresult_size,
    )
    asyncio.run(_amain(server, ready_callback, handle_signals))
    return server
