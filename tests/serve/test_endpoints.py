"""Endpoint behavior of the serving daemon: happy paths and failures.

One in-process daemon per module (``conftest.daemon``); answers are
cross-checked against a library engine over the same snapshot, and
every client-error path must come back as a typed 4xx JSON body — not
a connection reset, not a 500.
"""

from __future__ import annotations

import http.client
import json
import re
import threading

import pytest

from repro import XRefine
from repro.errors import QueryError, ReproError
from repro.kernels import backend_name
from repro.serve import BackgroundServer, ServeClientError
from repro.serve.wire import encode_response

QUERY = "databse systems"


def wire_answer(payload):
    """The answer-bearing part of a wire response (drop timings)."""
    return {
        key: value
        for key, value in payload.items()
        if key not in ("stats", "generation", "plan", "plan_text")
    }


class TestHappyPaths:
    def test_healthz(self, client):
        body = client.healthz()
        assert body["ok"] is True
        assert body["generation"] == 0
        assert body["uptime_seconds"] >= 0
        assert body["kernels"] == backend_name()

    def test_search_matches_library_engine(
        self, client, serve_snapshots
    ):
        served = client.search(QUERY, k=2)
        engine = XRefine.from_frozen(serve_snapshots[0])
        local = encode_response(engine.search(QUERY, k=2))
        assert wire_answer(served) == wire_answer(local)
        assert served["generation"] == 0
        assert served["stats"]["elapsed_seconds"] >= 0

    def test_search_accepts_term_lists(self, client):
        as_string = client.search(QUERY, k=2)
        as_list = client.search(QUERY.split(), k=2)
        assert wire_answer(as_string) == wire_answer(as_list)

    def test_explain_attaches_the_plan(self, client):
        body = client.explain(QUERY, k=2)
        assert body["plan"] is not None
        assert body["plan"]["executed"] in ("partition", "sle", "stack")
        assert "plan: algorithm=" in body["plan_text"]

    def test_explain_after_search_carries_a_cached_plan(self, client):
        query = "xml keyword search"
        searched = client.search(query, k=3)
        assert "plan" not in searched
        explained = client.explain(query, k=3)
        assert explained["plan"]["cached"] is True
        assert explained["plan"]["executed"] == "sle"
        assert explained["plan"]["forced"] is None
        assert "served from the result cache" in explained["plan_text"]
        assert wire_answer(explained) == wire_answer(searched)
        # The shared cache entry was not handed the plan.
        assert client.search(query, k=3) == searched

    def test_stats_planner_block(self, client):
        before = client.stats()["engine"]["planner"]
        client.search("keyword refinement", k=1, algorithm="partition")
        after = client.stats()["engine"]["planner"]
        assert set(after["routed"]) == {"partition", "sle", "stack"}
        assert after["routed"]["partition"] == before["routed"]["partition"] + 1
        assert after["fallbacks"] == 0
        assert after["plan_cache"] is None

    def test_stats_memo_counters(self, client):
        """``engine.memos`` tells a re-mining miss from a DP miss."""
        query = "memo counter probe"
        before = client.stats()["engine"]["memos"]
        client.search(query, k=2)
        client.search(query, k=2)  # a result-cache hit: no memo read
        after = client.stats()["engine"]["memos"]
        assert set(after) == {"keyword_rules", "dp", "search_for", "need"}
        for memo in after.values():
            assert set(memo) == {
                "size", "limit", "hits", "misses", "evictions",
            }
        assert {name: memo["limit"] for name, memo in after.items()} == {
            "keyword_rules": 2048, "dp": 512,
            "search_for": 1024, "need": 1024,
        }
        # The one mined query mined each of its three new keywords.
        keywords = after["keyword_rules"]
        assert keywords["misses"] == before["keyword_rules"]["misses"] + 3
        assert keywords["size"] == before["keyword_rules"]["size"] + 3
        assert keywords["hits"] == before["keyword_rules"]["hits"]

    def test_search_many(self, client):
        queries = [QUERY, "xml keyword", QUERY]
        body = client.search_many(queries, k=1)
        answers = body["responses"]
        assert len(answers) == 3
        assert wire_answer(answers[0]) == wire_answer(answers[2])
        single = client.search(queries[1], k=1)
        assert wire_answer(answers[1]) == wire_answer(single)

    def test_stats_shape(self, client):
        client.search(QUERY, k=2)
        stats = client.stats()
        assert stats["generation"] == 0
        assert stats["swaps"] == 0
        assert stats["kernels"] == backend_name()
        assert stats["engine"]["index_version"] == 0
        assert stats["engine"]["results"]["maxsize"] > 0
        # Answering /search faults no partition of the paged tree.
        assert stats["engine"]["tree_partitions_loaded"] == 0
        assert stats["engine"]["tree_partitions"] == 40
        assert stats["admission"]["admitted"] >= 1
        assert stats["singleflight"]["leaders"] >= 1
        # The keys the wire benchmark's traced run reads its serve
        # counters from (``admission.rejected``, ``singleflight.coalesced``).
        assert set(stats["admission"]) == {
            "max_inflight", "inflight", "admitted", "rejected", "peak",
        }
        assert set(stats["singleflight"]) == {
            "leaders", "coalesced", "inflight",
        }
        assert stats["server"]["requests"] >= 2

    def test_keep_alive_connection_reuse(self, daemon):
        with daemon.client() as client:
            sock_ids = set()
            for _ in range(3):
                client.healthz()
                sock_ids.add(id(client._connection))
        assert len(sock_ids) == 1  # one persistent connection


class TestClientErrors:
    def test_invalid_k(self, client):
        for bad_k in (0, -3, 1.5, True):
            with pytest.raises(ServeClientError) as err:
                client.search(QUERY, k=bad_k)
            assert err.value.status == 400
            assert err.value.error_type == "QueryError"

    def test_empty_query(self, client):
        for bad_query in ("", "   !!!"):
            with pytest.raises(ServeClientError) as err:
                client.search(bad_query)
            assert err.value.status == 400
            assert err.value.error_type == "QueryError"
            assert "empty" in err.value.error

    def test_non_string_query(self, client):
        with pytest.raises(ServeClientError) as err:
            client._request("POST", "/search", {"query": 17})
        assert err.value.status == 400
        assert err.value.error_type == "QueryError"

    def test_unknown_algorithm(self, client):
        with pytest.raises(ServeClientError) as err:
            client.search(QUERY, algorithm="bogus")
        assert err.value.status == 400
        assert "bogus" in err.value.error

    def test_unknown_field_is_rejected(self, client):
        with pytest.raises(ServeClientError) as err:
            client._request(
                "POST", "/search", {"query": QUERY, "topk": 3}
            )
        assert err.value.status == 400
        assert "topk" in err.value.error

    def test_missing_query_field(self, client):
        with pytest.raises(ServeClientError) as err:
            client._request("POST", "/search", {})
        assert err.value.status == 400

    def test_search_many_requires_queries(self, client):
        for body in ({}, {"queries": []}, {"queries": "not a list"}):
            with pytest.raises(ServeClientError) as err:
                client._request("POST", "/search_many", body)
            assert err.value.status == 400

    def test_unknown_route_404(self, client):
        with pytest.raises(ServeClientError) as err:
            client._request("GET", "/nope")
        assert err.value.status == 404

    def test_wrong_method_405(self, client):
        with pytest.raises(ServeClientError) as err:
            client._request("GET", "/search")
        assert err.value.status == 405
        with pytest.raises(ServeClientError) as err:
            client._request("POST", "/healthz", {})
        assert err.value.status == 405

    def test_malformed_json_body_400(self, daemon):
        connection = http.client.HTTPConnection(
            daemon.host, daemon.port, timeout=30.0
        )
        try:
            connection.request(
                "POST", "/search", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            body = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert body["error_type"] == "HttpError"
        assert "JSON" in body["error"]

    def test_invalid_requests_never_hit_a_cached_entry(
        self, daemon, client, serve_snapshots
    ):
        """Validation runs before the loop-side cache probe.

        ``True == 1`` and ``1.0 == 1`` hash alike: probed unvalidated,
        ``k=true`` would be *answered* from the ``k=1`` entry.
        """
        client.search(QUERY, k=1)
        inline = daemon.server.inline_hits
        client.search(QUERY, k=1)
        assert daemon.server.inline_hits == inline + 1  # cached, rendered
        library = XRefine.from_frozen(serve_snapshots[0])
        for body in (
            {"query": QUERY, "k": True},
            {"query": QUERY, "k": 1.0},
            {"query": QUERY, "k": 0},
            {"query": QUERY, "algorithm": "bogus"},
            {"query": " !!! "},
        ):
            with pytest.raises(QueryError) as expected:
                library.search(
                    body["query"], k=body.get("k", 1),
                    algorithm=body.get("algorithm", "auto"),
                )
            errors = daemon.server.errors
            with pytest.raises(ServeClientError) as err:
                client._request("POST", "/search", body)
            assert err.value.status == 400, body
            assert err.value.error_type == "QueryError"
            assert err.value.error == str(expected.value)
            assert daemon.server.errors == errors + 1
        assert daemon.server.inline_hits == inline + 1

    @pytest.mark.parametrize("bad_flag", ["false", 0, []])
    def test_non_boolean_rank_results(self, daemon, client, bad_flag):
        """``bool("false")`` is true: coerced, it would turn ranking on."""
        client.search(QUERY, k=1)  # the entry a coerced flag could hit
        cache = daemon.server.manager.engine.result_cache
        before = (cache.stats(), daemon.server.inline_hits)
        for path, body in (
            ("/search", {"query": QUERY}),
            ("/explain", {"query": QUERY}),
            ("/search_many", {"queries": [QUERY]}),
        ):
            with pytest.raises(ServeClientError) as err:
                client._request(
                    "POST", path, {**body, "rank_results": bad_flag}
                )
            assert err.value.status == 400, path
            assert err.value.error_type == "QueryError"
            assert "rank_results" in err.value.error
        assert (cache.stats(), daemon.server.inline_hits) == before

    def test_failed_requests_leave_the_daemon_serving(self, client):
        with pytest.raises(ServeClientError):
            client.search("", k=1)
        assert client.search(QUERY, k=1)["needs_refinement"] in (
            True, False,
        )


class TestAdmissionControl:
    def test_overload_rejected_with_429(self, serve_snapshots):
        with BackgroundServer(
            serve_snapshots[0], max_inflight=1
        ) as daemon:
            engine = daemon.server.manager.engine
            gate = threading.Event()
            entered = threading.Event()
            real_search = engine.search

            def slow_search(*args, **kwargs):
                entered.set()
                assert gate.wait(30.0)
                return real_search(*args, **kwargs)

            engine.search = slow_search
            try:
                results = {}

                def blocked():
                    with daemon.client() as c:
                        results["blocked"] = c.search(QUERY, k=1)

                worker = threading.Thread(target=blocked)
                worker.start()
                assert entered.wait(30.0)
                # The budget (1) is consumed by the blocked request:
                # the next one is rejected immediately, with a hint.
                with daemon.client() as c:
                    with pytest.raises(ServeClientError) as err:
                        c.search("xml keyword", k=1)
                assert err.value.status == 429
                assert err.value.error_type == "ServerOverloadedError"
                assert err.value.retry_after > 0
                # RFC 9110 allows only integer delay-seconds in the
                # header; the body keeps the precise float.
                connection = http.client.HTTPConnection(
                    daemon.host, daemon.port, timeout=30.0
                )
                try:
                    connection.request("POST", "/search", body=json.dumps(
                        {"query": "xml keyword", "k": 1}
                    ))
                    response = connection.getresponse()
                    body = json.loads(response.read())
                finally:
                    connection.close()
                assert response.status == 429
                header = response.getheader("Retry-After")
                assert re.fullmatch(r"\d+", header), header
                assert 0 < body["retry_after"] <= int(header)
            finally:
                gate.set()
            worker.join(30.0)
            assert not worker.is_alive()
            assert results["blocked"]["query"]
            stats = daemon.server.queue.stats()["admission"]
            assert stats["rejected"] >= 1
            assert stats["inflight"] == 0


class TestSingleflight:
    def test_identical_inflight_queries_coalesce(self, serve_snapshots):
        with BackgroundServer(serve_snapshots[0]) as daemon:
            engine = daemon.server.manager.engine
            gate = threading.Event()
            entered = threading.Event()
            calls = []
            real_search = engine.search

            def slow_search(query, **kwargs):
                calls.append(query)
                entered.set()
                assert gate.wait(30.0)
                return real_search(query, **kwargs)

            engine.search = slow_search
            try:
                answers = []

                def issue():
                    with daemon.client() as c:
                        answers.append(c.search(QUERY, k=2))

                workers = [
                    threading.Thread(target=issue) for _ in range(5)
                ]
                workers[0].start()
                assert entered.wait(30.0)
                # Leader is parked on the query thread; these four
                # arrive while it is in flight and must coalesce.
                for worker in workers[1:]:
                    worker.start()
                sf = daemon.server.queue
                deadline = threading.Event()
                for _ in range(200):
                    if sf.coalesced >= 4:
                        break
                    deadline.wait(0.05)
            finally:
                gate.set()
            for worker in workers:
                worker.join(30.0)
            assert len(answers) == 5
            assert len(calls) == 1  # one evaluation for five requests
            assert daemon.server.queue.coalesced >= 4
            first = wire_answer(answers[0])
            assert all(wire_answer(a) == first for a in answers[1:])


    def test_failed_evaluation_reaches_every_joined_request(
        self, serve_snapshots
    ):
        with BackgroundServer(serve_snapshots[0]) as daemon:
            server = daemon.server
            engine = server.manager.engine
            gate = threading.Event()
            entered = threading.Event()
            calls = []
            real_search = engine.search

            def failing_search(query, **kwargs):
                calls.append(query)
                if len(calls) == 1:
                    entered.set()
                    assert gate.wait(30.0)
                    raise ReproError("evaluation failed")
                return real_search(query, **kwargs)

            engine.search = failing_search
            outcomes = []

            def send():
                with daemon.client() as c:
                    try:
                        c.search(QUERY, k=2)
                        outcomes.append((200, None))
                    except ServeClientError as err:
                        outcomes.append((err.status, err.error_type))

            workers = [threading.Thread(target=send) for _ in range(5)]
            try:
                workers[0].start()
                assert entered.wait(30.0)
                for worker in workers[1:]:
                    worker.start()
                for _ in range(200):
                    if server.queue.coalesced >= 4:
                        break
                    gate.wait(0.05)
                assert server.queue.coalesced == 4
            finally:
                gate.set()
            for worker in workers:
                worker.join(30.0)
                assert not worker.is_alive()
            # The leader's error reached all five, and cleared the key:
            # the next identical request evaluates afresh.
            assert outcomes == [(500, "ReproError")] * 5
            assert server.queue.stats()["singleflight"]["inflight"] == 0
            with daemon.client() as c:
                assert c.search(QUERY, k=2)["query"]
            assert len(calls) == 2


class TestShutdown:
    def test_shutdown_drains_the_queue(self, serve_snapshots):
        """Queued misses finish, and answer, before the snapshot closes."""
        with BackgroundServer(serve_snapshots[0]) as daemon:
            server = daemon.server
            engine = server.manager.engine
            gate = threading.Event()
            entered = threading.Event()
            finished = []
            real_search = engine.search

            def held_search(query, **kwargs):
                if not entered.is_set():
                    entered.set()
                    assert gate.wait(30.0)
                response = real_search(query, **kwargs)
                finished.append(query)
                return response

            closed_after = []
            real_close = server.manager.close

            def close():
                closed_after.append(len(finished))
                real_close()

            engine.search = held_search
            server.manager.close = close
            answers = {}

            def send(query):
                with daemon.client() as c:
                    answers[query] = c.search(query, k=2)

            queries = [
                "xml keyword", "skyline query", "keyword refinement",
                "databse systems",
            ]
            workers = [
                threading.Thread(target=send, args=(query,))
                for query in queries
            ]
            try:
                workers[0].start()
                assert entered.wait(30.0)
                for worker in workers[1:]:
                    worker.start()
                for _ in range(200):
                    if server.queue.stats()["admission"]["inflight"] == 4:
                        break
                    gate.wait(0.05)
                assert server.queue.stats()["admission"]["inflight"] == 4
                server.loop.call_soon_threadsafe(server.request_shutdown)
            finally:
                gate.set()
            for worker in workers:
                worker.join(30.0)
                assert not worker.is_alive()
            assert sorted(answers) == sorted(queries)
        # Every queued evaluation had finished when the snapshot closed.
        assert closed_after == [4]


@pytest.fixture()
def fresh_daemon(serve_snapshots):
    """A daemon of its own, for tests that read exact counters."""
    with BackgroundServer(serve_snapshots[0]) as server:
        yield server


def counters(stats):
    results = stats["engine"]["results"]
    flights = stats["singleflight"]
    return {
        "lookups": results["hits"] + results["misses"],
        "hits": results["hits"],
        "inline": stats["server"]["inline_hits"],
        "leaders": flights["leaders"],
        "coalesced": flights["coalesced"],
        "admitted": stats["admission"]["admitted"],
    }


def delta(before, after):
    return {name: after[name] - before[name] for name in before}


class TestInlineHits:
    """Result-cache hits answered on the event loop as stored bytes."""

    def test_repeat_is_byte_identical(self, fresh_daemon):
        request = json.dumps({"query": QUERY, "k": 2}).encode()
        connection = http.client.HTTPConnection(
            fresh_daemon.host, fresh_daemon.port, timeout=30.0
        )
        try:
            bodies = []
            for _ in range(3):
                connection.request("POST", "/search", body=request)
                response = connection.getresponse()
                assert response.status == 200
                bodies.append(response.read())
        finally:
            connection.close()
        assert bodies[0] == bodies[1] == bodies[2]
        assert json.loads(bodies[0])["generation"] == 0
        assert fresh_daemon.server.inline_hits == 2

    def test_each_request_is_exactly_one_counted_lookup(
        self, fresh_daemon
    ):
        queries = [
            QUERY, "xml keyword", QUERY, QUERY, "xml keyword",
            "skyline query", QUERY,
        ]
        with fresh_daemon.client() as client:
            before = client.stats()
            for query in queries:
                client.search(query, k=2)
            after = client.stats()
        moved = delta(counters(before), counters(after))
        assert moved["lookups"] == len(queries)
        assert moved["inline"] == 4  # every repeat
        assert (
            moved["inline"] + moved["leaders"] + moved["coalesced"]
            == len(queries)
        )
        assert moved["admitted"] == 3  # hits take no admission slot

    def test_hit_answers_while_the_query_thread_is_held(
        self, fresh_daemon
    ):
        server = fresh_daemon.server
        engine = server.manager.engine
        with fresh_daemon.client() as client:
            warm = client.search(QUERY, k=2)
            gate = threading.Event()
            entered = threading.Event()
            real_search = engine.search

            def slow_search(*args, **kwargs):
                entered.set()
                assert gate.wait(30.0)
                return real_search(*args, **kwargs)

            engine.search = slow_search
            results = {}

            def issue(query):
                with fresh_daemon.client() as c:
                    results[query] = c.search(query, k=2)

            held = threading.Thread(target=issue, args=("xml keyword",))
            queued = threading.Thread(target=issue, args=("skyline query",))
            try:
                held.start()
                assert entered.wait(30.0)
                admission = server.queue.stats()["admission"]
                flights = server.queue.stats()["singleflight"]
                # The query thread is parked; the cached query does
                # not queue behind it, and leaves no trace in the
                # admission budget or the singleflight map.
                assert client.search(QUERY, k=2) == warm
                assert server.inline_hits == 1
                assert server.queue.stats()["admission"] == admission
                assert admission["inflight"] == 1
                assert server.queue.stats()["singleflight"] == flights
                # An uncached query still waits its turn.
                queued.start()
                queued.join(0.5)
                assert queued.is_alive()
                assert "skyline query" not in results
            finally:
                gate.set()
            for worker in (held, queued):
                worker.join(30.0)
                assert not worker.is_alive()
        assert sorted(results) == ["skyline query", "xml keyword"]
        assert server.queue.stats()["admission"]["inflight"] == 0

    def test_hits_keep_a_query_in_the_reload_prewarm_set(
        self, fresh_daemon, serve_snapshots
    ):
        server = fresh_daemon.server
        server.RECENT_TERMS_LIMIT = 1
        with fresh_daemon.client() as client:
            client.search(QUERY, k=2)
            client.search("xml keyword", k=2)  # pushes QUERY out
            assert list(server._recent_terms) == [("xml", "keyword")]
            client.search(QUERY, k=2)
            assert server.inline_hits == 1
            # Served from the loop, and still noted for pre-mining.
            assert list(server._recent_terms) == [("databse", "systems")]
            assert client.reload(serve_snapshots[1])["prewarmed"] == 1

    def test_response_cached_without_bytes_falls_through(
        self, fresh_daemon, serve_snapshots
    ):
        """``/search_many`` caches responses it never renders alone."""
        with fresh_daemon.client() as client:
            client.search_many([QUERY], k=2)
            start = counters(client.stats())
            first = client.search(QUERY, k=2)
            middle = counters(client.stats())
            second = client.search(QUERY, k=2)
            end = counters(client.stats())
        moved = delta(start, middle)
        # A hit, but made on the query thread, which rendered it.
        assert (moved["inline"], moved["leaders"]) == (0, 1)
        assert (moved["lookups"], moved["hits"]) == (1, 1)
        moved = delta(middle, end)
        assert (moved["inline"], moved["leaders"]) == (1, 0)
        assert (moved["lookups"], moved["hits"]) == (1, 1)
        assert first == second
        library = XRefine.from_frozen(serve_snapshots[0])
        assert wire_answer(first) == wire_answer(
            encode_response(library.search(QUERY, k=2))
        )
