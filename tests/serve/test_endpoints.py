"""Endpoint behavior of the serving daemon: happy paths and failures.

One in-process daemon per module (``conftest.daemon``); answers are
cross-checked against a library engine over the same snapshot, and
every client-error path must come back as a typed 4xx JSON body — not
a connection reset, not a 500.
"""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro import XRefine
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
        assert stats["admission"]["admitted"] >= 1
        assert stats["singleflight"]["leaders"] >= 1
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
            finally:
                gate.set()
            worker.join(30.0)
            assert not worker.is_alive()
            assert results["blocked"]["query"]
            stats = daemon.server.admission.stats()
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
                sf = daemon.server.singleflight
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
            assert daemon.server.singleflight.coalesced >= 4
            first = wire_answer(answers[0])
            assert all(wire_answer(a) == first for a in answers[1:])
