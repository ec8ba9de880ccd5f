"""Wire codec: request decoding and response encoding for the daemon.

Everything the daemon speaks is JSON.  Decoding is strict — a body
that is not a JSON object, a query that is not a string or a list of
strings, an unknown field type — fails with a typed
:class:`~repro.errors.QueryError` that the HTTP layer maps to a 400,
*before* the request ever reaches the query thread.  Encoding turns a
:class:`~repro.core.result.RefinementResponse` into plain dicts and
strings, so payloads are stable across snapshot generations and safe to
share between coalesced requests.  Each result list is asked for its
labels: one still held as column entries is rendered by one kernel call
(no ``Dewey`` is built), one already read as ``Dewey`` labels — which
``rank_results`` may have reordered — is ``str()``-ed.
"""

from __future__ import annotations

from ..errors import QueryError


def decode_query(value, field="query"):
    """Validate a query value: a string or a non-empty list of strings."""
    if isinstance(value, str):
        return value
    if isinstance(value, list) and value and all(
        isinstance(term, str) for term in value
    ):
        return value
    raise QueryError(
        f"{field!r} must be a keyword string or a non-empty list of "
        f"strings, got {value!r}"
    )


def _decode_options(body, query_field):
    """The checks and fields ``/search`` and ``/search_many`` share.

    ``k``/``algorithm`` values are passed through for the engine's own
    validation (so client errors match library errors byte for byte);
    unknown fields are rejected to catch misspellings like ``"topk"``.
    """
    if not isinstance(body, dict):
        raise QueryError("request body must be a JSON object")
    unknown = set(body) - {query_field, "k", "algorithm", "rank_results"}
    if unknown:
        raise QueryError(
            f"unknown request field(s): {sorted(unknown)}"
        )
    options = {
        "k": body.get("k", 1),
        "algorithm": body.get("algorithm", "auto"),
        "rank_results": body.get("rank_results", False),
    }
    if not isinstance(options["algorithm"], str):
        raise QueryError(
            f"'algorithm' must be a string, got {options['algorithm']!r}"
        )
    if not isinstance(options["rank_results"], bool):
        raise QueryError(
            f"'rank_results' must be true or false, got "
            f"{options['rank_results']!r}"
        )
    return options


def decode_search_body(body):
    """Decode a ``/search`` / ``/explain`` body into engine kwargs."""
    options = _decode_options(body, "query")
    if "query" not in body:
        raise QueryError("missing required field 'query'")
    return {"query": decode_query(body["query"]), **options}


def decode_search_many_body(body):
    """Decode a ``/search_many`` body into engine kwargs."""
    options = _decode_options(body, "queries")
    queries = body.get("queries")
    if not isinstance(queries, list) or not queries:
        raise QueryError(
            "'queries' must be a non-empty list of keyword queries"
        )
    return {
        "queries": [
            decode_query(q, field=f"queries[{i}]")
            for i, q in enumerate(queries)
        ],
        **options,
    }


def decode_reload_body(body):
    """Decode a ``/reload`` body: the snapshot (or document) path."""
    if not isinstance(body, dict):
        raise QueryError("request body must be a JSON object")
    snapshot = body.get("snapshot")
    if not isinstance(snapshot, str) or not snapshot:
        raise QueryError(
            "missing required field 'snapshot' (path to the frozen "
            "snapshot or index to load)"
        )
    return snapshot


# ----------------------------------------------------------------------
# Response encoding
# ----------------------------------------------------------------------
def encode_refinement(refinement):
    return {
        "keywords": list(refinement.rq.keywords),
        "dissimilarity": refinement.rq.dissimilarity,
        "rank_score": refinement.rank_score,
        "similarity_score": refinement.similarity_score,
        "dependence_score": refinement.dependence_score,
        "result_count": refinement.result_count,
        "slcas": refinement.labels(),
    }


def encode_response(response, include_plan=False):
    """A ``RefinementResponse`` as a JSON-ready dict."""
    payload = {
        "query": list(response.query),
        "needs_refinement": response.needs_refinement,
        "original_results": response.original_labels(),
        "refinements": [
            encode_refinement(r) for r in response.refinements
        ],
        "search_for": [
            {
                "node_type": list(candidate.node_type),
                "confidence": candidate.confidence,
            }
            for candidate in response.search_for
        ],
        "stats": response.stats.as_dict(),
    }
    if include_plan:
        payload["plan"] = response.plan.as_dict()
    return payload
