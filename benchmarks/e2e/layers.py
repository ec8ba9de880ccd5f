"""Per-layer measurements, taken from outside the program.

The daemon is not instrumented (that is a later issue); every number
here comes from timing calls into a layer's public functions from this
file, over the workload's own requests:

* probes against the live daemon (``/healthz``, ``/stats``);
* an in-process replay of the window's first requests through the same
  calls ``RefineServer._search`` strings together, once untraced and
  once with every call wrapped in a span;
* micro-measurements of the routes, kernels, caches, planner, miner,
  snapshot open and reload halves over the same queries.

Every step is time-boxed by a share of the traced run's budget and
reports how many samples it took.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import Counter

from repro import XRefine
from repro.core import (QueryContext, partition_refine, short_list_eager,
                        stack_refine)
from repro.index import load_frozen_index
from repro.index.tokenize_text import query_terms
from repro.kernels import (ListColumns, backend_name, batch_dependence,
                           batch_similarity, merged_lcp, partition_view,
                           score_table, slca_columns)
from repro.perf.result_cache import QueryResultCache
from repro.plan import QueryPlanner
from repro.serve import RefineServer, SnapshotManager
from repro.serve.http import read_request, render_response
from repro.serve.wire import decode_search_body, encode_response

import paths
from loadgen import percentile
from registry import PER_LAYER_NAMES

#: Requests of the window replayed in-process (fewer if the box closes).
TRACE_REQUESTS = 2000
#: Shares of the traced run's in-process budget.
SHARE_UNTRACED = 0.20
SHARE_TRACED = 0.25
SHARE_ROUTES = 0.20
SHARE_KERNELS = 0.10
SHARE_MINE = 0.10
#: A time box never closes before this many samples.
MIN_SAMPLES = 8
HEALTHZ_RAW = b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n"
HEALTHZ_PAYLOAD = {"ok": True, "generation": 0, "uptime_seconds": 12.345}

SPAN_FIELDS = ("request_id", "name", "parent", "start", "end")


def _us(seconds):
    return seconds * 1e6


def _p50(values):
    return statistics.median(values) if values else 0.0


def _boxed(items, budget_seconds):
    """Iterate ``items`` until the budget is spent (min MIN_SAMPLES)."""
    deadline = time.perf_counter() + budget_seconds
    for count, item in enumerate(items):
        if count >= MIN_SAMPLES and time.perf_counter() > deadline:
            return
        yield item


def _timed(call, *args, **kwargs):
    began = time.perf_counter()
    result = call(*args, **kwargs)
    return time.perf_counter() - began, result


# ----------------------------------------------------------------------
# Probes against the live daemon
# ----------------------------------------------------------------------
def probe_daemon(daemon, quick):
    """``serve.floor_us`` and ``serve.handoff_us`` from round trips."""
    rounds = 200 if quick else 2000
    with daemon.connect() as connection:
        floor = []
        for _ in range(rounds):
            took, _ = _timed(connection.roundtrip, HEALTHZ_RAW)
            floor.append(took)
        stats = []
        for _ in range(rounds // 4):
            took, _ = _timed(connection.get, "/stats")
            stats.append(took)
    return {
        "floor_s": _p50(floor), "floor_n": len(floor),
        "stats_s": _p50(stats), "stats_n": len(stats),
    }


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans: ``{request_id, name, parent, start, end}``."""

    def __init__(self):
        self.spans = []
        self.request_id = 0
        self._current = -1

    def open(self, name):
        position = len(self.spans)
        self.spans.append(
            [self.request_id, name, self._current, time.perf_counter(), 0.0]
        )
        self._current = position
        return position

    def close(self, position):
        span = self.spans[position]
        span[4] = time.perf_counter()
        self._current = span[2]

    def wrap(self, name, call):
        def traced(*args, **kwargs):
            position = self.open(name)
            try:
                return call(*args, **kwargs)
            finally:
                self.close(position)
        return traced

    def self_times(self, requests):
        """``{name: [self seconds per request]}``: span minus children.

        One entry per request id below ``requests`` — the sum over that
        request's spans of the name, 0.0 where it has none — so a span
        that only some requests reach (a route behind a result cache)
        shows the share of the *typical* request it owns.
        """
        children = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                children[parent] += end - start
        by_name = {}
        for position, (request_id, name, _, start, end) in enumerate(
            self.spans
        ):
            per_request = by_name.get(name)
            if per_request is None:
                per_request = by_name[name] = [0.0] * requests
            per_request[request_id] += end - start - children[position]
        return by_name

    def durations(self, name):
        return [end - start for _, n, _, start, end in self.spans if n == name]


class _Bytes:
    """A ``reader`` for ``http.read_request`` over recorded bytes."""

    def __init__(self, raw):
        self._raw = raw

    async def read(self, count):
        chunk, self._raw = self._raw[:count], self._raw[count:]
        return chunk


def _parse(raw):
    """Drive ``read_request`` to completion without an event loop."""
    coroutine = read_request(_Bytes(raw))
    try:
        coroutine.send(None)
    except StopIteration as done:
        return done.value
    raise RuntimeError("read_request suspended on in-memory bytes")


class _Traced:
    """Delegates to ``inner``; the named methods open a span.

    For the layers whose classes use ``__slots__`` (planner, result
    cache), where a method cannot be shadowed on the instance.
    """

    def __init__(self, inner, tracer, names):
        self._inner = inner
        for attribute, name in names.items():
            setattr(self, attribute,
                    tracer.wrap(name, getattr(inner, attribute)))

    def __getattr__(self, attribute):
        return getattr(self._inner, attribute)


def instrument(engine, tracer):
    """Wrap the calls ``XRefine.search`` makes into other layers.

    Not undone: the engine is closed after its traced replay.
    """
    for attribute, name in (
        ("mine_rules", "lexicon.mine_rules"),
        ("_execute_plan", "core.route"),
        ("_assemble_from_subresults", "perf.subresult_assemble"),
    ):
        setattr(engine, attribute,
                tracer.wrap(name, getattr(engine, attribute)))
    engine._planner = _Traced(engine.planner, tracer, {"plan": "plan.plan"})
    engine.result_cache = _Traced(engine.result_cache, tracer, {
        "get": "perf.result_get", "put": "perf.result_put",
    })


def handle_traced(engine, tracer, raw):
    """One request through the calls ``RefineServer._search`` makes."""
    root = tracer.open("request")
    span = tracer.open("serve.parse")
    request = _parse(raw)
    tracer.close(span)
    span = tracer.open("serve.decode")
    params = decode_search_body(request.json())
    tuple(query_terms(params["query"]))
    tracer.close(span)
    span = tracer.open("core.search")
    response = engine.search(
        params["query"], k=params["k"], algorithm=params["algorithm"],
        rank_results=params["rank_results"],
    )
    tracer.close(span)
    span = tracer.open("serve.encode")
    payload = encode_response(response)
    payload["generation"] = 0
    tracer.close(span)
    span = tracer.open("serve.render")
    render_response(200, payload)
    tracer.close(span)
    tracer.close(root)


# ----------------------------------------------------------------------
# The measurement pass
# ----------------------------------------------------------------------
def _engine(spec, path):
    knobs = {"cache_size": 0} if "--cache-size" in spec.daemon_args else {}
    return XRefine(load_frozen_index(path), **knobs)


def _warm(engine, spec, wire):
    for position in wire.sequence.warmup:
        engine.search(wire.sequence.queries[position], k=spec.k)


def _close(engine):
    engine.close()
    engine.index.frozen_snapshot.close()


def _weighted_median(pairs):
    """Median of ``value`` where each pair carries a ``weight``."""
    pairs = sorted(pairs)
    half = sum(weight for _, weight in pairs) / 2.0
    running = 0.0
    for value, weight in pairs:
        running += weight
        if running >= half:
            return value
    return 0.0


def _delta(wire, *path):
    def dig(stats):
        for key in path:
            stats = stats[key] if stats is not None else None
        return stats or 0
    return dig(wire.stats_after) - dig(wire.stats_before)


def _ratio(part, whole):
    return part / whole if whole else 0.0


def _wire_counters(wire, values, samples):
    """Metrics read off the wire window and the ``/stats`` deltas."""
    latencies = wire.latencies
    values["failed_share"] = wire.failed / wire.attempted
    values["reload_p50_s"] = _p50(wire.reload_durations)
    values["reloads_completed"] = len(wire.reload_durations)
    samples["reload_p50_s"] = len(wire.reload_durations)
    values["loadgen.sent"] = wire.sent
    values["loadgen.ok"] = wire.ok
    values["loadgen.failed"] = wire.failed
    values["loadgen.checked"] = wire.checked
    values["loadgen.mismatched"] = wire.mismatched
    lateness = sorted(wire.lane.lateness)
    values["loadgen.late_p95_ms"] = percentile(lateness, 0.95) * 1e3
    values["loadgen.p99_ms"] = percentile(latencies, 0.99) * 1e3
    samples["loadgen.p99_ms"] = len(latencies)
    values["serve.response_bytes"] = _ratio(wire.lane.bytes, wire.ok)
    values["serve.boot_s"] = wire.boot_s
    values["serve.admission_rejected"] = _delta(
        wire, "admission", "rejected")
    values["serve.singleflight_coalesced"] = _delta(
        wire, "singleflight", "coalesced")

    hits = _delta(wire, "engine", "results", "hits")
    misses = _delta(wire, "engine", "results", "misses")
    values["perf.result_lookups"] = hits + misses
    values["perf.result_hit_rate"] = _ratio(hits, hits + misses)
    sub_hits = _delta(wire, "engine", "subresults", "hits")
    sub_misses = _delta(wire, "engine", "subresults", "misses")
    values["perf.subresult_hit_rate"] = _ratio(
        sub_hits, sub_hits + sub_misses)
    values["perf.evictions"] = _delta(wire, "engine", "results", "evictions")
    values["perf.admission_rejects"] = _delta(
        wire, "engine", "results", "admission_rejects")

    plan_hits = _delta(wire, "engine", "planner", "plan_cache", "hits")
    plan_misses = _delta(wire, "engine", "planner", "plan_cache", "misses")
    values["plan.cache_hit_rate"] = _ratio(
        plan_hits, plan_hits + plan_misses)
    routed = {
        route: _delta(wire, "engine", "planner", "routed", route)
        for route in ("sle", "partition", "stack")
    }
    for route, count in routed.items():
        values[f"plan.route_share.{route}"] = _ratio(
            count, sum(routed.values()))
    values["plan.fallbacks"] = _delta(wire, "engine", "planner", "fallbacks")

    counted = [stats for _, stats in wire.lane.counted]
    samples["core.postings_scanned"] = len(counted)
    for name in ("postings_scanned", "partitions_visited",
                 "partitions_skipped", "dp_invocations", "slca_invocations"):
        values[f"core.{name}"] = _ratio(
            sum(stats[name] for stats in counted), len(counted))
    values["core.skip_ratio"] = _ratio(
        values["core.partitions_skipped"],
        values["core.partitions_skipped"] + values["core.partitions_visited"],
    )


def _client_self(wire):
    """Client-side JSON cost per request: encode the body, parse the answer."""
    query = wire.sequence.queries[wire.sequence.window[0]]
    kept = [answer for _, answer in wire.lane.kept][:50]
    if not kept:
        return 0.0
    bodies = [json.dumps(answer, separators=(",", ":")) for answer in kept]
    began = time.perf_counter()
    for body in bodies:
        json.dumps({"query": query, "k": 2, "algorithm": "auto"})
        json.loads(body)
    return (time.perf_counter() - began) / len(bodies)


def _index_layer(wire, values, samples):
    snapshot = wire.snapshots[0]
    values["index.build_s"] = snapshot.build_s
    values["index.freeze_s"] = snapshot.freeze_s
    values["index.snapshot_bytes"] = os.path.getsize(snapshot.path)
    values["index.nodes"] = len(snapshot.tree)
    opens = []
    touches = []
    terms = list(dict.fromkeys(
        term for query in wire.sequence.queries[:40] for term in query
    ))
    for _ in range(5):
        took, index = _timed(load_frozen_index, snapshot.path)
        opens.append(took)
        for term in terms[:20]:
            touches.append(_timed(index.inverted_list, term)[0])
        index.frozen_snapshot.close()
    values["index.open_s"] = _p50(opens)
    values["index.first_touch_us"] = _us(_p50(touches))
    samples["index.open_s"] = len(opens)
    samples["index.first_touch_us"] = len(touches)


def _perf_layer(spec, wire, engine_path, values, samples):
    cache = QueryResultCache(512)
    for key in range(512):
        cache.put(("k", key), key, 0)
    gets = [_timed(cache.get, ("k", key % 512), 0)[0] for key in range(2000)]
    puts = [
        _timed(cache.put, ("n", key), key, 0)[0] for key in range(2000)
    ]
    values["perf.result_get_us"] = _us(_p50(gets))
    values["perf.result_put_us"] = _us(_p50(puts))
    samples["perf.result_get_us"] = len(gets)
    samples["perf.result_put_us"] = len(puts)
    engine = XRefine(load_frozen_index(engine_path))
    try:
        hits = []
        for position in wire.sequence.window[:20]:
            query = wire.sequence.queries[position]
            engine.search(query, k=spec.k)
            engine.search(query, k=spec.k)  # past TinyLFU's doorkeeper
            for _ in range(20):
                hits.append(_timed(engine.search, query, k=spec.k)[0])
        values["perf.hit_path_us"] = _us(_p50(hits))
        samples["perf.hit_path_us"] = len(hits)
    finally:
        _close(engine)


def _plan_layer(engine, queries, rules_of, k, values, samples):
    planner = QueryPlanner(engine.index, packed=engine.packed)
    cold = []
    cached = []
    for query in queries:
        terms = tuple(query_terms(query))
        cold.append(_timed(planner.plan, terms, rules_of[tuple(query)], k)[0])
    for query in queries:
        terms = tuple(query_terms(query))
        cached.append(
            _timed(planner.plan, terms, rules_of[tuple(query)], k)[0])
    values["plan.plan_us"] = _us(_p50(cold))
    values["plan.cached_plan_us"] = _us(_p50(cached))
    samples["plan.plan_us"] = len(cold)
    samples["plan.cached_plan_us"] = len(cached)


def _mine_layer(path, queries, budget, values, samples):
    """First-contact rule mining on an engine that has seen nothing."""
    engine = XRefine(load_frozen_index(path), cache_size=0)
    try:
        engine.mine_rules(["warmup"])  # builds the miner's lazy stem map
        mined = [
            _timed(engine.mine_rules, query)[0]
            for query in _boxed(queries, budget)
        ]
    finally:
        _close(engine)
    values["lexicon.mine_us"] = _us(_p50(mined))
    samples["lexicon.mine_us"] = len(mined)


def _route_layer(engine, ranked, rules_of, k, budget, values, samples):
    """Each fixed route over the hottest queries, weighted by frequency."""
    index = engine.index
    model = engine.model
    times = {"sle": [], "partition": [], "stack": []}
    for query, weight in _boxed(ranked, budget):
        terms = tuple(query_terms(query))
        rules = rules_of[tuple(query)]
        memos = engine.planner.dp_memos(terms, rules, max(2 * k, 2))
        calls = {
            "sle": lambda: short_list_eager(
                index, terms, rules=rules, model=model, k=k,
                dp_memos=memos[:2]),
            "partition": lambda: partition_refine(
                index, terms, rules=rules, model=model, k=k,
                dp_memos=memos[:2]),
            "stack": lambda: stack_refine(
                index, terms, rules=rules, model=model, dp_memo=memos[2]),
        }
        direct_hit = not calls["sle"]().needs_refinement  # warms the memos
        for route, call in calls.items():
            if route == "stack" and not direct_hit:
                continue  # stack is Top-1 only; the planner never bets it
            call()
            times[route].append((_timed(call)[0], weight))
    for route, pairs in times.items():
        values[f"core.{route}_us"] = _us(_weighted_median(pairs))
        samples[f"core.{route}_us"] = len(pairs)


def _kernel_layer(engine, ranked, rules_of, k, budget, values, samples):
    index = engine.index
    model = engine.model
    table = score_table(index)
    spent = Counter()
    postings = 0
    slca_postings = 0
    candidates = 0
    queries = 0
    for query, _weight in _boxed(ranked, budget):
        queries += 1
        terms = tuple(query_terms(query))
        context = QueryContext(index, terms, rules_of[tuple(query)])
        keys = [
            list(context.lists[keyword].dewey_keys)
            for keyword in context.keyword_space
            if len(context.lists[keyword]) > 0
        ]
        if not keys:
            continue
        began = time.perf_counter()
        columns = [ListColumns(column) for column in keys]
        spent["partition_table"] += time.perf_counter() - began
        spent["partition_view"] += _timed(partition_view, columns)[0]
        spent["merged_lcp"] += _timed(merged_lcp, columns)[0]
        postings += sum(column.size for column in columns)
        own = [
            ListColumns(list(context.lists[term].dewey_keys))
            for term in terms
        ]
        if all(column.size for column in own):
            spent["batch_slca"] += _timed(slca_columns, own)[0]
            slca_postings += sum(column.size for column in own)
        response = engine.search(query, k=k)
        began = time.perf_counter()
        for candidate in response.candidates:
            batch_similarity(table, index, model, candidate.rq,
                             response.query, response.search_for)
            batch_dependence(table, index, model, candidate.rq,
                             response.search_for)
        spent["scoring"] += time.perf_counter() - began
        candidates += len(response.candidates)
    values["kernels.compiled"] = 1 if backend_name() == "compiled-cc" else 0
    for name in ("partition_table", "partition_view", "merged_lcp"):
        values[f"kernels.{name}_ns"] = _ratio(spent[name] * 1e9, postings)
        samples[f"kernels.{name}_ns"] = queries
    values["kernels.batch_slca_ns"] = _ratio(
        spent["batch_slca"] * 1e9, slca_postings)
    values["kernels.scoring_ns"] = _ratio(spent["scoring"] * 1e9, candidates)
    samples["kernels.batch_slca_ns"] = queries
    samples["kernels.scoring_ns"] = candidates


def _reload_layer(spec, wire, values, samples):
    """The three halves of a reload, called directly, once."""
    for name in ("load", "prepare", "flip"):
        values[f"serve.reload_{name}_s"] = 0.0
    if not spec.corpus_b:
        return
    manager = SnapshotManager(wire.snapshots[0].path, cache_size=0)
    try:
        recent = list(dict.fromkeys(
            tuple(wire.sequence.queries[position])
            for position in reversed(wire.sequence.warmup)
        ))[:RefineServer.RECENT_TERMS_LIMIT]
        target = wire.snapshots[1].path
        took, new_index = _timed(
            manager.load, target, RefineServer.LOAD_PAUSE_SECONDS)
        values["serve.reload_load_s"] = took
        took, warmup = _timed(manager.prepare, new_index, recent)
        values["serve.reload_prepare_s"] = took
        values["serve.reload_flip_s"] = _timed(
            manager.flip, new_index, target, warmup)[0]
        for name in ("load", "prepare", "flip"):
            samples[f"serve.reload_{name}_s"] = 1
    finally:
        manager.close()


def _traced_replay(spec, wire, engine, order, budget):
    """Replay ``order`` with every call wrapped in a span."""
    tracer = Tracer()
    # With result caches on, a second pass over the same requests would
    # be all hits: the traced pass then gets its own warmed engine.
    own = _engine(spec, wire.snapshots[0].path) if spec.traffic else None
    try:
        if own is not None:
            _warm(own, spec, wire)
        target = own or engine
        instrument(target, tracer)
        for request_id, position in enumerate(_boxed(order, budget)):
            tracer.request_id = request_id
            handle_traced(target, tracer, wire.raws[position])
    finally:
        if own is not None:
            _close(own)
    return tracer


def _attribute(tracer, untraced, probes, client_self, wire_p50, values,
               samples):
    """Span self times -> serve/core values, the shares, the waterfall."""
    replayed = tracer.request_id + 1
    floor = probes["floor_s"]
    handoff = max(0.0, probes["stats_s"] - floor)
    values["serve.floor_us"] = _us(floor)
    values["serve.handoff_us"] = _us(handoff)
    samples["serve.floor_us"] = probes["floor_n"]
    samples["serve.handoff_us"] = probes["stats_n"]

    self_times = tracer.self_times(replayed)
    for name in ("parse", "decode", "encode", "render"):
        values[f"serve.{name}_us"] = _us(_p50(self_times[f"serve.{name}"]))
        samples[f"serve.{name}_us"] = replayed
    values["core.glue_us"] = _us(_p50(self_times["core.search"]))
    samples["core.glue_us"] = replayed
    # Totals, not medians: on a cached workload the median request is a
    # 15 us hit and two spans would read as a quarter of it.
    values["trace.overhead_share"] = _ratio(
        sum(tracer.durations("core.search")), sum(untraced[:replayed]),
    ) - 1.0
    samples["trace.overhead_share"] = replayed

    # /healthz pays for one parse and one small render already (they are
    # inside the floor); only the search request's excess is attributed.
    floor_parse = _p50([_timed(_parse, HEALTHZ_RAW)[0] for _ in range(200)])
    floor_render = _p50([
        _timed(render_response, 200, HEALTHZ_PAYLOAD)[0] for _ in range(200)
    ])
    handled = [
        total - parse - render
        + max(0.0, parse - floor_parse) + max(0.0, render - floor_render)
        for total, parse, render in zip(
            tracer.durations("request"), tracer.durations("serve.parse"),
            tracer.durations("serve.render"),
        )
    ]
    attributed = floor + handoff + _p50(handled) + client_self
    values["trace.attributed_share"] = _ratio(attributed, wire_p50)
    values["serve.residual_us"] = _us(wire_p50 - attributed)
    samples["trace.attributed_share"] = replayed
    return _waterfall(self_times, floor, handoff, client_self, wire_p50,
                      wire_p50 - attributed)


def measure(spec, wire, probes, wire_p50, budget):
    """All per-layer values of one traced run.

    Returns ``(values, samples, waterfall_rows, spans)``.
    """
    values = dict.fromkeys(PER_LAYER_NAMES, 0.0)
    samples = {}
    _wire_counters(wire, values, samples)
    client_self = _client_self(wire)
    values["loadgen.client_self_us"] = _us(client_self)

    path = wire.snapshots[0].path
    queries = wire.sequence.queries
    engine = _engine(spec, path)
    try:
        _warm(engine, spec, wire)
        untraced = [
            _timed(engine.search, queries[position], k=spec.k,
                   algorithm="auto")[0]
            for position in _boxed(wire.sequence.window[:TRACE_REQUESTS],
                                   budget * SHARE_UNTRACED)
        ]
        ordered = sorted(untraced)
        values["core.search_us"] = _us(percentile(ordered, 0.50))
        values["core.search_p95_us"] = _us(percentile(ordered, 0.95))
        samples["core.search_us"] = len(untraced)
        samples["core.search_p95_us"] = len(untraced)

        # The distinct queries of those requests, hottest first.
        order = wire.sequence.window[:len(untraced)]
        ranked = [
            (queries[position], count)
            for position, count in Counter(order).most_common()
        ]
        distinct = [query for query, _ in ranked]
        rules_of = {
            tuple(query): engine.mine_rules(query) for query in distinct
        }
        values["lexicon.rules_per_query"] = _ratio(
            sum(len(rules_of[tuple(q)]) * n for q, n in ranked), len(order))
        _route_layer(engine, ranked, rules_of, spec.k,
                     budget * SHARE_ROUTES, values, samples)
        _kernel_layer(engine, ranked, rules_of, spec.k,
                      budget * SHARE_KERNELS, values, samples)
        _plan_layer(engine, distinct[:200], rules_of, spec.k, values, samples)
        tracer = _traced_replay(spec, wire, engine, order,
                                budget * SHARE_TRACED)
    finally:
        _close(engine)
    rows = _attribute(tracer, untraced, probes, client_self, wire_p50,
                      values, samples)
    _mine_layer(path, distinct, budget * SHARE_MINE, values, samples)
    _perf_layer(spec, wire, path, values, samples)
    _index_layer(wire, values, samples)
    _reload_layer(spec, wire, values, samples)
    spans = [dict(zip(SPAN_FIELDS, span)) for span in tracer.spans]
    return values, samples, rows, spans


def _waterfall(self_times, floor, handoff, client_self, wire_p50, residual):
    """Rows ``(layer, span, p50, p95, mean in us, p50 / wire p50)``."""
    rows = [
        ("loadgen", "client JSON encode + parse", [client_self]),
        ("serve", "floor (/healthz round trip)", [floor]),
        ("serve", "hand-off (/stats - floor)", [handoff]),
    ]
    rows += [
        (name.split(".")[0], name + " (self)", sorted(self_times[name]))
        for name in sorted(self_times) if name != "request"
    ]
    rows.append(("serve", "residual (wire p50 - attributed)", [residual]))
    return [
        (layer, name, _us(percentile(ordered, 0.50)),
         _us(percentile(ordered, 0.95)),
         _us(sum(ordered) / len(ordered)),
         _ratio(percentile(ordered, 0.50), wire_p50))
        for layer, name, ordered in rows
    ]


def write_trace(workload, spans):
    os.makedirs(paths.OUT, exist_ok=True)
    path = os.path.join(paths.OUT, f"trace_{workload}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "spans": spans}, handle)
    return path
