"""Million-entry traffic synthesis and a streaming log replayer.

The paper's query pool comes from a live demo's log; its refinement
rules are mined from user *rewrite* sessions in that log.  This module
scales that artifact up from hundreds of entries to millions, with the
four properties real keyword-search traffic exhibits and uniform
random sampling does not:

**Zipf term skew.**  Query popularity follows a power law
(``zipf_s``): a small head dominates, a long tail trickles.  Ambiguous
head queries dominating real logs is precisely the skew a result
cache exploits.

**Temporal drift.**  Traffic comes in ``phases``; each phase draws its
popularity ranking from a fresh permutation of the query universe, so
yesterday's head is today's tail, and a cache must follow the new
head rather than keep the old one.

**Burst arrival.**  Inter-arrival gaps are Pareto (heavy-tailed,
``burst_alpha``), the standard self-similar traffic model: long quiet
stretches punctuated by dense bursts, rather than Poisson smoothness.

**Session reformulation chains.**  A share of submissions are
sessions: a corrupted query (built by the existing corruption
operators over a sampled intent) followed by the user's manual fix —
the rewrite-pair phenomenon at the heart of the source paper's log
study.  Chains are how the sub-result cache earns its keep: the fix's
term set was just deposited by the corrupted query's refinement
evaluation.

The whole synthesis is a pure function of its parameters and ``seed``
(or a caller-threaded ``rng``) — independent of ``PYTHONHASHSEED``.

:func:`replay_traffic` streams a :class:`TrafficLog` through an engine
and reports sustained throughput, per-phase tail latency, and cache
hit rates, optionally pacing to a target QPS and sampling responses
for the replay-vs-cold oracle diff
(:func:`repro.verify.oracle.replay_cold_diff`).
"""

from __future__ import annotations

import random
import time
from array import array
from bisect import bisect_left

from .corruption import ALL_KINDS
from .generator import WorkloadGenerator

#: Sentinel parent index for queries that are intents (not variants).
_NO_PARENT = 0xFFFFFFFF


class TrafficLog:
    """A synthesized traffic trace, stored columnar for million-entry scale.

    ``universe`` holds each distinct query once; entries are parallel
    arrays of universe indexes, timestamps (seconds on a virtual
    clock) and session ids.  ``phases`` lists ``(name, start, end)``
    entry bounds.  Iterate with :meth:`entries`.
    """

    __slots__ = (
        "universe", "parents", "query_index", "timestamps",
        "session_ids", "phases", "config",
    )

    def __init__(self, universe, parents, config):
        self.universe = universe
        self.parents = parents
        self.query_index = array("I")
        self.timestamps = array("d")
        self.session_ids = array("I")
        self.phases = []
        self.config = config

    def __len__(self):
        return len(self.query_index)

    def unique_queries(self):
        return len(self.universe)

    def entries(self, start=0, end=None):
        """Yield ``(session_id, timestamp, query)`` over an entry range."""
        end = len(self.query_index) if end is None else end
        universe = self.universe
        query_index = self.query_index
        timestamps = self.timestamps
        session_ids = self.session_ids
        for position in range(start, end):
            yield (
                session_ids[position],
                timestamps[position],
                universe[query_index[position]],
            )

    def __repr__(self):
        return (
            f"TrafficLog({len(self)} entries, "
            f"{len(self.universe)} unique, {len(self.phases)} phases)"
        )


def _build_universe(index, unique_queries, variants_per_intent, rng,
                    generator):
    """Distinct intents plus corrupted variants, each linked to its intent."""
    universe = []
    parents = []
    seen = set()

    def admit(query, parent):
        signature = tuple(sorted(set(query)))
        if not query or signature in seen:
            return None
        seen.add(signature)
        universe.append(tuple(query))
        parents.append(parent)
        return len(universe) - 1

    attempts = 0
    limit = 40 * unique_queries
    while len(universe) < unique_queries and attempts < limit:
        attempts += 1
        intent = generator.sample_intent()
        intent_position = admit(intent, _NO_PARENT)
        if intent_position is None:
            continue
        made = 0
        tries = 0
        while (
            made < variants_per_intent
            and tries < 4 * variants_per_intent
            and len(universe) < unique_queries
        ):
            tries += 1
            kind = rng.choice(ALL_KINDS)
            corrupted, applied = generator.corrupt(list(intent), [kind])
            if corrupted is None or tuple(corrupted) == tuple(intent):
                continue
            if admit(corrupted, intent_position) is not None:
                made += 1
    return universe, parents


def synthesize_traffic(
    index,
    entries=1_000_000,
    unique_queries=4000,
    zipf_s=1.0,
    phases=3,
    noise_share=0.25,
    chain_probability=0.5,
    variants_per_intent=2,
    burst_alpha=1.5,
    mean_gap_seconds=0.02,
    seed=97,
    rng=None,
    generator=None,
):
    """Synthesize a :class:`TrafficLog` against a corpus.

    Parameters
    ----------
    entries:
        Total submissions to generate (chains may run one entry over).
    unique_queries:
        Size of the distinct-query universe (intents + variants).
    zipf_s:
        Zipf exponent of the popularity distribution.
    phases:
        Number of drift phases; each re-permutes the popularity
        ranking, so the hot head changes across phases.
    noise_share:
        Fraction of draws taken *uniformly* from the universe instead
        of from the Zipf head — the one-hit-wonder noise floor every
        cache pays for.
    chain_probability:
        Probability that a corrupted-variant submission is followed,
        in the same session, by its clean intent (the rewrite).
    variants_per_intent:
        Corrupted variants built per sampled intent.
    burst_alpha:
        Pareto shape of the inter-arrival gaps (lower = burstier).
    mean_gap_seconds:
        Mean inter-arrival gap of the virtual clock.
    seed / rng / generator:
        One master seed, or a caller-threaded :class:`random.Random`.
        With ``rng`` absent, ``random.Random(seed)`` drives everything.
        The one RNG draws the popularity, noise, chain and clock
        decisions, and it seeds the :class:`WorkloadGenerator` that
        samples intents and variants, so one seed (or one RNG state)
        reproduces the whole log, independent of ``PYTHONHASHSEED``.
        An explicit ``generator`` replaces the derived one; it then
        owns the intent sampling, and ``rng`` drives the rest.
    """
    if rng is None:
        rng = random.Random(seed)
    if generator is None:
        generator = WorkloadGenerator(index, seed=rng.randrange(2**31))

    universe, parents = _build_universe(
        index, unique_queries, variants_per_intent, rng, generator
    )
    if not universe:
        raise ValueError("traffic universe is empty; corpus too sparse")

    config = {
        "entries": entries,
        "unique_queries": len(universe),
        "zipf_s": zipf_s,
        "phases": phases,
        "noise_share": noise_share,
        "chain_probability": chain_probability,
        "variants_per_intent": variants_per_intent,
        "burst_alpha": burst_alpha,
        "mean_gap_seconds": mean_gap_seconds,
        "seed": seed,
    }
    traffic = TrafficLog(universe, parents, config)

    population = len(universe)
    cumulative = array("d")
    total = 0.0
    for rank in range(1, population + 1):
        total += 1.0 / rank**zipf_s
        cumulative.append(total)

    # Pareto gaps normalized to the requested mean (E[pareto] for
    # alpha > 1 is alpha / (alpha - 1)).
    gap_scale = mean_gap_seconds * (burst_alpha - 1.0) / burst_alpha

    clock = 0.0
    session_id = 0
    per_phase = max(1, entries // phases)
    for phase_number in range(phases):
        phase_start = len(traffic.query_index)
        # Fresh popularity ranking: rank r of this phase maps to a
        # (seeded) permuted universe position — the drift.
        permutation = list(range(population))
        rng.shuffle(permutation)
        target = (
            entries - len(traffic.query_index)
            if phase_number == phases - 1
            else per_phase
        )
        produced = 0
        while produced < target:
            clock += gap_scale * rng.paretovariate(burst_alpha)
            if rng.random() < noise_share:
                position = permutation[rng.randrange(population)]
            else:
                rank = bisect_left(cumulative, rng.random() * total)
                position = permutation[min(rank, population - 1)]
            traffic.query_index.append(position)
            traffic.timestamps.append(clock)
            traffic.session_ids.append(session_id)
            produced += 1
            parent = parents[position]
            if parent != _NO_PARENT and rng.random() < chain_probability:
                # The session's manual rewrite: the clean intent, a
                # few (virtual) seconds later.
                clock += 10.0 * gap_scale * rng.paretovariate(burst_alpha)
                traffic.query_index.append(parent)
                traffic.timestamps.append(clock)
                traffic.session_ids.append(session_id)
                produced += 1
            session_id += 1
        traffic.phases.append(
            {
                "name": f"phase{phase_number}",
                "start": phase_start,
                "end": len(traffic.query_index),
            }
        )
    return traffic


def _percentile(sorted_values, fraction):
    if not sorted_values:
        return 0.0
    position = min(
        len(sorted_values) - 1, int(fraction * (len(sorted_values) - 1))
    )
    return sorted_values[position]


class ReplayReport:
    """Per-phase and overall measurements of one replay run."""

    __slots__ = ("phases", "overall", "samples", "config")

    def __init__(self, phases, overall, samples, config):
        self.phases = phases
        self.overall = overall
        self.samples = samples
        self.config = config

    def as_dict(self):
        return {
            "config": self.config,
            "phases": self.phases,
            "overall": self.overall,
        }

    def __repr__(self):
        qps = self.overall.get("qps", 0.0)
        hit = self.overall.get("hit_rate", 0.0)
        return f"ReplayReport(qps={qps:.0f}, hit_rate={hit:.3f})"


def replay_traffic(
    engine,
    traffic,
    k=1,
    algorithm="auto",
    target_qps=None,
    oracle_samples=0,
    search_kwargs=None,
):
    """Stream a :class:`TrafficLog` through an engine and measure it.

    Runs closed-loop as fast as the engine answers (the sustained-
    throughput measurement) unless ``target_qps`` paces submissions on
    the wall clock.  Returns a :class:`ReplayReport` with per-phase
    sustained QPS, p50/p95/p99 latency, and the per-phase *delta* of
    every cache layer's counters — hit rates are attributable to the
    phase, not smeared over the whole run.

    ``oracle_samples`` > 0 records evenly spaced ``(query, k,
    algorithm, fingerprint)`` samples for
    :func:`repro.verify.oracle.replay_cold_diff` — the byte-identity
    check that the cache layers never changed an answer.
    """
    from ..verify.oracle import response_fingerprint

    search_kwargs = dict(search_kwargs or {})
    samples = []
    stride = (
        max(1, len(traffic) // oracle_samples) if oracle_samples else 0
    )
    phase_reports = []
    total_entries = 0
    total_busy = 0.0
    run_started = time.perf_counter()
    for phase in traffic.phases:
        result_before = engine.result_cache.stats()
        sub_before = engine.subresult_cache.stats()
        latencies = []
        phase_started = time.perf_counter()
        position = phase["start"]
        for _session, _timestamp, query in traffic.entries(
            phase["start"], phase["end"]
        ):
            if target_qps is not None:
                ahead = (
                    total_entries / target_qps
                    - (time.perf_counter() - run_started)
                )
                if ahead > 0:
                    time.sleep(ahead)
            started = time.perf_counter()
            response = engine.search(
                query, k=k, algorithm=algorithm, **search_kwargs
            )
            latencies.append(time.perf_counter() - started)
            if stride and position % stride == 0:
                samples.append(
                    (query, k, algorithm, response_fingerprint(response))
                )
            position += 1
            total_entries += 1
        busy = time.perf_counter() - phase_started
        total_busy += busy
        result_after = engine.result_cache.stats()
        sub_after = engine.subresult_cache.stats()
        latencies.sort()
        delta = {
            counter: result_after[counter] - result_before[counter]
            for counter in ("hits", "misses", "invalidations", "evictions")
        }
        lookups = delta["hits"] + delta["misses"]
        count = phase["end"] - phase["start"]
        phase_reports.append(
            {
                "name": phase["name"],
                "entries": count,
                "seconds": busy,
                "qps": count / busy if busy > 0 else 0.0,
                "p50_ms": _percentile(latencies, 0.50) * 1e3,
                "p95_ms": _percentile(latencies, 0.95) * 1e3,
                "p99_ms": _percentile(latencies, 0.99) * 1e3,
                "hit_rate": delta["hits"] / lookups if lookups else 0.0,
                "result_cache": delta,
                "subresult_hits": sub_after["hits"] - sub_before["hits"],
                "subresult_deposits": (
                    sub_after["deposits"] - sub_before["deposits"]
                ),
            }
        )
    result_stats = engine.result_cache.stats()
    lookups = result_stats["hits"] + result_stats["misses"]
    overall = {
        "entries": total_entries,
        "seconds": total_busy,
        "qps": total_entries / total_busy if total_busy > 0 else 0.0,
        "hit_rate": result_stats["hits"] / lookups if lookups else 0.0,
        "result_cache": result_stats,
        "subresults": engine.subresult_cache.stats(),
    }
    return ReplayReport(phase_reports, overall, samples, traffic.config)
