"""Traffic synthesis and the streaming replayer."""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

from repro import XRefine, build_document_index
from repro.datasets import generate_dblp
from repro.verify.oracle import replay_cold_diff
from repro.workload import replay_traffic, synthesize_traffic
from repro.workload.replay import _NO_PARENT


@pytest.fixture(scope="module")
def index():
    return build_document_index(generate_dblp(num_authors=25, seed=7))


@pytest.fixture(scope="module")
def traffic(index):
    return synthesize_traffic(
        index, entries=3000, unique_queries=150, phases=3, seed=11
    )


class TestSynthesis:
    def test_shape(self, traffic):
        assert len(traffic) >= 3000
        assert traffic.unique_queries() <= 150
        assert len(traffic.phases) == 3
        bounds = [(p["start"], p["end"]) for p in traffic.phases]
        assert bounds[0][0] == 0 and bounds[-1][1] == len(traffic)
        for (_, end), (start, _) in zip(bounds, bounds[1:]):
            assert end == start  # contiguous, non-overlapping

    def test_timestamps_monotonic(self, traffic):
        stamps = traffic.timestamps
        assert all(a < b for a, b in zip(stamps, stamps[1:]))

    def test_universe_mixes_intents_and_variants(self, traffic):
        variants = [p for p in traffic.parents if p != _NO_PARENT]
        intents = [p for p in traffic.parents if p == _NO_PARENT]
        assert variants and intents
        for parent in variants:
            assert traffic.parents[parent] == _NO_PARENT

    def test_sessions_chain_variant_to_intent(self, traffic):
        """Some sessions are (corrupted variant, clean intent) pairs."""
        by_session = {}
        for position, session in enumerate(traffic.session_ids):
            by_session.setdefault(session, []).append(position)
        chains = 0
        for positions in by_session.values():
            if len(positions) != 2:
                continue
            first, second = positions
            parent = traffic.parents[traffic.query_index[first]]
            if parent == traffic.query_index[second]:
                chains += 1
        assert chains > 0

    def test_popularity_is_skewed(self, traffic):
        counts = {}
        for position in traffic.query_index:
            counts[position] = counts.get(position, 0) + 1
        ranked = sorted(counts.values(), reverse=True)
        top = sum(ranked[: len(ranked) // 10 or 1])
        assert top > len(traffic) * 0.25  # top 10% carry >25% of traffic

    def test_drift_changes_the_hot_head(self, index):
        log = synthesize_traffic(
            index, entries=4000, unique_queries=100, phases=2,
            noise_share=0.0, seed=5,
        )

        def head(phase):
            counts = {}
            for position in log.query_index[phase["start"]:phase["end"]]:
                counts[position] = counts.get(position, 0) + 1
            return {
                key
                for key, _ in sorted(
                    counts.items(), key=lambda item: -item[1]
                )[:10]
            }

        first, second = (head(p) for p in log.phases)
        assert first != second

    def test_deterministic_from_seed(self, index):
        a = synthesize_traffic(
            index, entries=500, unique_queries=50, seed=3
        )
        b = synthesize_traffic(
            index, entries=500, unique_queries=50, seed=3
        )
        assert a.universe == b.universe
        assert a.query_index == b.query_index
        assert a.timestamps == b.timestamps

    def test_master_rng_reproduces_the_composite(self, index):
        """One caller-threaded RNG reproduces synthesis end to end."""
        a = synthesize_traffic(
            index, entries=500, unique_queries=50,
            rng=random.Random(9),
        )
        b = synthesize_traffic(
            index, entries=500, unique_queries=50,
            rng=random.Random(9),
        )
        assert a.universe == b.universe and a.query_index == b.query_index


class TestReplayer:
    def test_report_accounts_for_every_entry(self, index, traffic):
        engine = XRefine(index, cache_size=64)
        report = replay_traffic(engine, traffic, k=1, oracle_samples=10)
        assert report.overall["entries"] == len(traffic)
        assert sum(p["entries"] for p in report.phases) == len(traffic)
        for phase in report.phases:
            assert phase["qps"] > 0
            assert 0.0 <= phase["hit_rate"] <= 1.0
            assert phase["p50_ms"] <= phase["p95_ms"] <= phase["p99_ms"]
        assert report.samples

    def test_sampled_answers_match_cold_evaluation(self, index, traffic):
        engine = XRefine(index)
        report = replay_traffic(engine, traffic, k=1, oracle_samples=15)
        assert replay_cold_diff(index, report.samples) == []

    def test_phase_deltas_sum_to_overall(self, index, traffic):
        engine = XRefine(index, cache_size=64)
        report = replay_traffic(engine, traffic, k=1)
        summed = sum(p["result_cache"]["hits"] for p in report.phases)
        assert summed == report.overall["result_cache"]["hits"]


_TRAFFIC_SCRIPT = """
import hashlib
from repro.datasets import generate_dblp
from repro.index.builder import build_document_index
from repro.workload import synthesize_traffic

index = build_document_index(generate_dblp(num_authors=20, seed=7))
traffic = synthesize_traffic(
    index, entries=2000, unique_queries=80, phases=2, seed=13
)
print(traffic.universe)
print(hashlib.md5(
    traffic.query_index.tobytes() + traffic.timestamps.tobytes()
).hexdigest())
"""


class TestDeterminism:
    def test_traffic_is_identical_across_hash_seeds(self):
        """Synthesis must not depend on set-iteration order, so the
        replay benchmark measures the same workload in every process."""
        outputs = []
        for hash_seed in ("101", "202"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            src = os.path.join(
                os.path.dirname(__file__), "..", "..", "src"
            )
            env["PYTHONPATH"] = os.path.abspath(src)
            result = subprocess.run(
                [sys.executable, "-c", _TRAFFIC_SCRIPT],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
