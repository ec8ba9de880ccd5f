"""Workload inputs: corpora, snapshots, query pools, request sequences.

Everything the daemon is fed is generated here from ``src/`` generators
and pinned by SHA-256: the corpora and pools are fixed parts of the
workload definitions (so medians compare across seeds), the request
sequence is drawn from ``--seed``.  The generators live in ``src/`` and
may drift; :func:`check_digests` fails loudly when they do, because
numbers over different inputs do not compare.

The planner's cost calibration is an input too.  ``freeze_index`` would
otherwise time a few milliseconds of synthetic loops on the host and
write the result into the snapshot; those timings differ from freeze to
freeze, borderline queries change route with them, and a daemon then
runs several per cent faster or slower for its whole life.  Every
snapshot here carries :data:`PLANNER_CALIBRATION` instead, so the routes
— and the engine's counters — are the same in every run.  The *snapshot
file* digest is recorded but not pinned: it now repeats, but the
snapshot format is the program's own business.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from collections import namedtuple

from repro import build_document_index
from repro.datasets import generate_dblp
from repro.datasets.scaling import corpus_for_nodes
from repro.index import freeze_index
from repro.plan import Calibration
from repro.workload import WorkloadGenerator, synthesize_traffic
from repro.xmltree import serialize

import paths

#: Pool recipe shared by the three pool workloads (ISSUE 11): 200
#: queries, 60 % refinable / 40 % clean, Zipf 1/rank popularity.
POOL_SEED = 23
POOL_SIZE = 200

#: Unit costs (seconds) the planner routes by, fixed for every snapshot:
#: the medians of fifteen ``micro_calibrate()`` runs with the compiled
#: kernels on the 2.1 GHz Xeon guest the benchmark was written on.
PLANNER_CALIBRATION = {
    "scan_posting": 1.68e-07, "probe": 7.57e-08, "dp_partial": 2.41e-07,
    "slca_posting": 1.86e-07, "partition_visit": 3.29e-08,
    "stack_posting": 5.48e-08, "dispatch": 2.0e-04,
    "stack_push_pop": 5.62e-08, "batch_score": 4.79e-06,
}

#: Requests per exactly-apportioned Zipf block (see zipf_blocks).
ZIPF_BLOCK = 1000
#: replay_mixed: the seed of the fixed traffic log (see _replay_order).
TRAFFIC_SEED = 23

#: Requests generated per second of window for a closed loop, four to
#: five times what the daemon answers today (cold_small 1000/s,
#: replay_mixed 2000/s): a run whose daemon outruns them fails
#: (loadgen.closed_loop) rather than replay old requests.
CLOSED_LOOP_DRAW_RATE = 4000
REPLAY_ENTRY_RATE = 8000
#: replay_mixed: the entries of warm-up (result-cache fill) that precede
#: the window, the size of the query universe, and the entries between
#: two popularity drifts.  The log is as long as the draw rate asks, in
#: phases of this length, so a faster daemon meets more drifts of the
#: same kind and not a longer first phase.
REPLAY_WARMUP = 1500
REPLAY_UNIVERSE = 2000
REPLAY_PHASE_ENTRIES = 10_000
#: --quick divides the pool size and the replay warm-up by this.
QUICK_SHRINK = 4
#: Pool workloads warm up with every pool query once (first-contact
#: rule mining and posting decode) plus this many Zipf draws.
POOL_WARMUP_DRAWS = 200

Spec = namedtuple(
    "Spec", "name corpus corpus_b daemon_args k open_rps traffic"
)

SPECS = {
    spec.name: spec for spec in (
        Spec("cold_small", "small", None, ("--cache-size", "0"), 2, None,
             False),
        Spec("cold_large", "large", None, ("--cache-size", "0"), 2, None,
             False),
        Spec("replay_mixed", "small", None, (), 1, None, True),
        Spec("churn_reload", "small", "small_b", ("--cache-size", "0"), 2,
             200, False),
    )
}


class InputDrift(Exception):
    """A generated input no longer matches its pinned digest."""


def make_tree(corpus, quick=False):
    if corpus == "small":
        return generate_dblp(num_authors=300, seed=7)
    if corpus == "small_b":
        return generate_dblp(num_authors=360, seed=8)
    if corpus == "large":
        # --quick keeps the code path and shrinks the corpus.
        return corpus_for_nodes(12_000 if quick else 60_000, seed=29)
    raise ValueError(f"unknown corpus {corpus!r}")


Snapshot = namedtuple(
    "Snapshot", "corpus path index tree gen_s build_s freeze_s"
)


def build_snapshot(corpus, workdir, quick=False):
    """Generate, index and freeze one corpus; timings per step."""
    began = time.perf_counter()
    tree = make_tree(corpus, quick)
    generated = time.perf_counter()
    index = build_document_index(tree)
    index.calibration = Calibration("measured", **PLANNER_CALIBRATION)
    built = time.perf_counter()
    path = os.path.join(workdir, f"{corpus}.frz")
    freeze_index(index, path)
    frozen = time.perf_counter()
    return Snapshot(corpus, path, index, tree, generated - began,
                    built - generated, frozen - built)


def build_pool(index, size=POOL_SIZE):
    generator = WorkloadGenerator(index, seed=POOL_SEED)
    return [
        list((generator.refinable_query() if position % 5 < 3
              else generator.clean_query()).query)
        for position in range(size)
    ]


def request_bytes(query, k):
    """The exact bytes one POST /search puts on the wire."""
    body = json.dumps(
        {"query": list(query), "k": k, "algorithm": "auto"},
        separators=(",", ":"),
    ).encode("utf-8")
    head = (
        "POST /search HTTP/1.1\r\nHost: bench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1")
    return head + body


Sequence = namedtuple("Sequence", "queries warmup window due")
Sequence.__doc__ = """Requests of one run.

``queries`` are the distinct queries; ``warmup`` and ``window`` index
into them in sending order; ``due`` is the open-loop schedule (seconds
from the window start, one per window entry) or ``None``.
"""


def zipf_blocks(rng, size, count):
    """``count`` ranks below ``size`` with Zipf 1/rank popularity.

    Drawn in blocks of :data:`ZIPF_BLOCK` whose composition is the exact
    (largest-remainder) Zipf apportionment; the seed only shuffles each
    block.  Every seed therefore sends the same mix of cheap and costly
    queries, and percentiles compare across seeds — i.i.d. draws moved
    the large corpus's p95 by a tenth on their own.
    """
    weights = [1.0 / rank for rank in range(1, size + 1)]
    scale = ZIPF_BLOCK / sum(weights)
    quotas = [weight * scale for weight in weights]
    counts = [int(quota) for quota in quotas]
    by_remainder = sorted(
        range(size), key=lambda r: (counts[r] - quotas[r], r))
    for rank in by_remainder[:ZIPF_BLOCK - sum(counts)]:
        counts[rank] += 1
    block = [rank for rank in range(size) for _ in range(counts[rank])]
    drawn = []
    while len(drawn) < count:
        rng.shuffle(block)
        drawn.extend(block)
    return drawn[:count]


def _replay_order(index, seed, entries):
    """The replay_mixed request order: a fixed log, sessions shuffled.

    ``synthesize_traffic`` under :data:`TRAFFIC_SEED` fixes the query
    universe, each phase's popularity ranking and which sessions exist;
    ``seed`` shuffles the sessions *within* each phase (reformulation
    chains stay adjacent).  Seeding the synthesis itself re-rolls which
    queries are hot and moved throughput by a fifth between seeds.
    """
    phases = -(-entries // REPLAY_PHASE_ENTRIES)  # at least ``entries``
    traffic = synthesize_traffic(
        index, entries=phases * REPLAY_PHASE_ENTRIES,
        unique_queries=REPLAY_UNIVERSE, phases=phases,
        noise_share=0.25, chain_probability=0.5, seed=TRAFFIC_SEED,
    )
    rng = random.Random(seed)
    order = []
    for phase in traffic.phases:
        sessions = {}
        for position in range(phase["start"], phase["end"]):
            sessions.setdefault(traffic.session_ids[position], []).append(
                traffic.query_index[position])
        shuffled = list(sessions.values())
        rng.shuffle(shuffled)
        order.extend(q for session in shuffled for q in session)
    return [list(query) for query in traffic.universe], order


def build_sequence(spec, index, seed, seconds, quick=False):
    """The requests of one run; ``quick`` quarters pool and warm-up."""
    shrink = QUICK_SHRINK if quick else 1
    if spec.traffic:
        warm = REPLAY_WARMUP // shrink
        queries, order = _replay_order(
            index, seed, warm + int(REPLAY_ENTRY_RATE * seconds))
        return Sequence(queries, order[:warm], order[warm:], None)
    rng = random.Random(seed)
    queries = build_pool(index, POOL_SIZE // shrink)
    size = len(queries)
    warmup = list(range(size)) + zipf_blocks(rng, size, POOL_WARMUP_DRAWS)
    if spec.open_rps is None:
        window = zipf_blocks(rng, size, int(CLOSED_LOOP_DRAW_RATE * seconds))
        return Sequence(queries, warmup, window, None)
    # Open loop: exactly rate x seconds arrivals at seeded uniform
    # instants (a Poisson process conditioned on its count), so the
    # offered rate is the same for every seed.
    count = int(spec.open_rps * seconds)
    due = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    return Sequence(queries, warmup, zipf_blocks(rng, size, count), due)


def json_sha(payload):
    return hashlib.sha256(
        json.dumps(payload, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def file_sha(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def corpus_sha(tree):
    return hashlib.sha256(serialize(tree).encode("utf-8")).hexdigest()


def sequence_sha(sequence):
    due = None if sequence.due is None else [repr(d) for d in sequence.due]
    return json_sha([sequence.queries, sequence.warmup, sequence.window, due])


def digests_of(spec, snapshots, sequence, seed, seconds):
    """Everything pinned or recorded about one run's inputs."""
    found = {
        "corpus": {s.corpus: corpus_sha(s.tree) for s in snapshots},
        "snapshot_file": {s.corpus: file_sha(s.path) for s in snapshots},
        "sequence": {
            "seed": seed, "seconds": seconds, "sha": sequence_sha(sequence),
        },
    }
    if not spec.traffic:
        found["pool"] = {spec.corpus: json_sha(sequence.queries)}
    return found


def load_expected():
    with open(paths.EXPECTED_DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)


def check_digests(spec, found, expected):
    """Raise :class:`InputDrift` where a pinned digest disagrees.

    Corpora and pools are pinned for every seed; the request sequence
    for the default ``(seed, seconds)`` only.
    """
    problems = []
    for kind in ("corpus", "pool"):
        for name, sha in found.get(kind, {}).items():
            want = expected[kind].get(name)
            if want != sha:
                problems.append(f"{kind} {name}: {sha} != pinned {want}")
    pinned = expected["sequence"].get(spec.name)
    got = found["sequence"]
    if pinned and (pinned["seed"], pinned["seconds"]) == (
        got["seed"], got["seconds"]
    ) and pinned["sha"] != got["sha"]:
        problems.append(
            f"sequence {spec.name}: {got['sha']} != pinned {pinned['sha']}"
        )
    if problems:
        raise InputDrift(
            "benchmark inputs drifted from expected_digests.json (a "
            "generator under src/ changed?); numbers would not compare:\n  "
            + "\n  ".join(problems)
        )
