"""A simulated search-session query log.

The paper selects its pool from "the most recent 1000 queries" of a
live demo's log; refinement-rule research also mines user *rewrites*
from such logs [21].  This module simulates that artifact: a sequence
of timestamped sessions in which a user issues a (possibly corrupted)
query, and — when it fails — manually rewrites it, yielding the
(dirty, clean) pairs a log-based rule miner consumes.
"""

from __future__ import annotations

import random

from .generator import WorkloadGenerator


class LogEntry:
    """One logged query submission."""

    __slots__ = ("session_id", "timestamp", "query", "is_rewrite")

    def __init__(self, session_id, timestamp, query, is_rewrite):
        self.session_id = session_id
        self.timestamp = timestamp
        self.query = tuple(query)
        self.is_rewrite = is_rewrite

    def __repr__(self):
        marker = "rewrite" if self.is_rewrite else "initial"
        return f"LogEntry(#{self.session_id} @{self.timestamp} {marker}: {' '.join(self.query)})"


class QueryLog:
    """A full simulated log with rewrite-pair extraction."""

    def __init__(self, entries):
        self.entries = list(entries)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def rewrite_pairs(self):
        """``[(dirty_query, clean_query), ...]`` from same-session pairs."""
        pairs = []
        by_session = {}
        for entry in self.entries:
            by_session.setdefault(entry.session_id, []).append(entry)
        for entries in by_session.values():
            entries.sort(key=lambda e: e.timestamp)
            for first, second in zip(entries, entries[1:]):
                if not first.is_rewrite and second.is_rewrite:
                    pairs.append((first.query, second.query))
        return pairs

    def failing_queries(self):
        """Initial queries that were followed by a rewrite."""
        return [dirty for dirty, _ in self.rewrite_pairs()]


def replay(engine, log, k=1, algorithm="auto"):
    """Replay a :class:`QueryLog` through an engine.

    Feeds every logged submission (initial queries *and* rewrites, in
    log order) through :meth:`~repro.core.engine.XRefine.search_many`
    with ``algorithm`` (``"auto"`` — the default, Algorithm 3 — unless
    a fixed one is asked for).  Returns the responses in entry order;
    ``engine.planner.stats()["routed"]`` afterwards counts the
    evaluations per route.
    """
    return engine.search_many(
        [entry.query for entry in log],
        k=k,
        algorithm=algorithm,
    )


def simulate_log(index, sessions=200, rewrite_probability=0.6, seed=31,
                 rng=None, generator=None):
    """Simulate ``sessions`` user sessions against a corpus.

    The session model: sessions are numbered ``0..sessions-1`` and laid
    out on a shared clock — each session starts 1-90 ticks after the
    previous one.  With ``rewrite_probability`` a session is a *rewrite
    pair* — a corrupted intent (``is_rewrite=False``) followed 5-120
    ticks later by the user's manual fix, the clean intent
    (``is_rewrite=True``) — otherwise it is a single clean query.
    Those pairs are exactly what :meth:`QueryLog.rewrite_pairs` feeds a
    log-based rule miner.

    Reproducibility: the whole log is a pure function of ``(index,
    sessions, rewrite_probability, seed)`` — independent of
    ``PYTHONHASHSEED``, like the generator's ``_rare_terms`` ordering.
    Callers that interleave several simulations (e.g. the replay
    harness) can instead pass their own seeded ``rng``
    (:class:`random.Random`) end-to-end: it drives both the session
    clock/rewrite draws *and* the intent sampling (through a
    ``generator`` built on the same stream), so one master RNG
    reproduces the composite workload.  An explicit ``generator``
    overrides the auto-built one either way.
    """
    if rng is None:
        rng = random.Random(seed * 7919 + 1)
        if generator is None:
            generator = WorkloadGenerator(index, seed=seed)
    elif generator is None:
        # Derive the generator's stream from the caller's RNG so the
        # pair (rng, generator) is reproducible from one seed.
        generator = WorkloadGenerator(
            index, seed=rng.randrange(2**31)
        )
    entries = []
    timestamp = 0
    for session_id in range(sessions):
        timestamp += rng.randint(1, 90)
        if rng.random() < rewrite_probability:
            pool_query = generator.refinable_query()
            entries.append(
                LogEntry(session_id, timestamp, pool_query.query, False)
            )
            timestamp += rng.randint(5, 120)
            entries.append(
                LogEntry(session_id, timestamp, pool_query.intent, True)
            )
        else:
            pool_query = generator.clean_query()
            entries.append(
                LogEntry(session_id, timestamp, pool_query.query, False)
            )
    return QueryLog(entries)
