"""The ranking model's statistics memo.

Scoring one refined query reads, per search-for type ``T``, the
Formula-2 ``tf(k, T)`` of each keyword and ``G_T``, the Formula-3
importance of each keyword, and the Formula-7 confidence of each
ordered keyword pair — store probes, a logarithm and, on a cold pair,
two ancestor-set intersections.  The Top-2K candidates of one query
share most of those reads, and the queries after it repeat them, so
the formulas read every one through a :class:`ScoreMemo`.

One memo belongs to each index version: its
:class:`~repro.index.derived.DerivedState` holds it (``index.score_memo``
reads it), built on the first score and keyed by ``(keyword, T)``,
``T`` and ``(ki, k, T)``.  An update replaces the holder, so it
re-reads everything.  Caching a float changes
no score: a fresh memo and a warm one give the same bits.
"""

from __future__ import annotations

from functools import partial


class _Column(dict):
    """One memo column: a dict that computes a missing value once,
    from the key's fields."""

    __slots__ = ("_compute",)

    def __init__(self, compute):
        self._compute = compute

    def __missing__(self, key):
        value = self[key] = self._compute(*key)
        return value


class _TypeColumn(_Column):
    """A column keyed by a node type alone (itself a tuple)."""

    __slots__ = ()

    def __missing__(self, node_type):
        value = self[node_type] = self._compute(node_type)
        return value


class ScoreMemo:
    """``tf``, ``g`` (``G_T``), ``importance`` and ``pair`` columns of
    one index, each filled on first read."""

    __slots__ = ("tf", "g", "importance", "pair")

    def __init__(self, index):
        # Imported here: both formula modules import this one.
        from .dependence import pair_confidence
        from .similarity import keyword_importance

        self.tf = _Column(index.tf)
        self.g = _TypeColumn(index.distinct_keywords)
        self.importance = _Column(partial(keyword_importance, index))
        self.pair = _Column(partial(pair_confidence, index))


def score_memo(index):
    """``index``'s memo, built on first use."""
    derived = index.derived
    memo = derived.score_memo
    if memo is None:
        memo = derived.score_memo = ScoreMemo(index)
    return memo
