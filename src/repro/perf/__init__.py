"""Hot-path serving layer: caches for the repeated-query fast path.

Production keyword traffic is skewed and repetitive; this subpackage
makes the repeat path cheap while leaving the paper's algorithms (and
their one-scan guarantees for *cold* queries) untouched:

``repro.perf.lru``
    :class:`LRUMemo` — the bounded LRU, with hit / miss / eviction
    counters, behind every traffic-keyed memo.
``repro.perf.stats_cache``
    :class:`SearchForCache` — memoized Formula-1 search-for inference,
    held per index version by ``index.derived``.
``repro.perf.result_cache``
    :class:`QueryResultCache` — a version-checked LRU over complete
    query answers, invalidated by the partition append/remove entry
    points and by snapshot swaps.
``repro.perf.subresult``
    :class:`SubResultCache` — the same LRU keyed by term signature,
    holding meaningful-SLCA lists, so reformulation chains reuse the
    refined queries' result work instead of evaluating them again.
"""

from .lru import LRUMemo
from .result_cache import QueryResultCache
from .stats_cache import SearchForCache
from .subresult import SubResultCache, term_signature

__all__ = [
    "LRUMemo",
    "QueryResultCache",
    "SearchForCache",
    "SubResultCache",
    "term_signature",
]
