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
    :class:`QueryResultCache` — version-checked cache over complete
    query answers with W-TinyLFU frequency-gated admission (or plain
    LRU), optional TTL, invalidated by the partition append/remove
    entry points.
``repro.perf.freq_sketch``
    :class:`CountMinSketch` — the halving frequency sketch behind the
    TinyLFU admission gate.
``repro.perf.subresult``
    :class:`SubResultCache` — term-signature keyed meaningful-SLCA
    lists, so reformulation chains reuse the refined queries' result
    work instead of recomputing it from scratch.
"""

from .freq_sketch import CountMinSketch
from .lru import LRUMemo
from .result_cache import QueryResultCache
from .stats_cache import SearchForCache
from .subresult import SubResultCache, term_signature

__all__ = [
    "CountMinSketch",
    "LRUMemo",
    "QueryResultCache",
    "SearchForCache",
    "SubResultCache",
    "term_signature",
]
