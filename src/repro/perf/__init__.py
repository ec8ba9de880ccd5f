"""Hot-path serving layer: caches for the repeated-query fast path.

Production keyword traffic is skewed and repetitive; this subpackage
makes the repeat path cheap while leaving the paper's algorithms (and
their one-scan guarantees for *cold* queries) untouched:

``repro.perf.packed``
    :class:`PackedPostings` / :class:`PackedListStore` — the swap
    warm-up's per-keyword partition counter over the inverted list's
    key column.
``repro.perf.stats_cache``
    :class:`SearchForCache` — memoized Formula-1 search-for inference,
    owned by the document index next to the frequency-table memo.
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
from .packed import PackedListStore, PackedPostings
from .result_cache import QueryResultCache
from .stats_cache import SearchForCache
from .subresult import SubResultCache, term_signature

__all__ = [
    "CountMinSketch",
    "PackedPostings",
    "PackedListStore",
    "QueryResultCache",
    "SearchForCache",
    "SubResultCache",
    "term_signature",
]
