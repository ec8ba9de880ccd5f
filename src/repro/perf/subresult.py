"""Term-signature sub-result cache for reformulation chains.

A refinement session is a *chain*: the user issues a corrupted query,
the engine enumerates refined queries (RQs) — and the user's next
submission is very often one of those RQs verbatim (the paper's
query-log study is built on exactly these rewrite pairs).  Evaluating
the corrupted query already computed each admitted RQ's meaningful
SLCA result list; recomputing it from scratch when the RQ arrives as
its own query wastes the dominant share of the miss cost.

:class:`SubResultCache` keeps that work keyed by **term signature** —
the sorted set of terms, so every presentation order of the same
keyword set shares one entry — stamped with the index version it was
computed against (same invalidation contract as
:class:`~repro.perf.result_cache.QueryResultCache`).

The invalidation contract has one subtlety beyond versioning:
*meaningfulness is relative to the query's own search-for types*
(Definition 3.3 filters SLCAs against the node types inferred from the
query's keyword space, and the keyword space depends on the query's
own mined rules).  A deposited result list is therefore only valid for
a consumer whose inferred ``search_for_types`` equal the depositor's.
Each entry records the types it was filtered under, and
:meth:`SubResultCache.get` refuses to serve a consumer whose types
differ (counted in :attr:`mismatches`) — the consumer falls back to a
full evaluation.  Only *complete* result lists are deposited: the
original query's meaningful SLCAs on a direct hit, and each surviving
refinement's accumulated list (both oracle-fingerprinted surfaces);
never the un-fingerprinted intermediate candidate pool.
"""

from __future__ import annotations

from .result_cache import QueryResultCache

#: Default number of term signatures retained (``XRefine`` passes this
#: when result caching is enabled; 0 disables the layer).
DEFAULT_SUBRESULT_CAPACITY = 2048


def term_signature(terms):
    """Order-insensitive identity of a keyword set."""
    return tuple(sorted(set(terms)))


class SubResultCache(QueryResultCache):
    """Versioned LRU from term signature to a meaningful-SLCA list.

    The result cache's LRU, storing ``(search_for_types, slcas)`` per
    signature, with the search-for check on read and the empty-list
    rule on deposit.
    """

    __slots__ = ("mismatches", "deposits")

    def __init__(self, maxsize=DEFAULT_SUBRESULT_CAPACITY):
        super().__init__(maxsize)
        #: Lookups whose signature was present but filtered under
        #: different search-for types — unusable for this consumer.
        self.mismatches = 0
        self.deposits = 0

    # ------------------------------------------------------------------
    def absent(self, signature):
        """Whether no entry holds ``signature`` — counted as a miss.

        The cheap first half of a lookup: a consumer that would have
        to infer its search-for types before :meth:`get` can ask this
        first, and an absent signature is then the request's one
        counted miss.
        """
        with self.lock:
            if signature in self._entries:
                return False
            self.misses += 1
            return True

    def get(self, signature, version, search_for_types):
        """The deposited SLCA tuple, or ``None``.

        Misses on absent signatures and stale versions (dropped, as in
        the result cache); a present entry whose recorded search-for
        types differ from the consumer's is left in place but not
        served — another consumer with the depositor's types may still
        use it.
        """
        with self.lock:
            entry = self._fresh(signature, version)
            if entry is not None and entry[0] != search_for_types:
                self.mismatches += 1
                entry = None
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(signature)
            self.hits += 1
            return entry[1]

    def put(self, signature, version, search_for_types, slcas):
        """Deposit a complete meaningful-SLCA list for a signature.

        Empty lists are not deposited: an empty result cannot assemble
        a direct-hit response, and "no meaningful result" is exactly
        the verdict a later evaluation must re-derive for itself.
        """
        if not self.maxsize or not slcas:
            return
        with self.lock:
            super().put(
                signature, (tuple(search_for_types), tuple(slcas)), version
            )
            self.deposits += 1

    def stats(self):
        with self.lock:
            stats = super().stats()
            stats["mismatches"] = self.mismatches
            stats["deposits"] = self.deposits
            return stats
