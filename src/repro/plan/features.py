"""Per-query feature extraction for the cost-based planner.

Everything the cost model consumes is derived from data structures
PRs 1–4 already maintain — inverted-list lengths, the per-keyword
partition breakdown (one bisect-jumping pass over the packed component
columns), the frequent table
``f_k^T`` / ``N_T`` behind the search-for cache — so extracting
features never scans a posting list.

The *direct-hit* prediction deserves a note: stack-refine is Top-1
only, so the planner may route to it **only** when it expects the
original query to need no refinement (a "direct hit", whose response
is byte-identical across all three algorithms).  The expectation is
the classic independence estimate over the top search-for type ``T``:

    E[matches] = N_T * prod_k min(1, f_k^T / N_T)

i.e. the expected number of T-typed nodes containing every query
keyword if keywords were independently distributed.  A misprediction
costs one wasted scan (the engine falls back to Partition and the
answer is unchanged), so the estimate only has to be right often
enough to pay for itself — the routing-accuracy benchmark tracks it.
"""

from __future__ import annotations

from ..slca.meaningful import infer_search_for

#: Expected-match threshold above which a direct hit is predicted.
DIRECT_HIT_THRESHOLD = 1.0


class QueryFeatures:
    """Cost-model inputs for one (query, rules, index-version) triple."""

    __slots__ = (
        "terms",
        "keyword_space",
        "list_lengths",
        "total_postings",
        "query_postings",
        "all_terms_present",
        "anchor",
        "anchor_length",
        "anchor_partitions",
        "union_partitions",
        "rule_count",
        "avg_list_length",
        "expected_direct_results",
        "direct_hit_predicted",
    )

    def summary(self):
        """The compact dict embedded in a QueryPlan / explain output."""
        return {
            "keyword_space": len(self.keyword_space),
            "total_postings": self.total_postings,
            "union_partitions": self.union_partitions,
            "anchor": self.anchor,
            "anchor_length": self.anchor_length,
            "anchor_partitions": self.anchor_partitions,
            "rule_count": self.rule_count,
            "expected_direct_results": round(
                self.expected_direct_results, 3
            ),
            "direct_hit_predicted": self.direct_hit_predicted,
        }


def _keyword_space(index, terms, rules):
    """KS = getNewKeywords(Q) + Q, exactly as ``QueryContext`` builds it."""
    generated = {
        keyword
        for keyword in rules.generated_keywords()
        if index.has_keyword(keyword)
    }
    ordered = list(terms)
    for keyword in sorted(generated):
        if keyword not in ordered:
            ordered.append(keyword)
    return tuple(ordered)


def _choose_anchor(features_lengths, terms, rules):
    """SLE's smart keyword choice, replayed over list lengths only."""
    candidates = [k for k, n in features_lengths.items() if n > 0]
    if not candidates:
        return None
    rhs_keywords = rules.generated_keywords()
    lhs_keywords = set()
    for rule in rules:
        lhs_keywords.update(rule.lhs)

    def sort_key(keyword):
        preferred = keyword in rhs_keywords or keyword not in lhs_keywords
        return (0 if preferred else 1, features_lengths[keyword], keyword)

    return min(candidates, key=sort_key)


def _expected_direct_results(index, terms, present):
    """Independence estimate of the original query's match count."""
    cache = getattr(index, "search_for_cache", None)
    if cache is not None:
        search_for = cache.infer(present)
    else:
        search_for = infer_search_for(index, present)
    best = 0.0
    for candidate in search_for[:3]:
        node_type = candidate.node_type
        node_count = index.node_count(node_type)
        if node_count <= 0:
            continue
        expected = float(node_count)
        for term in dict.fromkeys(terms):
            expected *= min(1.0, index.xml_df(term, node_type) / node_count)
            if expected == 0.0:
                break
        if expected > best:
            best = expected
    return best


def extract_features(index, terms, rules, partition_counter):
    """Build :class:`QueryFeatures` for one query.

    ``partition_counter`` maps a keyword to its distinct-partition
    count; the planner supplies a memoized implementation backed by the
    engine's :class:`~repro.perf.packed.PackedListStore`.
    """
    terms = tuple(terms)
    features = QueryFeatures()
    features.terms = terms
    features.keyword_space = _keyword_space(index, terms, rules)
    features.rule_count = len(rules)

    lengths = {
        keyword: len(index.inverted_list(keyword))
        for keyword in features.keyword_space
    }
    features.list_lengths = lengths
    features.total_postings = sum(lengths.values())
    features.query_postings = sum(
        lengths[term] for term in dict.fromkeys(terms)
    )
    features.all_terms_present = all(lengths[term] > 0 for term in terms)

    anchor = _choose_anchor(lengths, terms, rules)
    features.anchor = anchor
    if anchor is None:
        features.anchor_length = 0
        features.anchor_partitions = 0
    else:
        features.anchor_length = lengths[anchor]
        features.anchor_partitions = partition_counter(anchor)

    union = 0
    for keyword, length in lengths.items():
        if length > 0:
            union += partition_counter(keyword)
    # The per-keyword counts overlap; cap by the document's partition
    # fan-out so dense queries do not overestimate the union.
    counter = getattr(index, "partition_count", None)
    document_partitions = (
        counter() if counter is not None else len(index.partitions())
    )
    features.union_partitions = max(
        1, min(union, document_partitions)
    ) if features.total_postings else 0

    totals = None
    statistics = getattr(index, "statistics", None)
    if statistics is not None:
        totals = statistics.document_totals()
    if totals is not None and totals.distinct_keywords > 0:
        features.avg_list_length = (
            totals.total_terms / totals.distinct_keywords
        )
    else:
        space = max(1, len(features.keyword_space))
        features.avg_list_length = features.total_postings / space

    present = [k for k in features.keyword_space if lengths[k] > 0]
    if features.all_terms_present and present:
        features.expected_direct_results = _expected_direct_results(
            index, terms, present
        )
    else:
        features.expected_direct_results = 0.0
    features.direct_hit_predicted = (
        features.all_terms_present
        and features.expected_direct_results >= DIRECT_HIT_THRESHOLD
    )
    return features
