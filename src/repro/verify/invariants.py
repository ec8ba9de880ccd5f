"""Metamorphic invariants from the paper.

Each check transforms a (document, query) pair in a way whose effect
on the answer is known, and flags a :class:`~repro.verify.oracle.Divergence`
when the implementation disagrees with the prediction:

* **Order insensitivity** — keyword queries are sets (Section III):
  permuting the terms must not change the SLCA answers, the
  refinement flag, the original results, or the set of refined-query
  keyword sets.  Merging and acronym-contraction rules are
  legitimately position-dependent — their multi-keyword left-hand
  side matches an adjacent run (``on line -> online``), which a
  permutation can break both at mining time and at application time —
  so the refinement half of the check fixes the mined rule set and
  drops the rules whose LHS spans more than one keyword before
  permuting.
* **Ancestor-freeness** — an SLCA answer set never contains a node
  and its ancestor (Definition of SLCA).
* **Top-K prefix monotonicity** — growing ``k`` only appends: when
  the candidate pool fits the smaller run's 2K working list, the
  smaller ranked list is an exact prefix of the larger one.
* **Update round-trip** — ``append_partition`` followed by
  ``remove_partition`` of the same subtree must restore byte-identical
  answers (the identity the incremental-maintenance layer promises).
"""

from __future__ import annotations

from ..index.tokenize_text import query_terms
from ..index.update import append_partition, remove_partition
from ..lexicon.rules import RuleSet
from .oracle import Divergence, response_fingerprint

#: Subtree appended (then removed) by the round-trip check; contains
#: common generator vocabulary so it overlaps live inverted lists.
ROUNDTRIP_SPEC = ("probe", "xml data query", [("node", "tree web", [])])


def _permuted(terms):
    """A deterministic non-trivial permutation (reversal)."""
    return tuple(reversed(terms))


def check_invariants(oracle, query):
    """Run every metamorphic check for one query; list of divergences."""
    divergences = []
    engine = oracle.engine
    spec = oracle.spec
    terms = query_terms(query)
    if not terms:
        return divergences
    k = oracle.k

    # --- ancestor-freeness --------------------------------------------
    slcas = engine.slca_search(terms)
    for i, label in enumerate(slcas):
        for other in slcas[i + 1:]:
            if label.is_ancestor_of(other) or other.is_ancestor_of(label):
                divergences.append(
                    Divergence(
                        "invariant:ancestor-free",
                        "SLCA answer set contains an ancestor/descendant "
                        "pair",
                        spec, query, str(label), str(other),
                    )
                )

    # --- order insensitivity ------------------------------------------
    permuted = _permuted(terms)
    if permuted != tuple(terms):
        if sorted(map(str, engine.slca_search(permuted))) != sorted(
            map(str, slcas)
        ):
            divergences.append(
                Divergence(
                    "invariant:order:slca",
                    "permuting the query changed the SLCA answers",
                    spec, query,
                    sorted(map(str, slcas)),
                    sorted(map(str, engine.slca_search(permuted))),
                )
            )
        mined = engine.mine_rules(terms)
        rules = RuleSet(
            (rule for rule in mined if len(rule.lhs) == 1),
            deletion_cost=mined.deletion_cost,
        )
        base = engine.search(terms, k=k, rules=rules)
        swapped = engine.search(permuted, k=k, rules=rules)
        if base.needs_refinement != swapped.needs_refinement:
            divergences.append(
                Divergence(
                    "invariant:order:flag",
                    "permuting the query changed the refinement flag",
                    spec, query,
                    base.needs_refinement, swapped.needs_refinement,
                )
            )
        elif sorted(map(str, base.original_results)) != sorted(
            map(str, swapped.original_results)
        ):
            divergences.append(
                Divergence(
                    "invariant:order:original",
                    "permuting the query changed the original results",
                    spec, query,
                    sorted(map(str, base.original_results)),
                    sorted(map(str, swapped.original_results)),
                )
            )
        else:
            base_keys = {frozenset(r.rq.keywords) for r in base.refinements}
            swapped_keys = {
                frozenset(r.rq.keywords) for r in swapped.refinements
            }
            if base_keys != swapped_keys:
                divergences.append(
                    Divergence(
                        "invariant:order:refinements",
                        "permuting the query changed the refined queries",
                        spec, query,
                        sorted(map(sorted, base_keys)),
                        sorted(map(sorted, swapped_keys)),
                    )
                )

    # --- Top-K prefix monotonicity ------------------------------------
    small = engine.search(terms, k=k)
    large = engine.search(terms, k=k + 2)
    if len(large.candidates) <= 2 * k:
        # The pool fit the smaller working list too, so the ranked
        # lists are over identical candidate sets and must nest.
        small_keys = [tuple(r.rq.keywords) for r in small.refinements]
        large_keys = [tuple(r.rq.keywords) for r in large.refinements]
        if small_keys != large_keys[: len(small_keys)]:
            divergences.append(
                Divergence(
                    "invariant:topk-prefix",
                    f"Top-{k} is not a prefix of Top-{k + 2}",
                    spec, query, large_keys, small_keys,
                )
            )

    # --- append/remove round-trip -------------------------------------
    before = response_fingerprint(engine.search(terms, k=k))
    node = append_partition(oracle.index, ROUNDTRIP_SPEC)
    remove_partition(oracle.index, node.dewey)
    after = response_fingerprint(engine.search(terms, k=k))
    if after != before:
        divergences.append(
            Divergence(
                "invariant:update-roundtrip",
                "append+remove of a partition changed the answer",
                spec, query, before, after,
            )
        )
    return divergences
