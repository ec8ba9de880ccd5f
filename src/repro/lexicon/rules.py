"""Refinement rules (Definitions 3.5/3.6 and Table II).

A rule ``S1 ->_op S2`` rewrites the keyword sequence ``S1`` (drawn from
the original query) into the keyword set ``S2`` (which must exist in
the data for the rewrite to be applicable), with an associated
dissimilarity score ``ds_r``:

* **merging** (``on, line -> online``): ds = number of removed spaces;
* **split** (``online -> on, line``): ds = number of added spaces;
* **substitution** — spelling (edit distance), synonym (thesaurus
  score), acronym (1), stemming (1);
* **deletion** is not represented as stored rules: every keyword is
  always deletable at :data:`DEFAULT_DELETION_COST`, kept strictly
  greater than the unit cost of the other operations ("term deletion
  has the greatest potential in changing the meaning").

:class:`RuleSet` indexes rules by the *last* keyword of their LHS —
exactly the access path of the dynamic program (Section V: ``R(ki)``),
whose Option 3 tries every rule whose LHS ends at position ``i``.
"""

from __future__ import annotations

from ..errors import RuleError

#: Operation kinds.
OP_DELETION = "deletion"
OP_MERGING = "merging"
OP_SPLIT = "split"
OP_SUBSTITUTION = "substitution"

_VALID_OPS = {OP_MERGING, OP_SPLIT, OP_SUBSTITUTION}

#: ds of deleting one term; > every unit rule cost (Section VIII uses 2).
DEFAULT_DELETION_COST = 2


class RefinementRule:
    """One refinement rule ``lhs ->_operation rhs`` with score ``ds``."""

    __slots__ = ("lhs", "rhs", "operation", "ds")

    def __init__(self, lhs, rhs, operation, ds):
        lhs = tuple(lhs)
        rhs = tuple(rhs)
        if not lhs or not rhs:
            raise RuleError("rule sides must be non-empty keyword sequences")
        if operation not in _VALID_OPS:
            raise RuleError(f"unknown refinement operation {operation!r}")
        if ds <= 0:
            raise RuleError(f"rule dissimilarity must be positive, got {ds}")
        self.lhs = lhs
        self.rhs = rhs
        self.operation = operation
        self.ds = ds

    def __repr__(self):
        lhs = ",".join(self.lhs)
        rhs = ",".join(self.rhs)
        return f"RefinementRule({lhs} ->[{self.operation}] {rhs}, ds={self.ds})"

    def __eq__(self, other):
        if not isinstance(other, RefinementRule):
            return NotImplemented
        return (
            self.lhs == other.lhs
            and self.rhs == other.rhs
            and self.operation == other.operation
            and self.ds == other.ds
        )

    def __hash__(self):
        return hash((self.lhs, self.rhs, self.operation, self.ds))


def merging_rule(parts, merged):
    """``parts`` (>=2 keywords) -> one merged keyword; ds = spaces removed."""
    parts = tuple(parts)
    if len(parts) < 2:
        raise RuleError("a merging rule needs at least two LHS keywords")
    if "".join(parts) != merged:
        raise RuleError(
            f"merging {parts} does not spell {merged!r}"
        )
    return RefinementRule(parts, (merged,), OP_MERGING, len(parts) - 1)


def split_rule(term, parts):
    """One keyword -> >=2 parts; ds = spaces added."""
    parts = tuple(parts)
    if len(parts) < 2:
        raise RuleError("a split rule needs at least two RHS keywords")
    if "".join(parts) != term:
        raise RuleError(f"splitting {term!r} does not yield {parts}")
    return RefinementRule((term,), parts, OP_SPLIT, len(parts) - 1)


def substitution_rule(source, target, ds=1):
    """Single-term substitution (spelling / synonym / stemming)."""
    if isinstance(target, str):
        target = (target,)
    return RefinementRule((source,), tuple(target), OP_SUBSTITUTION, ds)


def acronym_rules(acronym, expansion, ds=1):
    """Both directions of an acronym rule (r6 and its inverse)."""
    expansion = tuple(expansion)
    return [
        RefinementRule((acronym,), expansion, OP_SUBSTITUTION, ds),
        RefinementRule(expansion, (acronym,), OP_SUBSTITUTION, ds),
    ]


class RuleSet:
    """A set of refinement rules indexed for the dynamic program."""

    def __init__(self, rules=(), deletion_cost=DEFAULT_DELETION_COST):
        if deletion_cost <= 0:
            raise RuleError("deletion cost must be positive")
        self.deletion_cost = deletion_cost
        self._rules = []
        #: The rules held, for the duplicate test.
        self._seen = set()
        self._by_last_lhs = {}
        for rule in rules:
            self.add(rule)

    def add(self, rule):
        """Add one rule (duplicates are ignored)."""
        if rule in self._seen:
            return
        self._seen.add(rule)
        self._rules.append(rule)
        self._by_last_lhs.setdefault(rule.lhs[-1], []).append(rule)

    def extend(self, rules):
        for rule in rules:
            self.add(rule)

    def rules_ending_with(self, keyword):
        """All rules whose LHS ends with ``keyword`` — ``R(ki)``."""
        return self._by_last_lhs.get(keyword, [])

    def all_rules(self):
        return list(self._rules)

    def fingerprint(self):
        """Hashable identity of the rule set, including rule order.

        Two rule sets with equal fingerprints drive the refinement DP
        identically, so pure-function caches (e.g. the planner's DP
        memos) can key on it.  Order is part of the
        identity: at equal cost the DP keeps the first derivation seen.
        """
        return (self.deletion_cost, tuple(self._rules))

    def generated_keywords(self):
        """Every keyword appearing on some RHS (``getNewKeywords``).

        These are the keywords the refinement algorithms add to the
        original query's to form the extended keyword set ``KS``
        (Algorithm 1, line 3).
        """
        keywords = set()
        for rule in self._rules:
            keywords.update(rule.rhs)
        return keywords

    def __len__(self):
        return len(self._rules)

    def __iter__(self):
        return iter(self._rules)

    def __repr__(self):
        return f"RuleSet({len(self._rules)} rules, del={self.deletion_cost})"
