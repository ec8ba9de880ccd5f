"""Scaled corpus slices for the data-size experiment (Fig. 6).

The paper measures Top-3 refinement time over DBLP subsets of 20%-100%
of the full size.  :func:`scaled_subtree` produces the same kind of
prefix slice: the first ``fraction`` of the root's children (document
partitions), relabeled into a fresh, dense tree so every slice is a
well-formed document of its own.

:func:`corpus_for_nodes` scales the other way — *up*, toward the
paper's real 420MB snapshot: it sizes the synthetic DBLP generator to
hit a target node count, so the paging benchmark can sweep
multi-million-node corpora and measure how resident memory and cold
query latency grow with corpus size under the frozen snapshot layout.
"""

from __future__ import annotations

from ..errors import DatasetError
from ..xmltree.build import build_tree
from .dblp import generate_dblp

#: The fractions Fig. 6 sweeps.
DEFAULT_FRACTIONS = (0.2, 0.4, 0.6, 0.8, 1.0)

#: Node-count targets for the full beyond-RAM paging sweep.  The top
#: size is a multi-million-node corpus — far larger than any fixture —
#: so RSS growth between the points exposes whether the frozen
#: snapshot actually leaves cold postings on disk.
DEFAULT_NODE_TARGETS = (250_000, 1_000_000, 4_000_000)

#: Reduced targets for the CI smoke sweep: same shape, minutes less
#: generation time, still a 9x size spread for the sub-linearity gate.
SMOKE_NODE_TARGETS = (20_000, 60_000, 180_000)

#: Authors generated to estimate the nodes-per-author ratio of one
#: (seed, config) combination before committing to the full build.
_PROBE_AUTHORS = 64

#: Scaled corpora plant a unique ``<id>`` token on every Nth author by
#: default (see ``DBLPConfig.rare_token_period``): the long-tail
#: vocabulary a selective beyond-RAM workload queries.  Because every
#: size is generated with the same seed, a smaller corpus's authors —
#: and therefore its rare tokens — are a prefix of every larger one.
RARE_TOKEN_PERIOD = 16


def _spec_of(node):
    """Recursively convert a subtree back into a build spec."""
    return (
        node.tag,
        node.text or None,
        [_spec_of(child) for child in node.children],
    )


def scaled_subtree(tree, fraction):
    """A fresh tree containing the first ``fraction`` of partitions."""
    if not 0.0 < fraction <= 1.0:
        raise DatasetError(f"fraction must lie in (0, 1], got {fraction}")
    children = tree.root.children
    keep = max(1, round(len(children) * fraction))
    spec = (
        tree.root.tag,
        tree.root.text or None,
        [_spec_of(child) for child in children[:keep]],
    )
    return build_tree(spec)


def scaled_series(tree, fractions=DEFAULT_FRACTIONS):
    """``[(fraction, tree), ...]`` for a sweep of corpus sizes."""
    return [(fraction, scaled_subtree(tree, fraction)) for fraction in fractions]


def authors_for_nodes(target_nodes, seed=7, **overrides):
    """The author count whose generated tree is ~``target_nodes`` big.

    Generates a small probe corpus with the same seed and generator
    knobs, measures its nodes-per-author ratio, and scales.  The ratio
    is an average over random per-author structure, so the realized
    corpus lands within a few percent of the target — close enough for
    a size sweep whose points are 3-4x apart.
    """
    if target_nodes < 1:
        raise DatasetError(
            f"target_nodes must be >= 1, got {target_nodes}"
        )
    overrides.setdefault("rare_token_period", RARE_TOKEN_PERIOD)
    probe = generate_dblp(
        num_authors=_PROBE_AUTHORS, seed=seed, **overrides
    )
    per_author = max(1.0, (len(probe) - 1) / _PROBE_AUTHORS)
    return max(1, round(target_nodes / per_author))


def corpus_for_nodes(target_nodes, seed=7, **overrides):
    """A synthetic DBLP tree of approximately ``target_nodes`` nodes.

    The paging benchmark's corpus factory: one partition per author as
    always, just enough authors to hit the node target.  Determinism
    carries over from :func:`repro.datasets.dblp.generate_dblp` — the
    same (target, seed, overrides) triple always builds the identical
    tree, so frozen snapshots of a given size are reproducible.
    """
    overrides.setdefault("rare_token_period", RARE_TOKEN_PERIOD)
    authors = authors_for_nodes(target_nodes, seed=seed, **overrides)
    return generate_dblp(num_authors=authors, seed=seed, **overrides)
