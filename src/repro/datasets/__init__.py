"""Synthetic corpora standing in for the paper's DBLP and Baseball data.

Both generators are deterministic given a seed and produce
:class:`~repro.xmltree.tree.XMLTree` objects directly (no text
round-trip needed); :mod:`repro.datasets.scaling` slices them for the
data-size sweep of Fig. 6.
"""

from .baseball import BaseballConfig, generate_baseball
from .dblp import DBLPConfig, generate_dblp
from .scaling import (
    DEFAULT_FRACTIONS,
    DEFAULT_NODE_TARGETS,
    SMOKE_NODE_TARGETS,
    authors_for_nodes,
    corpus_for_nodes,
    scaled_series,
    scaled_subtree,
)
from .vocabulary import AREAS, area_terms

__all__ = [
    "DBLPConfig",
    "generate_dblp",
    "BaseballConfig",
    "generate_baseball",
    "scaled_subtree",
    "scaled_series",
    "DEFAULT_FRACTIONS",
    "DEFAULT_NODE_TARGETS",
    "SMOKE_NODE_TARGETS",
    "authors_for_nodes",
    "corpus_for_nodes",
    "AREAS",
    "area_terms",
]
