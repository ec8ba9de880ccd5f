"""Indexing substrate: inverted lists, frequency tables, statistics.

Implements Section VII's three indexes — keyword inverted lists, the
frequent table and the co-occur frequency table — on top of the
:mod:`repro.storage` store, plus the one-pass builder that fills them
and the one on-disk format family (frozen snapshots and the deltas
that stack on them) that persists them.
"""

from .builder import DocumentIndex, build_document_index
from .cooccur import CooccurrenceTable
from .frequency import FrequencyTable
from .delta import compact, load_index_chain, resolve_chain, save_delta
from .frozen import FrozenSnapshot, freeze_index, load_frozen_index
from .persist import open_index_source
from .inverted import InvertedIndex, InvertedList, Posting
from .statistics import StatisticsTable, TypeStatistics
from .update import append_partition, remove_partition
from .tokenize_text import extract_terms, node_keywords, normalize_term, query_terms

__all__ = [
    "DocumentIndex",
    "freeze_index",
    "load_frozen_index",
    "open_index_source",
    "FrozenSnapshot",
    "save_delta",
    "load_index_chain",
    "resolve_chain",
    "compact",
    "append_partition",
    "remove_partition",
    "build_document_index",
    "InvertedIndex",
    "InvertedList",
    "Posting",
    "FrequencyTable",
    "CooccurrenceTable",
    "StatisticsTable",
    "TypeStatistics",
    "extract_terms",
    "node_keywords",
    "normalize_term",
    "query_terms",
]
