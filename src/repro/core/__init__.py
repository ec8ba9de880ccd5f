"""The paper's primary contribution: automatic keyword query refinement.

Contains the ``getOptimalRQ`` dynamic program (Section V), the three
one-scan refinement algorithms (Section VI), the ranking model
(Section IV) and the :class:`~repro.core.engine.XRefine` facade tying
them to the index substrate.
"""

from .baselines import cleaned_query_has_meaningful_result, or_search, static_clean
from .candidates import RefinedQuery, RQSortedList
from .common import QueryContext
from .dp import dissimilarity, get_optimal_rq, get_top_optimal_rqs
from .engine import ALGORITHMS, XRefine
from .partition_refine import partition_refine
from .ranking import RankingModel, full_model, variant_without_guideline
from .result import RankedRefinement, RefinementResponse, ScanStats
from .short_list_eager import short_list_eager
from .stack_refine import stack_refine

__all__ = [
    "XRefine",
    "ALGORITHMS",
    "RefinedQuery",
    "RQSortedList",
    "QueryContext",
    "get_optimal_rq",
    "get_top_optimal_rqs",
    "dissimilarity",
    "stack_refine",
    "partition_refine",
    "short_list_eager",
    "RankingModel",
    "full_model",
    "variant_without_guideline",
    "RankedRefinement",
    "RefinementResponse",
    "ScanStats",
    "or_search",
    "static_clean",
    "cleaned_query_has_meaningful_result",
]
