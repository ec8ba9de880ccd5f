"""XRefine — automatic XML keyword query refinement.

A from-scratch reproduction of *"Automatic XML Keyword Query
Refinement"* (Bao, Lu, Ling, Meng; 2009): SLCA keyword search over XML
that detects queries with no meaningful result and — within a single
scan of the keyword inverted lists — finds, ranks and answers the
Top-K refined queries closest to the user's intent.

Quickstart::

    from repro import XRefine

    engine = XRefine.from_xml(xml_text)
    response = engine.search("on line data base", k=3)
    for refinement in response.refinements:
        print(refinement.keywords, refinement.result_count)

Subpackages
-----------
``repro.core``
    The refinement algorithms, ranking model and engine facade.
``repro.xmltree``
    XML parsing, Dewey labels and the labeled-tree data model.
``repro.storage``
    Key and posting codecs, sorted blocks, the one overlay key-value
    store (Berkeley DB stand-in).
``repro.index``
    Inverted lists, frequency/co-occurrence tables, one-pass builder,
    frozen snapshots and delta chains (the one on-disk format).
``repro.slca``
    The stack and scan SLCA baselines of Fig. 4, a brute-force
    reference, and the meaningful-SLCA semantics.
``repro.lexicon``
    Refinement rules, rule mining, edit distance, stemmer, thesaurus.
``repro.datasets``
    Synthetic DBLP and Baseball corpus generators.
``repro.workload``
    Query pools with controlled corruption and ground-truth intents.
``repro.eval``
    Cumulated-gain evaluation, simulated judges, timing harness.
"""

from .core import (
    RankedRefinement,
    RankingModel,
    RefinedQuery,
    RefinementResponse,
    XRefine,
    full_model,
    get_optimal_rq,
    get_top_optimal_rqs,
    partition_refine,
    short_list_eager,
    stack_refine,
    variant_without_guideline,
)
from .errors import (
    DatasetError,
    EvaluationError,
    IndexingError,
    QueryError,
    RefinementError,
    ReproError,
    RuleError,
    StorageError,
    XMLError,
    XMLSyntaxError,
)
from .index import DocumentIndex, build_document_index
from .lexicon import RuleMiner, RuleSet
from .xmltree import Dewey, XMLTree, parse, parse_file

__version__ = "1.0.0"

__all__ = [
    "XRefine",
    "RefinementResponse",
    "RankedRefinement",
    "RefinedQuery",
    "RankingModel",
    "full_model",
    "variant_without_guideline",
    "get_optimal_rq",
    "get_top_optimal_rqs",
    "stack_refine",
    "partition_refine",
    "short_list_eager",
    "DocumentIndex",
    "build_document_index",
    "RuleMiner",
    "RuleSet",
    "Dewey",
    "XMLTree",
    "parse",
    "parse_file",
    "ReproError",
    "XMLError",
    "XMLSyntaxError",
    "StorageError",
    "IndexingError",
    "QueryError",
    "RuleError",
    "RefinementError",
    "DatasetError",
    "EvaluationError",
    "__version__",
]
