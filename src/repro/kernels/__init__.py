"""Batch scan kernels over the posting lists' columns.

The refinement algorithms' inner loops — merged cursor scans, per-node
LCA arithmetic, per-partition slicing — are replaced here by batch
operations over columnar views of the inverted lists:

* :mod:`.columns` — per-list partition tables and flat component
  arrays; the merged :func:`partition_view` Algorithm 2 iterates.
* :mod:`.slca` — columnar Scan Eager: candidate depths for a whole
  anchor range per matcher sweep, Definition 3.3 applied as results
  are emitted.
* :mod:`.hits` — results kept as ``(column, position, depth)``
  entries (:class:`HitRecord`) until read; their labels rendered in
  one call.
* :mod:`.lcp` — the merged-stream adjacent-LCP table that makes the
  stack route's LCA depth an indexed lookup (pure Python: the stack
  route is reference code, not a served path).
* :mod:`.scoring` — the short-list route's step 1: partition presence
  as a merge-join over flat tables, then one round per anchor (Top-2K
  admission included) and the direct finish.  Its
  ``score_table`` / ``batch_similarity`` / ``batch_dependence`` are
  not kernels: they delegate to the ranking model
  (:mod:`repro.core.ranking`) and keep the names the wire benchmark
  times scoring by.
* :mod:`.bounds` — presence bounds memoized by block bitmask (the
  WAND-style skip pre-check).
* :mod:`.ancestors` — the co-occurrence count ``f_{ki,kj}^T`` of two
  lists as one forward merge of their key columns.
* :mod:`.backend` — compiled (cffi + cc) fast path selection with a
  pure-Python fallback; ``REPRO_NO_COMPILED_KERNELS=1`` forces the
  fallback.

Every kernel is byte-identical to the loop it replaced; the
``kernel:*`` comparisons of ``verify-diff`` hold both paths to that.
"""

from .backend import backend_name, compiled  # noqa: F401
from .bounds import PresenceBoundCache  # noqa: F401
from .hits import HitRecord  # noqa: F401
from .columns import (  # noqa: F401
    ListColumns,
    columns_for,
    partition_view,
)
from .lcp import merged_lcp  # noqa: F401
from .scoring import (  # noqa: F401
    RoundState,
    RuleTable,
    batch_dependence,
    batch_similarity,
    partition_presence,
    presence_ready,
    score_table,
    sle_direct,
    sle_round,
)
from .slca import (  # noqa: F401
    slca_columns,
    slca_hits,
    slca_ranges,
)

__all__ = [
    "HitRecord",
    "ListColumns",
    "PresenceBoundCache",
    "RoundState",
    "RuleTable",
    "backend_name",
    "batch_dependence",
    "batch_similarity",
    "columns_for",
    "compiled",
    "merged_lcp",
    "partition_presence",
    "partition_view",
    "presence_ready",
    "score_table",
    "sle_direct",
    "sle_round",
    "slca_columns",
    "slca_hits",
    "slca_ranges",
]
