"""Query workloads: controlled corruption, pools, synthetic traffic.

Reconstructs the paper's experimental query pool (219 refinable + 100
clean queries drawn from a live demo log) synthetically, with ground
truth attached to every query so the effectiveness experiments can be
scored without human judges.
"""

from .corruption import (
    ACRONYM,
    ALL_KINDS,
    CORRUPTORS,
    MERGE,
    OVERCONSTRAIN,
    SPLIT,
    SYNONYM,
    TYPO,
    corrupt_acronym,
    corrupt_merge,
    corrupt_overconstrain,
    corrupt_split,
    corrupt_synonym,
    corrupt_typo,
)
from .generator import PoolQuery, WorkloadGenerator, pool_statistics
from .replay import (
    ReplayReport,
    TrafficLog,
    replay_traffic,
    synthesize_traffic,
)

__all__ = [
    "WorkloadGenerator",
    "PoolQuery",
    "pool_statistics",
    "TrafficLog",
    "ReplayReport",
    "synthesize_traffic",
    "replay_traffic",
    "corrupt_split",
    "corrupt_merge",
    "corrupt_typo",
    "corrupt_synonym",
    "corrupt_acronym",
    "corrupt_overconstrain",
    "CORRUPTORS",
    "ALL_KINDS",
    "SPLIT",
    "MERGE",
    "TYPO",
    "SYNONYM",
    "ACRONYM",
    "OVERCONSTRAIN",
]
