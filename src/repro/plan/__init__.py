"""Route bookkeeping for the three Section-VI refinement algorithms.

``algorithm="auto"`` runs Algorithm 3 (SLE) for every query;
:class:`~repro.plan.planner.QueryPlanner` holds the per-engine DP memos
and route counters, and :class:`~repro.plan.planner.QueryPlan` is the
record ``explain=True`` attaches to a response.
"""

from .planner import AUTO_ROUTE, FIXED_ROUTES, Calibration, QueryPlan, QueryPlanner

__all__ = [
    "AUTO_ROUTE",
    "Calibration",
    "FIXED_ROUTES",
    "QueryPlan",
    "QueryPlanner",
]
