"""Cost-based adaptive query planning (``algorithm="auto"``).

The planner layers on top of the three Section-VI refinement
algorithms without changing any answer: a per-machine calibrated cost
model (:mod:`repro.plan.cost_model`) weighs per-query operation counts
(:mod:`repro.plan.features`) and :class:`~repro.plan.planner.QueryPlanner`
routes each query to the predicted cheapest algorithm, with a plan
cache and a recorded :class:`~repro.plan.planner.QueryPlan` surfaced by
``explain=True``.
"""

from .cost_model import (
    Calibration,
    DEFAULT_CALIBRATION,
    calibration_for,
    decode_calibration,
    dp_units,
    encode_calibration,
    micro_calibrate,
)
from .features import QueryFeatures, extract_features
from .planner import FIXED_ROUTES, PlanCache, QueryPlan, QueryPlanner

__all__ = [
    "Calibration",
    "DEFAULT_CALIBRATION",
    "FIXED_ROUTES",
    "PlanCache",
    "QueryFeatures",
    "QueryPlan",
    "QueryPlanner",
    "calibration_for",
    "decode_calibration",
    "dp_units",
    "encode_calibration",
    "extract_features",
    "micro_calibrate",
]
