"""Analytical models: §5 complexity formulas and Erlang-B theory."""

from .complexity import (
    MODELS,
    ModelParams,
    SchemeModel,
    adaptive,
    advanced_update,
    basic_search,
    basic_update,
    bounds_table,
    fixed,
    low_load_table,
)
from .erlang import erlang_b, offered_load_for_blocking
from .occupancy import XiPrediction, predict_xi, truncated_poisson_pmf
from .planning import expected_blocked_traffic, marginal_allocation, plan_partition

__all__ = [
    "ModelParams",
    "SchemeModel",
    "MODELS",
    "basic_search",
    "basic_update",
    "advanced_update",
    "adaptive",
    "fixed",
    "low_load_table",
    "bounds_table",
    "erlang_b",
    "offered_load_for_blocking",
    "truncated_poisson_pmf",
    "predict_xi",
    "XiPrediction",
    "marginal_allocation",
    "plan_partition",
    "expected_blocked_traffic",
]
