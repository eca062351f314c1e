"""Robust aggregation and attack tooling for distributed SGD experiments.

The top level holds the grid workflow (parse, expand, run, report) and the
pipeline builders of the README's library example; everything else is
imported from its module.
"""

from .aggregators import AggregatorSpec
from .attacks import ATTACK_NAMES, sign_flipping
from .benchmark import expand_grid, list_results, parse_config, run_benchmark, run_single
from .datadist import DISTRIBUTION_NAMES
from .evaluate import emit_curves, emit_heatmaps, worst_case_maximal_accuracy
from .models import load_idx
from .preaggregators import PRE_AGGREGATOR_NAMES, PreAggregatorSpec, build_pipeline

__version__ = "0.1.0"

__all__ = [
    "ATTACK_NAMES",
    "DISTRIBUTION_NAMES",
    "PRE_AGGREGATOR_NAMES",
    "AggregatorSpec",
    "PreAggregatorSpec",
    "build_pipeline",
    "emit_curves",
    "emit_heatmaps",
    "expand_grid",
    "list_results",
    "load_idx",
    "parse_config",
    "run_benchmark",
    "run_single",
    "sign_flipping",
    "worst_case_maximal_accuracy",
]
