"""Experiment harness: data ingestion, simulation, metrics, orchestration, CLI."""

from .data import (
    DataError,
    EmptyCsvError,
    GraphBuildSpec,
    NonNumericCellError,
    RaggedRowError,
    SplitSpec,
    build_initial_graph,
    ingest_csv,
    normalize_by_train_mean,
    series_to_csv,
)
from .experiment import DatasetSpec, brain_preset, run_experiment, stock_preset, write_reports
from .metrics import AlgorithmMetrics, MetricsReport, mse_curve
from .simulate import NoiseMaskSpec, simulate_observations
from .synthetic import SyntheticSpec, make_synthetic_dataset, regime_active_pairs, regime_segments

__all__ = [
    "AlgorithmMetrics",
    "DataError",
    "DatasetSpec",
    "EmptyCsvError",
    "GraphBuildSpec",
    "MetricsReport",
    "NoiseMaskSpec",
    "NonNumericCellError",
    "RaggedRowError",
    "SplitSpec",
    "SyntheticSpec",
    "brain_preset",
    "build_initial_graph",
    "ingest_csv",
    "make_synthetic_dataset",
    "mse_curve",
    "normalize_by_train_mean",
    "regime_active_pairs",
    "regime_segments",
    "run_experiment",
    "series_to_csv",
    "simulate_observations",
    "stock_preset",
    "write_reports",
]
