"""Evaluation metrics: per-step MSE over runs and per-algorithm report curves."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["AlgorithmMetrics", "MetricsReport", "mse_curve"]


@dataclass(frozen=True)
class AlgorithmMetrics:
    """Aggregated curves for one algorithm over R runs."""

    label: str
    mse: np.ndarray
    avg_degree: np.ndarray
    runs: int
    diverged_runs: int


@dataclass(frozen=True)
class MetricsReport:
    """One experiment's worth of per-algorithm curves.

    ``times`` holds the absolute 1-based step indices of the evaluated
    window, so curves line up with the original series.
    """

    times: np.ndarray
    algorithms: tuple[AlgorithmMetrics, ...]

    def by_label(self, label: str) -> AlgorithmMetrics:
        for a in self.algorithms:
            if a.label == label:
                return a
        raise KeyError(label)


def mse_curve(traces: Sequence, ground_truth: np.ndarray) -> np.ndarray:
    """Per-step mean squared error, averaged over nodes and runs.

    ``traces`` holds the runs' (T, N) estimates: a sequence of arrays, or
    the (R, T, N) estimates of a stacked trace. All runs must match the
    ground truth's shape.
    """
    if len(traces) < 1:
        raise ValueError("need at least one run")
    truth = np.asarray(ground_truth, dtype=float)
    stack = np.asarray(traces, dtype=float)
    if stack.shape[1:] != truth.shape:
        raise ValueError(f"estimates shape {stack.shape} does not match (R,) + truth {truth.shape}")
    return np.mean((stack - truth[None]) ** 2, axis=(0, 2))
