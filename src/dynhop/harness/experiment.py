"""Experiment orchestration: dataset resolution, Monte-Carlo runs, reports."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .. import __version__
from ..edge_dynamics import NodeSignalSeries
from ..estimators import EstimatorConfig, ObservationStream, run_estimation
from ..graphs import StaticGraph, graph_from_csv
from .data import (
    DataError,
    GraphBuildSpec,
    SplitSpec,
    build_initial_graph,
    ingest_csv,
    normalize_by_train_mean,
)
from .metrics import AlgorithmMetrics, MetricsReport, mse_curve
from .simulate import NoiseMaskSpec, simulate_observations
from .synthetic import SyntheticSpec, make_synthetic_dataset

__all__ = [
    "DatasetSpec",
    "run_experiment",
    "write_reports",
    "brain_preset",
    "stock_preset",
]


@dataclass(frozen=True)
class DatasetSpec:
    """Where the series comes from and how to prepare it.

    Exactly one of ``series_csv`` / ``synthetic`` must be set. ``graph``
    selects the static topology: "build" derives it from training-window
    correlations, "generator" reuses the synthetic generator's graph, any
    other string is read as an edge-list CSV path.
    """

    splits: SplitSpec
    series_csv: str | None = None
    synthetic: SyntheticSpec | None = None
    graph: str = "build"
    normalize: bool = True

    def __post_init__(self) -> None:
        if (self.series_csv is None) == (self.synthetic is None):
            raise ValueError("set exactly one of series_csv / synthetic")
        if self.graph == "generator" and self.synthetic is None:
            raise ValueError('graph="generator" requires a synthetic dataset')


def _resolve_dataset(
    dataset: DatasetSpec, graph_build: GraphBuildSpec
) -> tuple[NodeSignalSeries, StaticGraph, SplitSpec]:
    generator_graph: StaticGraph | None = None
    if dataset.synthetic is not None:
        generator_graph, series = make_synthetic_dataset(dataset.synthetic)
    else:
        series = ingest_csv(dataset.series_csv)
    try:
        splits = dataset.splits.resolve(series.steps)
    except ValueError as err:
        raise DataError(
            f"dataset.splits test range {dataset.splits.test} does not fit the "
            f"{series.steps}-step series: {err}"
        ) from None
    if dataset.normalize:
        series = normalize_by_train_mean(series, splits)
    if dataset.graph == "build":
        graph = build_initial_graph(
            NodeSignalSeries(series.values[splits.rows("train")], labels=series.labels),
            graph_build,
        )
    elif dataset.graph == "generator":
        graph = generator_graph
    else:
        try:
            graph = graph_from_csv(dataset.graph)
        except ValueError as err:  # its message names the file
            raise DataError(str(err)) from None
        if graph.node_count != series.node_count:
            raise DataError(
                f"graph CSV {dataset.graph} has {graph.node_count} nodes, "
                f"series has {series.node_count}"
            )
    return series, graph, splits


def run_experiment(
    dataset: DatasetSpec,
    noise: NoiseMaskSpec,
    algorithms: Sequence[EstimatorConfig],
    graph_build: GraphBuildSpec = GraphBuildSpec(),
    split: str = "test",
) -> MetricsReport:
    """R seeded runs of every algorithm on one split of one dataset.

    The R noisy streams are simulated once and shared by every algorithm;
    each algorithm advances its R runs together in one ``run_estimation``
    call over the stacked (R, T, N) stream, so memory grows as R x T x N.

    Noise variance follows the training-split signal variance regardless of
    the evaluated split, so sweeps on the validation split (e.g. step-size
    or threshold selection) see the same noise level as the test split.
    Aggregation reduces runs in index order; the result is deterministic for
    a fixed (dataset, noise, config) triple.
    """
    series, graph, splits = _resolve_dataset(dataset, graph_build)
    rows = splits.rows(split)
    truth = series.values[rows]
    if truth.shape[0] < 1:
        raise ValueError(f"{split} split is empty")
    truth_series = NodeSignalSeries(truth, labels=series.labels)
    train_var = series.values[splits.rows("train")].var(axis=0, ddof=1)

    stream = ObservationStream.stack(
        [
            simulate_observations(truth_series, noise, r, signal_variance=train_var)
            for r in range(noise.runs)
        ]
    )
    n = graph.node_count
    results = []
    for cfg in algorithms:
        trace = run_estimation(stream, graph, cfg, ground_truth=truth_series)
        results.append(
            AlgorithmMetrics(
                label=cfg.name,
                mse=mse_curve(trace.estimates, truth),
                avg_degree=np.mean(2.0 * trace.edge_counts.astype(float) / n, axis=0),
                runs=noise.runs,
                diverged_runs=sum(trace.diverged),
            )
        )
    times = np.arange(rows.start + 1, rows.stop + 1)
    return MetricsReport(times=times, algorithms=tuple(results))


def _write_curve(path: Path, times: np.ndarray, column: str, values: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", column])
        for t, v in zip(times, values):
            writer.writerow([int(t), repr(float(v))])


def write_reports(report: MetricsReport, out_dir: str | Path, config: dict | None = None) -> list[Path]:
    """One CSV per (algorithm, metric) plus a manifest JSON.

    The manifest captures the fully resolved configuration, the library
    version, and per-algorithm run/divergence counts. Identical inputs
    produce byte-identical files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for algo in report.algorithms:
        mse_path = out / f"{algo.label}_mse.csv"
        _write_curve(mse_path, report.times, "mse", algo.mse)
        written.append(mse_path)
        deg_path = out / f"{algo.label}_degree.csv"
        _write_curve(deg_path, report.times, "avg_degree", algo.avg_degree)
        written.append(deg_path)
    manifest = {
        "version": __version__,
        "config": config,
        "results": {
            algo.label: {"runs": algo.runs, "diverged_runs": algo.diverged_runs}
            for algo in report.algorithms
        },
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    written.append(manifest_path)
    return written


def brain_preset() -> dict:
    """Config template for the brain-network protocol.

    111-node series, splits [1,40]/[41,60]/[61,end], per-node training-mean
    normalization, top-3 / 0.95 graph build, window 10, 6 hops, ideal
    low-pass at 0.4 of the spectrum, adaptive steps (0.8, 3.5) for the
    dynamic algorithm and fixed 0.9 for the baselines, 100 runs. SNR is
    meant to be swept over {3, 5, 10}; the missing fraction defaults to 0.3.
    Fill in dataset.series_csv before running.
    """
    filt = {"kind": "ideal-band-limited", "passband_fraction": 0.4}
    window = {"window": 10, "stride": 1}
    prune = {"threshold": 0.2, "metric": "weight-magnitude"}
    fixed = {"kind": "fixed", "mu": 0.9}
    algos = [
        {
            "algorithm": "dynamic-multihop",
            "filter": filt,
            "step": {"kind": "residual-adaptive", "mu_min": 0.8, "mu_max": 3.5},
            "hops": 6,
            "prune": prune,
            "window": window,
        }
    ]
    for name in ("glms", "gdlms", "glmp", "gsign", "gsd", "sgm-then-glms", "glms-then-sgm"):
        entry = {"algorithm": name, "filter": filt, "step": dict(fixed), "window": window}
        if name in ("sgm-then-glms", "glms-then-sgm"):
            entry["prune"] = {"threshold": 0.8, "metric": "weight-magnitude"}
        algos.append(entry)
    return {
        "dataset": {
            "series_csv": None,
            "splits": {"train": [1, 40], "validation": [41, 60], "test": [61, None]},
            "graph": "build",
            "normalize": True,
        },
        "graph_build": {"top_k": 3, "abs_corr_threshold": 0.95},
        "noise": {"snr": 3.0, "missing_fraction": 0.3, "seed": 0, "runs": 100},
        "algorithms": algos,
    }


def stock_preset() -> dict:
    """Config template for the stock-index protocol.

    26-node series over 1238 steps, splits [1,200]/[201,400]/[401,end],
    SNR 3 with 30% missing observations, fixed step 0.4 for baselines and
    adaptive (0.2, 0.6) for the dynamic algorithm.
    """
    cfg = brain_preset()
    cfg["dataset"]["splits"] = {"train": [1, 200], "validation": [201, 400], "test": [401, None]}
    cfg["noise"] = {"snr": 3.0, "missing_fraction": 0.3, "seed": 0, "runs": 100}
    for algo in cfg["algorithms"]:
        if algo["step"]["kind"] == "fixed":
            algo["step"]["mu"] = 0.4
        else:
            algo["step"] = {"kind": "residual-adaptive", "mu_min": 0.2, "mu_max": 0.6}
    return cfg
