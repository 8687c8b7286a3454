"""Experiment orchestration: dataset resolution, Monte-Carlo runs, reports."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .. import __version__
from .._loadtxt import numeric_table, write_rows
from ..edge_dynamics import NodeSignalSeries
from ..estimators import ALGORITHMS, LABEL, EstimatorConfig, ObservationStream, run_estimation
from ..graphs import StaticGraph, graph_from_csv
from .data import (
    DataError,
    GraphBuildSpec,
    SplitSpec,
    _check_split,
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
    "read_reports",
    "brain_preset",
    "stock_preset",
    "PRESETS",
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
    splits = dataset.splits.resolve(series.steps)
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
        graph = graph_from_csv(dataset.graph)
        if graph.node_count != series.node_count:
            raise DataError(
                f"graph CSV {dataset.graph} has {graph.node_count} nodes, "
                f"series has {series.node_count}"
            )
    return series, graph, splits


def _check_unique_labels(algorithms: Sequence[EstimatorConfig]) -> None:
    labels = [cfg.name for cfg in algorithms]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ValueError(f"algorithm labels must be unique; repeated: {repeated}")


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
    a fixed (dataset, noise, config) triple. Labels name the report files,
    so two algorithms with one label are rejected before any work, as is
    an unknown split name. An SNR whose noise scale reaches the estimators'
    divergence guard raises ``DataError`` before any estimation.
    """
    _check_unique_labels(algorithms)
    _check_split(split)
    series, graph, splits = _resolve_dataset(dataset, graph_build)
    rows = splits.rows(split)
    truth = series.values[rows]
    truth_series = NodeSignalSeries(truth, labels=series.labels)
    train_var = series.values[splits.rows("train")].var(axis=0, ddof=1)

    runs = [
        simulate_observations(truth_series, noise, r, signal_variance=train_var)
        for r in range(noise.runs)
    ]
    stream = ObservationStream.stack(runs)
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


# the report layout: per label one ``t,<column>`` CSV per curve, named
# ``<label>_<curve>.csv``, plus the manifest; each column names the
# ``AlgorithmMetrics`` field it holds
_CURVES = {"mse": "mse", "degree": "avg_degree"}
_MANIFEST = "manifest.json"


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
        for curve, column in _CURVES.items():
            path = out / f"{algo.label}_{curve}.csv"
            rows = ([int(t), repr(float(v))] for t, v in zip(report.times, getattr(algo, column)))
            write_rows(path, ["t", column], rows)
            written.append(path)
    manifest = {
        "version": __version__,
        "config": config,
        "results": {
            algo.label: {"runs": algo.runs, "diverged_runs": algo.diverged_runs}
            for algo in report.algorithms
        },
    }
    manifest_path = out / _MANIFEST
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    written.append(manifest_path)
    return written


def read_reports(out_dir: str | Path) -> tuple[dict, dict[str, dict[str, list[float]]]]:
    """The manifest that :func:`write_reports` left in ``out_dir`` and, per
    result label in sorted order, the values of each curve CSV found, keyed
    "mse" / "degree". Raises ``DataError`` on a malformed file or a label
    that would name a file outside ``out_dir``."""
    out = Path(out_dir)
    manifest_path = out / _MANIFEST
    if not manifest_path.exists():
        raise DataError(f"{manifest_path} not found; run an experiment first")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8-sig"))
    except ValueError as err:  # not UTF-8, or not JSON
        raise DataError(f"{manifest_path} is not valid JSON: {err}") from None
    if not isinstance(manifest, dict):
        raise DataError(f"{manifest_path}: top level must be a JSON object")
    results = manifest.get("results", {})
    if not (isinstance(results, dict) and all(isinstance(c, dict) for c in results.values())):
        raise DataError(f"{manifest_path}: results must map each label to a JSON object")
    curves: dict[str, dict[str, list[float]]] = {}
    for label in sorted(results):
        if not LABEL.fullmatch(label):
            raise DataError(f"{manifest_path}: label {label!r} must match {LABEL.pattern}")
        paths = {curve: out / f"{label}_{curve}.csv" for curve in _CURVES}
        # the value column of each ``t,<column>`` curve CSV written
        curves[label] = {
            c: numeric_table(p, width=2)[1][:, 1].tolist() for c, p in paths.items() if p.exists()
        }
    return manifest, curves


def brain_preset() -> dict:
    """Config template for the brain-network protocol on a 111-node series.

    The dynamic algorithm takes adaptive steps, every other one of
    ``ALGORITHMS`` a fixed step. SNR is meant to be swept over {3, 5, 10}.
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
    for name in [a for a in ALGORITHMS if a != "dynamic-multihop"]:
        entry = {"algorithm": name, "filter": filt, "step": dict(fixed), "window": window}
        if ALGORITHMS[name].topology == "threshold":
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
    """Config template for the stock-index protocol on a 26-node series over
    1238 steps: the brain protocol with its own splits and step sizes."""
    cfg = brain_preset()
    cfg["dataset"]["splits"] = {"train": [1, 200], "validation": [201, 400], "test": [401, None]}
    for algo in cfg["algorithms"]:
        if algo["step"]["kind"] == "fixed":
            algo["step"]["mu"] = 0.4
        else:
            algo["step"] = {"kind": "residual-adaptive", "mu_min": 0.2, "mu_max": 0.6}
    return cfg


PRESETS = {"brain": brain_preset, "stock": stock_preset}
