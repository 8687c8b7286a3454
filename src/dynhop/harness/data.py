"""CSV ingestion, split bookkeeping, normalization, and correlation-based
initial graph construction."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .._loadtxt import DataError, numeric_table, write_rows
from ..edge_dynamics import NodeSignalSeries, window_abs_correlation
from ..graphs import StaticGraph

logger = logging.getLogger(__name__)

__all__ = [
    "DataError",
    "SplitSpec",
    "GraphBuildSpec",
    "ingest_csv",
    "series_to_csv",
    "normalize_by_train_mean",
    "build_initial_graph",
]


def ingest_csv(path: str | Path) -> NodeSignalSeries:
    """Read a rectangular numeric CSV: header of node labels, one row per step.

    Blank lines are skipped and a UTF-8 byte order mark is dropped. The file
    is opened and read once (``dynhop._loadtxt.numeric_table``): the data
    rows are parsed in one ``np.loadtxt`` pass, and the same lines go to the
    package's CSV row reader only where that pass refuses them, with the
    same values where both accept. Every error is a ``DataError`` whose
    message starts with ``path``: a file that is empty, has no data rows or
    is not UTF-8, the 1-based file line of the first row without one cell
    per label, or the line and column of the first cell that is not a
    finite number.
    """
    header, values = numeric_table(path, finite=True)
    return NodeSignalSeries(values, labels=tuple(header))


def series_to_csv(series: NodeSignalSeries, path: str | Path) -> None:
    """Write a series as UTF-8 CSV, the encoding :func:`ingest_csv` reads."""
    labels = series.labels or tuple(f"node{i}" for i in range(series.node_count))
    write_rows(path, labels, ([repr(float(v)) for v in row] for row in series.values))


def _check_split(name: str) -> None:
    """Reject a split name other than train, validation or test."""
    if name not in ("train", "validation", "test"):
        raise ValueError(f"unknown split {name!r}; expected train, validation or test")


@dataclass(frozen=True)
class SplitSpec:
    """Train/validation/test ranges as 1-based inclusive [start, end] pairs.

    Ranges must be ordered and disjoint, and train must hold at least 2
    steps (the noise variance and the initial graph each need 2 rows). The
    test end may be None, meaning "through the last step"; it is resolved
    once the series length is known.
    """

    train: tuple[int, int]
    validation: tuple[int, int]
    test: tuple[int, int | None]

    def __post_init__(self) -> None:
        tr, va, te = self.train, self.validation, self.test
        if tr[0] < 1 or tr[1] < tr[0]:
            raise ValueError(f"bad train range {tr}")
        if tr[1] == tr[0]:
            raise ValueError(f"train range {tr} holds 1 step; it needs at least 2")
        if va[0] <= tr[1] or va[1] < va[0]:
            raise ValueError(f"validation range {va} must follow train {tr}")
        if te[0] <= va[1] or (te[1] is not None and te[1] < te[0]):
            raise ValueError(f"test range {te} must follow validation {va}")

    def resolve(self, total_steps: int) -> "SplitSpec":
        """Pin an open test end; a test range past the series is a ``DataError``."""
        start, end = self.test
        end = total_steps if end is None else end
        if max(start, end) > total_steps:
            where = f"starts at step {start}" if start > total_steps else f"ends at {end}"
            raise DataError(
                f"dataset.splits test range {self.test} does not fit the {total_steps}-step "
                f"series: test range {where} but series has {total_steps} steps"
            )
        return SplitSpec(self.train, self.validation, (start, end))

    def rows(self, name: str) -> slice:
        """0-based half-open row slice for a named split."""
        _check_split(name)
        start, end = getattr(self, name)
        if end is None:
            raise ValueError("resolve() the spec before slicing an open test range")
        return slice(start - 1, end)


def normalize_by_train_mean(series: NodeSignalSeries, splits: SplitSpec) -> NodeSignalSeries:
    """Divide each node by its training-split mean.

    Nodes whose training mean is (numerically) zero pass through unscaled
    with a logged warning; dividing by it would be meaningless.
    """
    if splits.train[1] > series.steps:
        raise DataError(f"train range {splits.train} ends past the {series.steps}-step series")
    train = series.values[splits.rows("train")]
    means = train.mean(axis=0)
    scale_floor = 1e-12 * np.maximum(1.0, np.abs(train).max(axis=0))
    degenerate = np.abs(means) <= scale_floor
    if np.any(degenerate):
        which = np.flatnonzero(degenerate)
        names = [series.labels[i] if series.labels else str(i) for i in which]
        logger.warning("train mean is zero for node(s) %s; leaving them unscaled", names)
    divisor = np.where(degenerate, 1.0, means)
    return NodeSignalSeries(series.values / divisor, labels=series.labels)


@dataclass(frozen=True)
class GraphBuildSpec:
    """Connect each node to its top-k most |correlated| partners, plus every
    pair above an absolute-correlation threshold."""

    top_k: int = 3
    abs_corr_threshold: float = 0.95

    def __post_init__(self) -> None:
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if not 0.0 <= self.abs_corr_threshold <= 1.0:
            raise ValueError("abs_corr_threshold must lie in [0, 1]")


def build_initial_graph(series: NodeSignalSeries, spec: GraphBuildSpec) -> StaticGraph:
    """Sparse static graph from training-window correlations.

    The training rows are scored as one window by ``window_abs_correlation``,
    the kernel that scores every window; a node that is exactly constant
    there scores 0 with every partner. Edge set is the union of each node's
    top-k partners by |correlation| and all pairs whose |correlation|
    strictly exceeds the threshold. Weights are the |correlation| values.
    top_k is clipped to n-1 on small graphs, so two nodes always yield their
    single possible edge. Among partners of equal |correlation| the lower
    node index ranks first. Fewer than 2 nodes or 2 rows raise ``DataError``.
    """
    values = series.values
    t_len, n = values.shape
    if n < 2:
        raise DataError(f"need at least 2 nodes to build a graph, got {n}")
    if t_len < 2:
        raise DataError(f"need at least 2 samples to correlate, got {t_len}")
    absc = window_abs_correlation(values)

    k = min(spec.top_k, n - 1)
    rank_key = -absc
    np.fill_diagonal(rank_key, np.inf)  # a node is never its own partner: rank it last
    partners = np.argsort(rank_key, axis=1, kind="stable")[:, :k]
    top = np.zeros((n, n), dtype=bool)
    np.put_along_axis(top, partners, True, axis=1)
    rows, cols = np.nonzero(np.triu(top | top.T | (absc > spec.abs_corr_threshold), 1))
    return StaticGraph(n, np.column_stack((rows, cols)), absc[rows, cols])
