"""Time-varying edge weights from sliding-window correlation of node signals.

The weight of an edge at step t is the absolute Pearson correlation of its
endpoints over the trailing window ending at t. Absolute values keep weights
non-negative (a Laplacian requirement) while retaining both positively and
negatively coupled pairs.

Warm-up: steps before the first full window repeat the first defined row
(constant extrapolation backward). Zero-variance windows score 0 — no
evidence of interaction. Both policies keep every weight in [0, 1] and every
derived Laplacian valid.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .graphs import StaticGraph, incidence

__all__ = [
    "WindowSpec",
    "NodeSignalSeries",
    "EdgeWeightSeries",
    "sliding_abs_correlation",
    "edge_weight_series",
    "time_varying_laplacian",
    "weights_to_csv",
]


@dataclass(frozen=True)
class WindowSpec:
    """Trailing window length and stride for sliding statistics."""

    window: int
    stride: int = 1

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError("window must be >= 2 (correlation needs at least two samples)")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")


@dataclass(frozen=True)
class NodeSignalSeries:
    """A (T, N) matrix of per-node signal values, one row per time step.

    Values must be finite; missingness is modeled downstream by observation
    masks, never by holes in the series itself.
    """

    values: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError(f"values must be 2-D (T, N), got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("series contains non-finite values")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != v.shape[1]:
                raise ValueError(f"{len(labels)} labels for {v.shape[1]} nodes")
            object.__setattr__(self, "labels", labels)

    @property
    def steps(self) -> int:
        return self.values.shape[0]

    @property
    def node_count(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class EdgeWeightSeries:
    """Per-step non-negative weights on a fixed edge set.

    ``edges`` is the canonical edge list shared with the originating
    :class:`StaticGraph`; column k of ``weights`` is the trajectory of edge
    k. Rows follow the stride of the window spec that produced them.
    """

    edges: tuple[tuple[int, int], ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[1] != len(self.edges):
            raise ValueError(f"weights shape {w.shape} does not match {len(self.edges)} edges")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("edge weights must be finite and >= 0")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "edges", tuple((int(i), int(j)) for i, j in self.edges))

    @property
    def steps(self) -> int:
        return self.weights.shape[0]


def sliding_abs_correlation(
    series: NodeSignalSeries,
    spec: WindowSpec,
    pairs: Sequence[tuple[int, int]],
) -> np.ndarray:
    """Absolute windowed Pearson correlation for each requested node pair.

    Returns an array of shape (ceil(T / stride), len(pairs)); row r holds the
    scores at step r * stride. Stride s output equals the stride-1 output
    subsampled at every s-th step.
    """
    x = series.values
    t_total, n = x.shape
    w = spec.window
    if t_total < w:
        raise ValueError(f"series has {t_total} steps, window needs {w}")
    index = np.asarray(pairs, dtype=int).reshape(-1, 2)
    outside = np.flatnonzero(np.any((index < 0) | (index >= n), axis=1))
    if outside.size:
        i, j = index[outside[0]]
        raise ValueError(f"pair ({i}, {j}) references a node outside 0..{n - 1}")
    ii, jj = index[:, 0], index[:, 1]

    windows = sliding_window_view(x, w, axis=0)  # (T - w + 1, N, w)
    centered = windows - windows.mean(axis=2, keepdims=True)
    sumsq = np.einsum("tnw,tnw->tn", centered, centered)
    # exact-constant windows have zero spread; their correlation is undefined
    # and scored 0
    flat = np.ptp(windows, axis=2) == 0.0

    # window products accumulate in offset order, so every score rounds the
    # same whichever pairs are requested with it
    num = centered[:, ii, 0] * centered[:, jj, 0]
    for k in range(1, w):
        num = num + centered[:, ii, k] * centered[:, jj, k]
    ok = ~(flat[:, ii] | flat[:, jj])
    defined = np.zeros(num.shape)
    defined[ok] = np.abs(num[ok]) / np.sqrt(sumsq[:, ii][ok] * sumsq[:, jj][ok])
    defined = np.clip(defined, 0.0, 1.0)

    full = np.vstack([np.repeat(defined[:1], w - 1, axis=0), defined])
    return full[:: spec.stride]


def edge_weight_series(
    g: StaticGraph, series: NodeSignalSeries, spec: WindowSpec
) -> EdgeWeightSeries:
    """Windowed |correlation| restricted to the graph's edge set.

    Correlations between non-adjacent pairs are simply never computed; the
    fixed edge set is what keeps the result sparse.
    """
    if series.node_count != g.node_count:
        raise ValueError(
            f"series has {series.node_count} nodes, graph has {g.node_count}"
        )
    scores = sliding_abs_correlation(series, spec, g.edges)
    return EdgeWeightSeries(g.edges, scores)


def time_varying_laplacian(g: StaticGraph, ws: EdgeWeightSeries, t: int) -> np.ndarray:
    """Laplacian of the fixed topology under the weights at step t."""
    if ws.edges != g.edges:
        raise ValueError("weight series edge set does not match the graph")
    if not 0 <= t < ws.steps:
        raise ValueError(f"step {t} outside 0..{ws.steps - 1}")
    b = incidence(g)
    return (b * ws.weights[t]) @ b.T


def weights_to_csv(ws: EdgeWeightSeries, path: str | Path) -> None:
    """Long-format dump: one row per (step, edge)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "edge_src", "edge_dst", "weight"])
        for t in range(ws.steps):
            for (i, j), w in zip(ws.edges, ws.weights[t]):
                writer.writerow([t, i, j, repr(float(w))])
