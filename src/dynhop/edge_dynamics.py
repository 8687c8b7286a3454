"""Time-varying edge weights from sliding-window correlation of node signals.

Row t of :func:`sliding_abs_correlation` holds the absolute Pearson
correlation of each pair over the trailing window ending at t. Absolute
values keep weights non-negative (a Laplacian requirement) while retaining
both positively and negatively coupled pairs. The online estimators score
step t from the window ending at t - 1, the strictly causal history.

Two functions compute the same scores for different callers:

- :func:`sliding_abs_correlation` scores the requested pairs over every
  window of a whole series. Each pair accumulates its window products in
  offset order, so its score has the same bits whichever other pairs are
  requested with it, and a call costs O(pairs x window) per window. The
  online dynamic-multihop rule calls it on the base edges alone when it
  reads nothing else.
- :func:`window_abs_correlation` maps one window to the symmetric (N, N)
  matrix over every pair. It centres the contiguous (w, N) window once and
  sums the products with one ``np.einsum("ki,kj->ij", c, c)``, which adds
  them in the same offset order, rounding each product before adding it,
  so each entry has the bits of that pair's per-pair score. (A numpy build
  whose einsum fused multiply and add would break this;
  ``tests/test_edge_dynamics.py`` checks for it.) It costs O(N^2 x window)
  and serves the online rules that read every pair: the sgm threshold, and
  dynamic-multihop when it prunes or weights latent edges by correlation.

Warm-up: rows before the first full window repeat the first defined row
(constant extrapolation backward). Zero-variance windows score 0 — no
evidence of interaction. Both policies keep every weight in [0, 1] and every
derived Laplacian valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "WindowSpec",
    "NodeSignalSeries",
    "sliding_abs_correlation",
    "window_abs_correlation",
]


@dataclass(frozen=True)
class WindowSpec:
    """Trailing window length for sliding statistics.

    ``stride`` is kept so existing configs and manifests that carry
    ``"stride": 1`` still load; any other value is rejected.
    """

    window: int
    stride: int = 1

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError("window must be >= 2 (correlation needs at least two samples)")
        if self.stride != 1:
            raise ValueError(
                f"stride must be 1, got {self.stride}: online estimation refreshes edge "
                "weights every step"
            )


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


def sliding_abs_correlation(
    series: NodeSignalSeries,
    spec: WindowSpec,
    pairs: Sequence[tuple[int, int]],
) -> np.ndarray:
    """Absolute windowed Pearson correlation for each requested node pair.

    Returns an array of shape (T, len(pairs)); row t holds the scores of
    the window ending at step t.
    """
    x = series.values
    t_total, n = x.shape
    w = spec.window
    if t_total < w:
        raise ValueError(f"series has {t_total} steps, window needs {w}")
    index = np.asarray(pairs, dtype=int).reshape(-1, 2)
    if index.size and (index.min() < 0 or index.max() >= n):
        outside = np.flatnonzero(np.any((index < 0) | (index >= n), axis=1))
        i, j = index[outside[0]]
        raise ValueError(f"pair ({i}, {j}) references a node outside 0..{n - 1}")
    ii, jj = index[:, 0], index[:, 1]

    windows = sliding_window_view(x, w, axis=0)  # (T - w + 1, N, w)
    centered = windows - windows.mean(axis=2, keepdims=True)
    sumsq = np.einsum("tnw,tnw->tn", centered, centered)
    # exact-constant windows have zero spread; their correlation is undefined
    # and scored 0
    flat = np.ptp(windows, axis=2) == 0.0

    out = np.empty((t_total, len(index)))
    scores = out[w - 1 :]
    # window products accumulate in offset order
    np.multiply(centered[:, ii, 0], centered[:, jj, 0], out=scores)
    for k in range(1, w):
        scores += centered[:, ii, k] * centered[:, jj, k]
    ok = ~(flat[:, ii] | flat[:, jj])
    scores[ok] = np.abs(scores[ok]) / np.sqrt(sumsq[:, ii][ok] * sumsq[:, jj][ok])
    scores[~ok] = 0.0
    np.clip(scores, 0.0, 1.0, out=scores)
    out[: w - 1] = scores[0]
    return out


def window_abs_correlation(rows: np.ndarray) -> np.ndarray:
    """Symmetric (N, N) absolute Pearson correlation of one (w, N) window.

    Entry (i, j) has the bits of the last row of
    ``sliding_abs_correlation`` for pair (i, j) over the same window; the
    diagonal is 0. ``rows`` must be finite; it is not checked here.
    """
    centered = rows - rows.mean(axis=0)  # contiguous (w, N)
    sumsq = np.einsum("ki,ki->i", centered, centered)
    flat = np.ptp(rows, axis=0) == 0.0

    # einsum adds the window products in offset order, one (N, N) matrix
    products = np.einsum("ki,kj->ij", centered, centered)
    ok = ~np.logical_or.outer(flat, flat)
    np.fill_diagonal(ok, False)
    scores = np.zeros_like(products)
    np.divide(np.abs(products), np.sqrt(np.multiply.outer(sumsq, sumsq)), out=scores, where=ok)
    return np.clip(scores, 0.0, 1.0, out=scores)
