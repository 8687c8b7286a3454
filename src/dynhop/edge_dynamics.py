"""Time-varying edge weights from sliding-window correlation of node signals.

Row t of :func:`sliding_abs_correlation` holds the absolute Pearson
correlation of each pair over the trailing window ending at t. Absolute
values keep weights non-negative (a Laplacian requirement) while retaining
both positively and negatively coupled pairs. The online estimators score
step t from the window ending at t - 1, the strictly causal history.

Two functions compute the same scores for different callers:

- :func:`sliding_abs_correlation` scores the requested pairs over every
  window of a whole series, one window at a time, through the same kernel
  that scores each online re-bind step's single window. The kernel gathers
  the centred values of each pair's endpoints (and of each node with
  itself, for its sum of squares) in one pass, and adds the products one
  offset after another, each rounded before it is added. So a pair's score
  has the same bits whichever other pairs, and however many windows, are
  scored with it. A window costs O((N + pairs) x window) in about 20 numpy
  calls. The online dynamic-multihop rule scores one window of its base
  edges alone when it reads nothing else, so it pays that fixed cost once
  per step; an offline call over a long series pays it once per window.
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
        if not np.isfinite(v).all():
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


def _offset_sum(stack: np.ndarray) -> np.ndarray:
    """Sum over the leading (window offset) axis, one offset after another.

    The last of the running sums: ``np.add.accumulate`` adds each offset to
    the sum of the ones before it, in one call. ``np.add.reduce`` (and so
    ``.sum(axis=0)``) would instead add pairwise along whichever axis the
    memory layout makes the fast one: a fancy-indexed gather (which numpy
    lays out pair axis first) or a single window of one column would round
    differently.
    """
    return np.add.accumulate(stack, axis=0)[-1]


def _flat(rows: np.ndarray) -> np.ndarray:
    """Whether each column of a (w, N) window is exactly constant."""
    return np.maximum.reduce(rows, axis=0) == np.minimum.reduce(rows, axis=0)


def _score_window(
    rows: np.ndarray, left: np.ndarray, right: np.ndarray, out: np.ndarray
) -> None:
    """Score one (w, N) window into ``out`` (pairs,).

    ``left`` and ``right`` list the N self-pairs, then the requested pairs;
    ``out`` must hold zeros, which stay where a window is flat.
    """
    w, n = rows.shape
    centered = rows - _offset_sum(rows) / w
    products = np.take(centered, left, axis=1)
    products *= np.take(centered, right, axis=1)
    sums = _offset_sum(products)
    sumsq, num = sums[:n], sums[n:]
    ii, jj = left[n:], right[n:]
    # exact-constant windows have zero spread; their correlation is
    # undefined and scored 0
    flat = _flat(rows)
    ok = ~(flat[ii] | flat[jj])
    np.divide(np.abs(num), np.sqrt(sumsq[ii] * sumsq[jj]), out=out, where=ok)
    np.minimum(out, 1.0, out=out)


def sliding_abs_correlation(
    series: NodeSignalSeries,
    spec: WindowSpec,
    pairs: Sequence[tuple[int, int]],
) -> np.ndarray:
    """Absolute windowed Pearson correlation for each requested node pair.

    Returns an array of shape (T, len(pairs)); row t holds the scores of
    the window ending at step t.

    Each window is scored on its own, as an online re-bind step scores its
    one window, so a call over T steps makes T - w + 1 kernel calls. That
    suits the estimators, which pass one window per call. An offline call
    over a long, narrow series pays the kernel's fixed cost once per
    window, so it is slower than a strided stack of windows would be.
    """
    x = series.values
    t_total, n = x.shape
    w = spec.window
    if t_total < w:
        raise ValueError(f"series has {t_total} steps, window needs {w}")
    index = np.asarray(pairs)
    if index.dtype.kind != "i":
        # unsigned and bool indices become int (bools read as 0/1, as in
        # StaticGraph); any other index is an error, not truncated
        bad = [p for p in index.reshape(-1, 2).tolist() if not all(isinstance(v, int) for v in p)]
        if bad:
            raise ValueError(f"pair {tuple(bad[0])!r} has a non-integer node index")
        index = index.astype(int)
    index = index.reshape(-1, 2)
    if index.size and (index.min() < 0 or index.max() >= n):
        outside = np.flatnonzero(np.any((index < 0) | (index >= n), axis=1))
        i, j = index[outside[0]]
        raise ValueError(f"pair ({i}, {j}) references a node outside 0..{n - 1}")
    # a node's sum of squares is its product with itself: the n self-pairs
    # come first, so one gather and one offset sum serve both sums
    nodes = np.arange(n)
    left, right = np.concatenate((nodes, index[:, 0])), np.concatenate((nodes, index[:, 1]))

    out = np.zeros((t_total, len(index)))
    for end in range(w, t_total + 1):
        _score_window(x[end - w : end], left, right, out[end - 1])
    out[: w - 1] = out[w - 1]
    return out


def window_abs_correlation(rows: np.ndarray) -> np.ndarray:
    """Symmetric (N, N) absolute Pearson correlation of one (w, N) window.

    Entry (i, j) has the bits of the last row of
    ``sliding_abs_correlation`` for pair (i, j) over the same window; the
    diagonal is 0. ``rows`` must be finite; it is not checked here.
    """
    if rows.ndim != 2 or rows.shape[0] < 2:
        raise ValueError(f"need a (w, N) window of at least 2 rows, got shape {rows.shape}")
    centered = rows - _offset_sum(rows) / rows.shape[0]  # contiguous (w, N)
    # einsum adds the window products in offset order, one (N, N) matrix;
    # its diagonal is each node's sum of squares
    products = np.einsum("ki,kj->ij", centered, centered)
    sumsq = products.diagonal()
    flat = _flat(rows)
    ok = ~(flat[:, None] | flat)
    np.fill_diagonal(ok, False)
    scores = np.zeros(products.shape)
    np.divide(np.abs(products), np.sqrt(sumsq[:, None] * sumsq), out=scores, where=ok)
    return np.minimum(scores, 1.0, out=scores)
