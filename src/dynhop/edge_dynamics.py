"""Time-varying edge weights from sliding-window correlation of node signals.

Row t of :func:`sliding_abs_correlation` holds the absolute Pearson
correlation of each pair over the trailing window ending at t. Absolute
values keep weights non-negative (a Laplacian requirement) while retaining
both positively and negatively coupled pairs. The online estimators score
step t from the window ending at t - 1, the strictly causal history.

Two functions compute the same scores for different callers:

- :func:`sliding_abs_correlation` scores the requested pairs over every
  window of a whole series. A series exactly one window long is scored
  from its rows directly; a longer one is cut into blocks of windows, each
  centred at once through a strided view. The kernel gathers the centred
  values of each pair's endpoints (and of each node with itself, for its
  sum of squares) in one pass, and adds the products one offset after
  another, each rounded before it is added. So a pair's score has the same
  bits whichever other pairs, and however many windows, are scored with
  it. A call costs O((N + pairs) x window) per window, in about 30 numpy
  calls per block of windows, however many windows the block holds. The
  online dynamic-multihop rule scores one window of its base edges alone
  when it reads nothing else, so it pays that fixed cost once per step.
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
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "WindowSpec",
    "NodeSignalSeries",
    "sliding_abs_correlation",
    "window_abs_correlation",
]

# values in one block's (w, windows, N + pairs) product stack of
# sliding_abs_correlation: bounded so a long series streams through small
# temporaries instead of page-faulting fresh (w, T, pairs) arrays
_BLOCK = 1 << 16


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

    @classmethod
    def _checked(cls, values: np.ndarray) -> "NodeSignalSeries":
        """Wrap a finite float (T, N) array its caller has already checked.

        The series holds a read-only view, not a copy: the caller must not
        change those rows while the series is in use.
        """
        view = values.view()
        view.setflags(write=False)
        series = object.__new__(cls)
        object.__setattr__(series, "values", view)
        object.__setattr__(series, "labels", None)
        return series

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


def _flat(windows: np.ndarray) -> np.ndarray:
    """Whether each window of a (w, ...) stack is exactly constant."""
    return np.maximum.reduce(windows, axis=0) == np.minimum.reduce(windows, axis=0)


def _score_windows(
    windows: np.ndarray, left: np.ndarray, right: np.ndarray, out: np.ndarray
) -> None:
    """Score a (w, ..., N) stack of windows into ``out`` (..., pairs).

    ``left`` and ``right`` list the N self-pairs, then the requested pairs;
    ``out`` must hold zeros, which stay where a window is flat.
    """
    w, n = windows.shape[0], windows.shape[-1]
    centered = windows - _offset_sum(windows) / w
    products = np.take(centered, left, axis=-1)
    products *= np.take(centered, right, axis=-1)
    sums = _offset_sum(products)
    sumsq, num = sums[..., :n], sums[..., n:]
    ii, jj = left[n:], right[n:]
    # exact-constant windows have zero spread; their correlation is
    # undefined and scored 0
    flat = _flat(windows)
    ok = ~(flat[..., ii] | flat[..., jj])
    np.divide(np.abs(num), np.sqrt(sumsq[..., ii] * sumsq[..., jj]), out=out, where=ok)
    np.minimum(out, 1.0, out=out)


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
    scores = out[w - 1 :]
    if t_total == w:
        # one window, as each online re-bind step passes: its rows are the window
        _score_windows(x, left, right, scores[0])
    else:
        # windows per block: the block's product stack stays near _BLOCK values
        step = max(1, _BLOCK // (w * left.size))
        for first in range(0, t_total - w + 1, step):
            rows = x[first : first + step + w - 1]
            b = rows.shape[0] - w + 1
            # windows[k, s] is row s + k: offset k of the window starting at s
            windows = as_strided(
                rows, (w, b, n), (rows.strides[0],) + rows.strides, writeable=False
            )
            _score_windows(windows, left, right, scores[first : first + b])
    out[: w - 1] = scores[0]
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
