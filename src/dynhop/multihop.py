"""Multi-hop expansion, pruning, and merging of time-varying topologies.

Powers of the (spectrally normalized) Laplacian become non-zero exactly
where a walk of that length connects two nodes. Entries that were zero in
the base matrix mark latent node pairs: interaction routed through
intermediaries rather than a direct edge. Each hop order contributes the
pairs that first appear at that power; pruning keeps the pairs whose score
strictly exceeds a threshold; merging stacks the survivors on top of the
original graph, whose own edges are never pruned.

One array pass, :func:`expand_prune_merge`, does all of this on dense
(N, N) matrices and masks and returns a :class:`LatentTopology`: the merged
step's Laplacian and its surviving latent edges as arrays. ``hop_expand``,
``prune``, ``merge`` and ``build_topology_slice`` are tuple and
:class:`TopologySlice` views of the same stages over that array core, for
inspection. Both merged views come from one function, which lists the
latent edges in (hop, pair) order after the original ones and leaves every
edge check to :class:`StaticGraph`.
Each call builds one step's topology; which step that is stays with the
caller, so the latent scores come in as one (N, N) matrix and a slice
carries no time stamp.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graphs import StaticGraph, adjacency_laplacian

__all__ = [
    "EPS_ZERO",
    "PruneSpec",
    "HopCandidateSet",
    "TopologySlice",
    "LatentTopology",
    "spectral_normalize",
    "expand_prune_merge",
    "hop_expand",
    "prune",
    "merge",
    "build_topology_slice",
]

# magnitudes below this in a matrix power count as zero (absorbs
# cancellation round-off without hiding genuine walk contributions)
EPS_ZERO = 1e-12

PRUNE_METRICS = ("weight-magnitude", "correlation")


@dataclass(frozen=True)
class PruneSpec:
    """Threshold and scoring metric for candidate-edge pruning.

    "weight-magnitude" scores a candidate by the magnitude of its entry in
    the normalized Laplacian power; "correlation" re-scores it by the
    windowed |correlation| of its endpoints' signals. A surviving latent
    edge takes its score as its weight. Survival is strict: score must
    exceed the threshold, equality is pruned.
    """

    threshold: float
    metric: str = "weight-magnitude"

    def __post_init__(self) -> None:
        if not np.isfinite(self.threshold) or self.threshold < 0:
            raise ValueError("threshold must be finite and >= 0")
        if self.metric not in PRUNE_METRICS:
            raise ValueError(f"unknown metric {self.metric!r}; expected one of {PRUNE_METRICS}")

    def survives(self, scores: np.ndarray) -> np.ndarray:
        """Boolean mask of the scores that strictly exceed the threshold."""
        return scores > self.threshold


@dataclass(frozen=True)
class HopCandidateSet:
    """Latent node pairs first reachable at one hop order.

    Pairs are absent from the original edge set and from every lower hop
    order retained at the same step; scores are non-negative.
    """

    hop: int
    pairs: tuple[tuple[int, int], ...]
    scores: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.hop < 2:
            raise ValueError("hop order starts at 2")
        if len(self.pairs) != len(self.scores):
            raise ValueError("pairs and scores must have equal length")
        if any(s < 0 for s in self.scores):
            raise ValueError("scores must be >= 0")


@dataclass(frozen=True)
class TopologySlice:
    """One merged graph with per-edge provenance ("original" or "hop<p>")."""

    graph: StaticGraph
    provenance: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.provenance) != self.graph.edge_count:
            raise ValueError("one provenance tag per edge required")


@dataclass(frozen=True)
class LatentTopology:
    """One merged step: its Laplacian and its surviving latent edges.

    ``laplacian`` is the ``adjacency_laplacian`` of the original edges at
    their step weights plus the surviving latent edges at their weights, so
    off its diagonal it is the merged adjacency negated. The S survivors are
    listed in row-major pair order: ``pairs`` is (S, 2) with i < j in each
    row, ``orders`` holds the hop order at which each pair first qualified
    and ``weights`` its prune score. ``candidates`` counts the latent pairs
    before pruning.
    """

    laplacian: np.ndarray
    candidates: int
    pairs: np.ndarray
    orders: np.ndarray
    weights: np.ndarray

    @property
    def survivors(self) -> int:
        return len(self.pairs)


def spectral_normalize(laplacian: np.ndarray) -> np.ndarray | None:
    """Scale by the largest eigenvalue so all matrix powers stay bounded.

    Returns None for an all-zero operator (no active edges): there is
    nothing to diffuse, so hop expansion is skipped entirely.
    """
    lam_max = float(np.linalg.eigvalsh(laplacian)[-1])
    if lam_max <= 0.0:
        return None
    return laplacian / lam_max


@functools.cache
def _lower_triangle(n: int) -> np.ndarray:
    """Read-only (N, N) mask of the diagonal and the entries below it."""
    tri = np.tri(n, dtype=bool)
    tri.setflags(write=False)
    return tri


def _expand(
    normalized_laplacian: np.ndarray, base: np.ndarray, hops: int
) -> tuple[np.ndarray, np.ndarray]:
    """Hop order and power magnitude of every latent candidate.

    Upper-triangular (N, N) arrays: entry (i, j) of the first holds the
    order p at which the pair first qualifies (0 if it never does), of the
    second its |power entry| at that order. Each hop costs one matrix
    product, six element-wise passes that write into buffers reused across
    hops (no boolean-indexed gather or scatter is made) and one test for a
    pair still free. The hops stop once every free pair has qualified,
    since a higher power could place none.
    """
    n = normalized_laplacian.shape[0]
    # only upper-triangle pairs that are not original edges can qualify
    free = ~(base | _lower_triangle(n))
    order = np.zeros((n, n), dtype=int)
    magnitude = np.zeros((n, n))
    entry = np.empty((n, n))
    fresh = np.empty((n, n), dtype=bool)
    power = normalized_laplacian
    for p in range(2, hops + 1):
        power = power @ normalized_laplacian
        np.abs(power, out=entry)
        np.greater(entry, EPS_ZERO, out=fresh)
        fresh &= free
        np.putmask(order, fresh, p)
        np.putmask(magnitude, fresh, entry)
        free ^= fresh
        if not free.any():
            break
    return order, magnitude


def expand_prune_merge(
    base: np.ndarray,
    adjacency: np.ndarray,
    hops: int,
    prune_spec: PruneSpec,
    scores: np.ndarray | None = None,
) -> LatentTopology:
    """Expand, prune, and merge one step on dense (N, N) arrays.

    ``base`` marks the original edge set (an edge of weight 0 still counts)
    and ``adjacency`` carries its weights at this step. Candidates of order p
    are the pairs whose |entry| of the p-th power of the spectrally
    normalized Laplacian exceeds EPS_ZERO, that are not original edges and
    did not qualify at a lower order. The "correlation" metric requires
    ``scores``, an (N, N) matrix whose entry (i, j), i < j, scores and
    weights candidate (i, j); only the candidates' entries are read, and
    they must be >= 0. "weight-magnitude" does not read ``scores``.
    """
    if hops < 1:
        raise ValueError("hops must be >= 1")
    correlation = prune_spec.metric == "correlation"
    if correlation:
        if scores is None:
            raise ValueError("the correlation metric requires a scores matrix")
        scores = np.asarray(scores, dtype=float)
        if scores.shape != adjacency.shape:
            raise ValueError(f"scores shape {scores.shape} does not match {adjacency.shape}")

    laplacian = adjacency_laplacian(adjacency)
    normalized = spectral_normalize(laplacian) if hops >= 2 else None
    if normalized is None:  # no hop to expand, or no edge to diffuse along
        n = adjacency.shape[0]
        order, magnitude = np.zeros((n, n), dtype=int), np.zeros((n, n))
    else:
        order, magnitude = _expand(normalized, base, hops)
    rows, cols = np.nonzero(order)
    latent = (scores if correlation else magnitude)[rows, cols]
    if correlation and not np.all(latent >= 0):  # NaN fails too
        raise ValueError("latent candidate scores must be >= 0")
    keep = prune_spec.survives(latent)
    kept_rows, kept_cols, weights = rows[keep], cols[keep], latent[keep]
    if kept_rows.size:
        merged = adjacency.copy()
        merged[kept_rows, kept_cols] = merged[kept_cols, kept_rows] = weights
        laplacian = adjacency_laplacian(merged)
    # else the merged adjacency is the input, and so is its Laplacian
    return LatentTopology(
        laplacian,
        candidates=rows.size,
        pairs=np.array((kept_rows, kept_cols)).T,  # a cheaper call than np.stack
        orders=order[kept_rows, kept_cols],
        weights=weights,
    )


# -- tuple views of the array core ------------------------------------------------


def hop_expand(
    normalized_laplacian: np.ndarray, g: StaticGraph, hops: int
) -> list[HopCandidateSet]:
    """Candidate sets for hop orders 2..hops (newly appearing non-zeros only).

    A pair qualifies at order p when |power entry| > EPS_ZERO, the pair is
    not an edge of ``g``, and it did not already qualify at a lower order.
    Candidates are emitted in ascending (hop, pair) order.
    """
    if hops < 1:
        raise ValueError("hops must be >= 1")
    n = g.node_count
    if normalized_laplacian.shape != (n, n):
        raise ValueError(
            f"operator shape {normalized_laplacian.shape} does not match {n} nodes"
        )
    order, magnitude = _expand(normalized_laplacian, g.edge_mask(), hops)
    out = []
    for p in range(2, hops + 1):
        rows, cols = np.nonzero(order == p)  # row-major: ascending pair order
        out.append(HopCandidateSet(
            hop=p,
            pairs=tuple(zip(rows.tolist(), cols.tolist())),
            scores=tuple(magnitude[rows, cols].tolist()),
        ))
    return out


def prune(candidates: HopCandidateSet, spec: PruneSpec) -> HopCandidateSet:
    """Keep exactly the candidates whose score strictly exceeds the threshold."""
    keep = spec.survives(np.asarray(candidates.scores, dtype=float)).tolist()
    return HopCandidateSet(
        hop=candidates.hop,
        pairs=tuple(p for p, k in zip(candidates.pairs, keep) if k),
        scores=tuple(s for s, k in zip(candidates.scores, keep) if k),
    )


def _slice(g_t: StaticGraph, latent: Iterable[tuple[int, Sequence, float]]) -> TopologySlice:
    """``g_t``'s edges, then the latent ``(hop, pair, weight)`` edges in
    ascending (hop, pair) order. :class:`StaticGraph` checks every pair."""
    latent = list(latent)
    with contextlib.suppress(TypeError):  # indices that do not compare fail StaticGraph
        latent.sort(key=lambda edge: (edge[0], sorted(edge[1])))
    hops, pairs, weights = zip(*latent) if latent else ((), (), ())
    graph = StaticGraph(g_t.node_count, g_t.edges + pairs, g_t.weights + weights)
    tags = ("original",) * g_t.edge_count + tuple(f"hop{p}" for p in hops)
    return TopologySlice(graph=graph, provenance=tags)


def merge(g_t: StaticGraph, pruned: Sequence[HopCandidateSet]) -> TopologySlice:
    """Union of the current graph with surviving latent edges.

    Original edges keep their weights. Latent edges take their score and
    follow the original edges in ascending (hop, pair) order. A pair that
    is not an edge :class:`StaticGraph` accepts, or that appears twice
    across inputs or among the original edges, raises ``ValueError``.
    """
    return _slice(g_t, (
        (cand.hop, pair, score)
        for cand in pruned
        for pair, score in zip(cand.pairs, cand.scores)
    ))


def build_topology_slice(
    g: StaticGraph,
    weights_t: Sequence[float],
    hops: int,
    prune_spec: PruneSpec,
    scores: np.ndarray | None = None,
) -> TopologySlice:
    """Expand, prune, and merge a single step (see :func:`expand_prune_merge`)."""
    g_t = StaticGraph(g.node_count, g.edges, weights_t)
    topo = expand_prune_merge(g.edge_mask(), g_t.adjacency(), hops, prune_spec, scores)
    return _slice(g_t, zip(topo.orders.tolist(), topo.pairs.tolist(), topo.weights.tolist()))
