"""Seeded synthetic datasets with regime-switching correlation structure.

The generator builds a connected random graph, partitions it into connected
clusters (a fresh partition per regime), and synthesizes band-limited node
signals whose energy concentrates on the slow eigenvectors of the
cluster-boosted Laplacian. Members of a cluster therefore move together
while clusters stay mutually decorrelated; when the regime switches, the
partition changes and so does the whole correlation pattern. Every regime
re-weights the same edge set, so the series holds no latent pair outside
the graph for a multi-hop rule to find (ROADMAP item 3).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..edge_dynamics import NodeSignalSeries, window_abs_correlation
from ..filters import ideal_response
from ..graphs import StaticGraph, build_laplacian

__all__ = [
    "SyntheticSpec",
    "make_synthetic_dataset",
    "regime_active_pairs",
    "regime_segments",
]


CLUSTERS = 4  # per regime
COUPLING, BACKGROUND = 3.0, 0.3  # generating edge strengths inside / across clusters
MEMBER_NOISE = 0.15  # per-node deviation around the cluster driver
TEMPORAL_SMOOTHING = 0.9  # AR(1) coefficient of drivers and deviations over time
OFFSET = 10.0  # level added to every value


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for the regime-switching generator.

    ``switch_times`` lists the 1-based steps at which each new regime
    begins (length regimes - 1); None spaces the regimes evenly.
    ``bandlimit`` is the fraction of the spectrum that carries the signal;
    ``drift`` (finite, >= 0) scales a random-walk component added to each
    cluster driver, making the series non-stationary the way slow
    real-world signals are; ``seed`` must be >= 0. Every
    regime has ``CLUSTERS`` clusters, so a spec needs at least that many
    nodes.
    """

    nodes: int = 24
    edges: int = 38
    steps: int = 200
    regimes: int = 2
    switch_times: tuple[int, ...] | None = None
    bandlimit: float = 0.4
    drift: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        n, e = self.nodes, self.edges
        if n < CLUSTERS:
            raise ValueError(f"need at least {CLUSTERS} nodes, one per cluster")
        if e < n - 1 or e > n * (n - 1) // 2:
            raise ValueError(
                f"edge count {e} infeasible for {n} nodes (need {n - 1}..{n * (n - 1) // 2})"
            )
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.regimes < 1:
            raise ValueError("regimes must be >= 1")
        if self.switch_times is None and self.regimes > self.steps:
            # evenly spaced switch times would leave a regime without steps
            raise ValueError(
                f"{self.regimes} regimes need at least as many steps, got {self.steps}"
            )
        if not 0.0 < self.bandlimit <= 1.0:
            raise ValueError("bandlimit must lie in (0, 1]")
        if not 0.0 <= self.drift < math.inf:  # NaN fails too
            raise ValueError(f"drift must be finite and >= 0, got {self.drift}")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.switch_times is not None:
            st = tuple(int(t) for t in self.switch_times)
            if len(st) != self.regimes - 1:
                raise ValueError(f"{len(st)} switch times for {self.regimes} regimes")
            bounds = (1,) + st + (self.steps + 1,)
            if any(b >= a for b, a in zip(bounds[1:], bounds[2:])) or any(
                s <= 1 or s > self.steps for s in st
            ):
                raise ValueError("switch times must be strictly increasing within (1, steps]")
            object.__setattr__(self, "switch_times", st)


def regime_segments(spec: SyntheticSpec) -> tuple[tuple[int, int], ...]:
    """0-based half-open row ranges, one per regime."""
    if spec.switch_times is not None:
        starts = [0] + [s - 1 for s in spec.switch_times]
    else:
        starts = [spec.steps * r // spec.regimes for r in range(spec.regimes)]
    ends = starts[1:] + [spec.steps]
    return tuple((a, b) for a, b in zip(starts, ends))


def _random_connected_edges(rng: np.random.Generator, n: int, e: int) -> tuple[tuple[int, int], ...]:
    # random spanning tree first, so the graph is connected by construction
    perm = rng.permutation(n)
    edges: set[tuple[int, int]] = set()
    for idx in range(1, n):
        a = int(perm[idx])
        b = int(perm[rng.integers(0, idx)])
        edges.add((min(a, b), max(a, b)))
    spare = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    picked = rng.choice(len(spare), size=e - len(edges), replace=False)
    for k in picked:
        edges.add(spare[int(k)])
    return tuple(sorted(edges))


def _grow_partition(
    rng: np.random.Generator, neighbors: list[list[int]], seeds: np.ndarray
) -> np.ndarray:
    """Connected clusters via randomized multi-source BFS."""
    n = len(neighbors)
    assign = np.full(n, -1, dtype=int)
    queue: deque[int] = deque()
    for c, s in enumerate(seeds):
        assign[int(s)] = c
        queue.append(int(s))
    while queue:
        i = queue.popleft()
        order = rng.permutation(len(neighbors[i]))
        for k in order:
            j = neighbors[i][int(k)]
            if assign[j] < 0:
                assign[j] = assign[i]
                queue.append(j)
    return assign


def _structure(
    rng: np.random.Generator, spec: SyntheticSpec
) -> tuple[tuple[tuple[int, int], ...], list[np.ndarray]]:
    edges = _random_connected_edges(rng, spec.nodes, spec.edges)
    neighbors: list[list[int]] = [[] for _ in range(spec.nodes)]
    for i, j in edges:
        neighbors[i].append(j)
        neighbors[j].append(i)
    partitions = []
    for _ in range(spec.regimes):
        seeds = rng.choice(spec.nodes, size=CLUSTERS, replace=False)
        partitions.append(_grow_partition(rng, neighbors, seeds))
    return edges, partitions


def _ar1(rng: np.random.Generator, length: int, width: int, phi: float) -> np.ndarray:
    """Stationary unit-variance AR(1) series, one column per channel."""
    out = np.empty((length, width))
    out[0] = rng.standard_normal(width)
    drive = rng.standard_normal((max(length - 1, 0), width)) * math.sqrt(1.0 - phi * phi)
    for t in range(1, length):
        out[t] = phi * out[t - 1] + drive[t - 1]
    return out


def _regime_signal(
    rng: np.random.Generator,
    spec: SyntheticSpec,
    edges: tuple[tuple[int, int], ...],
    assign: np.ndarray,
    length: int,
) -> np.ndarray:
    """Cluster-driver field projected onto the low band of the regime graph.

    Independent drivers keep clusters mutually decorrelated; with intra
    weights well above cross weights the cluster indicators sit (almost)
    inside the band, so the projection barely disturbs the field while
    making the output exactly band-limited on the regime topology.
    """
    weights = [COUPLING if assign[i] == assign[j] else BACKGROUND for i, j in edges]
    lap = build_laplacian(StaticGraph(spec.nodes, edges, weights))
    lam, u = np.linalg.eigh(lap)
    band = u[:, ideal_response(lam, spec.bandlimit) > 0]
    projector = band @ band.T
    drivers = _ar1(rng, length, CLUSTERS, TEMPORAL_SMOOTHING)
    if spec.drift > 0:
        drivers = drivers + spec.drift * np.cumsum(
            rng.standard_normal((length, CLUSTERS)), axis=0
        )
    local = _ar1(rng, length, spec.nodes, TEMPORAL_SMOOTHING)
    raw = drivers[:, assign] + MEMBER_NOISE * local
    return raw @ projector  # projector is symmetric


def make_synthetic_dataset(spec: SyntheticSpec) -> tuple[StaticGraph, NodeSignalSeries]:
    """Build the (graph, ground-truth series) pair for a spec.

    The returned graph carries |correlation| weights measured on the first
    regime's rows as one window by ``window_abs_correlation``, the kernel
    that scores every window, mirroring how a static graph is fitted on a
    training window; a node that is exactly constant there weighs 0. With a
    one-step first regime every weight is 1. Output is bit-reproducible for
    a fixed spec.
    """
    rng = np.random.default_rng(spec.seed)
    edges, partitions = _structure(rng, spec)
    segments = regime_segments(spec)
    parts = [
        _regime_signal(rng, spec, edges, partitions[r], b - a)
        for r, (a, b) in enumerate(segments)
    ]
    values = np.concatenate(parts, axis=0) + OFFSET

    first_len = segments[0][1] - segments[0][0]
    if first_len >= 2:
        absc = window_abs_correlation(values[:first_len])
        weights = tuple(float(absc[i, j]) for i, j in edges)
    else:
        weights = tuple(1.0 for _ in edges)

    graph = StaticGraph(spec.nodes, edges, weights)
    series = NodeSignalSeries(values, labels=tuple(f"node{i}" for i in range(spec.nodes)))
    return graph, series


def regime_active_pairs(spec: SyntheticSpec) -> list[tuple[tuple[int, int], ...]]:
    """Per regime: graph edges coupled in that regime and in no other.

    Endpoints share the regime's cluster but are split by every other
    regime's partition, so their windowed |correlation| is high exactly
    while the regime is active. With a single regime this reduces to all
    intra-cluster edges.
    """
    edges, partitions = _structure(np.random.default_rng(spec.seed), spec)
    out = []
    for r, assign in enumerate(partitions):
        pairs = []
        for i, j in edges:
            if assign[i] != assign[j]:
                continue
            elsewhere = any(
                other[i] == other[j] for q, other in enumerate(partitions) if q != r
            )
            if not elsewhere:
                pairs.append((i, j))
        out.append(tuple(pairs))
    return out
