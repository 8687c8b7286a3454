"""Undirected weighted graphs and their spectral operators.

One orientation convention is used throughout: the signed incidence matrix
puts +1 at the lower-indexed endpoint of each edge and -1 at the higher.
Laplacians are orientation-invariant, so the convention only pins down
reproducible signs in intermediate matrices.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "StaticGraph",
    "SpectralDecomposition",
    "build_laplacian",
    "adjacency_laplacian",
    "incidence",
    "eigendecompose",
    "graph_to_csv",
    "graph_from_csv",
]


def _canonical_pair(i: int, j: int) -> tuple[int, int]:
    i, j = int(i), int(j)
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class StaticGraph:
    """Undirected weighted graph on nodes ``0 .. node_count - 1``.

    Edges are unordered pairs stored lower-index-first, each appearing at
    most once, with one non-negative weight per edge. A zero weight keeps
    the pair in the edge set (the connection exists, its current strength
    is just 0), which matters when weights are later re-read from data.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[float, ...] | None = None
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        n = int(self.node_count)
        if n < 1:
            raise ValueError("node_count must be >= 1")
        object.__setattr__(self, "node_count", n)

        canon: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for pair in self.edges:
            i, j = pair
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge {pair!r} references a node outside 0..{n - 1}")
            p = _canonical_pair(i, j)
            if p in seen:
                raise ValueError(f"duplicate edge {p!r}")
            seen.add(p)
            canon.append(p)
        object.__setattr__(self, "edges", tuple(canon))

        if self.weights is None:
            w = tuple(1.0 for _ in canon)
        else:
            w = tuple(float(x) for x in self.weights)
            if len(w) != len(canon):
                raise ValueError(f"{len(w)} weights for {len(canon)} edges")
            for x in w:
                if not np.isfinite(x) or x < 0.0:
                    raise ValueError(f"weights must be finite and >= 0, got {x}")
        object.__setattr__(self, "weights", w)

        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != n:
                raise ValueError(f"{len(labels)} labels for {n} nodes")
            object.__setattr__(self, "labels", labels)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def with_weights(self, weights: Sequence[float]) -> "StaticGraph":
        """Same topology, new per-edge weights."""
        return StaticGraph(self.node_count, self.edges, tuple(float(w) for w in weights), self.labels)

    def adjacency(self) -> np.ndarray:
        """Dense symmetric adjacency matrix with zero diagonal."""
        a = np.zeros((self.node_count, self.node_count))
        for (i, j), w in zip(self.edges, self.weights):
            a[i, j] = w
            a[j, i] = w
        return a

    def edge_mask(self) -> np.ndarray:
        """Dense symmetric boolean matrix of the edge set, zero-weight edges included."""
        m = np.zeros((self.node_count, self.node_count), dtype=bool)
        for i, j in self.edges:
            m[i, j] = m[j, i] = True
        return m


def build_laplacian(g: StaticGraph) -> np.ndarray:
    """Combinatorial Laplacian ``D - A``; rows sum to zero, PSD."""
    return adjacency_laplacian(g.adjacency())


def adjacency_laplacian(a: np.ndarray) -> np.ndarray:
    """``D - A`` of a dense symmetric, non-negative adjacency matrix."""
    return np.diag(a.sum(axis=1)) - a


def incidence(g: StaticGraph) -> np.ndarray:
    """Signed node-by-edge incidence matrix; entries in {-1, 0, +1}.

    Column for edge (i, j) with i < j carries +1 at row i and -1 at row j.
    ``B diag(w) B.T`` reproduces :func:`build_laplacian`.
    """
    b = np.zeros((g.node_count, g.edge_count))
    for k, (i, j) in enumerate(g.edges):
        b[i, k] = 1.0
        b[j, k] = -1.0
    return b


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs of a symmetric matrix, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.eigenvalues, dtype=float)
        vecs = np.asarray(self.eigenvectors, dtype=float)
        if vals.ndim != 1 or vecs.shape != (vals.size, vals.size):
            raise ValueError("need n eigenvalues and an n-by-n eigenvector matrix")
        vals.setflags(write=False)
        vecs.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)


def eigendecompose(m: np.ndarray) -> SpectralDecomposition:
    """Full symmetric eigendecomposition, eigenvalues sorted ascending.

    Raises ``numpy.linalg.LinAlgError`` if the solver fails to converge;
    failures are never silently truncated.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    # np.allclose(m, m.T, rtol=0, atol=1e-10) in one pass: equal entries
    # (matching infinities included) or finite entries within 1e-10; NaN fails
    with np.errstate(invalid="ignore"):
        symmetric = (m == m.T) | (np.abs(m - m.T) <= 1e-10)
    if not symmetric.all():
        raise ValueError("matrix is not symmetric")
    vals, vecs = np.linalg.eigh(m)
    return SpectralDecomposition(vals, vecs)


# -- serialization ----------------------------------------------------------

_CSV_HEADER = ["src", "dst", "weight"]


def graph_to_csv(g: StaticGraph, path: str | Path) -> None:
    """Edge-list CSV (src, dst, weight). A leading comment records the node
    count so graphs with isolated trailing nodes round-trip losslessly."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# node_count={g.node_count}\n")
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for (i, j), w in zip(g.edges, g.weights):
            writer.writerow([i, j, repr(float(w))])


def graph_from_csv(path: str | Path) -> StaticGraph:
    node_count: int | None = None
    edges: list[tuple[int, int]] = []
    weights: list[float] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        first = fh.readline()
        if first.startswith("#"):
            key, _, value = first.lstrip("# ").partition("=")
            if key.strip() == "node_count":
                node_count = int(value)
        else:
            fh.seek(0)
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != _CSV_HEADER:
            raise ValueError(f"{path}: expected header {','.join(_CSV_HEADER)}")
        for row in reader:
            if not row:
                continue
            i, j, w = int(row[0]), int(row[1]), float(row[2])
            edges.append((i, j))
            weights.append(w)
    if node_count is None:
        node_count = 1 + max((max(i, j) for i, j in edges), default=0)
    return StaticGraph(node_count, tuple(edges), tuple(weights))

