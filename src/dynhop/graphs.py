"""Undirected weighted graphs and their spectral operators.

One orientation convention is used throughout: the signed incidence matrix
puts +1 at the lower-indexed endpoint of each edge and -1 at the higher.
Laplacians are orientation-invariant, so the convention only pins down
reproducible signs in intermediate matrices.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import chain
from operator import eq, index
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from ._loadtxt import loadtxt_rows, parses_integers_strictly

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


def _canonical_edges(edges, n: int) -> tuple[tuple[int, int], ...]:
    """``edges`` as lower-index-first pairs of ints, checked on ``n`` nodes.

    An (E, 2) integer array (or pairs of ints, which convert to one) is
    ordered with two array operations and checked as a whole: its lowest and
    highest node, self-loops and one set of its pairs. Anything else, and any
    array that fails a check, goes through :func:`_checked_pairs`, which
    raises the first bad edge's message. (Each numpy call costs microseconds
    when its code is cold, as in a graph built once per run, so the checks
    use few of them.)
    """
    try:
        ends = np.asarray(edges)
    except (ValueError, TypeError, OverflowError):  # ragged or not numbers
        return _checked_pairs(edges, n)
    if ends.dtype.kind not in "iu" or ends.ndim != 2 or ends.shape[1] != 2 or not ends.size:
        return _checked_pairs(edges, n)
    i, j = ends.T
    lo, hi = np.minimum(i, j).tolist(), np.maximum(i, j).tolist()
    canon = tuple(zip(lo, hi))
    if min(lo) < 0 or max(hi) >= n or any(map(eq, lo, hi)) or len(set(canon)) < len(canon):
        return _checked_pairs(edges, n)
    return canon


def _checked_pairs(edges, n: int) -> tuple[tuple[int, int], ...]:
    """The per-edge reference of :func:`_canonical_edges`: in edge order,
    raise on the first non-integer index, self-loop, out-of-range node or
    duplicate pair."""
    canon: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for pair in edges:
        i, j = pair
        try:
            i, j = index(i), index(j)
        except TypeError:
            raise ValueError(f"edge {pair!r} has a non-integer node index") from None
        if i == j:
            raise ValueError(f"self-loop at node {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge {pair!r} references a node outside 0..{n - 1}")
        p = (i, j) if i < j else (j, i)
        if p in seen:
            raise ValueError(f"duplicate edge {p!r}")
        seen.add(p)
        canon.append(p)
    return tuple(canon)


@dataclass(frozen=True)
class StaticGraph:
    """Undirected weighted graph on nodes ``0 .. node_count - 1``.

    Edges are unordered pairs stored lower-index-first, each appearing at
    most once, with one non-negative weight per edge. A zero weight keeps
    the pair in the edge set (the connection exists, its current strength
    is just 0), which matters when weights are later re-read from data.
    Edges may be given as pairs or as an (E, 2) integer array; either way
    they are stored as tuples of ints.
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

        canon = _canonical_edges(self.edges, n)
        object.__setattr__(self, "edges", canon)

        if self.weights is None:
            w = (1.0,) * len(canon)
        else:
            w = tuple(map(float, self.weights))
            if len(w) != len(canon):
                raise ValueError(f"{len(w)} weights for {len(canon)} edges")
            bad = next((x for x in w if not 0.0 <= x < math.inf), None)  # NaN fails too
            if bad is not None:
                raise ValueError(f"weights must be finite and >= 0, got {bad}")
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
        i, j = self._ends()
        a[i, j] = a[j, i] = np.array(self.weights)
        return a

    def edge_mask(self) -> np.ndarray:
        """Dense symmetric boolean matrix of the edge set, zero-weight edges included."""
        m = np.zeros((self.node_count, self.node_count), dtype=bool)
        i, j = self._ends()
        m[i, j] = m[j, i] = True
        return m

    def _ends(self) -> np.ndarray:
        """(2, E) lower and higher endpoints of every edge, in edge order."""
        flat = chain.from_iterable(self.edges)
        return np.fromiter(flat, dtype=np.intp, count=2 * len(self.edges)).reshape(-1, 2).T


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
    # an exactly symmetric matrix (every Laplacian the estimators bind) passes
    # on one comparison; any other must pass np.allclose(m, m.T, rtol=0,
    # atol=1e-10), here in one pass: equal entries (matching infinities
    # included) or finite entries within 1e-10; NaN fails
    if not (m == m.T).all():
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
    """Read a :func:`graph_to_csv` edge list.

    The node count is the ``# node_count=`` line if there is one, else one
    more than the highest node. Blank lines are skipped and a UTF-8 byte
    order mark is dropped. The edge rows are parsed in one ``np.loadtxt``
    pass; a file that pass refuses is read again row by row, which names
    the first row without exactly 3 cells by its 1-based file line, and
    the first bad cell (an index that is not an integer, a weight that is
    not a finite number >= 0) by its line and column. Every ``ValueError``
    it raises starts with ``path``.
    """
    try:
        graph = _graph_loadtxt(path)
        return _graph_rows(path) if graph is None else graph
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: {err}") from None


_EDGE_ROW = np.dtype([("src", np.int64), ("dst", np.int64), ("weight", float)])
_EDGE_CELLS = (("src", int, "an integer"), ("dst", int, "an integer"), ("weight", float, "numeric"))


def _read_preamble(fh: TextIO, path: str | Path) -> tuple[int | None, int]:
    """Read the optional ``# node_count=`` line and the header row; return
    the node count given there and the number of file lines read."""
    node_count: int | None = None
    first = fh.readline()
    if first.startswith("#"):
        key, _, value = first.lstrip("# ").partition("=")
        if key.strip() == "node_count":
            try:
                node_count = int(value)
            except ValueError:
                node_count = 0  # fails the check below
            if node_count < 1:
                raise ValueError(
                    f"{path}: line 1: node_count {value.strip()!r} is not an integer >= 1"
                )
        comment_lines = 1
    else:
        fh.seek(0)
        comment_lines = 0
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != _CSV_HEADER:
        raise ValueError(f"{path}: expected header {','.join(_CSV_HEADER)}")
    return node_count, comment_lines + reader.line_num


def _graph_loadtxt(path: str | Path) -> StaticGraph | None:
    """The graph from one ``np.loadtxt`` pass over the edge rows, or None
    where that pass refuses them or they do not make a valid graph (the row
    reader then raises the message it raises for tuples)."""
    if not parses_integers_strictly():
        return None
    with open(path, newline="", encoding="utf-8-sig") as fh:
        node_count, _ = _read_preamble(fh, path)
        rows = loadtxt_rows(fh, _EDGE_ROW, ndmin=1)
    if rows is None:
        return None
    edges = np.column_stack((rows["src"], rows["dst"]))
    if node_count is None:
        node_count = 1 + int(edges.max())  # loadtxt_rows returns at least one row
    try:
        return StaticGraph(node_count, edges, rows["weight"])
    except ValueError:
        return None


def _graph_rows(path: str | Path) -> StaticGraph:
    """The graph read row by row with ``csv``, ``int`` and ``float``."""
    edges: list[tuple[int, int]] = []
    weights: list[float] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        node_count, lines = _read_preamble(fh, path)
        reader = csv.reader(fh)
        line = lines + 1
        for row in reader:
            if row:
                if len(row) != len(_CSV_HEADER):
                    raise ValueError(
                        f"{path}: line {line} has {len(row)} cells, expected {len(_CSV_HEADER)}"
                    )
                i, j, w = _edge_cells(path, line, row)
                edges.append((i, j))
                weights.append(w)
            line = lines + reader.line_num + 1  # a quoted cell may span lines
    if node_count is None:
        node_count = 1 + max((max(i, j) for i, j in edges), default=0)
    try:
        return StaticGraph(node_count, tuple(edges), tuple(weights))
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def _edge_cells(path: str | Path, line: int, row: list[str]) -> tuple[int, int, float]:
    """The src, dst and weight of one edge row; the first bad cell raises an
    error naming its 1-based file line and column."""
    values = []
    for (column, parse, kind), cell in zip(_EDGE_CELLS, row):
        try:
            values.append(parse(cell))
        except ValueError:
            raise ValueError(
                f"{path}: line {line}, column {column!r}: {cell!r} is not {kind}"
            ) from None
    if not 0.0 <= values[2] < math.inf:  # NaN fails too
        raise ValueError(
            f"{path}: line {line}, column 'weight': {row[2]!r} is not finite and >= 0"
        )
    return tuple(values)
