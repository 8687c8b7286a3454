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
from operator import index
from pathlib import Path
from typing import TextIO

import numpy as np

from ._loadtxt import cell_value, csv_file, loadtxt_rows, numbered_rows, parses_integers_strictly

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
    """``edges`` as lower-index-first pairs of ints, checked on ``n`` nodes:
    in edge order, raise on the first non-integer index, self-loop,
    out-of-range node or duplicate pair. An integer array is read as lists
    of Python ints, so pairs of ints given as tuples, lists or an array
    raise the same messages.
    """
    if isinstance(edges, np.ndarray) and edges.dtype.kind in "iu":
        edges = edges.tolist()
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
            raise ValueError(f"edge {(i, j)!r} references a node outside 0..{n - 1}")
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

    @property
    def edge_count(self) -> int:
        return len(self.edges)

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
    i, j = g._ends()
    k = np.arange(g.edge_count)
    b[i, k] = 1.0
    b[j, k] = -1.0
    return b


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs of a symmetric matrix, eigenvalues ascending.

    The fields are read-only views of the given arrays, which stay writeable.
    Unsorted eigenvalues raise ``ValueError``; NaN ones, a failed solve,
    ``numpy.linalg.LinAlgError`` (a ``ValueError`` too).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.eigenvalues, dtype=float).view()
        vecs = np.asarray(self.eigenvectors, dtype=float).view()
        if vals.ndim != 1 or vecs.shape != (vals.size, vals.size):
            raise ValueError("need n eigenvalues and an n-by-n eigenvector matrix")
        # a NaN fails its comparison with a neighbour; a lone one is tested
        if not (vals[:-1] <= vals[1:]).all() or (vals.size == 1 and np.isnan(vals[0])):
            error = np.linalg.LinAlgError if np.isnan(vals).any() else ValueError
            raise error("eigenvalues must be ascending and not NaN")
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
    return SpectralDecomposition(*np.linalg.eigh(m))


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
    pass; a file that pass refuses is read again with the package's CSV row
    reader (``dynhop._loadtxt``), which names the first row without exactly
    3 cells by its 1-based file line, and the first bad cell (an index that
    is not an integer, a weight that is not a finite number >= 0) by its
    line and column. Every ``ValueError`` it raises starts with ``path``.
    """
    graph = _graph_loadtxt(path)
    return _graph_rows(path) if graph is None else graph


_EDGE_ROW = np.dtype([("src", np.int64), ("dst", np.int64), ("weight", float)])
_WEIGHT = (lambda w: 0.0 <= w < math.inf, "finite and >= 0")  # NaN fails too


def _next_line(fh: TextIO) -> tuple[str, int]:
    """The next line of ``fh`` that is not blank ("" at the end), and the
    number of lines read up to and including it."""
    read = 0
    for line in iter(fh.readline, ""):
        read += 1
        if line.rstrip("\r\n"):
            return line, read
    return "", read


def _read_preamble(fh: TextIO, path: str | Path) -> tuple[int | None, int]:
    """Read the optional ``# node_count=`` line and the header row, blank
    lines before either skipped; return the node count given there and the
    number of file lines read."""
    node_count: int | None = None
    line, lines = _next_line(fh)
    if line.startswith("#"):
        key, _, value = line.lstrip("# ").partition("=")
        if key.strip() == "node_count":
            try:
                node_count = int(value)
            except ValueError:
                node_count = 0  # fails the check below
            if node_count < 1:
                raise ValueError(
                    f"{path}: line {lines}: node_count {value.strip()!r} is not an integer >= 1"
                )
        line, read = _next_line(fh)
        lines += read
    # a quoted header cell may run on into the following lines
    reader = csv.reader(chain((line,), fh))
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != _CSV_HEADER:
        raise ValueError(f"{path}: expected header {','.join(_CSV_HEADER)}")
    return node_count, lines - 1 + reader.line_num


def _graph_loadtxt(path: str | Path) -> StaticGraph | None:
    """The graph from one ``np.loadtxt`` pass over the edge rows, or None
    where that pass refuses them or they do not make a valid graph (the row
    reader then raises the message of the first bad row)."""
    if not parses_integers_strictly():
        return None
    with csv_file(path) as fh:
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
    """The graph read with the row reader, in file order."""
    edges: list[tuple[int, int]] = []
    weights: list[float] = []
    with csv_file(path) as fh:
        node_count, lines = _read_preamble(fh, path)
        for line, (i, j, w) in numbered_rows(fh, path, len(_CSV_HEADER), lines):
            edges.append((cell_value(path, line, "src", i, int),
                          cell_value(path, line, "dst", j, int)))
            weights.append(cell_value(path, line, "weight", w, accept=_WEIGHT))
    if node_count is None:
        node_count = 1 + max((max(i, j) for i, j in edges), default=0)
    try:
        return StaticGraph(node_count, tuple(edges), tuple(weights))
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
