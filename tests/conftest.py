from unittest import mock

import numpy as np
import pytest

from dynhop import StaticGraph


def random_graph(rng: np.random.Generator, n: int, n_edges: int | None = None,
                 connected: bool = True, unit_weights: bool = False) -> StaticGraph:
    """Random graph for tests: spanning tree plus extra edges, U[0,1] weights."""
    edges: set[tuple[int, int]] = set()
    if connected and n > 1:
        order = rng.permutation(n)
        for k in range(1, n):
            a = int(order[k])
            b = int(order[int(rng.integers(0, k))])
            edges.add((min(a, b), max(a, b)))
    max_edges = n * (n - 1) // 2
    if n_edges is None:
        n_edges = min(max_edges, len(edges) + int(rng.integers(0, n)))
    n_edges = max(len(edges), min(n_edges, max_edges))
    spare = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    extra = rng.choice(len(spare), size=n_edges - len(edges), replace=False) if spare else []
    for k in extra:
        edges.add(spare[int(k)])
    edge_list = tuple(sorted(edges))
    if unit_weights:
        weights = tuple(1.0 for _ in edge_list)
    else:
        weights = tuple(float(w) for w in rng.uniform(0.05, 1.0, size=len(edge_list)))
    return StaticGraph(n, edge_list, weights)


def union_find_components(n: int, edges) -> int:
    """Independent connected-component count (union-find)."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    return len({find(i) for i in range(n)})


class RowReaderRan(Exception):
    """Raised by a stand-in cell parser: the file reached the row reader."""


def csv_path_outcomes(module, outcome):
    """``outcome()``, a read of one CSV file, with the row reader alone
    (``module``'s loadtxt pass refusing every file), and with the loadtxt
    pass alone (None where the file would reach ``module``'s row reader)."""
    with mock.patch.object(module, "loadtxt_pass", return_value=None):
        rows = outcome()
    with mock.patch.object(module, "cell_value", side_effect=RowReaderRan):
        try:
            fast = outcome()
        except RowReaderRan:
            fast = None
    return rows, fast


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
