import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynhop import (
    StaticGraph,
    build_laplacian,
    eigendecompose,
    graph_from_csv,
    graph_to_csv,
    incidence,
)
from conftest import random_graph, union_find_components


# -- StaticGraph invariants --------------------------------------------------

def test_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        StaticGraph(3, ((1, 1),))


def test_rejects_duplicate_edge_any_orientation():
    with pytest.raises(ValueError, match="duplicate"):
        StaticGraph(3, ((0, 1), (1, 0)))


def test_rejects_negative_weight():
    with pytest.raises(ValueError):
        StaticGraph(2, ((0, 1),), (-0.5,))


def test_rejects_out_of_range_node():
    with pytest.raises(ValueError):
        StaticGraph(2, ((0, 2),))


def test_edges_canonicalized_lower_first():
    g = StaticGraph(3, ((2, 0), (1, 2)))
    assert g.edges == ((0, 2), (1, 2))


def test_adjacency_symmetric_zero_diagonal(rng):
    g = random_graph(rng, 12)
    a = g.adjacency()
    assert np.array_equal(a, a.T)
    assert np.all(np.diag(a) == 0.0)


# -- Laplacian ---------------------------------------------------------------

def test_laplacian_two_node_unit_edge():
    g = StaticGraph(2, ((0, 1),), (1.0,))
    assert np.array_equal(build_laplacian(g), [[1.0, -1.0], [-1.0, 1.0]])


def test_laplacian_triangle_unit_weights():
    g = StaticGraph(3, ((0, 1), (0, 2), (1, 2)))
    lap = build_laplacian(g)
    assert np.array_equal(np.diag(lap), [2.0, 2.0, 2.0])
    off = lap[~np.eye(3, dtype=bool)]
    assert np.all(off == -1.0)


def test_laplacian_row_sums_24_node_synthetic(rng):
    g = random_graph(rng, 24, 38)
    lap = build_laplacian(g)
    # independent summation oracle
    sums = [math.fsum(row) for row in lap.tolist()]
    assert max(abs(s) for s in sums) < 1e-12


def test_laplacian_offdiagonal_is_negative_weight(rng):
    g = random_graph(rng, 8)
    lap = build_laplacian(g)
    for (i, j), w in zip(g.edges, g.weights):
        assert lap[i, j] == -w


# -- incidence and factorization ----------------------------------------------

def test_incidence_single_edge_column():
    g = StaticGraph(2, ((0, 1),))
    assert np.array_equal(incidence(g), [[1.0], [-1.0]])


def test_incidence_path_reconstructs_laplacian():
    g = StaticGraph(3, ((0, 1), (1, 2)))
    b = incidence(g)
    assert np.allclose(b @ np.diag(g.weights) @ b.T, build_laplacian(g), atol=1e-12)


def test_factorization_identity_random_graph(rng):
    g = random_graph(rng, 8)
    b = incidence(g)
    rebuilt = (b * np.asarray(g.weights)) @ b.T
    assert np.max(np.abs(rebuilt - build_laplacian(g))) < 1e-12


# -- eigendecomposition ------------------------------------------------------

def test_eigendecompose_two_node():
    g = StaticGraph(2, ((0, 1),))
    d = eigendecompose(build_laplacian(g))
    assert np.allclose(d.eigenvalues, [0.0, 2.0], atol=1e-12)


def test_eigendecompose_triangle_complete_spectrum():
    g = StaticGraph(3, ((0, 1), (0, 2), (1, 2)))
    d = eigendecompose(build_laplacian(g))
    assert np.allclose(d.eigenvalues, [0.0, 3.0, 3.0], atol=1e-12)


def test_eigendecompose_symmetry_tolerance_is_absolute_1e_10():
    m = np.array([[2.0, 0.0], [0.0, 3.0]])  # off-diagonal differences stay exact
    eigendecompose(m + np.array([[0.0, 1e-10], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="not symmetric"):
        eigendecompose(m + np.array([[0.0, 2e-10], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="not symmetric"):
        eigendecompose(np.array([[2.0, np.nan], [np.nan, 3.0]]))


@pytest.mark.parametrize("m", [
    [[np.inf, -np.inf], [-np.inf, 1.0]],
    [[0.0, np.inf], [np.inf, 0.0]],
])
def test_eigendecompose_symmetry_check_accepts_matching_infinities(m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the check itself warns about nothing
        try:
            eigendecompose(np.array(m))
        except np.linalg.LinAlgError:
            pass  # the solver may refuse it; the symmetry check did not


@pytest.mark.parametrize("m", [
    [[0.0, np.inf], [1.0, 0.0]],
    [[0.0, np.inf], [-np.inf, 0.0]],
])
def test_eigendecompose_rejects_unmatched_infinities(m):
    with pytest.raises(ValueError, match="not symmetric"):
        eigendecompose(np.array(m))


def test_eigendecompose_reconstruction(rng):
    g = random_graph(rng, 10)
    lap = build_laplacian(g)
    d = eigendecompose(lap)
    rebuilt = (d.eigenvectors * d.eigenvalues) @ d.eigenvectors.T
    rel = np.linalg.norm(rebuilt - lap) / max(np.linalg.norm(lap), 1.0)
    assert rel < 1e-8
    assert np.all(np.diff(d.eigenvalues) >= 0)


def test_eigendecompose_orthonormal(rng):
    g = random_graph(rng, 10)
    d = eigendecompose(build_laplacian(g))
    assert np.max(np.abs(d.eigenvectors.T @ d.eigenvectors - np.eye(10))) < 1e-9


def test_eigendecompose_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        eigendecompose(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_zero_eigenvalue_multiplicity_matches_components(rng):
    # union-find oracle over graphs that may be disconnected
    for _ in range(20):
        n = int(rng.integers(3, 15))
        g = random_graph(rng, n, connected=False)
        d = eigendecompose(build_laplacian(g))
        n_zero = int(np.sum(np.abs(d.eigenvalues) < 1e-9))
        assert n_zero == union_find_components(n, g.edges)


# -- serialization -----------------------------------------------------------

def test_csv_round_trip(tmp_path, rng):
    g = random_graph(rng, 11)
    path = tmp_path / "g.csv"
    graph_to_csv(g, path)
    back = graph_from_csv(path)
    assert back.node_count == g.node_count
    assert back.edges == g.edges
    assert back.weights == g.weights


def test_csv_round_trip_isolated_trailing_node(tmp_path):
    g = StaticGraph(4, ((0, 1),), (0.25,))
    path = tmp_path / "g.csv"
    graph_to_csv(g, path)
    assert graph_from_csv(path).node_count == 4


def test_csv_read_drops_utf8_byte_order_mark(tmp_path):
    g = StaticGraph(4, ((0, 1), (2, 3)), (0.25, 1.0))
    plain = tmp_path / "g.csv"
    graph_to_csv(g, plain)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(plain.read_text().encode("utf-8-sig"))
    back = graph_from_csv(bom)
    assert (back.node_count, back.edges, back.weights) == (4, g.edges, g.weights)
    # without the "# node_count" line the header row follows the mark
    bom.write_bytes("src,dst,weight\n0,1,0.5\n".encode("utf-8-sig"))
    assert graph_from_csv(bom).edges == ((0, 1),)


# -- property tests ----------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 30))
def test_structural_invariants_randomized(seed, n):
    g = random_graph(np.random.default_rng(seed), n)
    lap = build_laplacian(g)
    sums = [math.fsum(row) for row in lap.tolist()]
    assert max(abs(s) for s in sums) < 1e-12
    assert np.linalg.eigvalsh(lap)[0] >= -1e-9
    b = incidence(g)
    assert np.max(np.abs((b * np.asarray(g.weights)) @ b.T - lap)) < 1e-12
