import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dynhop import graphs
from dynhop._loadtxt import parses_integers_strictly
from dynhop import (
    StaticGraph,
    build_laplacian,
    eigendecompose,
    graph_from_csv,
    graph_to_csv,
    incidence,
)
from conftest import csv_path_outcomes, random_graph, union_find_components


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


def test_rejects_an_empty_node_set():
    with pytest.raises(ValueError, match="node_count must be >= 1"):
        StaticGraph(0, ())


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


def allclose_to_transpose(m):
    """The accepted set of eigendecompose's symmetry check."""
    return np.allclose(m, m.T, rtol=0, atol=1e-10)


def test_eigendecompose_symmetry_tolerance_is_absolute_1e_10():
    m = np.array([[2.0, 0.0], [0.0, 3.0]])  # off-diagonal differences stay exact
    eigendecompose(m + np.array([[0.0, 1e-10], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="not symmetric"):
        eigendecompose(m + np.array([[0.0, 2e-10], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="not symmetric"):
        eigendecompose(np.array([[2.0, np.nan], [np.nan, 3.0]]))
    # an exactly symmetric matrix takes one comparison, any other the
    # tolerance test; both accept what np.allclose accepts
    lap = np.array([[1.0, -0.25, -0.75], [-0.25, 0.5, -0.25], [-0.75, -0.25, 1.0]])
    cases = [(lap, True)]
    for delta, accepted in ((1e-11, True), (1e-9, False)):
        skewed = lap.copy()
        skewed[0, 2] += delta
        cases.append((skewed, accepted))
    nan = lap.copy()
    nan[0, 2] = nan[2, 0] = np.nan
    cases.append((nan, False))
    for m, accepted in cases:
        assert allclose_to_transpose(m) is accepted
        if accepted:
            eigendecompose(m)
        else:
            with pytest.raises(ValueError, match="not symmetric"):
                eigendecompose(m)


@pytest.mark.parametrize("m", [
    [[np.inf, -np.inf], [-np.inf, 1.0]],
    [[0.0, np.inf], [np.inf, 0.0]],
    # matching +inf and -inf next to a 1e-11 asymmetry: the tolerance test
    [[0.0, np.inf, -np.inf], [np.inf, 0.0, 1.0], [-np.inf, 1.0 + 1e-11, 0.0]],
])
def test_eigendecompose_symmetry_check_accepts_matching_infinities(m):
    assert allclose_to_transpose(np.array(m))
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
    assert not allclose_to_transpose(np.array(m))
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


@pytest.mark.parametrize("m", [np.zeros((2, 3)), np.zeros(4), np.zeros((2, 2, 2))],
                         ids=["2x3", "vector", "3-d"])
def test_eigendecompose_rejects_a_non_square_matrix(m):
    with pytest.raises(ValueError, match=rf"expected a square matrix, got shape {re.escape(str(m.shape))}"):
        eigendecompose(m)


def test_spectral_decomposition_views_its_arrays_and_checks_their_order():
    v, u = np.array([1.0, 1.0, 3.0]), np.eye(3)
    d = graphs.SpectralDecomposition(v, u)
    # read-only views: nothing copied, and the caller's arrays stay writeable
    assert v.flags.writeable and u.flags.writeable
    assert not (d.eigenvalues.flags.writeable or d.eigenvectors.flags.writeable)
    assert np.shares_memory(d.eigenvalues, v) and np.shares_memory(d.eigenvectors, u)
    with pytest.raises(ValueError, match="ascending"):
        graphs.SpectralDecomposition(np.array([3.0, 1.0]), np.eye(2))
    for values in ([1.0, np.nan], [np.nan, 1.0], [np.nan]):
        with pytest.raises(np.linalg.LinAlgError, match="not NaN"):
            graphs.SpectralDecomposition(np.array(values), np.eye(len(values)))
    # n eigenvalues need an n-by-n eigenvector matrix
    for values, vectors in (([1.0, 2.0], np.eye(3)), ([1.0, 2.0], np.ones((2, 3))),
                            ([[1.0, 2.0]], np.eye(2)), ([1.0, 2.0], np.ones(2))):
        with pytest.raises(ValueError, match="need n eigenvalues and an n-by-n eigenvector matrix"):
            graphs.SpectralDecomposition(np.array(values), vectors)


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


@pytest.mark.parametrize("text, node_count, line", [
    ("\nsrc,dst,weight\n0,1,1.0\n", 2, 4),
    ("# node_count=3\n\nsrc,dst,weight\n0,1,1.0\n", 3, 5),
    ("\r\n# node_count=3\r\n\r\nsrc,dst,weight\r\n0,1,1.0\r\n", 3, 6),
], ids=["before-header", "after-node-count", "crlf-before-both"])
def test_csv_blank_lines_before_the_header_are_skipped(tmp_path, text, node_count, line):
    path = tmp_path / "g.csv"
    path.write_bytes(text.encode())
    with mock.patch.object(graphs, "loadtxt_pass", return_value=None):  # the row reader
        rows = graph_from_csv(path)
    for g in (graph_from_csv(path), rows):
        assert (g.node_count, g.edges, g.weights) == (node_count, ((0, 1),), (1.0,))
    # rows after the header keep their file line numbers
    path.write_bytes(text.encode() + b"1,2,x\n")
    with pytest.raises(ValueError) as err:
        graph_from_csv(path)
    assert str(err.value) == f"{path}: line {line}, column 'weight': 'x' is not numeric"


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


# -- edge-list parsing and array validation ----------------------------------

def test_csv_rows_must_have_three_cells(tmp_path):
    path = tmp_path / "g.csv"
    for row, cells in (("0,1", 2), ("0,1,0.5,7", 4), ("  ", 1)):
        path.write_text(f"# node_count=3\nsrc,dst,weight\n1,2,1.0\n\n{row}\n")
        with pytest.raises(ValueError) as err:
            graph_from_csv(path)
        assert str(err.value) == f"{path}: line 5 has {cells} cells, expected 3"


@pytest.mark.parametrize("row, message", [
    ("x,1,1.0", "column 'src': 'x' is not an integer"),
    ("0,1.5,1.0", "column 'dst': '1.5' is not an integer"),
    ("0,1,abc", "column 'weight': 'abc' is not numeric"),
    ("0,1,-1.0", "column 'weight': '-1.0' is not finite and >= 0"),
], ids=["src", "dst", "weight", "negative-weight"])
def test_csv_bad_cells_name_their_line_and_column(tmp_path, row, message):
    path = tmp_path / "g.csv"
    path.write_text(f"# node_count=3\nsrc,dst,weight\n1,2,1.0\n\n{row}\n")
    with pytest.raises(ValueError) as err:
        graph_from_csv(path)
    assert str(err.value) == f"{path}: line 5, {message}"


@pytest.mark.parametrize("text, message", [
    ("# node_count=abc\nsrc,dst,weight\n0,1,1.0\n",
     "line 1: node_count 'abc' is not an integer >= 1"),
    ("# node_count=1e3\nsrc,dst,weight\n0,1,1.0\n",
     "line 1: node_count '1e3' is not an integer >= 1"),
    ("# node_count=0\nsrc,dst,weight\n", "line 1: node_count '0' is not an integer >= 1"),
    ("src,dst,weight\n0,1,1.0\n2,2,1.0\n", "self-loop at node 2"),
    ("src,dst,weight\n0,1,1.0\n1,0,0.5\n", "duplicate edge (0, 1)"),
    ("# node_count=2\nsrc,dst,weight\n0,3,1.0\n",
     "edge (0, 3) references a node outside 0..1"),
    # the inferred node count is at least 1, so the edge is what is refused
    ("src,dst,weight\n-1,-2,0.5\n", "edge (-1, -2) references a node outside 0..0"),
    # the preamble reader reaches the end of the file before a header
    ("", "expected header src,dst,weight"),
    ("\n\n", "expected header src,dst,weight"),
    ("# node_count=3\n", "expected header src,dst,weight"),
    # a comment is a raw line starting with "#"; this quoted cell is a header
    ('"# node_count=3"\nsrc,dst,weight\n0,1,1.0\n', "expected header src,dst,weight"),
], ids=["node-count-abc", "node-count-1e3", "node-count-0", "self-loop", "duplicate",
        "outside-node-count", "negative-nodes", "empty", "blank-lines-only", "node-count-only",
        "quoted-node-count"])
def test_csv_graph_errors_name_the_file(tmp_path, text, message):
    path = tmp_path / "g.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        graph_from_csv(path)
    assert str(err.value) == f"{path}: {message}"
    # the row reader alone raises the same, and so does the loadtxt pass alone
    rows, fast = csv_path_outcomes(graphs, lambda: graph_outcome(graph_from_csv, path))
    assert rows == (ValueError, str(err.value))
    assert fast == rows or not parses_integers_strictly()


@pytest.mark.parametrize("text", [
    "# generated by hand\nsrc,dst,weight\n0,1,1.0\n",
    'src,"dst\n",weight\n0,1,1.0\n',
    '# made by tool,"v1\nsrc,dst,weight\n0,1,1\n',
], ids=["other-comment", "header-cell-spans-lines", "comment-with-quote"])
def test_csv_preamble_reads_the_same_on_both_paths(tmp_path, text):
    path = tmp_path / "g.csv"
    path.write_text(text)
    rows, fast = csv_path_outcomes(graphs, lambda: graph_outcome(graph_from_csv, path))
    assert rows == (2, ((0, 1),), np.array([1.0]).tobytes())
    assert fast == (rows if parses_integers_strictly() else None)
    # a later bad row keeps its file line number
    path.write_text(text + "1,2,x\n")
    assert graph_outcome(graph_from_csv, path) == (
        ValueError, f"{path}: line 4, column 'weight': 'x' is not numeric")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(comment=st.text(st.one_of(st.sampled_from('",# ='), st.characters(
    exclude_categories=("Cs",), exclude_characters="\r\n")), max_size=20))
def test_csv_comment_line_is_raw_text(tmp_path_factory, comment):
    """Any one line after "#" but a node_count key leaves the graph as it is
    without that line, on both paths."""
    key = f"#{comment}".lstrip("# ").partition("=")[0]
    assume(key.strip() != "node_count")
    body = "src,dst,weight\n0,1,0.5\n1,2,1.0\n\n2,4,0.25\n"
    folder = tmp_path_factory.mktemp("comment")
    plain, commented = folder / "plain.csv", folder / "commented.csv"
    plain.write_text(body, encoding="utf-8")
    commented.write_text(f"#{comment}\n{body}", encoding="utf-8")
    expected = csv_path_outcomes(graphs, lambda: graph_outcome(graph_from_csv, plain))
    assert expected[0] == (5, ((0, 1), (1, 2), (2, 4)), np.array([0.5, 1.0, 0.25]).tobytes())
    assert csv_path_outcomes(graphs, lambda: graph_outcome(graph_from_csv, commented)) == expected


def test_csv_graph_is_built_once(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("src,dst,weight\n0,1,1.0\n2,2,1.0\n")  # the loadtxt pass accepts it
    with mock.patch.object(graphs, "StaticGraph", wraps=StaticGraph) as built:
        with pytest.raises(ValueError, match="self-loop at node 2"):
            graph_from_csv(path)
    assert built.call_count == 1


def test_csv_that_is_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "g.csv"
    path.write_bytes(b"src,dst,weight\n0,1,\xff\n")
    with pytest.raises(ValueError) as err:
        graph_from_csv(path)
    assert str(err.value).startswith(f"{path}: 'utf-8' codec can't decode")


def test_csv_edge_list_is_parsed_in_one_loadtxt_pass(tmp_path, rng):
    g = random_graph(rng, 30, 60)
    path = tmp_path / "g.csv"
    graph_to_csv(g, path)
    _, fast = csv_path_outcomes(graphs, lambda: graph_from_csv(path))
    if not parses_integers_strictly():  # this NumPy reads "1.0" as an integer
        assert fast is None
        return
    assert fast == g
    assert np.array(fast.weights).tobytes() == np.array(g.weights).tobytes()


def test_numpy_that_reads_floats_as_integers_gets_the_row_reader(tmp_path, monkeypatch, rng):
    # NumPy releases that parse an integer cell through float (with a
    # DeprecationWarning) are stood in for by a patched np.loadtxt; the cached
    # probe is cleared so that it sees the patch, and again afterwards
    g = random_graph(rng, 30, 60)
    path = tmp_path / "g.csv"
    graph_to_csv(g, path)
    _, fast = csv_path_outcomes(graphs, lambda: graph_from_csv(path))
    real = np.loadtxt

    def lenient_loadtxt(rows, *args, dtype=float, **kwargs):
        if np.dtype(dtype).kind not in "iu":
            return real(rows, *args, dtype=dtype, **kwargs)
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        return real(rows, *args, dtype=float, **kwargs).astype(dtype)

    def no_loadtxt_pass(*args, **kwargs):
        raise AssertionError("the loadtxt pass ran on a NumPy that is not strict")

    monkeypatch.setattr(np, "loadtxt", lenient_loadtxt)
    monkeypatch.setattr(graphs, "loadtxt_pass", no_loadtxt_pass)
    parses_integers_strictly.cache_clear()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            assert parses_integers_strictly() is False  # "1.0" read as 1
        parses_integers_strictly.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert parses_integers_strictly() is False  # the warning, raised
        slow = graph_from_csv(path)
    finally:
        parses_integers_strictly.cache_clear()
    for want in (g,) if fast is None else (g, fast):
        assert (slow.node_count, slow.edges) == (want.node_count, want.edges)
        assert np.array(slow.weights).tobytes() == np.array(want.weights).tobytes()


def graph_outcome(read, path):
    """A graph's node count, edges and weight bits, the error it raises, or
    None where ``read`` refuses the file."""
    try:
        g = read(path)
    except ValueError as err:
        return type(err), str(err)
    return None if g is None else (g.node_count, g.edges, np.array(g.weights).tobytes())


INDEX_CELLS = st.one_of(
    st.integers(0, 6).map(str),
    st.sampled_from(["-1", " 2 ", "+1", "01", "1.0", "1e0", "1_0", "٣", "", " ", "x", "#1",
                     '"1"', "99999999999999999999"]),
)
NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(0, 10, allow_nan=False).map(lambda x: f"{x:.4g}"),
    st.integers(-5, 10**30).map(str),
    st.sampled_from(["inf", "-inf", "nan", "NaN", "1e400", "1e-400", " 0.5 ", "+.5", "5.",
                     "1_0", "٣.5", " 0.25", "0x10", "", " ", "x", '"0.5"', '"1\n"']),
)


@st.composite
def edge_list_csv(draw):
    """Edge-list text with some of the forms either parser may refuse."""
    lines = []
    if draw(st.booleans()):
        lines.append(f"# node_count={draw(st.integers(1, 8))}")
    lines.append(draw(st.sampled_from(["src,dst,weight", " src , dst ,weight"])))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "space", "short", "long"]))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(" \t")
        else:
            cells = [draw(INDEX_CELLS), draw(INDEX_CELLS), draw(NUMBER_CELLS)]
            lines.append(",".join(cells[:2] if kind == "short" else
                                  cells + ["1"] if kind == "long" else cells))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline])), draw(st.booleans())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=edge_list_csv())
def test_loadtxt_pass_reads_edge_lists_like_the_row_reader(tmp_path_factory, case):
    text, bom = case
    path = tmp_path_factory.mktemp("edges") / "g.csv"
    path.write_bytes(text.encode("utf-8-sig" if bom else "utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected, fast = csv_path_outcomes(graphs, lambda: graph_outcome(graph_from_csv, path))
        assert graph_outcome(graph_from_csv, path) == expected
    assert fast is None or fast == expected


BAD_EDGES = [
    (((0, 1), (2, 2), (3, 3)), None, "self-loop at node 2"),
    (((0, 1), (1, 4), (2, 2)), None, "edge (1, 4) references a node outside 0..3"),
    (((0, 1), (-1, 2)), None, "edge (-1, 2) references a node outside 0..3"),
    (((0, 1), (2, 3), (3, 2), (1, 0)), None, "duplicate edge (2, 3)"),
    (((0, 1), (1, 2)), (0.5,), "1 weights for 2 edges"),
    (((0, 1), (1, 2), (2, 3)), (0.5, -1.0, math.nan), "weights must be finite and >= 0, got -1.0"),
    (((0, 1), (1, 2)), (math.inf, -1.0), "weights must be finite and >= 0, got inf"),
    (((0, 1), (0.0, 1.5), (2, 2)), None, "edge (0.0, 1.5) has a non-integer node index"),
    (np.array([[0.0, 1.5]]), None, "edge array([0. , 1.5]) has a non-integer node index"),
]


@pytest.mark.parametrize("edges, weights, message", BAD_EDGES,
                         ids=["self-loop", "high-node", "negative-node", "duplicate",
                              "weight-count", "negative-weight", "infinite-weight",
                              "float-node", "float-array"])
def test_bad_edges_raise_the_first_bad_edge_message(edges, weights, message):
    with pytest.raises(ValueError) as err:
        StaticGraph(4, edges, weights)
    assert str(err.value) == message


def loop_adjacency(g):
    """Per-edge reference of StaticGraph.adjacency()."""
    a = np.zeros((g.node_count, g.node_count))
    for (i, j), w in zip(g.edges, g.weights):
        a[i, j] = a[j, i] = w
    return a


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(1, 7),
       pairs=st.lists(st.tuples(st.integers(-1, 7), st.integers(-1, 7)), max_size=10))
def test_array_checks_match_the_per_edge_loop(n, pairs):
    """Pairs as tuples, lists or integer arrays build the graph the tuple
    form builds, or raise the message the tuple form raises."""
    weights = tuple(0.25 * k for k in range(len(pairs)))
    forms = [tuple(pairs), [list(p) for p in pairs]]
    if pairs:
        forms += [np.array(pairs, dtype=np.int64), np.array(pairs, dtype=np.int32)]
    try:
        expected = StaticGraph(n, forms[0], weights)
    except ValueError as err:
        for form in forms[1:]:
            with pytest.raises(ValueError) as raised:
                StaticGraph(n, form, weights)
            assert str(raised.value) == str(err)
        return
    assert expected.edges == tuple((min(p), max(p)) for p in pairs)
    for form in forms:
        g = StaticGraph(n, form, weights)
        assert g == expected
        assert all(type(v) is int for pair in g.edges for v in pair)
        assert np.array_equal(g.adjacency(), loop_adjacency(g))
        assert np.array_equal(g.edge_mask(), loop_adjacency(StaticGraph(n, g.edges)) > 0)
