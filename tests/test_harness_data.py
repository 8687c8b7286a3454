import logging
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynhop.edge_dynamics import NodeSignalSeries
from dynhop.graphs import graph_from_csv
from dynhop.harness import data
from dynhop.harness import (
    DataError,
    GraphBuildSpec,
    SplitSpec,
    build_initial_graph,
    ingest_csv,
    normalize_by_train_mean,
    series_to_csv,
)
from dynhop.harness.experiment import read_reports


def write(tmp_path, text, name="series.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


# -- ingestion ---------------------------------------------------------------

def test_ingest_two_by_two(tmp_path):
    path = write(tmp_path, "a,b\n1.0,2.0\n3.0,4.5\n")
    series = ingest_csv(path)
    assert series.values.shape == (2, 2)
    assert series.labels == ("a", "b")
    assert series.values[1, 1] == 4.5


def test_ingest_non_numeric_cell_names_row_and_column(tmp_path):
    path = write(tmp_path, "a,b\n1.0,2.0\n3.0,oops\n")
    with pytest.raises(DataError, match=r"line 3.*'b'.*oops"):
        ingest_csv(path)


def test_ingest_non_finite_cell_rejected(tmp_path):
    path = write(tmp_path, "a,b\n1.0,inf\n")
    with pytest.raises(DataError, match="not finite"):
        ingest_csv(path)


def test_ingest_ragged_row(tmp_path):
    path = write(tmp_path, "a,b\n1.0,2.0\n3.0\n")
    with pytest.raises(DataError, match="line 3"):
        ingest_csv(path)


def test_ingest_empty_file(tmp_path):
    with pytest.raises(DataError):
        ingest_csv(write(tmp_path, ""))


def test_ingest_header_only(tmp_path):
    with pytest.raises(DataError, match="no data rows"):
        ingest_csv(write(tmp_path, "a,b\n"))


def test_ingest_errors_name_the_first_bad_row_in_file_order(tmp_path):
    path = write(tmp_path, "a,b\n1.0,2.0\n3.0,nan\n4.0\n5.0,x\n")
    with pytest.raises(DataError) as err:
        ingest_csv(path)
    assert str(err.value) == f"{path}: line 3, column 'b': 'nan' is not finite"
    path = write(tmp_path, "a,b\n1.0,2.0\n4.0\n5.0,x\n")
    with pytest.raises(DataError) as err:
        ingest_csv(path)
    assert str(err.value) == f"{path}: line 3 has 1 cells, expected 2"
    path = write(tmp_path, "a,b\n1.0,2.0\n5.0, x \n")
    with pytest.raises(DataError) as err:
        ingest_csv(path)
    assert str(err.value) == f"{path}: line 3, column 'b': ' x ' is not numeric"


def read_curve(path):
    path.with_name("manifest.json").write_text('{"results": {"c": {}}}')
    return read_reports(path.parent)


# per file kind: its reader, file name, header and one good row, and the
# cells of a row before its last column
FILE_KINDS = {
    "series": (ingest_csv, "s.csv", "a,mse\n1,2\n", "1"),
    "graph": (graph_from_csv, "g.csv", "src,dst,weight\n0,1,1.0\n", "0,2"),
    "curve": (read_curve, "c_mse.csv", "t,mse\n1,2.0\n", "2"),
}


@pytest.mark.parametrize("kind", FILE_KINDS)
def test_series_graph_and_curve_files_name_a_bad_row_and_cell_alike(tmp_path, kind):
    read, name, head, lead = FILE_KINDS[kind]
    header = head.splitlines()[0].split(",")
    path = tmp_path / name
    path.write_text(head + "7\n")
    with pytest.raises((DataError, ValueError)) as err:
        read(path)
    assert str(err.value) == f"{path}: line 3 has 1 cells, expected {len(header)}"
    path.write_text(head + lead + ",oops\n")
    with pytest.raises((DataError, ValueError)) as err:
        read(path)
    assert str(err.value) == f"{path}: line 3, column {header[-1]!r}: 'oops' is not numeric"
    path.write_text(head + lead + "," + "x" * 200_000 + "\n")
    with pytest.raises((DataError, ValueError)) as err:
        read(path)
    assert str(err.value).startswith(f"{path}: field larger than field limit")


def test_ingest_skips_blank_lines_and_counts_file_lines(tmp_path):
    series = ingest_csv(write(tmp_path, "a,b\n1,2\n3,4\n\n"))
    assert series.labels == ("a", "b")
    assert np.array_equal(series.values, [[1.0, 2.0], [3.0, 4.0]])
    series = ingest_csv(write(tmp_path, "a,b\n\n1,2\n\n3,4\n"))
    assert np.array_equal(series.values, [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(DataError, match=r"line 5, column 'b'"):
        ingest_csv(write(tmp_path, "a,b\n1,2\n\n\n3,oops\n"))
    # a quoted cell spanning two lines moves every later row down one line
    with pytest.raises(DataError, match=r"line 4, column 'b'"):
        ingest_csv(write(tmp_path, 'a,b\n"1\n",2\n3,oops\n'))
    with pytest.raises(DataError, match="no data rows"):
        ingest_csv(write(tmp_path, "a,b\n\n\n"))


def test_ingest_drops_utf8_byte_order_mark(tmp_path):
    text = "a,b\n0.1,2.5\n-3e-7,4\n"
    plain = ingest_csv(write(tmp_path, text, "plain.csv"))
    path = tmp_path / "bom.csv"
    path.write_bytes(text.encode("utf-8-sig"))
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    series = ingest_csv(path)
    assert series.labels == ("a", "b")
    assert np.array_equal(series.values, plain.values)


@pytest.mark.parametrize("text", [b"a,b\n1.0,\xff\n", b"\xffa,b\n1.0,2.0\n"],
                         ids=["data-row", "header"])
def test_ingest_file_that_is_not_utf8_is_a_data_error_naming_it(tmp_path, text):
    path = tmp_path / "series.csv"
    path.write_bytes(text)
    with pytest.raises(DataError) as err:
        ingest_csv(path)
    assert str(err.value).startswith(f"{path}: 'utf-8' codec can't decode byte 0xff")
    assert str(err.value).count(str(path)) == 1


def test_series_csv_round_trips_non_ascii_labels_as_utf8(tmp_path, rng):
    labels = ("café", "日経", "b")
    series = NodeSignalSeries(rng.standard_normal((4, 3)), labels=labels)
    path = tmp_path / "labels.csv"
    series_to_csv(series, path)
    # the file is UTF-8 whatever the locale's encoding
    assert path.read_bytes().decode("utf-8").splitlines()[0] == ",".join(labels)
    back = ingest_csv(path)
    assert back.labels == labels
    assert np.array_equal(back.values, series.values)


def test_ingest_market_shaped_file(tmp_path, rng):
    # 26 columns over 1238 steps, the shape of a global-index closing series
    values = rng.standard_normal((1238, 26))
    series = NodeSignalSeries(values, labels=tuple(f"m{i}" for i in range(26)))
    path = tmp_path / "markets.csv"
    series_to_csv(series, path)
    back = ingest_csv(path)
    assert back.steps == 1238
    assert back.node_count == 26
    assert np.array_equal(back.values, values)


def test_series_csv_round_trip_exact(tmp_path, rng):
    series = NodeSignalSeries(rng.standard_normal((7, 3)))
    path = tmp_path / "s.csv"
    series_to_csv(series, path)
    assert np.array_equal(ingest_csv(path).values, series.values)


def series_outcome(read, path):
    """A series' labels and value bits, the message of the error it raises,
    or None where ``read`` refuses the file."""
    try:
        series = read(path)
    except (DataError, ValueError) as err:
        return str(err)
    if series is None:
        return None
    return series.labels, series.values.shape, series.values.tobytes()


PLAIN_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e3, 1e3).map(lambda x: f"{x:.5g}"),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from([" 0.5 ", "+.5", "5.", "-0", "1e-400", "1E3", "\t2"]),
)
ODD_CELLS = st.sampled_from([
    "inf", "-Infinity", "nan", "1e400", "1_0", "١", "٣.5", "0x10", "", " ", "x", "#1",
    '"0.5"', '"1\n"', '"1,5"', "1\x00", "\u00a01", "2\u2028", "1\x1c",
])


@st.composite
def series_csv(draw):
    """Series text, and whether it holds only forms the loadtxt pass accepts."""
    n = draw(st.integers(1, 4))
    header = draw(st.lists(st.sampled_from(["a", " b ", "日経", '"c,d"', "e"]),
                           min_size=n, max_size=n))
    lines = [",".join(header)]
    plain = True
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 8 + ["odd", "blank", "space", "ragged", "hash"]))
        if kind == "blank":
            lines.append("")
            continue
        if kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", " \x0c"])))
        else:
            cells = draw(st.lists(PLAIN_CELLS, min_size=n, max_size=n))
            if kind == "odd":
                cells[draw(st.integers(0, n - 1))] = draw(ODD_CELLS)
            if kind == "ragged":
                cells = cells[:-1] if draw(st.booleans()) else cells + ["1"]
            lines.append(("#" if kind == "hash" else "") + ",".join(cells))
        plain = plain and kind == "row"
    plain = plain and len(lines) > 1 + lines.count("")
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = draw(st.sampled_from(["", newline])) + newline.join(lines)
    return text + draw(st.sampled_from(["", newline])), draw(st.booleans()), plain


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=series_csv())
def test_loadtxt_pass_reads_series_like_the_row_reader(tmp_path_factory, case):
    text, bom, plain = case
    path = tmp_path_factory.mktemp("series") / "s.csv"
    path.write_bytes(text.encode("utf-8-sig" if bom else "utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = series_outcome(data._ingest_rows, path)
        assert series_outcome(ingest_csv, path) == expected
        fast = series_outcome(data._ingest_loadtxt, path)
    assert fast == expected if plain else fast is None or fast == expected


# -- splits --------------------------------------------------------------------

def test_splits_must_be_ordered():
    with pytest.raises(ValueError):
        SplitSpec((1, 40), (30, 60), (61, 100))
    with pytest.raises(ValueError):
        SplitSpec((1, 40), (41, 60), (55, 100))
    for train in ((0, 40), (10, 5)):
        with pytest.raises(ValueError, match=re.escape(f"bad train range {train}")):
            SplitSpec(train, (41, 60), (61, 100))


def test_splits_open_test_end_resolution():
    splits = SplitSpec((1, 40), (41, 60), (61, None)).resolve(196)
    assert splits.test == (61, 196)
    assert splits.rows("test") == slice(60, 196)
    with pytest.raises(ValueError, match=r"resolve\(\) the spec before slicing an open test range"):
        SplitSpec((1, 40), (41, 60), (61, None)).rows("test")
    with pytest.raises(ValueError):
        SplitSpec((1, 40), (41, 60), (61, 300)).resolve(200)


def test_split_rows_are_zero_based_half_open():
    splits = SplitSpec((1, 40), (41, 60), (61, 200))
    assert splits.rows("train") == slice(0, 40)
    assert splits.rows("validation") == slice(40, 60)


# -- normalization ----------------------------------------------------------------

SPLITS = SplitSpec((1, 10), (11, 12), (13, 20))


def test_normalize_rejects_an_empty_train_slice():
    # the train range lies past the end of a 6-step series, or ends past it
    for train in ((8, 10), (1, 10)):
        with pytest.raises(ValueError,
                           match=rf"train range \({train[0]}, 10\) ends past the 6-step series"):
            normalize_by_train_mean(NodeSignalSeries(np.ones((6, 2))),
                                    SplitSpec(train, (11, 12), (13, 20)))


def test_normalize_constant_node_becomes_one():
    values = np.column_stack([np.full(20, 5.0), np.arange(1.0, 21.0)])
    out = normalize_by_train_mean(NodeSignalSeries(values), SPLITS)
    assert np.allclose(out.values[:, 0], 1.0, atol=1e-15)


def test_normalize_zero_mean_node_passes_through(caplog):
    values = np.column_stack([np.concatenate([np.ones(5), -np.ones(5), np.zeros(10)]),
                              np.full(20, 2.0)])
    with caplog.at_level(logging.WARNING):
        out = normalize_by_train_mean(NodeSignalSeries(values), SPLITS)
    assert "unscaled" in caplog.text
    assert np.array_equal(out.values[:, 0], values[:, 0])
    assert np.allclose(out.values[:, 1], 1.0)


def test_normalize_recompute_oracle(rng):
    values = rng.uniform(1.0, 5.0, size=(20, 6))
    out = normalize_by_train_mean(NodeSignalSeries(values), SPLITS)
    means = out.values[SPLITS.rows("train")].mean(axis=0)
    assert np.max(np.abs(means - 1.0)) < 1e-12


# -- initial graph construction ------------------------------------------------------

def brute_force_edge_set(values, top_k, threshold):
    """Union of per-node top-k and above-threshold pairs from np.corrcoef."""
    with np.errstate(invalid="ignore"):
        corr = np.corrcoef(values.T)
    corr = np.nan_to_num(corr)
    absc = np.abs(corr)
    np.fill_diagonal(absc, 0.0)
    n = values.shape[1]
    chosen = set()
    k = min(top_k, n - 1)
    for i in range(n):
        ranked = sorted(range(n), key=lambda j: (-absc[i, j], j))
        for j in [j for j in ranked if j != i][:k]:
            chosen.add((min(i, j), max(i, j)))
    for i in range(n):
        for j in range(i + 1, n):
            if absc[i, j] > threshold:
                chosen.add((i, j))
    return chosen


def test_two_nodes_single_edge_regardless_of_k(rng):
    series = NodeSignalSeries(rng.standard_normal((30, 2)))
    g = build_initial_graph(series, GraphBuildSpec(top_k=3))
    assert g.edges == ((0, 1),)


def test_threshold_rule_connects_strong_pair(rng):
    t = np.linspace(0, 6, 50)
    a = np.sin(t)
    values = np.column_stack([a, a + 0.001 * rng.standard_normal(50),
                              rng.standard_normal(50), rng.standard_normal(50)])
    g = build_initial_graph(series := NodeSignalSeries(values),
                            GraphBuildSpec(top_k=1, abs_corr_threshold=0.95))
    assert (0, 1) in g.edges


def test_edge_set_matches_brute_force_oracle(rng):
    values = rng.standard_normal((40, 24))
    g = build_initial_graph(NodeSignalSeries(values), GraphBuildSpec(3, 0.95))
    assert set(g.edges) == brute_force_edge_set(values, 3, 0.95)


def test_weights_are_absolute_correlations(rng):
    values = rng.standard_normal((30, 5))
    g = build_initial_graph(NodeSignalSeries(values), GraphBuildSpec(2, 0.9))
    corr = np.corrcoef(values.T)
    for (i, j), w in zip(g.edges, g.weights):
        assert w == pytest.approx(abs(corr[i, j]), abs=1e-12)


def loop_initial_graph(values, spec):
    """Edges and weights from the per-node loop the mask form replaced: each
    node's top-k partners by a stable sort of its -|correlation| row, then
    every pair above the threshold, gathered in a set of pairs."""
    absc = data._abs_correlation_matrix(values)
    n = values.shape[1]
    chosen = set()
    k = min(spec.top_k, n - 1)
    for i in range(n):
        order = np.argsort(-absc[i], kind="stable")
        partners = [j for j in order if j != i][:k]
        for j in partners:
            chosen.add((min(i, j), max(i, j)))
    above = np.argwhere(np.triu(absc, 1) > spec.abs_corr_threshold)
    for i, j in above:
        chosen.add((int(i), int(j)))
    edges = tuple(sorted(chosen))
    return edges, tuple(float(absc[i, j]) for i, j in edges)


def tie_heavy_values(r):
    """A short series rounded to 0.1, with flat columns and with columns
    that copy or negate another, so many |correlations| tie exactly."""
    t, n = int(r.integers(2, 10)), int(r.integers(2, 10))
    values = np.round(r.standard_normal((t, n)), 1)
    for col in range(n):
        kind = r.integers(0, 4)
        if kind == 1:  # flat
            values[:, col] = np.round(r.standard_normal(), 1)
        elif kind == 2:  # a copy of another column, or its negation
            values[:, col] = r.choice([-1.0, 1.0]) * values[:, r.integers(0, n)]
    return values


def test_edge_set_and_weight_bits_match_the_per_node_loop():
    r = np.random.default_rng(20241022)
    for _ in range(600):
        values = tie_heavy_values(r)
        spec = GraphBuildSpec(int(r.integers(1, 6)), float(r.choice([0.0, 0.5, 0.95, 1.0])))
        g = build_initial_graph(NodeSignalSeries(values), spec)
        edges, weights = loop_initial_graph(values, spec)
        assert g.edges == edges
        assert np.array_equal(np.array(g.weights).view(np.int64), np.array(weights).view(np.int64))


def test_graph_build_needs_two_nodes(rng):
    with pytest.raises(ValueError):
        build_initial_graph(NodeSignalSeries(rng.standard_normal((10, 1))), GraphBuildSpec())


def test_graph_build_needs_two_samples(rng):
    with pytest.raises(ValueError, match="need at least 2 samples to correlate"):
        build_initial_graph(NodeSignalSeries(rng.standard_normal((1, 4))), GraphBuildSpec())


def test_graph_build_spec_validation():
    with pytest.raises(ValueError):
        GraphBuildSpec(top_k=0)
    with pytest.raises(ValueError):
        GraphBuildSpec(abs_corr_threshold=1.5)
