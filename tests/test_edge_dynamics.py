import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynhop import (
    NodeSignalSeries,
    PruneSpec,
    StaticGraph,
    WindowSpec,
    build_laplacian,
    build_topology_slice,
    sliding_abs_correlation,
)
from dynhop.edge_dynamics import window_abs_correlation
from conftest import random_graph


def abs_pearson_oracle(x, y):
    """Textbook two-pass sample correlation, absolute value."""
    n = len(x)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    cov = math.fsum((a - mx) * (b - my) for a, b in zip(x, y)) / (n - 1)
    vx = math.fsum((a - mx) ** 2 for a in x) / (n - 1)
    vy = math.fsum((b - my) ** 2 for b in y) / (n - 1)
    if vx == 0.0 or vy == 0.0:
        return 0.0
    return min(abs(cov / math.sqrt(vx * vy)), 1.0)


def test_window_spec_validation():
    with pytest.raises(ValueError):
        WindowSpec(1)
    with pytest.raises(ValueError):
        WindowSpec(5, 0)


def test_series_rejects_non_finite():
    with pytest.raises(ValueError):
        NodeSignalSeries(np.array([[0.0, np.nan]]))


@pytest.mark.parametrize("values, labels, message", [
    (np.zeros(3), None, r"values must be 2-D \(T, N\), got shape \(3,\)"),
    (np.zeros((2, 2, 2)), None, r"values must be 2-D \(T, N\), got shape \(2, 2, 2\)"),
    (np.zeros((4, 3)), ("a", "b"), "2 labels for 3 nodes"),
], ids=["1-d", "3-d", "label-count"])
def test_series_rejects_bad_shape_and_label_count(values, labels, message):
    with pytest.raises(ValueError, match=message):
        NodeSignalSeries(values, labels)


def test_exact_copy_scores_one(rng):
    base = rng.standard_normal(30)
    series = NodeSignalSeries(np.column_stack([base, base]))
    scores = sliding_abs_correlation(series, WindowSpec(10), [(0, 1)])
    assert np.allclose(scores, 1.0, atol=1e-12)


def test_negated_copy_scores_one(rng):
    base = rng.standard_normal(30)
    series = NodeSignalSeries(np.column_stack([base, -base]))
    scores = sliding_abs_correlation(series, WindowSpec(10), [(0, 1)])
    assert np.allclose(scores, 1.0, atol=1e-12)


def test_matches_two_pass_oracle(rng):
    values = rng.standard_normal((40, 5))
    series = NodeSignalSeries(values)
    pairs = [(0, 1), (0, 4), (2, 3)]
    scores = sliding_abs_correlation(series, WindowSpec(10), pairs)
    for t in range(9, 40):
        for k, (i, j) in enumerate(pairs):
            expected = abs_pearson_oracle(values[t - 9 : t + 1, i], values[t - 9 : t + 1, j])
            assert scores[t, k] == pytest.approx(expected, abs=1e-12)


def test_warmup_repeats_first_defined_window(rng):
    values = rng.standard_normal((20, 3))
    scores = sliding_abs_correlation(NodeSignalSeries(values), WindowSpec(8), [(0, 2)])
    assert np.all(scores[:7] == scores[7])


def test_window_spec_accepts_only_stride_one():
    assert WindowSpec(10, 1) == WindowSpec(10)
    for stride in (0, 2, 7):
        with pytest.raises(ValueError, match="stride must be 1"):
            WindowSpec(10, stride)


def test_zero_variance_window_scores_zero():
    values = np.column_stack([np.full(15, 3.0), np.arange(15.0)])
    scores = sliding_abs_correlation(NodeSignalSeries(values), WindowSpec(5), [(0, 1)])
    assert np.all(scores == 0.0)


def test_series_shorter_than_window():
    with pytest.raises(ValueError):
        sliding_abs_correlation(NodeSignalSeries(np.zeros((4, 2))), WindowSpec(5), [(0, 1)])


def test_pair_out_of_range():
    with pytest.raises(ValueError):
        sliding_abs_correlation(NodeSignalSeries(np.zeros((9, 2))), WindowSpec(5), [(0, 2)])


@pytest.mark.parametrize("pair", [(0, 2), (-1, 1), (1, -2)])
def test_out_of_range_pair_message_names_the_pair(pair):
    series = NodeSignalSeries(np.arange(18.0).reshape(9, 2))
    with pytest.raises(ValueError, match=rf"pair \({pair[0]}, {pair[1]}\) references a node outside 0..1"):
        sliding_abs_correlation(series, WindowSpec(5), [(0, 1), pair, (1, 0)])


@pytest.mark.parametrize("pair", [(0.0, 1.5), (0.0, 1.0), ("0", 1)])
def test_non_integer_pair_message_names_the_pair(pair):
    series = NodeSignalSeries(np.arange(18.0).reshape(9, 2))
    with pytest.raises(ValueError, match=r"pair \(.*\) has a non-integer node index"):
        sliding_abs_correlation(series, WindowSpec(5), [(0, 1), pair, (1, 0)])


def test_bool_self_reversed_and_repeated_pairs_accepted():
    series = NodeSignalSeries(np.random.default_rng(0).standard_normal((9, 3)))
    spec = WindowSpec(5)
    expected = sliding_abs_correlation(series, spec, [(0, 1), (1, 1), (2, 0), (0, 1)])
    got = sliding_abs_correlation(series, spec, [(False, True), (1, True), (2, False), (0, 1)])
    assert np.array_equal(got, expected)
    for unusual in (np.array([[False, True]]), np.array([[0, 1]], dtype=np.uint8)):
        assert np.array_equal(sliding_abs_correlation(series, spec, unusual), expected[:, :1])


@pytest.mark.parametrize("shape", [(1, 3), (0, 3), (5,), (2, 2, 2)])
def test_window_abs_correlation_rejects_bad_shapes(shape):
    with pytest.raises(ValueError, match="at least 2 rows"):
        window_abs_correlation(np.zeros(shape))


def ordered_pair_reference(values, spec, pairs):
    """Per-window, per-pair loop in Python floats, every sum in offset order.

    Each node's window total (for its mean), its sum of squared deviations
    and each pair's sum of products add one offset after another, each
    product rounded before it is added; a window whose values are all equal
    is flat and scores 0. No numpy reduction is involved, so the reference
    does not depend on how numpy orders a sum for a given memory layout.
    """
    w = spec.window
    starts = values.shape[0] - w + 1
    defined = np.zeros((starts, len(pairs)))
    for s in range(starts):
        centered, sumsq, flat = [], [], []
        for column in values[s : s + w].T.tolist():
            total = column[0]
            for v in column[1:]:
                total = total + v
            mean = total / w
            c = [v - mean for v in column]
            squares = c[0] * c[0]
            for v in c[1:]:
                squares = squares + v * v
            centered.append(c)
            sumsq.append(squares)
            flat.append(max(column) == min(column))
        for k, (i, j) in enumerate(pairs):
            if flat[i] or flat[j]:
                continue
            num = centered[i][0] * centered[j][0]
            for o in range(1, w):
                num = num + centered[i][o] * centered[j][o]
            defined[s, k] = min(abs(num) / math.sqrt(sumsq[i] * sumsq[j]), 1.0)
    return np.vstack([np.repeat(defined[:1], w - 1, axis=0), defined])


def _bit_exact_case(name, rng):
    if name == "all-pairs-26":
        # the estimator's call: one window of a stock-sized history, every
        # upper-triangle pair, one flat node
        n = 26
        values = rng.standard_normal((10, n)) * rng.uniform(0.1, 50.0, size=n)
        values[:, 11] = 0.75
        return values, WindowSpec(10), [tuple(p) for p in np.column_stack(np.triu_indices(n, 1))]
    if name == "all-pairs-111":
        # a brain-sized window sliced from an (R, T, N) stack of histories,
        # as the estimator passes it: a flat node, a constant 0.1 node (its
        # computed mean is not exactly 0.1) and an exact affine copy
        n = 111
        stack = rng.standard_normal((3, 30, n)) * rng.uniform(0.1, 50.0, size=n)
        stack[:, :, 7] = 0.1
        stack[:, :, 90] = -2.5
        stack[:, :, 40] = 1.0 - 3.0 * stack[:, :, 41]
        return stack[1, 12:22], WindowSpec(10), [(0, 1), (7, 8), (40, 41), (89, 90)]
    if name == "two-nodes":
        # the shortest window: each defined score is 1 up to its last bits,
        # and the window over rows 3 and 4 is flat
        values = rng.standard_normal((9, 2)) * [0.3, 40.0]
        values[3:5, 1] = -0.5
        return values, WindowSpec(2), [(0, 1), (1, 0), (1, 1)]
    if name == "window-40":
        n = 26
        values = rng.standard_normal((45, n)) * rng.uniform(0.1, 50.0, size=n)
        values[:, 4] = 0.1
        values[:, 9] = 2.0 + 0.5 * values[:, 10]
        return values, WindowSpec(40), [tuple(p) for p in np.column_stack(np.triu_indices(n, 1))]
    n = 6
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j][::3] + [(2, 2)]
    values = rng.standard_normal((31, n)) * rng.uniform(0.1, 50.0, size=n)
    if name == "single-window":
        return values[:10], WindowSpec(10), pairs
    if name == "flat-window":
        values[5:20, 1] = 4.25
        values[:, 3] = -1.5
        return values, WindowSpec(7), pairs
    return values, WindowSpec(8), []


@pytest.mark.parametrize(
    "name", ["single-window", "flat-window", "no-pairs", "all-pairs-26", "all-pairs-111",
             "two-nodes", "window-40"]
)
def test_batched_scores_equal_ordered_per_pair_loop_bit_for_bit(name, rng):
    values, spec, pairs = _bit_exact_case(name, rng)
    got = sliding_abs_correlation(NodeSignalSeries(values), spec, pairs)
    expected = ordered_pair_reference(values, spec, pairs)
    assert got.shape == expected.shape == (-(-values.shape[0] // spec.stride), len(pairs))
    assert np.array_equal(got, expected)
    if name == "flat-window":
        assert np.any(got == 0.0) and np.any(got > 0.0)
    # the (N, N) matrix of the last window holds each pair's last score
    last = values[-spec.window :]
    matrix = window_abs_correlation(last)
    every = np.column_stack(np.triu_indices(values.shape[1], 1))
    assert np.array_equal(matrix, matrix.T) and not np.diagonal(matrix).any()
    assert np.array_equal(
        matrix[every[:, 0], every[:, 1]], ordered_pair_reference(last, spec, every)[-1]
    )


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_scores_equal_ordered_pair_reference_on_random_series(data):
    w = data.draw(st.integers(2, 40), label="window")
    t_total = w + data.draw(st.integers(0, 12), label="steps past the first window")
    n = data.draw(st.integers(1, 6), label="nodes")
    r = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    values = r.standard_normal((t_total, n)) * r.uniform(0.01, 100.0, n) + r.uniform(-50, 50, n)
    node = st.integers(0, n - 1)
    for column in data.draw(st.lists(node, max_size=2, unique=True), label="flat columns"):
        # a constant stretch at least one window long: some windows are flat
        first = data.draw(st.integers(0, t_total - w))
        stop = first + data.draw(st.integers(w, t_total - first))
        values[first:stop, column] = data.draw(st.sampled_from([0.1, -2.5, 0.0, 1e3 / 7]))
    if n >= 2 and data.draw(st.booleans(), label="affine copy"):
        values[:, 0] = 1.0 - 3.0 * values[:, 1]
    pairs = data.draw(st.lists(st.tuples(node, node), max_size=10), label="pairs")
    if pairs:  # the first pair reversed, repeated and paired with itself
        i, j = pairs[0]
        pairs += [(j, i), (i, j), (i, i)]
    got = sliding_abs_correlation(NodeSignalSeries(values), WindowSpec(w), pairs)
    assert np.array_equal(got, ordered_pair_reference(values, WindowSpec(w), pairs))


@pytest.mark.parametrize("w", [2, 3, 10])
def test_one_window_call_equals_the_last_row_of_a_longer_series(w, rng):
    # a series exactly one window long (each online re-bind step's call)
    # gives each pair the bits of the last row of a longer call
    n = 7
    values = rng.standard_normal((w + 12, n)) * rng.uniform(0.1, 50.0, size=n)
    values[:, 2] = 0.1  # flat in every window
    values[-w:, 5] = -2.5  # flat in the last window only
    values[:, 4] = 1.0 - 3.0 * values[:, 3]  # an exact affine copy
    pairs = [(0, 1), (1, 0), (0, 1), (2, 3), (5, 6), (6, 5), (3, 4), (4, 3), (6, 6)]
    longer = sliding_abs_correlation(NodeSignalSeries(values), WindowSpec(w), pairs)
    one = sliding_abs_correlation(NodeSignalSeries(values[-w:]), WindowSpec(w), pairs)
    assert one.shape == (w, len(pairs))
    assert np.array_equal(one, np.repeat(longer[-1:], w, axis=0))
    assert np.array_equal(one, ordered_pair_reference(values[-w:], WindowSpec(w), pairs))
    flat = [k for k, (i, j) in enumerate(pairs) if {i, j} & {2, 5}]
    assert not one[:, flat].any() and np.all(one[:, [0, 1, 2, 6, 7]] > 0.0)


def test_einsum_rounds_each_window_product_before_adding_it():
    # (1 + e)(1 - e) = 1 - e^2 rounds to 1, so the sum is exactly 0; a build
    # whose einsum fuses the multiply into the add keeps -e^2 instead
    e = 2.0**-30
    x = np.array([[1.0, -1.0], [1.0 + e, 1.0 - e]])
    got = np.einsum("ki,kj->ij", x, x)[0, 1]
    assert got == 0.0, (
        f"np.einsum fused multiply and add ({got!r}, not 0.0): the window kernel's "
        "bit-exactness against the ordered per-pair reference rests on einsum rounding "
        "each window product before it adds it"
    )


def test_pair_scores_do_not_depend_on_the_other_pairs(rng):
    series = NodeSignalSeries(rng.standard_normal((10, 12)))
    every = [(i, j) for i in range(12) for j in range(i + 1, 12)]
    together = sliding_abs_correlation(series, WindowSpec(10), every)
    for k in (0, 17, len(every) - 1):
        alone = sliding_abs_correlation(series, WindowSpec(10), [every[k]])
        assert np.array_equal(alone[:, 0], together[:, k])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000),
       scale=st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
       shift=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
def test_scale_and_shift_invariance(seed, scale, shift):
    r = np.random.default_rng(seed)
    values = r.standard_normal((25, 3))
    spec = WindowSpec(10)
    pairs = [(0, 1), (1, 2)]
    base = sliding_abs_correlation(NodeSignalSeries(values), spec, pairs)
    moved = values.copy()
    moved[:, 1] = scale * moved[:, 1] + shift
    again = sliding_abs_correlation(NodeSignalSeries(moved), spec, pairs)
    assert np.max(np.abs(again - base)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 8), window=st.integers(2, 12),
       scale=st.floats(min_value=1e-6, max_value=1e6))
def test_weights_bounded_zero_one(seed, n, window, scale):
    r = np.random.default_rng(seed)
    values = scale * r.standard_normal((window + 10, n))
    values[:, 0] = 1.0 - 3.0 * values[:, 1]  # exact affine copy: top of the range
    values[window:, n - 1] = 2.5  # constant tail: flat windows
    pairs = [(i, j) for i in range(n) for j in range(n)]  # self-pairs included
    scores = sliding_abs_correlation(NodeSignalSeries(values), WindowSpec(window), pairs)
    assert np.all((scores >= 0.0) & (scores <= 1.0))


def test_constant_series_gives_zero_weights():
    g = StaticGraph(3, ((0, 1), (1, 2)))
    series = NodeSignalSeries(np.full((20, 3), 7.0))
    weights = sliding_abs_correlation(series, WindowSpec(10), g.edges)
    assert weights.shape == (20, 2)
    assert np.all(weights == 0.0)


# -- per-step Laplacian ----------------------------------------------------------

def test_zero_weights_give_zero_matrix():
    g = StaticGraph(3, ((0, 1), (1, 2)))
    s = build_topology_slice(g, np.zeros(2), 3, PruneSpec(0.0))
    assert np.array_equal(build_laplacian(s.graph), np.zeros((3, 3)))


def test_static_weights_reduce_to_plain_laplacian(rng):
    g = random_graph(rng, 8)
    s = build_topology_slice(g, g.weights, 1, PruneSpec(0.0))
    assert np.allclose(build_laplacian(s.graph), build_laplacian(g), atol=1e-12)


def test_matches_direct_construction_oracle(rng):
    g = StaticGraph(3, ((0, 1), (0, 2), (1, 2)))
    w = rng.uniform(0, 1, size=3)
    lap = build_laplacian(build_topology_slice(g, w, 1, PruneSpec(0.0)).graph)
    # direct D - A oracle
    a = np.zeros((3, 3))
    for (i, j), wt in zip(g.edges, w):
        a[i, j] = a[j, i] = wt
    expected = np.diag(a.sum(axis=1)) - a
    assert np.allclose(lap, expected, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_every_slice_is_valid_laplacian(seed):
    r = np.random.default_rng(seed)
    g = random_graph(r, int(r.integers(3, 10)))
    series = NodeSignalSeries(r.standard_normal((20, g.node_count)))
    weights = sliding_abs_correlation(series, WindowSpec(5), g.edges)
    for t in (0, 7, 19):
        lap = build_laplacian(build_topology_slice(g, weights[t], 3, PruneSpec(0.0)).graph)
        assert np.max(np.abs(lap.sum(axis=1))) < 1e-12
        assert np.linalg.eigvalsh(lap)[0] >= -1e-9
