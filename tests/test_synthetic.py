import math
import warnings

import numpy as np
import pytest

from dynhop import (
    EstimatorConfig,
    FilterSpec,
    PruneSpec,
    StepSizeRule,
    WindowSpec,
    build_laplacian,
    eigendecompose,
    fit_lowpass_coefficients,
    run_estimation,
    sliding_abs_correlation,
)
from dynhop.edge_dynamics import NodeSignalSeries, window_abs_correlation
from dynhop.harness import (
    NoiseMaskSpec,
    SyntheticSpec,
    make_synthetic_dataset,
    regime_active_pairs,
    regime_segments,
    simulate_observations,
)
from conftest import union_find_components


def test_requested_sizes():
    g, series = make_synthetic_dataset(SyntheticSpec(seed=3))
    assert (g.node_count, g.edge_count) == (24, 38)
    assert series.values.shape == (200, 24)


def test_graph_is_connected():
    for seed in range(5):
        g, _ = make_synthetic_dataset(SyntheticSpec(seed=seed))
        assert union_find_components(g.node_count, g.edges) == 1


def test_infeasible_edge_count_rejected():
    with pytest.raises(ValueError, match="infeasible"):
        SyntheticSpec(nodes=5, edges=3)
    with pytest.raises(ValueError, match="infeasible"):
        SyntheticSpec(nodes=5, edges=11)


def test_switch_times_validated():
    with pytest.raises(ValueError):
        SyntheticSpec(regimes=2, switch_times=(1,))
    with pytest.raises(ValueError):
        SyntheticSpec(regimes=3, switch_times=(120, 80))
    with pytest.raises(ValueError):
        SyntheticSpec(regimes=2, switch_times=(100, 150))


def test_more_regimes_than_steps_rejected():
    with pytest.raises(ValueError, match="5 regimes need at least as many steps, got 3"):
        SyntheticSpec(regimes=5, steps=3)
    assert all(b > a for a, b in regime_segments(SyntheticSpec(regimes=3, steps=3)))


@pytest.mark.parametrize("knobs, message", [
    ({"seed": -1}, "seed must be a non-negative integer"),
    ({"drift": -1.0}, "drift must be finite and >= 0"),
    ({"drift": math.nan}, "drift must be finite and >= 0"),
    ({"drift": math.inf}, "drift must be finite and >= 0"),
])
def test_negative_seed_and_bad_drift_rejected(knobs, message):
    with pytest.raises(ValueError, match=message):
        SyntheticSpec(**knobs)


@pytest.mark.parametrize("knobs, message", [
    ({"steps": 0}, "steps must be >= 1"),
    ({"regimes": 0}, "regimes must be >= 1"),
    ({"bandlimit": 0.0}, r"bandlimit must lie in \(0, 1\]"),
    ({"bandlimit": 1.5}, r"bandlimit must lie in \(0, 1\]"),
], ids=["steps-0", "regimes-0", "bandlimit-0", "bandlimit-1.5"])
def test_sizes_and_bandlimit_out_of_range_rejected(knobs, message):
    with pytest.raises(ValueError, match=message):
        SyntheticSpec(**knobs)


def test_one_step_first_regime_gives_unit_weights():
    # one row has no correlation to measure, so every edge weighs 1
    spec = SyntheticSpec(steps=20, regimes=2, switch_times=(2,))
    assert regime_segments(spec)[0] == (0, 1)
    g, series = make_synthetic_dataset(spec)
    assert g.weights == (1.0,) * g.edge_count
    assert series.values.shape == (20, spec.nodes)


def test_zero_drift_accepted():
    assert SyntheticSpec(drift=0.0).drift == 0.0


def test_segments_cover_everything():
    spec = SyntheticSpec(regimes=3, steps=90)
    seg = regime_segments(spec)
    assert seg[0][0] == 0 and seg[-1][1] == 90
    assert all(a[1] == b[0] for a, b in zip(seg, seg[1:]))


def test_seeded_output_is_bit_identical():
    spec = SyntheticSpec(seed=11)
    g1, s1 = make_synthetic_dataset(spec)
    g2, s2 = make_synthetic_dataset(spec)
    assert g1 == g2
    assert np.array_equal(s1.values, s2.values)


def test_active_pair_structure_matches_regime_windows():
    # windowed-correlation oracle: regime-exclusive coupled pairs correlate
    # much more strongly inside their regime than outside (margin > 0.2)
    spec = SyntheticSpec(seed=7, switch_times=(101,))
    _, series = make_synthetic_dataset(spec)
    pairs = regime_active_pairs(spec)
    seg = regime_segments(spec)
    for r in range(2):
        assert pairs[r], "regime has no exclusive coupled pairs"
        scores = sliding_abs_correlation(series, WindowSpec(10, 1), pairs[r])
        inside = scores[seg[r][0] + 10 : seg[r][1]].mean()
        other = 1 - r
        outside = scores[seg[other][0] + 10 : seg[other][1]].mean()
        assert inside - outside > 0.2


def test_signal_is_bandlimited_per_regime():
    # every regime block lies in the low band of its own generating operator,
    # checked against the generator's internals via reconstruction energy
    spec = SyntheticSpec(seed=5, switch_times=(101,), drift=0.0)
    from dynhop.harness.synthetic import BACKGROUND, COUPLING, OFFSET, _structure
    from dynhop.graphs import StaticGraph

    g, series = make_synthetic_dataset(spec)
    edges, partitions = _structure(np.random.default_rng(spec.seed), spec)
    seg = regime_segments(spec)
    for r, (a, b) in enumerate(seg):
        weights = [COUPLING if partitions[r][i] == partitions[r][j] else BACKGROUND
                   for i, j in edges]
        lap = build_laplacian(StaticGraph(spec.nodes, edges, weights))
        d = eigendecompose(lap)
        band = d.eigenvalues <= spec.bandlimit * d.eigenvalues[-1]
        rows = series.values[a:b] - OFFSET
        coeffs = rows @ d.eigenvectors
        out_of_band = np.abs(coeffs[:, ~band]).max() if (~band).any() else 0.0
        assert out_of_band < 1e-9


def test_single_regime_negative_control():
    # stationary structure: correlations of active pairs look the same in
    # both halves, and the adaptive multi-hop degree stays constant
    spec = SyntheticSpec(seed=7, regimes=1, drift=0.0)
    g, series = make_synthetic_dataset(spec)
    pairs = regime_active_pairs(spec)[0]
    scores = sliding_abs_correlation(series, WindowSpec(10, 1), pairs)
    first, second = scores[10:100].mean(), scores[100:].mean()
    assert abs(first - second) < 0.1

    lam0 = float(np.linalg.eigvalsh(build_laplacian(g))[-1])
    theta = fit_lowpass_coefficients(np.linspace(0, 1.5 * lam0, 200), 0.4 / 1.5, 12,
                                     nonnegative=True)
    filt = FilterSpec("chebyshev", passband_fraction=0.4, order=12, coefficients=theta)
    test_series = NodeSignalSeries(series.values[60:])
    stream = simulate_observations(
        test_series, NoiseMaskSpec(snr=math.inf, missing_fraction=0.0, seed=0), 0
    )
    cfg = EstimatorConfig("dynamic-multihop", filter=filt, step=StepSizeRule.fixed(0.9),
                          hops=3, prune=PruneSpec(0.1), window=WindowSpec(10, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the 0.1 prune keeps no latent candidate here
        trace = run_estimation(stream, g, cfg)
    settled = trace.edge_counts[30:]
    assert len(set(settled.tolist())) == 1


def test_graph_weights_reflect_first_regime_correlations():
    spec = SyntheticSpec(seed=9, switch_times=(101,))
    g, series = make_synthetic_dataset(spec)
    first_rows = series.values[:100]
    centered = first_rows - first_rows.mean(axis=0)
    for (i, j), w in zip(g.edges, g.weights):
        num = centered[:, i] @ centered[:, j]
        den = np.linalg.norm(centered[:, i]) * np.linalg.norm(centered[:, j])
        assert w == pytest.approx(abs(num / den), abs=1e-12)
    # the weights are the bits of the kernel that scores every window
    kernel = window_abs_correlation(first_rows)
    assert g.weights == tuple(float(kernel[i, j]) for i, j in g.edges)
