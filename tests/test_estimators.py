import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynhop import (
    ALGORITHMS,
    EstimationTrace,
    EstimatorConfig,
    FilterSpec,
    ObservationStream,
    PruneSpec,
    StaticGraph,
    StepSizeRule,
    WindowSpec,
    adaptive_mu,
    build_laplacian,
    diffusion_operator,
    error_nonlinearity,
    run_estimation,
    stability_bound,
)
from dynhop import estimators
from dynhop.edge_dynamics import NodeSignalSeries, sliding_abs_correlation, window_abs_correlation
from dynhop.filters import bind_filter
from dynhop.graphs import adjacency_laplacian
from dynhop.multihop import expand_prune_merge
from conftest import random_graph

RULE = StepSizeRule.adaptive(0.8, 3.5)


def ideal_projector(g, rho):
    """Test-side spectral filter: U diag(h) U^T built directly from eigh."""
    lam, u = np.linalg.eigh(build_laplacian(g))
    h = (lam <= rho * lam[-1]).astype(float)
    return (u * h) @ u.T


def bandlimited_vector(g, rho, rng):
    return ideal_projector(g, rho) @ rng.standard_normal(g.node_count)


# -- step size rule -------------------------------------------------------------

def test_step_rule_validation():
    with pytest.raises(ValueError):
        StepSizeRule("fixed")
    with pytest.raises(ValueError):
        StepSizeRule.fixed(0.0)
    with pytest.raises(ValueError):
        StepSizeRule.adaptive(1.0, 0.5)
    with pytest.raises(ValueError):
        StepSizeRule("schedule", mu=1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            StepSizeRule.fixed(bad)
        with pytest.raises(ValueError, match="finite"):
            StepSizeRule.adaptive(0.1, bad)
        with pytest.raises(ValueError, match="finite"):
            StepSizeRule.adaptive(bad, 3.5)
        with pytest.raises(ValueError, match="diffusion_eps must be finite"):
            EstimatorConfig("gdlms", diffusion_eps=bad)
    EstimatorConfig("gdlms", diffusion_eps=50.0)  # finite: diffusion_operator warns instead


def test_adaptive_mu_zero_residual_hits_max():
    assert adaptive_mu(0.0, RULE) == pytest.approx(3.5, abs=1e-15)


def test_adaptive_mu_large_residual_approaches_min():
    assert adaptive_mu(1e6, RULE) == pytest.approx(0.8, abs=1e-12)


def test_adaptive_mu_unit_residual():
    # direct evaluation oracle: 0.8 + 2.7 / e
    assert adaptive_mu(1.0, RULE) == pytest.approx(0.8 + 2.7 * math.exp(-1.0), abs=1e-15)
    assert adaptive_mu(1.0, RULE) == pytest.approx(1.7933, abs=1e-4)


def test_adaptive_mu_fixed_rule():
    assert adaptive_mu(17.0, StepSizeRule.fixed(0.4)) == 0.4


@settings(max_examples=50, deadline=None)
@given(r1=st.floats(0, 100, allow_nan=False), r2=st.floats(0, 100, allow_nan=False))
def test_adaptive_mu_monotone(r1, r2):
    lo, hi = sorted((r1, r2))
    assert adaptive_mu(lo, RULE) >= adaptive_mu(hi, RULE)
    assert 0.8 <= adaptive_mu(lo, RULE) <= 3.5


# -- error nonlinearity -----------------------------------------------------------

def test_nonlinearity_zero_for_all_algorithms():
    e = np.zeros(4)
    for algo in ("glms", "gdlms", "glmp", "gsign", "gsd", "dynamic-multihop"):
        assert np.array_equal(error_nonlinearity(e, algo, 1.5), np.zeros(4))


def test_sign_nonlinearity():
    out = error_nonlinearity(np.array([-3.0, 0.0, 2.0]), "gsign")
    assert np.array_equal(out, [-1.0, 0.0, 1.0])


def test_pnorm_nonlinearity():
    assert error_nonlinearity(np.array([4.0]), "glmp", 1.5)[0] == pytest.approx(2.0, abs=1e-15)
    out = error_nonlinearity(np.array([-4.0]), "glmp", 1.5)
    assert out[0] == pytest.approx(-2.0, abs=1e-15)


def test_shaping_a_scalar_returns_a_scalar():
    for algo, want in (("gsign", -1.0), ("gsd", -1.0), ("glmp", -2.0)):
        shaped = error_nonlinearity(-4.0, algo, 1.5)
        assert type(shaped) is np.float64 and shaped == want


def test_identity_nonlinearity(rng):
    e = rng.standard_normal(5)
    assert np.array_equal(error_nonlinearity(e, "glms"), e)
    assert np.array_equal(error_nonlinearity(e, "gdlms"), e)


def test_pnorm_exponent_validated():
    with pytest.raises(ValueError):
        error_nonlinearity(np.ones(2), "glmp", 2.5)


def test_pnorm_exponent_has_no_default_outside_the_config():
    with pytest.raises(ValueError, match=r"glmp exponent must lie in \(1, 2\]"):
        error_nonlinearity(np.ones(2), "glmp")
    assert EstimatorConfig("glmp").p_exponent == 1.5


# -- diffusion operator ------------------------------------------------------------

def test_diffusion_zero_eps_is_identity(rng):
    g = random_graph(rng, 6)
    x = rng.standard_normal(6)
    with pytest.warns(UserWarning):
        op = diffusion_operator(build_laplacian(g), 0.0)
    assert np.array_equal(op(x), x)


def test_diffusion_constant_unchanged(rng):
    g = random_graph(rng, 7, connected=True)
    lap = build_laplacian(g)
    eps = 1.0 / np.linalg.eigvalsh(lap)[-1]
    op = diffusion_operator(lap, eps)
    assert np.allclose(op(np.full(7, 3.0)), np.full(7, 3.0), atol=1e-12)


def test_diffusion_matches_direct_formula(rng):
    g = StaticGraph(3, ((0, 1), (0, 2), (1, 2)))
    lap = build_laplacian(g)
    x = rng.standard_normal(3)
    op = diffusion_operator(lap, 0.2)
    assert np.allclose(op(x), x - 0.2 * lap @ x, atol=1e-15)


def test_diffusion_warns_outside_stable_range(rng):
    g = random_graph(rng, 5)
    lap = build_laplacian(g)
    bad = 3.0 / np.linalg.eigvalsh(lap)[-1]
    with pytest.warns(UserWarning, match="may expand"):
        diffusion_operator(lap, bad)


def test_diffusion_default_eps_is_inverse_lambda_max(rng):
    lap = build_laplacian(random_graph(rng, 9, connected=True))
    x = rng.standard_normal((3, 9))
    lam_max = float(np.linalg.eigvalsh(lap)[-1])
    assert np.array_equal(diffusion_operator(lap)(x), diffusion_operator(lap, 1.0 / lam_max)(x))
    # an edgeless graph has nothing to diffuse: the default step is 0
    assert np.array_equal(diffusion_operator(np.zeros((4, 4)))(x[:, :4]), x[:, :4])


# -- full runs ------------------------------------------------------------------------

def constant_stream(truth, steps):
    y = np.tile(truth, (steps, 1))
    return ObservationStream(y, np.ones_like(y, dtype=bool))


def test_glms_full_mask_error_matches_recursion_oracle(rng):
    # full observation, no noise, static graph: the error obeys
    # e[t+1] = (I - mu B) e[t]; iterate that matrix recursion independently
    g = random_graph(rng, 10)
    proj = ideal_projector(g, 0.4)
    truth = proj @ rng.standard_normal(10)
    mu = 0.3
    cfg = EstimatorConfig("glms", filter=FilterSpec(passband_fraction=0.4),
                          step=StepSizeRule.fixed(mu))
    trace = run_estimation(constant_stream(truth, 60), g, cfg)
    iter_matrix = np.eye(10) - mu * proj
    err_oracle = -truth
    for t in range(60):
        err_oracle = iter_matrix @ err_oracle
        assert np.allclose(trace.estimates[t] - truth, err_oracle, rtol=1e-9, atol=1e-12)
    norms = np.linalg.norm(trace.estimates - truth, axis=1)
    assert all(b < a for a, b in zip(norms, norms[1:]) if a > 1e-12)


LINEAR_ALGOS = ("glms", "gdlms", "dynamic-multihop", "sgm-then-glms", "glms-then-sgm")


@pytest.mark.parametrize("algo", LINEAR_ALGOS)
def test_linear_algorithms_converge_noiseless(algo, rng):
    g = random_graph(rng, 12)
    truth = bandlimited_vector(g, 0.4, rng)
    stream = constant_stream(truth, 500)
    cfg = EstimatorConfig(algo, filter=FilterSpec(passband_fraction=0.4),
                          step=StepSizeRule.fixed(0.9), hops=2,
                          prune=PruneSpec(0.05), window=WindowSpec(5, 1))
    trace = run_estimation(stream, g, cfg)
    final_err = np.linalg.norm(trace.estimates[-1] - truth)
    assert final_err < 1e-6
    assert not trace.diverged


@pytest.mark.parametrize("algo", ("glmp", "gsign", "gsd"))
def test_nonlinear_algorithms_match_update_map_oracle(algo, rng):
    # sign/p-norm updates settle into a step-size-bounded neighborhood, not a
    # point; the contract is exact agreement with the update map itself
    g = random_graph(rng, 8)
    lap = build_laplacian(g)
    truth = bandlimited_vector(g, 0.5, rng)
    stream = constant_stream(truth, 80)
    cfg = EstimatorConfig(algo, filter=FilterSpec(passband_fraction=0.5),
                          step=StepSizeRule.fixed(0.2), p_exponent=1.5)
    trace = run_estimation(stream, g, cfg)

    if algo == "gsd":
        eigmax = np.linalg.eigvalsh(lap)[-1]
        op = lambda v: v - (1.0 / eigmax) * (lap @ v)
    else:
        proj = ideal_projector(g, 0.5)
        op = lambda v: proj @ v
    phi = (lambda v: np.sign(v)) if algo in ("gsign", "gsd") else (
        lambda v: np.sign(v) * np.abs(v) ** 0.5
    )
    x_hat = np.zeros(8)
    for t in range(80):
        x_hat = x_hat + 0.2 * op(phi(truth - x_hat))
        assert np.allclose(trace.estimates[t], x_hat, atol=1e-10)


def test_divergence_flag_above_stability_bound(rng):
    g = random_graph(rng, 10)
    bound = stability_bound(g, FilterSpec(passband_fraction=0.4))
    truth = bandlimited_vector(g, 0.4, rng)
    stream = constant_stream(truth, 500)
    cfg = EstimatorConfig("glms", filter=FilterSpec(passband_fraction=0.4),
                          step=StepSizeRule.fixed(1.5 * bound))
    trace = run_estimation(stream, g, cfg)
    assert trace.diverged
    assert trace.diverged_at is not None and trace.diverged_at < 500
    # error-recursion oracle: the iteration matrix has spectral radius > 1
    proj = ideal_projector(g, 0.4)
    radius = np.max(np.abs(np.linalg.eigvals(np.eye(10) - 1.5 * bound * proj)))
    assert radius > 1.0


def test_reduction_single_hop_static_weights_equals_glms(rng):
    g = random_graph(rng, 9)
    truth_rows = rng.standard_normal((40, 9))
    mask = rng.random((40, 9)) < 0.8
    stream = ObservationStream(truth_rows, mask)
    common = dict(filter=FilterSpec(passband_fraction=0.4), step=RULE,
                  window=WindowSpec(5, 1))
    dmh = EstimatorConfig("dynamic-multihop", hops=1, refresh_weights=False,
                          prune=PruneSpec(0.1), **common)
    glms = EstimatorConfig("glms", **common)
    t1 = run_estimation(stream, g, dmh)
    t2 = run_estimation(stream, g, glms)
    assert np.array_equal(t1.estimates, t2.estimates)  # bit-identical


def test_trace_is_deterministic(rng):
    g = random_graph(rng, 8)
    rows = rng.standard_normal((30, 8))
    mask = rng.random((30, 8)) < 0.7
    stream = ObservationStream(rows, mask)
    cfg = EstimatorConfig("dynamic-multihop", step=RULE, hops=3,
                          prune=PruneSpec(0.02), window=WindowSpec(5, 1))
    t1 = run_estimation(stream, g, cfg)
    t2 = run_estimation(stream, g, cfg)
    assert np.array_equal(t1.estimates, t2.estimates)
    assert np.array_equal(t1.edge_counts, t2.edge_counts)


def test_observation_stream_zeroes_unobserved(rng):
    y = rng.standard_normal((5, 3))
    mask = rng.random((5, 3)) < 0.5
    stream = ObservationStream(y, mask)
    assert np.all(stream.observations[~stream.mask] == 0.0)


def test_ground_truth_weight_source(rng):
    g = random_graph(rng, 6)
    rows = rng.standard_normal((30, 6))
    stream = ObservationStream(rows, np.ones((30, 6), dtype=bool))
    cfg = EstimatorConfig("dynamic-multihop", step=StepSizeRule.fixed(0.5),
                          hops=2, prune=PruneSpec(0.01), window=WindowSpec(5, 1),
                          weights_source="ground-truth")
    with pytest.raises(ValueError, match="ground-truth"):
        run_estimation(stream, g, cfg)
    trace = run_estimation(stream, g, cfg, ground_truth=NodeSignalSeries(rows))
    assert trace.steps == 30


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig("unknown-algo")
    with pytest.raises(ValueError):
        EstimatorConfig("glmp", p_exponent=2.5)
    with pytest.raises(ValueError):
        EstimatorConfig("glms", hops=0)
    with pytest.raises(TypeError, match="latent_weight"):
        EstimatorConfig("dynamic-multihop", latent_weight="score")


def test_label_must_be_a_plain_file_name():
    # a label names report files, so the constructor itself keeps them in out_dir
    with pytest.raises(ValueError, match=r"label '\.\./x' must match"):
        EstimatorConfig("glms", label="../x")
    assert EstimatorConfig("glms", label="glms_slow-0.5").name == "glms_slow-0.5"


def test_stream_and_graph_node_counts_must_match(rng):
    g = StaticGraph(3, ((0, 1),))
    stream = ObservationStream(np.zeros((20, 4)), np.ones((20, 4), dtype=bool))
    with pytest.raises(ValueError, match="stream has 4 nodes, graph has 3"):
        run_estimation(stream, g, EstimatorConfig("dynamic-multihop"))


def test_trace_counts_latent_candidates_and_survivors(rng):
    # a low threshold on the correlation metric keeps latent edges every step
    g = random_graph(rng, 12, 14)
    rows = rng.standard_normal((40, 12))
    stream = ObservationStream(rows, rng.random((40, 12)) < 0.7)
    common = dict(step=StepSizeRule.fixed(0.5), window=WindowSpec(10, 1))
    latent = run_estimation(stream, g, EstimatorConfig(
        "dynamic-multihop", hops=6, prune=PruneSpec(0.015, "correlation"), **common))
    assert latent.latent_survivors[10:].min() > 0
    assert np.all(latent.latent_survivors <= latent.latent_candidates)
    assert np.array_equal(latent.edge_counts, g.edge_count + latent.latent_survivors)
    assert latent.edge_counts.max() <= 12 * 11 // 2  # sparsity cap N(N-1)/2
    for algo in ("glms", "sgm-then-glms", "glms-then-sgm"):
        other = run_estimation(stream, g, EstimatorConfig(algo, **common))
        assert not other.latent_candidates.any() and not other.latent_survivors.any()


def test_dynamic_rebinding_above_exact_size_limit(rng):
    # per-step topology re-binding of the ideal filter stays finite on a
    # graph above 200 nodes
    g = random_graph(rng, 210, 360)
    rows = rng.standard_normal((12, 210))
    stream = ObservationStream(rows, np.ones((12, 210), dtype=bool))
    cfg = EstimatorConfig("dynamic-multihop", filter=FilterSpec(passband_fraction=0.4),
                          step=StepSizeRule.fixed(0.5), hops=2, prune=PruneSpec(0.01),
                          window=WindowSpec(5, 1))
    trace = run_estimation(stream, g, cfg)
    assert trace.steps == 12
    assert not trace.diverged
    assert np.all(np.isfinite(trace.estimates))


def test_short_stream_dynamic_runs_bind_the_static_graph_once(rng, monkeypatch):
    # before the window fills every step uses the static graph, so its one
    # binding is the only one
    binds = []
    original = estimators.bind_filter
    monkeypatch.setattr(estimators, "bind_filter",
                        lambda lap, spec: binds.append(spec) or original(lap, spec))
    g = random_graph(rng, 10)
    rows = rng.standard_normal((4, 10))
    stream = ObservationStream(rows, rng.random((4, 10)) < 0.7)
    for algo in ("dynamic-multihop", "sgm-then-glms", "glms-then-sgm", "glms"):
        binds.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # no latent candidate survives here
            trace = run_estimation(stream, g, EstimatorConfig(algo, window=WindowSpec(10, 1)))
        assert trace.steps == 4
        assert len(binds) == 1, algo


def test_steps_without_history_apply_the_static_operator(rng):
    # until the window fills, the sgm orderings update every run with the
    # static graph's filter, as glms does; then each run refreshes its own
    g = random_graph(rng, 10)
    runs = rng.standard_normal((3, 12, 10))
    stream = ObservationStream(runs, rng.random(runs.shape) < 0.7)
    glms = run_estimation(stream, g, EstimatorConfig("glms", window=WindowSpec(8)))
    for algo in ("sgm-then-glms", "glms-then-sgm"):
        trace = run_estimation(stream, g, EstimatorConfig(algo, window=WindowSpec(8)))
        assert np.array_equal(trace.estimates[:, :8], glms.estimates[:, :8])
        assert not np.array_equal(trace.estimates[:, 8], glms.estimates[:, 8])


def test_ideal_filter_binds_as_configured_at_any_size(rng, monkeypatch):
    # no size switch: a 201-node run re-binds the configured ideal filter
    # at every topology change and warns about nothing
    binds = []
    original = estimators.bind_filter
    monkeypatch.setattr(estimators, "bind_filter",
                        lambda lap, spec: binds.append(spec) or original(lap, spec))
    g = random_graph(rng, 201, 300)
    rows = rng.standard_normal((8, 201))
    stream = ObservationStream(rows, np.ones(rows.shape, dtype=bool))
    cfg = EstimatorConfig("dynamic-multihop", filter=FilterSpec(passband_fraction=0.4),
                          step=StepSizeRule.fixed(0.5), hops=2, prune=PruneSpec(0.0),
                          window=WindowSpec(5, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run_estimation(stream, g, cfg)
    # the multi-hop expansion used until the window fills, then one per step
    # with refreshed weights
    assert len(binds) == 1 + 3
    assert all(spec is cfg.filter for spec in binds)
    assert np.all(np.isfinite(trace.estimates)) and not trace.diverged


@pytest.mark.parametrize("refresh", [True, False])
def test_no_history_topology_is_built_once_per_call(rng, monkeypatch, refresh):
    # one build serves every run's steps before the window fills; then each
    # run rebuilds at each step, unless its weights are never refreshed
    builds = []
    original = estimators.expand_prune_merge
    monkeypatch.setattr(estimators, "expand_prune_merge",
                        lambda *args, **kwargs: builds.append(1) or original(*args, **kwargs))
    g = random_graph(rng, 12, 14)
    runs = rng.standard_normal((3, 20, 12))
    stream = ObservationStream(runs, rng.random(runs.shape) < 0.7)
    cfg = EstimatorConfig("dynamic-multihop", step=StepSizeRule.fixed(0.5), hops=3,
                          prune=PruneSpec(0.015, "correlation"), window=WindowSpec(5, 1),
                          refresh_weights=refresh)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # static weights keep no latent candidate
        trace = run_estimation(stream, g, cfg)
    assert not any(trace.diverged)
    assert len(builds) == (1 + 3 * (20 - 5) if refresh else 1)


def count_calls(monkeypatch, name):
    """Record the arguments of every call the estimator makes to ``name``."""
    calls = []
    original = getattr(estimators, name)
    monkeypatch.setattr(estimators, name,
                        lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs))
    return calls


@pytest.mark.parametrize("algo", ["dynamic-multihop", "sgm-then-glms"])
def test_one_correlation_pass_per_run_and_step_with_history(algo, rng, monkeypatch):
    # rules that read every pair (the edge weights and latent scores of the
    # correlation metric, the sgm threshold) all read one (N, N)
    # |correlation| matrix per run and step
    dense = count_calls(monkeypatch, "window_abs_correlation")
    per_pair = count_calls(monkeypatch, "sliding_abs_correlation")
    g = random_graph(rng, 12, 14)
    runs = rng.standard_normal((3, 20, 12))
    stream = ObservationStream(runs, rng.random(runs.shape) < 0.7)
    cfg = EstimatorConfig(algo, step=StepSizeRule.fixed(0.5), hops=3,
                          prune=PruneSpec(0.015, "correlation"), window=WindowSpec(5, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run_estimation(stream, g, cfg)
    assert not any(trace.diverged)
    assert len(dense) == 3 * (20 - 5)
    assert per_pair == []


def test_base_edge_rule_scores_only_the_base_edges(rng, monkeypatch):
    # the presets' rule (weight-magnitude prune) reads only the base-edge
    # weights: one per-pair call over the E base edges per run and step,
    # with the bits of the (N, N) matrix's base entries
    dense = count_calls(monkeypatch, "window_abs_correlation")
    per_pair = count_calls(monkeypatch, "sliding_abs_correlation")
    steps = count_calls(monkeypatch, "expand_prune_merge")
    g = random_graph(rng, 12, 14)
    runs = rng.standard_normal((3, 20, 12))
    stream = ObservationStream(runs, rng.random(runs.shape) < 0.7)
    cfg = EstimatorConfig("dynamic-multihop", step=StepSizeRule.fixed(0.5), hops=3,
                          prune=PruneSpec(0.2), window=WindowSpec(5, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the 0.2 prune may keep no latent edge
        trace = run_estimation(stream, g, cfg)
    assert not any(trace.diverged)
    assert dense == []
    assert len(per_pair) == 3 * (20 - 5)
    assert all(len(pairs) == g.edge_count for _, _, pairs in per_pair)
    # steps[0] is the no-history topology; the runs then advance together
    base = g.edge_mask()
    rebuilt = iter(steps[1:])
    for t in range(5, 20):
        for r in range(3):
            corr = window_abs_correlation(trace.estimates[r, t - 5 : t])
            assert np.array_equal(next(rebuilt)[1], np.where(base, corr, 0.0))


# -- one step, composed from the public pieces ------------------------------------

def stepwise_reference(stream, g, cfg):
    """The trace of one (T, N) stream from a per-step loop over the public
    pieces: NodeSignalSeries -> sliding_abs_correlation or
    window_abs_correlation -> expand_prune_merge -> adjacency_laplacian ->
    bind_filter (diffusion_operator for gdlms and gsd), then the masked
    update. The static baselines bind their graph once."""
    obs, mask = stream.observations, stream.mask
    steps, n = obs.shape
    w = cfg.window.window
    base = g.edge_mask()

    def multihop(adjacency, scores):
        topo = expand_prune_merge(base, adjacency, cfg.hops, cfg.prune, scores)
        return topo.adjacency, (g.edge_count + topo.survivors, topo.candidates, topo.survivors)

    def topology(rows):
        if cfg.algorithm != "dynamic-multihop":  # an sgm ordering
            corr = window_abs_correlation(rows)
            keep = corr > cfg.prune.threshold
            return np.where(keep, corr, 0.0), (np.count_nonzero(keep) // 2, 0, 0)
        if cfg.prune.metric == "correlation":
            corr = window_abs_correlation(rows)
            return multihop(np.where(base, corr, 0.0), corr)
        weights = sliding_abs_correlation(NodeSignalSeries(rows), cfg.window, g.edges)[-1]
        return multihop(StaticGraph(n, g.edges, weights).adjacency(), None)

    if cfg.algorithm == "dynamic-multihop":
        static, static_counts = multihop(g.adjacency(), np.zeros((n, n)))
    else:
        static, static_counts = g.adjacency(), (g.edge_count, 0, 0)

    def bind(adjacency):
        laplacian = adjacency_laplacian(adjacency)
        if cfg.algorithm in ("gdlms", "gsd"):
            return diffusion_operator(laplacian, cfg.diffusion_eps)
        return bind_filter(laplacian, cfg.filter)

    rebinds = cfg.algorithm in ("dynamic-multihop", "sgm-then-glms", "glms-then-sgm")
    static_filter = bind(static)
    estimates = np.zeros((steps, n))
    counts = np.zeros((3, steps), dtype=int)
    x = np.zeros(n)
    for t in range(steps):
        residual = np.where(mask[t], obs[t] - x, 0.0)
        mu = adaptive_mu(np.linalg.norm(residual), cfg.step)
        shaped = error_nonlinearity(residual, cfg.algorithm, cfg.p_exponent)
        rows = estimates[t - w : t]
        if rebinds and t >= w and np.all(np.isfinite(rows)):
            adjacency, counts[:, t] = topology(rows)
            operator = bind(adjacency)
        else:
            operator, counts[:, t] = static_filter, static_counts
        x = x + mu * operator(shaped)
        estimates[t] = x
    blown = ~np.all(np.abs(estimates) <= estimators.DIVERGENCE_GUARD, axis=1)
    diverged = bool(blown.any())
    return EstimationTrace(estimates, *counts, diverged=diverged,
                           diverged_at=int(np.argmax(blown)) if diverged else None)


FIXED = StepSizeRule.fixed(0.5)


@pytest.mark.parametrize("algo, prune, step, survivors", [
    ("dynamic-multihop", PruneSpec(0.2), RULE, False),  # the presets' rule
    ("dynamic-multihop", PruneSpec(0.005), RULE, True),
    ("dynamic-multihop", PruneSpec(0.015, "correlation"), RULE, True),
    ("sgm-then-glms", PruneSpec(0.6), RULE, False),
    ("glms-then-sgm", PruneSpec(0.6), RULE, False),
    # the static baselines under a fixed rule: their residual shaping and step
    # size are resolved once per call
    *((static, PruneSpec(0.2), FIXED, False)
      for static in ("glms", "gdlms", "glmp", "gsign", "gsd")),
    # static baselines under the adaptive rule: each step's size reads the
    # residual norms, which must have np.linalg.norm's bits
    ("glms", PruneSpec(0.2), RULE, False),
    ("gsd", PruneSpec(0.2), RULE, False),
], ids=["weight-magnitude", "weight-magnitude-survivors", "correlation", "sgm-then-glms",
        "glms-then-sgm", "glms", "gdlms", "glmp", "gsign", "gsd", "glms-adaptive",
        "gsd-adaptive"])
def test_trace_equals_the_step_composed_from_public_pieces(algo, prune, step, survivors, rng):
    g = random_graph(rng, 26, 40)
    truth = rng.standard_normal((60, 26))
    noisy = truth + 0.3 * rng.standard_normal(truth.shape)
    stream = ObservationStream(noisy, rng.random(truth.shape) < 0.7)
    cfg = EstimatorConfig(algo, filter=FilterSpec(passband_fraction=0.4), step=step, hops=6,
                          prune=prune, window=WindowSpec(10))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the 0.2 prune keeps no latent edge
        trace = run_estimation(stream, g, cfg)
    expected = stepwise_reference(stream, g, cfg)
    for field in dataclasses.fields(EstimationTrace):
        got, want = getattr(trace, field.name), getattr(expected, field.name)
        assert np.array_equal(got, want), field.name
    assert trace.latent_survivors[10:].any() == survivors
    if algo == "dynamic-multihop":
        assert trace.latent_candidates[10:].all()


def test_each_rebinding_step_scores_and_diagonalizes_once(rng, monkeypatch):
    # the benchmark's per-layer trace wraps these names where the pipeline
    # looks them up: the presets' dynamic-multihop rule calls each once per
    # re-binding step, after the static binding
    from dynhop import filters, graphs

    calls = []

    def counted(module, name, tag):
        original = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, **kwargs: calls.append(tag) or original(*args, **kwargs))

    counted(estimators, "sliding_abs_correlation", "score")
    for module in (graphs, filters, estimators):
        counted(module, "eigendecompose", "eigh")
    g = random_graph(rng, 12, 14)
    rows = rng.standard_normal((18, 12))
    stream = ObservationStream(rows, rng.random(rows.shape) < 0.7)
    cfg = EstimatorConfig("dynamic-multihop", step=StepSizeRule.fixed(0.5), hops=3,
                          prune=PruneSpec(0.2), window=WindowSpec(5))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the 0.2 prune may keep no latent edge
        run_estimation(stream, g, cfg)
    assert calls == ["eigh"] + ["score", "eigh"] * (18 - 5)


def test_prune_that_keeps_nothing_warns(rng):
    g = random_graph(rng, 12, 14)
    rows = rng.standard_normal((40, 12))
    stream = ObservationStream(rows, rng.random((40, 12)) < 0.7)
    common = dict(step=StepSizeRule.fixed(0.5), window=WindowSpec(10, 1), hops=6)
    cfg = EstimatorConfig("dynamic-multihop", prune=PruneSpec(0.99), **common)
    with pytest.warns(UserWarning) as record:
        trace = run_estimation(stream, g, cfg)
    assert trace.latent_candidates.any() and not trace.latent_survivors.any()
    assert [str(w.message) for w in record] == [
        "dynamic-multihop: prune threshold 0.99 (weight-magnitude) kept none of the latent "
        "candidates at any step; the run reduces to re-weighted glms"
    ]
    latent = EstimatorConfig("dynamic-multihop", prune=PruneSpec(0.015, "correlation"), **common)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_estimation(stream, g, latent).latent_survivors.any()


@pytest.mark.parametrize("prune, message", [
    (PruneSpec(0.0, "correlation"),
     "dynamic-multihop: refresh_weights=False scores every latent candidate 0 under the "
     "correlation metric, so none survives whatever the prune threshold; the run reduces "
     "to glms on the static graph"),
    (PruneSpec(0.99),
     "dynamic-multihop: prune threshold 0.99 (weight-magnitude) kept none of the latent "
     "candidates of the static graph; with refresh_weights=False the run reduces to glms "
     "on the static graph"),
])
def test_static_weights_warning_names_why_no_latent_edge_survives(prune, message, rng):
    # with refresh_weights=False no window is ever scored: under the
    # correlation metric every latent score is 0, so the threshold is not
    # what keeps the candidates out, and no run re-weights its edges
    path = StaticGraph(12, tuple((i, i + 1) for i in range(11)))
    rows = rng.standard_normal((30, 12))
    stream = ObservationStream(rows, rng.random(rows.shape) < 0.7)
    cfg = EstimatorConfig("dynamic-multihop", step=StepSizeRule.fixed(0.5), hops=6,
                          prune=prune, window=WindowSpec(10), refresh_weights=False)
    with pytest.warns(UserWarning) as record:
        trace = run_estimation(stream, path, cfg)
    assert trace.latent_candidates.all() and not trace.latent_survivors.any()
    assert [str(w.message) for w in record] == [message]


# -- run-batched estimation ------------------------------------------------------------

def assert_stack_matches_single_runs(stream, g, cfg, ground_truth=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # prune, diffusion-range and overflow warnings
        stacked = run_estimation(stream, g, cfg, ground_truth)
        singles = [
            run_estimation(ObservationStream(obs, mask), g, cfg, ground_truth)
            for obs, mask in zip(stream.observations, stream.mask)
        ]
    assert stacked.steps == stream.steps
    for r, single in enumerate(singles):
        for field in dataclasses.fields(EstimationTrace):
            got, want = getattr(stacked, field.name)[r], getattr(single, field.name)
            nan = isinstance(want, np.ndarray) and want.dtype.kind == "f"
            assert np.array_equal(got, want, equal_nan=nan), (cfg.name, r, field.name)
    return stacked


def batch_config(algo, **kwargs):
    prune = {"dynamic-multihop": PruneSpec(0.015, "correlation"),
             "sgm-then-glms": PruneSpec(0.6), "glms-then-sgm": PruneSpec(0.6)}
    kwargs.setdefault("step", StepSizeRule.fixed(0.5))
    return EstimatorConfig(algo, filter=kwargs.pop("filter", FilterSpec(passband_fraction=0.4)),
                           hops=3, prune=prune.get(algo, PruneSpec(0.2)),
                           window=WindowSpec(5, 1), **kwargs)


BATCH_CASES = [
    *(pytest.param(batch_config(a), id=a) for a in ALGORITHMS),
    *(pytest.param(batch_config(a, step=RULE), id=f"{a}-adaptive")
      for a in ("glms", "dynamic-multihop", "sgm-then-glms")),
    *(pytest.param(batch_config(a, filter=FilterSpec("chebyshev", 0.4, order=6)),
                   id=f"{a}-chebyshev") for a in ("glms", "glmp", "dynamic-multihop")),
    *(pytest.param(batch_config(a, weights_source="ground-truth"), id=f"{a}-ground-truth")
      for a in ("dynamic-multihop", "glms-then-sgm")),
    pytest.param(batch_config("dynamic-multihop", refresh_weights=False),
                 id="dynamic-multihop-static-weights"),
]


@pytest.mark.parametrize("cfg", BATCH_CASES)
def test_stacked_runs_match_single_runs_bit_for_bit(cfg, rng):
    g = random_graph(rng, 26, 40)
    truth = rng.standard_normal((40, 26))
    runs = truth + 0.3 * rng.standard_normal((3, 40, 26))
    stream = ObservationStream(runs, rng.random(runs.shape) < 0.7)
    stacked = assert_stack_matches_single_runs(stream, g, cfg, NodeSignalSeries(truth))
    if cfg.algorithm == "dynamic-multihop" and cfg.refresh_weights and (
        cfg.weights_source == "estimates"
    ):
        # the runs saw different histories, so their topologies differ
        assert not np.array_equal(stacked.edge_counts[0], stacked.edge_counts[1])


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_stacked_run_diverging_next_to_converging_runs(algo, rng):
    # a step between the full-mask and the sparse-mask stability bounds
    # diverges only in the fully observed run
    g = random_graph(rng, 10)
    spec = FilterSpec(passband_fraction=0.4)
    sparse = np.zeros(10, dtype=bool)
    sparse[np.argmin(np.diag(ideal_projector(g, 0.4)))] = True  # least in-band node
    mu = 0.5 * (stability_bound(g, spec, "full") + stability_bound(g, spec, sparse.astype(float)))
    truth = bandlimited_vector(g, 0.4, rng)
    masks = np.stack([np.tile(m, (200, 1)) for m in (sparse, np.ones(10, dtype=bool), sparse)])
    stream = ObservationStream(np.broadcast_to(truth, masks.shape), masks)
    stacked = assert_stack_matches_single_runs(stream, g, batch_config(
        algo, filter=spec, step=StepSizeRule.fixed(mu)))
    if algo == "glms":
        assert stacked.diverged == (False, True, False)
        assert stacked.diverged_at[1] is not None
        assert np.all(np.isfinite(stacked.estimates[[0, 2]]))


def test_stacked_runs_flag_a_negative_blow_up_and_a_nan_at_their_own_steps(rng):
    # run 1 observes -4e100 everywhere at step 5, which passes the low-pass
    # filter as the constant it is and lands near -2e100, finite but past
    # the guard; run 2 observes NaN at step 7
    g = random_graph(rng, 10)
    truth = bandlimited_vector(g, 0.4, rng)
    observations = np.tile(truth, (3, 12, 1))
    observations[1, 5] = -4e100
    observations[2, 7] = np.nan
    stream = ObservationStream(observations, np.ones(observations.shape, dtype=bool))
    cfg = EstimatorConfig("glms", filter=FilterSpec(passband_fraction=0.4),
                          step=StepSizeRule.fixed(0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # overflow and invalid-value warnings
        trace = run_estimation(stream, g, cfg)
    estimates = trace.estimates
    assert np.all(np.isfinite(estimates[1, 5])) and np.all(
        estimates[1, 5] < -estimators.DIVERGENCE_GUARD)
    assert np.all(np.isnan(estimates[2, 7]))
    assert trace.diverged == (False, True, True)
    assert trace.diverged_at == (None, 5, 7)


@pytest.mark.parametrize("metric, kernel", [
    ("correlation", "window_abs_correlation"),
    ("weight-magnitude", "sliding_abs_correlation"),
])
def test_stacked_run_with_a_non_finite_history_falls_back_to_the_no_history_topology(
        metric, kernel, rng, monkeypatch):
    # run 1 observes NaN at step 12, so its estimates are NaN from there on:
    # every later window holds a non-finite row and the run binds the
    # topology of a step without history, while runs 0 and 2 keep re-binding
    g = random_graph(rng, 12, 20)
    runs = rng.standard_normal((3, 30, 12))
    runs[1, 12] = np.nan
    stream = ObservationStream(runs, np.ones(runs.shape, dtype=bool))
    cfg = dataclasses.replace(batch_config("dynamic-multihop"), prune=PruneSpec(0.015, metric))
    window = cfg.window.window
    stacked = assert_stack_matches_single_runs(stream, g, cfg)
    assert np.isnan(stacked.estimates[1, 12:]).all()
    assert np.isfinite(stacked.estimates[[0, 2]]).all()
    fixed = stacked.edge_counts[1, 0]  # before the window fills
    assert (stacked.edge_counts[:, :window] == fixed).all()
    assert (stacked.edge_counts[1, 13:] == fixed).all()
    assert stacked.diverged == (False, True, False)

    scored = []
    original = getattr(estimators, kernel)
    monkeypatch.setattr(estimators, kernel, lambda *a: scored.append(1) or original(*a))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # invalid-value warnings
        run_estimation(stream, g, cfg)
    # one scored window per run and step with usable history: runs 0 and 2
    # from the step the window fills, run 1 only through step 12
    assert len(scored) == 2 * (30 - window) + (13 - window)


def test_stacking_needs_equal_2d_shapes(rng):
    a = ObservationStream(rng.standard_normal((5, 3)), np.ones((5, 3), dtype=bool))
    b = ObservationStream(rng.standard_normal((6, 3)), np.ones((6, 3), dtype=bool))
    with pytest.raises(ValueError, match="one shape"):
        ObservationStream.stack([a, b])
    with pytest.raises(ValueError, match="one shape"):
        ObservationStream.stack([])
    stacked = ObservationStream.stack([a, a])
    assert stacked.observations.shape == (2, 5, 3) and stacked.steps == 5
    with pytest.raises(ValueError, match="one shape"):
        ObservationStream.stack([stacked, stacked])
    with pytest.raises(ValueError, match="2-D or 3-D"):
        ObservationStream(np.zeros((1, 2, 5, 3)), np.ones((1, 2, 5, 3), dtype=bool))


def test_stacking_copies_streams_as_they_are(rng):
    obs, mask = rng.standard_normal((5, 3)), rng.random((5, 3)) < 0.5
    a = ObservationStream(obs, mask)
    stacked = ObservationStream.stack([a, a])
    assert np.array_equal(stacked.observations, np.stack([np.where(mask, obs, 0.0)] * 2))
    assert np.array_equal(stacked.mask, np.stack([mask] * 2))
    assert not stacked.observations.flags.writeable and not stacked.mask.flags.writeable
    assert not np.shares_memory(stacked.observations, a.observations)
    assert not np.shares_memory(stacked.mask, a.mask)


@pytest.mark.parametrize("algo", ["glms", "glmp", "gsd", "dynamic-multihop"])
def test_step_major_stack_traces_like_a_run_major_stream(algo, rng):
    # stack() stores each step's runs together; a 3-D stream built directly
    # keeps the caller's run-major layout, and the traces cannot tell them apart
    g = random_graph(rng, 26, 40)
    runs = rng.standard_normal((3, 40, 26))
    masks = rng.random(runs.shape) < 0.7
    direct = ObservationStream(runs, masks)
    stacked = ObservationStream.stack([ObservationStream(o, m) for o, m in zip(runs, masks)])
    assert stacked.observations.swapaxes(0, 1).flags.c_contiguous
    assert stacked.mask.swapaxes(0, 1).flags.c_contiguous
    cfg = batch_config(algo)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the prune may keep no latent edge
        got, want = run_estimation(stacked, g, cfg), run_estimation(direct, g, cfg)
    for field in dataclasses.fields(EstimationTrace):
        assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), field.name
    assert got.estimates.tobytes() == want.estimates.tobytes()


# -- stability bound -------------------------------------------------------------------

def test_stability_bound_identity_filter_full_mask(rng):
    g = random_graph(rng, 7)
    bound = stability_bound(g, FilterSpec(passband_fraction=1.0), "full")
    assert bound == pytest.approx(2.0, abs=1e-9)


def test_stability_bound_empty_mask_is_infinite(rng):
    g = random_graph(rng, 6)
    assert stability_bound(g, FilterSpec(passband_fraction=1.0), np.zeros(6)) == math.inf
    assert stability_bound(g, FilterSpec(passband_fraction=1.0), 0.0) == math.inf


@pytest.mark.parametrize("policy, named", [
    (-0.5, "-0.5"),
    (1.5, "1.5"),
    (math.nan, "nan"),
    (np.array([0.5, 1.0, 0.0, 1.25, 0.3, -2.0]), "1.25"),
    (np.array([0.5, math.nan, 0.0, 1.0, 0.3, 0.2]), "nan"),
], ids=["negative", "above-one", "nan", "array-entry", "array-nan"])
def test_stability_bound_rejects_probabilities_outside_unit_interval(rng, policy, named):
    g = random_graph(rng, 6)
    with pytest.raises(ValueError, match=rf"mask policy probability {named} is outside \[0, 1\]"):
        stability_bound(g, FilterSpec(passband_fraction=1.0), policy)


def test_stability_bound_matches_spectral_oracle(rng):
    g = random_graph(rng, 24, 38)
    spec = FilterSpec(passband_fraction=0.4)
    bound = stability_bound(g, spec, "full")
    lam, u = np.linalg.eigh(build_laplacian(g))
    h = (lam <= 0.4 * lam[-1]).astype(float)
    shaped = u * h
    lam_max = np.linalg.eigvalsh(shaped.T @ shaped)[-1]
    assert bound == pytest.approx(2.0 / lam_max, rel=1e-9)


def test_stability_bound_expected_mask_policy(rng):
    g = random_graph(rng, 9)
    spec = FilterSpec(passband_fraction=0.5)
    full = stability_bound(g, spec, "full")
    partial = stability_bound(g, spec, 0.5)
    assert partial == pytest.approx(2.0 * full, rel=1e-9)

