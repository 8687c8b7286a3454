import math
import re

import numpy as np
import pytest

from dynhop.edge_dynamics import NodeSignalSeries
from dynhop.harness import DataError, NoiseMaskSpec, simulate_observations


def test_spec_validation():
    with pytest.raises(ValueError):
        NoiseMaskSpec(snr=0.0)
    with pytest.raises(ValueError):
        NoiseMaskSpec(snr=3.0, missing_fraction=1.0)
    with pytest.raises(ValueError):
        NoiseMaskSpec(snr=3.0, seed=-1)
    with pytest.raises(ValueError):
        NoiseMaskSpec(snr=math.inf, snr_in_db=True)
    with pytest.raises(ValueError, match="runs must be >= 1"):
        NoiseMaskSpec(snr=3.0, runs=0)


@pytest.mark.parametrize("variance", [np.ones(2), np.ones((3, 1)), np.float64(1.0)],
                         ids=["short", "column", "scalar"])
def test_signal_variance_must_have_one_entry_per_node(variance):
    series = NodeSignalSeries(np.zeros((5, 3)))
    with pytest.raises(ValueError, match="signal_variance shape .* does not match 3 nodes"):
        simulate_observations(series, NoiseMaskSpec(snr=3.0), 0, signal_variance=variance)


@pytest.mark.parametrize("db", [4000.0, -4000.0, math.nan])
def test_db_snr_whose_ratio_or_noise_scale_is_not_finite_rejected(db):
    with pytest.raises(ValueError, match="dB SNR"):
        NoiseMaskSpec(snr=db, snr_in_db=True)


@pytest.mark.parametrize("db", [3000.0, -3000.0])
def test_db_snr_within_the_float_range_accepted(db):
    ratio = NoiseMaskSpec(snr=db, snr_in_db=True).linear_snr
    assert math.isfinite(ratio) and math.isfinite(1.0 / ratio)


@pytest.mark.parametrize("db, message", [
    (-3000.0, "SNR 1e-300 gives node 2 a noise std of 3e+150"),
    # node 1's variance / SNR overflows
    (-3082.0, "SNR 6.31e-309 gives node 1 a noise std of inf"),
], ids=["std-1e150", "std-inf"])
def test_noise_scale_past_the_divergence_guard_rejected(db, message):
    series = NodeSignalSeries(np.zeros((5, 3)))
    variance = np.array([1.0, 4.0, 9.0])
    # the DataError carries the whole text that dynhop run prints
    text = (f"noise.snr {db} dB leaves no run that can converge: "
            f"{message}, not below the divergence guard 1e+100")
    with pytest.raises(DataError, match=f"^{re.escape(text)}$"):
        simulate_observations(series, NoiseMaskSpec(snr=db, snr_in_db=True), 0, variance)
    # a noise std of 3e99 stays below the guard
    spec = NoiseMaskSpec(snr=-1980.0, snr_in_db=True)
    assert simulate_observations(series, spec, 0, variance).observations.shape == (5, 3)


def test_db_conversion():
    assert NoiseMaskSpec(snr=10.0, snr_in_db=True).linear_snr == pytest.approx(10.0)
    assert NoiseMaskSpec(snr=0.0, snr_in_db=True).linear_snr == pytest.approx(1.0)
    assert NoiseMaskSpec(snr=3.0).linear_snr == 3.0


def test_infinite_snr_no_missing_reproduces_truth(rng):
    values = rng.standard_normal((20, 5))
    spec = NoiseMaskSpec(snr=math.inf, missing_fraction=0.0, seed=3)
    stream = simulate_observations(NodeSignalSeries(values), spec, 0)
    assert np.array_equal(stream.observations, values)
    assert np.all(stream.mask)


def test_mask_fraction_matches_spec(rng):
    # Monte-Carlo frequency oracle over 10^4 node-steps
    values = np.zeros((1000, 10))
    spec = NoiseMaskSpec(snr=math.inf, missing_fraction=0.3, seed=42)
    stream = simulate_observations(NodeSignalSeries(values), spec, 0)
    observed = stream.mask.mean()
    assert observed == pytest.approx(0.70, abs=0.02)


def test_noise_variance_matches_snr():
    # sample-variance oracle: unit-variance signal at SNR 3 -> noise var 1/3
    values = np.zeros((1000, 10))
    spec = NoiseMaskSpec(snr=3.0, missing_fraction=0.0, seed=7)
    stream = simulate_observations(
        NodeSignalSeries(values), spec, 0, signal_variance=np.ones(10)
    )
    noise_var = stream.observations.var()
    assert abs(noise_var - 1.0 / 3.0) < 0.1 / 3.0


def test_unobserved_entries_zeroed(rng):
    values = rng.standard_normal((50, 4)) + 10.0
    spec = NoiseMaskSpec(snr=5.0, missing_fraction=0.5, seed=1)
    stream = simulate_observations(NodeSignalSeries(values), spec, 0)
    assert np.all(stream.observations[~stream.mask] == 0.0)


def test_same_seed_and_run_are_identical(rng):
    values = rng.standard_normal((30, 6))
    spec = NoiseMaskSpec(snr=3.0, missing_fraction=0.2, seed=9)
    a = simulate_observations(NodeSignalSeries(values), spec, 4)
    b = simulate_observations(NodeSignalSeries(values), spec, 4)
    assert np.array_equal(a.observations, b.observations)
    assert np.array_equal(a.mask, b.mask)


def test_different_runs_are_independent(rng):
    values = rng.standard_normal((30, 6))
    spec = NoiseMaskSpec(snr=3.0, missing_fraction=0.2, seed=9)
    a = simulate_observations(NodeSignalSeries(values), spec, 0)
    b = simulate_observations(NodeSignalSeries(values), spec, 1)
    assert not np.array_equal(a.observations, b.observations)


def test_per_node_variance_scaling():
    values = np.zeros((4000, 2))
    var = np.array([1.0, 9.0])
    spec = NoiseMaskSpec(snr=1.0, missing_fraction=0.0, seed=11)
    stream = simulate_observations(NodeSignalSeries(values), spec, 0, signal_variance=var)
    ratio = stream.observations[:, 1].var() / stream.observations[:, 0].var()
    assert ratio == pytest.approx(9.0, rel=0.2)
