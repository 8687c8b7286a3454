import numpy as np
import pytest

from dynhop.harness import mse_curve


def naive_mse_oracle(estimates, truth):
    """Literal double loop over runs and nodes."""
    runs = len(estimates)
    t_len, n = truth.shape
    out = []
    for t in range(t_len):
        total = 0.0
        for r in range(runs):
            for i in range(n):
                total += (truth[t, i] - estimates[r][t, i]) ** 2
        out.append(total / (n * runs))
    return np.array(out)


def test_perfect_estimates_zero_mse(rng):
    truth = rng.standard_normal((10, 4))
    assert np.array_equal(mse_curve([truth.copy(), truth.copy()], truth), np.zeros(10))


def test_single_error_of_two_gives_four():
    truth = np.zeros((3, 1))
    est = np.zeros((3, 1))
    est[1, 0] = 2.0
    assert mse_curve([est], truth).tolist() == [0.0, 4.0, 0.0]


def test_matches_naive_double_loop(rng):
    truth = rng.standard_normal((50, 10))
    estimates = [rng.standard_normal((50, 10)) for _ in range(3)]
    got = mse_curve(estimates, truth)
    assert np.max(np.abs(got - naive_mse_oracle(estimates, truth))) < 1e-12


def test_concatenated_runs_equal_weighted_mean(rng):
    # run-count-weighted linearity of the average over runs
    truth = rng.standard_normal((20, 5))
    set_a = [rng.standard_normal((20, 5)) for _ in range(2)]
    set_b = [rng.standard_normal((20, 5)) for _ in range(3)]
    combined = mse_curve(set_a + set_b, truth)
    weighted = (2 * mse_curve(set_a, truth) + 3 * mse_curve(set_b, truth)) / 5
    assert np.max(np.abs(combined - weighted)) < 1e-12


def test_shape_mismatch_rejected(rng):
    truth = rng.standard_normal((10, 3))
    with pytest.raises(ValueError):
        mse_curve([rng.standard_normal((9, 3))], truth)
    with pytest.raises(ValueError):
        mse_curve([], truth)



def test_stacked_estimates_reduce_like_the_list_of_traces(rng):
    truth = rng.standard_normal((30, 7))
    stack = truth + rng.standard_normal((4, 30, 7))
    got = mse_curve(stack, truth)
    assert got.tobytes() == mse_curve(list(stack), truth).tobytes()
    for shape in ((4, 29, 7), (4, 30, 6), (30, 7), (1, 4, 30, 7)):
        with pytest.raises(ValueError, match="does not match"):
            mse_curve(np.zeros(shape), truth)
