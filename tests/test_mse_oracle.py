"""Closed-form mean-square oracle for the linear estimators.

For a constant truth x, a Bernoulli(p) mask D redrawn every step and white
noise v of variance sigma^2 on every observed node, the glms error
e = x_hat - x after each step follows

    e' = (I - mu B D) e + mu B D v,

with B the bound filter operator. Its second moment S = E[e e^T] obeys an
exact recursion, because E[D M D] = p^2 M + p (1 - p) Diag(M) for any M:

    S' = S - mu p (B S + S B) + mu^2 B (p^2 S + p (1 - p) Diag(S)) B
         + mu^2 p sigma^2 B^2,

from S_0 = x x^T (the estimate starts at 0). The per-step MSE of the
Monte-Carlo runs estimates tr(S) / N.
"""

import numpy as np
import pytest

from dynhop import (
    EstimatorConfig,
    FilterSpec,
    ObservationStream,
    StepSizeRule,
    build_laplacian,
    run_estimation,
    stability_bound,
)
from dynhop.filters import bind_filter
from conftest import random_graph

NODES, STEPS, RUNS, CHUNK = 20, 600, 400, 100
P, SIGMA2 = 0.7, 0.05
# the last half of the steps lies far past the transient at both step sizes
STEADY = slice(STEPS // 2, None)
# a difference beyond this many standard errors of the runs' spread fails:
# the steady-state average, and every step's MSE on its own (1200 checks,
# so a wider band keeps chance failures out)
STEADY_SE, STEP_SE = 4.0, 5.0


def glms_mse_recursion(b, x, mu, p, sigma2, steps):
    """tr(S_t) / N after each of ``steps`` glms updates, from S_0 = x x^T."""
    n = x.size
    s = np.outer(x, x)
    noise = mu**2 * p * sigma2 * (b @ b)
    mse = np.empty(steps)
    for t in range(steps):
        masked = p**2 * s + p * (1.0 - p) * np.diag(np.diag(s))
        s = s - mu * p * (b @ s + s @ b) + mu**2 * (b @ masked @ b) + noise
        mse[t] = np.trace(s) / n
    return mse


def per_run_mse(g, spec, x, mu, rng):
    """(RUNS, STEPS) node-averaged squared error of glms, CHUNK runs per call."""
    cfg = EstimatorConfig("glms", filter=spec, step=StepSizeRule.fixed(mu))
    chunks = []
    for _ in range(RUNS // CHUNK):
        shape = (CHUNK, STEPS, NODES)
        y = x + np.sqrt(SIGMA2) * rng.standard_normal(shape)
        trace = run_estimation(ObservationStream(y, rng.random(shape) < P), g, cfg)
        chunks.append(np.mean((trace.estimates - x) ** 2, axis=2))
    return np.concatenate(chunks)


@pytest.mark.parametrize("fraction", [0.1, 0.3])
def test_glms_mse_follows_the_second_moment_recursion(fraction):
    rng = np.random.default_rng(2024)
    g = random_graph(rng, NODES)
    spec = FilterSpec(passband_fraction=0.4)
    # the dense operator the estimator applies: row i filters e_i
    b = bind_filter(build_laplacian(g), spec)(np.eye(NODES)).T
    x = b @ rng.standard_normal(NODES)  # band-limited constant truth
    mu = fraction * stability_bound(g, spec, P)

    predicted = glms_mse_recursion(b, x, mu, P, SIGMA2, STEPS)
    runs = per_run_mse(g, spec, x, mu, rng)

    steady = runs[:, STEADY].mean(axis=1)  # one independent value per run
    se = steady.std(ddof=1) / np.sqrt(RUNS)
    gap = steady.mean() - predicted[STEADY].mean()
    assert abs(gap) <= STEADY_SE * se, (
        f"steady-state MSE {steady.mean():.6g} vs recursion {predicted[STEADY].mean():.6g}: "
        f"{gap / se:+.2f} standard errors"
    )

    step_se = runs.std(axis=0, ddof=1) / np.sqrt(RUNS)
    z = (runs.mean(axis=0) - predicted) / step_se
    worst = int(np.argmax(np.abs(z)))
    assert abs(z[worst]) <= STEP_SE, f"step {worst}: {z[worst]:+.2f} standard errors"
