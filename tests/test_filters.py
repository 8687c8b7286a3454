import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from dynhop import (
    FilterSpec,
    apply_filter,
    bind_filter,
    build_laplacian,
    diffusion_operator,
    eigendecompose,
    fit_lowpass_coefficients,
)
from dynhop.filters import filter_response, ideal_response
from conftest import random_graph


def test_filterspec_validation():
    with pytest.raises(ValueError):
        FilterSpec(kind="boxcar")
    with pytest.raises(ValueError):
        FilterSpec(passband_fraction=0.0)
    with pytest.raises(ValueError):
        FilterSpec(passband_fraction=1.5)
    with pytest.raises(ValueError):
        FilterSpec("chebyshev", order=3, coefficients=(1.0, 2.0))
    with pytest.raises(ValueError, match="coefficients must be finite"):
        FilterSpec("chebyshev", order=2, coefficients=(1.0, float("nan"), 0.5))


def test_all_pass_returns_input(rng):
    g = random_graph(rng, 8)
    lap = build_laplacian(g)
    x = rng.standard_normal(8)
    out = apply_filter(x, lap, FilterSpec(passband_fraction=1.0))
    assert np.allclose(out, x, atol=1e-10)


def test_constant_always_passes(rng):
    g = random_graph(rng, 9, connected=True)
    lap = build_laplacian(g)
    x = np.full(9, 2.5)
    out = apply_filter(x, lap, FilterSpec(passband_fraction=0.2))
    assert np.allclose(out, x, atol=1e-10)


def test_ideal_filter_idempotent(rng):
    g = random_graph(rng, 12)
    lap = build_laplacian(g)
    spec = FilterSpec(passband_fraction=0.4)
    x = rng.standard_normal(12)
    once = apply_filter(x, lap, spec)
    twice = apply_filter(once, lap, spec)
    assert np.max(np.abs(twice - once)) < 1e-9


def test_ideal_boundary_eigenvalue_included():
    lam = np.array([0.0, 1.0, 2.0, 5.0])
    h = ideal_response(lam, 0.4)  # cut exactly at 2.0
    assert h.tolist() == [1.0, 1.0, 1.0, 0.0]


def test_chebyshev_linear_coefficients_give_matrix_vector_product(rng):
    g = random_graph(rng, 7)
    lap = build_laplacian(g)
    x = rng.standard_normal(7)
    spec = FilterSpec("chebyshev", order=1, coefficients=(0.0, 1.0))
    assert np.array_equal(apply_filter(x, lap, spec), lap @ x)


def test_chebyshev_order12_matches_ideal_within_fit_residual(rng):
    # exact-spectral oracle: an independent least-squares fit bounds the
    # achievable response error; the polynomial output must sit inside it.
    # (An absolute tolerance only makes sense when the spectrum has a gap at
    # the cut; the gated variant lives in the acceptance suite.)
    for _ in range(5):
        g = random_graph(rng, 20)
        lap = build_laplacian(g)
        d = eigendecompose(lap)
        x = rng.standard_normal(20)
        ideal_out = apply_filter(x, lap, FilterSpec(passband_fraction=0.4), d)
        cheb_out = apply_filter(x, lap, FilterSpec("chebyshev", passband_fraction=0.4, order=12))
        lam_max = d.eigenvalues[-1]
        scaled = d.eigenvalues / lam_max
        target = (d.eigenvalues <= 0.4 * lam_max).astype(float)
        fit = npoly.Polynomial.fit(scaled, target, deg=12)
        bound = float(np.max(np.abs(fit(scaled) - target)))
        err = np.linalg.norm(cheb_out - ideal_out) / np.linalg.norm(x)
        assert err <= bound + 1e-6


def test_nonnegative_fit_never_undershoots(rng):
    g = random_graph(rng, 15)
    lam = np.linalg.eigvalsh(build_laplacian(g))
    coeffs = fit_lowpass_coefficients(lam, 0.4, 12, nonnegative=True)
    grid = np.linspace(0, lam[-1] * 1.2, 500)
    response = npoly.polyval(grid, np.asarray(coeffs))
    assert response.min() >= -1e-12


def test_nonnegative_fit_requires_even_order():
    with pytest.raises(ValueError, match="even"):
        fit_lowpass_coefficients(np.array([0.0, 1.0, 2.0]), 0.5, 5, nonnegative=True)


def test_fit_on_zero_spectrum_is_identity():
    coeffs = fit_lowpass_coefficients(np.zeros(4), 0.4, 3)
    assert coeffs == (1.0, 0.0, 0.0, 0.0)


def test_filter_response_chebyshev_uses_given_coefficients(rng):
    g = random_graph(rng, 6)
    d = eigendecompose(build_laplacian(g))
    spec = FilterSpec("chebyshev", order=2, coefficients=(1.0, -0.5, 0.25))
    expected = 1.0 - 0.5 * d.eigenvalues + 0.25 * d.eigenvalues**2
    assert np.allclose(filter_response(d, spec), expected, atol=1e-12)


def test_dimension_mismatch(rng):
    g = random_graph(rng, 5)
    lap = build_laplacian(g)
    with pytest.raises(ValueError):
        apply_filter(np.zeros(4), lap, FilterSpec())


def test_bind_filter_matches_apply(rng):
    g = random_graph(rng, 10)
    lap = build_laplacian(g)
    x = rng.standard_normal(10)
    for spec in (FilterSpec(passband_fraction=0.3),
                 FilterSpec("chebyshev", passband_fraction=0.3, order=8)):
        bound = bind_filter(lap, spec)
        assert np.array_equal(bound(x), apply_filter(x, lap, spec))



# -- out= on every operator route ------------------------------------------------------

def bound_operator(route, lap):
    if route == "diffusion":
        return diffusion_operator(lap)
    spec = FilterSpec(passband_fraction=0.4) if route == "ideal" else FilterSpec(
        "chebyshev", passband_fraction=0.4, order=6)
    return bind_filter(lap, spec)


@pytest.mark.parametrize("shape", [(9,), (4, 9)], ids=["signal", "stack"])
@pytest.mark.parametrize("route", ["ideal", "chebyshev", "diffusion"])
def test_out_holds_the_bits_of_the_allocating_call(route, shape, rng):
    op = bound_operator(route, build_laplacian(random_graph(rng, 9)))
    x = rng.standard_normal(shape)
    want = op(x).tobytes()

    out = np.full(shape, np.nan)
    assert op(x, out=out) is out
    assert out.tobytes() == want
    # a row of a larger buffer, as a re-bound run writes its own row
    rows = np.full((3,) + shape, np.nan)
    assert op(x, out=rows[1]).tobytes() == want
    # an out that overlaps the input: the input itself, then a shifted view
    same = x.copy()
    assert op(same, out=same) is same and same.tobytes() == want
    buffer = np.zeros(shape[:-1] + (10,))
    buffer[..., 1:] = x
    assert op(buffer[..., 1:], out=buffer[..., :-1]).tobytes() == want
