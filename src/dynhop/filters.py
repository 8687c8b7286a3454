"""The operators an online estimator applies to its residual: band-limited
spectral filters, their polynomial surrogates, and one diffusion step.

The exact route diagonalizes the Laplacian and zeroes eigen-components above
the passband edge. The polynomial route evaluates ``sum_p c_p L^p x`` by
repeated matrix-vector products, with coefficients least-squares fitted to
the ideal response over a known spectrum. ``diffusion_operator`` binds
``I - eps L``. Every bound operator is a kernel of this module with its
matrix fixed: it maps (..., N) signals one by one, bit-identical to mapping
each alone, and takes an optional ``out=`` array of the signal's shape,
which it fills with the bits of the allocating call and returns. ``out``
may overlap the signal.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graphs import SpectralDecomposition, eigendecompose

__all__ = [
    "FilterSpec",
    "ideal_response",
    "fit_lowpass_coefficients",
    "filter_response",
    "apply_filter",
    "bind_filter",
    "diffusion_operator",
]

KINDS = ("ideal-band-limited", "chebyshev")


@dataclass(frozen=True)
class FilterSpec:
    """Low-pass filter description.

    kind "ideal-band-limited" passes exactly the components with eigenvalue
    <= passband_fraction * lambda_max (boundary included); the default 0.4
    is the low-pass every algorithm binds unless its config says otherwise,
    and 1.0 passes everything. kind "chebyshev"
    evaluates a degree-``order`` polynomial in the Laplacian; when
    ``coefficients`` is None they are fitted to the ideal response at
    application time, else they must be ``order + 1`` finite numbers. The
    ideal kind reads no coefficients and rejects them.
    """

    kind: str = "ideal-band-limited"
    passband_fraction: float = 0.4
    order: int = 12
    coefficients: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown filter kind {self.kind!r}; expected one of {KINDS}")
        if not 0.0 < self.passband_fraction <= 1.0:
            raise ValueError("passband_fraction must lie in (0, 1]")
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.coefficients is not None:
            if self.kind != "chebyshev":
                raise ValueError(f"kind {self.kind!r} reads no coefficients; 'chebyshev' does")
            coeffs = tuple(float(c) for c in self.coefficients)
            if len(coeffs) != self.order + 1:
                raise ValueError(f"{len(coeffs)} coefficients for order {self.order}")
            if not all(map(math.isfinite, coeffs)):
                raise ValueError(f"coefficients must be finite, got {coeffs}")
            object.__setattr__(self, "coefficients", coeffs)


def ideal_response(eigenvalues: np.ndarray, passband_fraction: float) -> np.ndarray:
    """0/1 response of the ideal filter over a spectrum.

    The passband edge is a closed boundary: eigenvalues equal to
    passband_fraction * lambda_max pass. An all-zero spectrum passes
    everything (lambda = 0 is always inside the band).
    """
    lam = np.asarray(eigenvalues, dtype=float)
    lam_max = float(lam.max(initial=0.0))
    return (lam <= passband_fraction * lam_max).astype(float)


def fit_lowpass_coefficients(
    eigenvalues: np.ndarray,
    passband_fraction: float,
    order: int = 12,
    nonnegative: bool = False,
) -> tuple[float, ...]:
    """Least-squares polynomial coefficients matching the ideal response.

    The fit runs on the spectrum rescaled to [0, 1] for conditioning; the
    returned coefficients apply to the unscaled Laplacian.

    ``nonnegative=True`` fits a half-order polynomial to the square root of
    the response and squares it, so the resulting response cannot undershoot
    zero anywhere. Plain fits ripple slightly negative in the stopband,
    which is harmless for one-shot filtering but lets errors compound when
    the same operator drives a long online iteration.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    target = ideal_response(lam, passband_fraction)
    lam_max = float(lam.max(initial=0.0))
    if lam_max <= 0.0:
        coeffs = np.zeros(order + 1)
        coeffs[0] = 1.0
        return tuple(coeffs)
    scaled = lam / lam_max
    if nonnegative:
        if order % 2:
            raise ValueError("nonnegative fit needs an even order")
        half = order // 2
        vand = np.vander(scaled, half + 1, increasing=True)
        root, *_ = np.linalg.lstsq(vand, target, rcond=None)  # sqrt of 0/1 step is itself
        theta = np.polynomial.polynomial.polymul(root, root)
    else:
        vand = np.vander(scaled, order + 1, increasing=True)
        theta, *_ = np.linalg.lstsq(vand, target, rcond=None)
    return tuple(theta / lam_max ** np.arange(order + 1))


def _matvec(matrix: np.ndarray, vec: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``matrix @ v`` for every vector v of a (..., N) stack, into ``out`` if given.

    Each vector gets its own matrix-vector product, so it carries the same
    bits as ``matrix @ v`` alone; one matrix-matrix product over the stack
    would round differently. ``np.matmul`` copies an input that overlaps
    ``out`` first, so ``out`` may be ``vec`` itself.
    """
    if out is None:
        out = np.empty(vec.shape)
    np.matmul(matrix, vec[..., None], out=out[..., None])
    return out


def _apply_polynomial(
    matrix: np.ndarray, coefficients, vec: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``sum_p c_p matrix^p vec``; ``out`` is written once, by the last term,
    after every read of ``vec``, so it may overlap ``vec``."""
    acc = coefficients[0] * vec
    power = vec
    for c in coefficients[1:-1]:
        power = _matvec(matrix, power)
        acc += c * power
    return np.add(acc, coefficients[-1] * _matvec(matrix, power), out=out)


def _diffuse(
    laplacian: np.ndarray, eps: float, x: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``x - eps * laplacian x``; ``out`` receives ``laplacian x`` before ``x``
    is read again, so an ``out`` that overlaps ``x`` costs one copy of ``x``."""
    if out is None:
        out = np.empty(np.shape(x))
    elif np.may_share_memory(x, out):
        x = x.copy()
    _matvec(laplacian, x, out)
    np.multiply(out, eps, out=out)
    return np.subtract(x, out, out=out)


def filter_response(decomp: SpectralDecomposition, spec: FilterSpec) -> np.ndarray:
    """Per-eigenvalue response h(lambda_i)."""
    if spec.kind == "ideal-band-limited":
        return ideal_response(decomp.eigenvalues, spec.passband_fraction)
    coeffs = spec.coefficients or fit_lowpass_coefficients(
        decomp.eigenvalues, spec.passband_fraction, spec.order)
    return np.polynomial.polynomial.polyval(decomp.eigenvalues, np.asarray(coeffs))


def apply_filter(
    x: np.ndarray,
    laplacian: np.ndarray,
    spec: FilterSpec,
    decomp: SpectralDecomposition | None = None,
) -> np.ndarray:
    """Filter one node signal (see :func:`bind_filter`)."""
    x = np.asarray(x, dtype=float)
    n = laplacian.shape[0]
    if x.shape != (n,):
        raise ValueError(f"signal length {x.shape} does not match operator size {n}")
    return bind_filter(laplacian, spec, decomp)(x)


def bind_filter(
    laplacian: np.ndarray,
    spec: FilterSpec,
    decomp: SpectralDecomposition | None = None,
) -> Callable[..., np.ndarray]:
    """Pre-bind a filter to one operator; returns a callable on (..., N) signals.

    Binding does the expensive work once (eigendecomposition or coefficient
    fit), so per-step application inside online loops is a single dense
    matvec or a short matvec chain per signal; the dense route allocates
    nothing when given ``out=``.
    """
    if spec.kind == "chebyshev":
        coeffs = spec.coefficients or fit_lowpass_coefficients(
            np.linalg.eigvalsh(laplacian) if decomp is None else decomp.eigenvalues,
            spec.passband_fraction, spec.order)
        return functools.partial(_apply_polynomial, laplacian, coeffs)
    if decomp is None:
        decomp = eigendecompose(laplacian)
    u = decomp.eigenvectors
    return functools.partial(_matvec, (u * filter_response(decomp, spec)) @ u.T)  # U diag(h) U^T


def diffusion_operator(
    laplacian: np.ndarray, eps: float | None = None
) -> Callable[..., np.ndarray]:
    """Bind one-step spatial diffusion x -> x - eps * L x, on (..., N) signals.

    ``eps`` defaults to 1 / lambda_max (0 for an edgeless graph). The
    operator is non-expansive for 0 < eps < 2 / lambda_max; values outside
    that range only warn, since exploratory use is legitimate.
    """
    laplacian = np.asarray(laplacian, dtype=float)
    lam_max = float(np.linalg.eigvalsh(laplacian)[-1])
    if eps is None:
        eps = 1.0 / lam_max if lam_max > 0 else 0.0
    elif lam_max > 0 and not 0.0 < eps < 2.0 / lam_max:
        warnings.warn(
            f"diffusion step {eps} outside (0, {2.0 / lam_max:.6g}); operator may expand",
            stacklevel=2,
        )
    return functools.partial(_diffuse, laplacian, eps)
