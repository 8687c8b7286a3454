"""Seeded observation simulation: additive Gaussian noise plus random masks."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ..edge_dynamics import NodeSignalSeries
from ..estimators import ObservationStream

__all__ = ["NoiseMaskSpec", "simulate_observations"]

# 10 log10 of the largest float, about 3082.5 dB
_DB_SNR_LIMIT = 10.0 * math.log10(sys.float_info.max)


@dataclass(frozen=True)
class NoiseMaskSpec:
    """Noise level, missingness, and Monte-Carlo bookkeeping.

    ``snr`` is a linear signal-to-noise power ratio (> 0, ``inf`` for no
    noise) unless ``snr_in_db`` is set; a dB value must lie strictly within
    about +-3082.5 dB, where the ratio and its reciprocal are finite. Each
    node is observed independently with probability
    1 - missing_fraction, redrawn at every step. ``seed`` and a run index
    jointly seed each run, so runs are independent and reproducible.
    """

    snr: float
    missing_fraction: float = 0.0
    seed: int = 0
    runs: int = 1
    snr_in_db: bool = False

    def __post_init__(self) -> None:
        if self.snr_in_db:
            # beyond this the linear ratio, or the noise scale 1 / ratio, is not finite
            if not abs(self.snr) < _DB_SNR_LIMIT:  # NaN fails too
                raise ValueError(f"|dB SNR| must be below {_DB_SNR_LIMIT:.3f}, got {self.snr}")
        elif not self.snr > 0:
            raise ValueError("linear SNR must be > 0")
        if not 0.0 <= self.missing_fraction < 1.0:
            raise ValueError("missing_fraction must lie in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")

    @property
    def linear_snr(self) -> float:
        return 10.0 ** (self.snr / 10.0) if self.snr_in_db else float(self.snr)


def simulate_observations(
    series: NodeSignalSeries,
    spec: NoiseMaskSpec,
    run_index: int,
    signal_variance: np.ndarray | None = None,
) -> ObservationStream:
    """Noisy masked observations of a ground-truth series for one run.

    Per-node noise variance is signal variance / SNR; pass the training-split
    variance via ``signal_variance`` to match the usual protocol (defaults to
    the variance of the given series). Masks and noise are drawn from a
    generator seeded by (seed, run_index).
    """
    values = series.values
    t_len, n = values.shape
    if signal_variance is None:
        signal_variance = values.var(axis=0, ddof=1)
    var = np.asarray(signal_variance, dtype=float)
    if var.shape != (n,):
        raise ValueError(f"signal_variance shape {var.shape} does not match {n} nodes")

    rng = np.random.default_rng([spec.seed, int(run_index)])
    mask = rng.random((t_len, n)) >= spec.missing_fraction
    noise_std = np.sqrt(var / spec.linear_snr)
    noise = rng.standard_normal((t_len, n)) * noise_std
    # the stream zeroes the unobserved entries
    return ObservationStream(values + noise, mask)
