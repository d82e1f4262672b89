"""Finite-blocklength benchmark: the normal approximation for the complex
AWGN channel, and the spectral efficiencies of the tensor code's cases.

R(n, eps, snr) = log2(1 + snr) - sqrt(V / n) Qinv(eps) + log2(n) / (2 n),
with dispersion V = snr (snr + 2) / (snr + 1)^2 * log2(e)^2.
"""

from __future__ import annotations

import numpy as np

from .ring_code import TensorShape

LOG2_E = float(np.log2(np.e))
SNR_FLOOR = 1e-9
SNR_CEILING = 1e9


def awgn_capacity(snr: float) -> float:
    return float(np.log2(1.0 + snr))


def awgn_dispersion(snr: float) -> float:
    return float(snr * (snr + 2.0) / (snr + 1.0) ** 2 * LOG2_E**2)


def _q_inv(p: float) -> float:
    """Inverse of the standard Gaussian tail Q(x) = P(N(0, 1) > x)."""
    from statistics import NormalDist  # imported here: only sweep and bound call this

    return -NormalDist().inv_cdf(p)


def normal_approx_rate(blocklength: int, target_error: float, snr: float) -> float:
    """Highest rate (bits per complex symbol) supported at the given
    blocklength and block error target, by the normal approximation."""
    if blocklength < 1:
        raise ValueError(f"blocklength must be >= 1, got {blocklength}")
    if not 0.0 < target_error < 1.0:
        raise ValueError(f"target error must be in (0, 1), got {target_error}")
    if not 0.0 <= snr < np.inf:
        raise ValueError(f"snr must be finite and >= 0, got {snr}")
    n = blocklength
    qinv = _q_inv(target_error)
    v = awgn_dispersion(snr)
    return float(awgn_capacity(snr) - np.sqrt(v / n) * qinv + np.log2(n) / (2.0 * n))


def min_snr_for_rate(blocklength: int, target_error: float, rate: float) -> float:
    """Smallest SNR (linear) whose normal-approximation rate reaches ``rate``.

    Geometric bisection on [1e-9, 1e9] to a relative width of 1e-6; raises
    if the rate is unreachable even at the ceiling.
    """
    if not rate > 0:
        raise ValueError(f"rate must be positive, got {rate}")

    def achieved(snr: float) -> float:
        return normal_approx_rate(blocklength, target_error, snr)

    if achieved(SNR_CEILING) < rate:
        raise RuntimeError(
            f"rate {rate} unreachable at blocklength {blocklength} below snr {SNR_CEILING}"
        )
    lo, hi = SNR_FLOOR, SNR_CEILING
    if achieved(lo) >= rate:
        return lo
    while hi / lo > 1.0 + 1e-6:
        mid = float(np.sqrt(lo * hi))
        if achieved(mid) >= rate:
            hi = mid
        else:
            lo = mid
    return hi


def tbm_rate(shape: TensorShape, case: int) -> float:
    """Spectral efficiency of one case: info symbols per position times
    log2(M) bits per symbol."""
    return shape.info_length(case) / shape.blocklength * float(np.log2(shape.modulation_order))


def db_to_linear(snr_db: float) -> float:
    """10^(snr_db / 10); inf where that overflows a float, 0.0 where it
    underflows."""
    try:
        return float(10.0 ** (snr_db / 10.0))
    except OverflowError:
        return np.inf


def linear_to_db(snr: float) -> float:
    if not snr > 0:
        raise ValueError(f"snr must be positive for dB conversion, got {snr}")
    return float(10.0 * np.log10(snr))
