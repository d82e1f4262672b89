"""Channel models: AWGN and the non-coherent multi-user SIMO tensor channel.

Noise is circularly symmetric complex Gaussian with total variance
``noise_var`` per sample (real and imaginary parts each noise_var / 2), so
unit-energy PSK gives SNR = 1 / noise_var.  Fading gains are i.i.d. CN(0, 1)
per user and antenna (Rayleigh magnitudes), unknown to the receiver.
"""

from __future__ import annotations

import numpy as np

from .ring_code import TensorShape


def _complex_noise(shape: tuple[int, ...], noise_var: float, rng: np.random.Generator) -> np.ndarray:
    scale = np.sqrt(noise_var / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def awgn(signal: np.ndarray, noise_var: float, rng: np.random.Generator) -> np.ndarray:
    """y = s + CN(0, noise_var); noise_var = 0 returns the signal exactly."""
    if not noise_var >= 0:
        raise ValueError(f"noise variance must be >= 0, got {noise_var}")
    s = np.asarray(signal, dtype=complex)
    return s + _complex_noise(s.shape, noise_var, rng)


def simo_mac(
    signals: np.ndarray,
    shape: TensorShape,
    num_antennas: int,
    noise_var: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Multiple-access observation tensor Y = sum_k s_k (x) h_k + noise.

    ``signals`` is (K_a, T) with every user's flattened rank-1 signal on the
    same shape.  Returns the observation, with the tensor dims plus a
    trailing antenna mode, and the (K_a, N) gains, which are drawn before
    the noise (one rng, fixed order).
    """
    s = np.atleast_2d(np.asarray(signals, dtype=complex))
    if s.shape[1] != shape.blocklength:
        raise ValueError(f"signals must have length T = {shape.blocklength}")
    if num_antennas < 1:
        raise ValueError(f"need at least one antenna, got {num_antennas}")
    if not noise_var >= 0:
        raise ValueError(f"noise variance must be >= 0, got {noise_var}")
    num_users = s.shape[0]
    gains = (rng.standard_normal((num_users, num_antennas))
             + 1j * rng.standard_normal((num_users, num_antennas))) / np.sqrt(2.0)
    clean = np.einsum("kt,kn->tn", s, gains)
    y = clean + _complex_noise(clean.shape, noise_var, rng)
    tensor = y.reshape(shape.dims + (num_antennas,))
    return tensor, gains
