"""Channel models: AWGN and the non-coherent multi-user SIMO tensor channel.

Noise is circularly symmetric complex Gaussian with total variance
``noise_var`` per sample (real and imaginary parts each noise_var / 2), so
unit-energy PSK gives SNR = 1 / noise_var.  Fading gains are i.i.d. CN(0, 1)
per user and antenna (Rayleigh magnitudes), unknown to the receiver.
``awgn`` is the one noise route: the engine passes it a whole chunk of
trials with each trial's own generator, and ``simo_mac`` one trial's
antenna observations with that trial's generator.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .ring_code import TensorShape


def awgn(signal: np.ndarray, noise_var: float,
         rng: np.random.Generator | Sequence[np.random.Generator]) -> np.ndarray:
    """y = s + CN(0, noise_var); noise_var = 0 returns the signal exactly.

    ``rng`` is a sequence of one generator per row of a (b, ...) chunk, or
    one generator for the whole array (a chunk of one row).  Each row's
    generator draws its real parts, then its imaginary parts, in one
    ``standard_normal`` call into that row of a (b, 2, ...) buffer, so a row
    gets the bits of two ``standard_normal`` calls on its shape.
    """
    if not noise_var >= 0:
        raise ValueError(f"noise variance must be >= 0, got {noise_var}")
    s = np.asarray(signal, dtype=complex)
    if isinstance(rng, np.random.Generator):
        return awgn(s[None], noise_var, [rng])[0]
    z = np.empty((len(s), 2) + s.shape[1:])
    for row, row_rng in zip(z, rng, strict=True):
        row_rng.standard_normal(out=row)
    # s + sqrt(noise_var / 2) * (re + 1j * im), a part at a time: re + 1j * im
    # is (re, im) exactly and a real scale multiplies each part alone, so the
    # bits are the complex expression's, without numpy's float-to-complex
    # cast buffers
    z *= np.sqrt(noise_var / 2.0)
    y = s.copy()
    y.real += z[:, 0]
    y.imag += z[:, 1]
    return y


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
    num_users = s.shape[0]
    gains = (rng.standard_normal((num_users, num_antennas))
             + 1j * rng.standard_normal((num_users, num_antennas))) / np.sqrt(2.0)
    y = awgn(np.einsum("kt,kn->tn", s, gains), noise_var, rng)
    tensor = y.reshape(shape.dims + (num_antennas,))
    return tensor, gains
