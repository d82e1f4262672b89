"""M-PSK mapping and the encoder pipelines.

The ring-to-constellation map phi(v) = exp(j 2 pi v / M) carries Z_M
addition to X_M multiplication, so a codeword of the ring code maps to the
flattened Kronecker product of its per-mode M-PSK factor vectors.  Each
reference-symbol case has an encoder; ``mls_encode`` is the independent
signal-domain route used to cross-check them.
"""

from __future__ import annotations

import numpy as np

from .ring_code import RingMatrix, TensorShape, case_matrix


def validate_symbols(symbols: np.ndarray, modulation_order: int) -> np.ndarray:
    """Coerce to an int array and reject entries outside Z_M."""
    u = np.asarray(symbols)
    if u.size and not np.issubdtype(u.dtype, np.integer):
        if not np.all(u == np.floor(u)):
            raise ValueError("ring symbols must be integers")
    u = u.astype(np.int64)
    if u.size and (u.min() < 0 or u.max() >= modulation_order):
        raise ValueError(f"ring symbols must lie in [0, {modulation_order})")
    return u


def mls_encode(factors: list[np.ndarray]) -> np.ndarray:
    """Flattened rank-1 tensor of the given complex factor vectors,
    lexicographic (C) order: x_1 (x) x_2 (x) ... (x) x_d."""
    if not factors:
        raise ValueError("need at least one factor vector")
    s = np.asarray(factors[0], dtype=complex).ravel()
    for x in factors[1:]:
        s = np.kron(s, np.asarray(x, dtype=complex).ravel())
    return s


def _encode(info: np.ndarray, generator: RingMatrix) -> np.ndarray:
    u = validate_symbols(info, generator.modulus)
    if u.shape[-1] != generator.rows:
        raise ValueError(f"expected {generator.rows} info symbols, got {u.shape[-1]}")
    return (u @ generator.entries) % generator.modulus


def encode_case2(info: np.ndarray, generator: RingMatrix) -> np.ndarray:
    """c = u G mod M over all K symbols (no reference pinning; the map to
    codewords is many-to-one)."""
    return _encode(info, generator)


def encode_case3(info: np.ndarray, reduced: RingMatrix) -> np.ndarray:
    """Coherent codeword c = u G_r mod M, length T."""
    return _encode(info, reduced)


def encode_case1(info: np.ndarray, shortened: RingMatrix) -> np.ndarray:
    """Non-coherent codeword: pilot 0 prepended to u G_s mod M, length T."""
    tail = _encode(info, shortened)
    zero = np.zeros(tail.shape[:-1] + (1,), dtype=np.int64)
    return np.concatenate([zero, tail], axis=-1)


def encode(info: np.ndarray, shape: TensorShape, case: int) -> np.ndarray:
    """Codeword for any case, over the case's generator (cached by ``case_matrix``)."""
    g = case_matrix(shape, case)
    if case == 1:
        return encode_case1(info, g)
    return _encode(info, g)


def transmit_signal(codeword: np.ndarray, modulation_order: int) -> np.ndarray:
    """Baseband samples phi(c) = exp(j 2 pi c / M) of ring symbols, elementwise."""
    u = validate_symbols(codeword, modulation_order)
    return np.exp(2j * np.pi * u / modulation_order)
