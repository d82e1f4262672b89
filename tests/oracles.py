"""Independent routes that only the tests call: a second generator
construction, the paper's step-by-step derivation of the case generators,
row-sum witnesses, index arithmetic, the single-constraint FFT check update
and its direct-convolution reference, the all-complex route of the check
kernel, the per-mode and systematic encoders, the per-user CP factor
normalization, the AWGN trial producer drawn a trial at a time, and the
M-PSK symbol error rate from Craig's integral.  Each must agree with the
production route it checks; none of them runs in a simulation.
"""

from __future__ import annotations

import math

import numpy as np

from tbmpsk.decoders import (HALF_SPECTRUM_M, PMF_FLOOR, REFERENCE_TOL, CpFactors, _clean,
                             check_extrinsics)
from tbmpsk.modulation import encode, transmit_signal, validate_symbols
from tbmpsk.ring_code import RingMatrix, TensorShape, systematic_form


# --- ring code ------------------------------------------------------------------


def index_to_tuple(p: int, dims: tuple[int, ...]) -> tuple[int, ...]:
    """Flat lexicographic position -> per-mode indices (all 0-based, C order)."""
    total = math.prod(dims)
    if not 0 <= p < total:
        raise ValueError(f"position {p} outside [0, {total})")
    return tuple(int(i) for i in np.unravel_index(p, dims))


def tuple_to_index(idx: tuple[int, ...], dims: tuple[int, ...]) -> int:
    """Per-mode indices -> flat lexicographic position (all 0-based, C order)."""
    if len(idx) != len(dims):
        raise ValueError(f"index tuple has {len(idx)} entries for {len(dims)} modes")
    return int(np.ravel_multi_index(idx, dims))


def build_generator_kronecker(shape: TensorShape) -> RingMatrix:
    """Full generator via the Kronecker recursion (independent of
    :func:`tbmpsk.ring_code.case_matrix` at case 2; the two must agree entrywise).

    Start from the identity on the last mode and grow leftwards: adding a
    mode of size t to a suffix generator g with w columns gives
    vstack(I_t (x) 1_w, 1_t (x) g).
    """
    dims = shape.dims
    g = np.eye(dims[-1], dtype=np.int64)
    width = dims[-1]
    for t in reversed(dims[:-1]):
        top = np.kron(np.eye(t, dtype=np.int64), np.ones((1, width), dtype=np.int64))
        bottom = np.kron(np.ones((1, t), dtype=np.int64), g)
        g = np.vstack([top, bottom])
        width *= t
    return RingMatrix(g, shape.modulation_order)


def mode_offsets(shape: TensorShape) -> list[int]:
    """Row index where each mode's block starts inside the full G."""
    return [sum(shape.dims[:i]) for i in range(shape.num_modes)]


def reduce_coherent(generator: RingMatrix, shape: TensorShape) -> RingMatrix:
    """G_r: drop the first row of every mode except mode 1 (those rows are
    linearly dependent on the rest); K_r x T and full rank."""
    k = sum(shape.dims)
    if generator.rows != k or generator.cols != shape.blocklength:
        raise ValueError("generator dimensions do not match the shape")
    drop = set(mode_offsets(shape)[1:])
    keep = [r for r in range(k) if r not in drop]
    return RingMatrix(generator.entries[keep], generator.modulus)


def shorten_noncoherent(reduced: RingMatrix, shape: TensorShape) -> tuple[RingMatrix, int]:
    """G_s plus the pilot position: drop row 1 of G_r and the single column
    where it was the only participant (position 0, the all-reference entry)."""
    if reduced.rows != shape.info_length(3) or reduced.cols != shape.blocklength:
        raise ValueError("reduced generator dimensions do not match the shape")
    pilot = 0
    col = reduced.entries[:, pilot]
    if col[0] == 0 or np.any(col[1:]):
        raise ValueError("column 0 is not supported by row 0 alone; not a reduced generator")
    body = np.delete(np.delete(reduced.entries, 0, axis=0), pilot, axis=1)
    return RingMatrix(body, reduced.modulus), pilot


def mode_row_sum(generator: RingMatrix, mode: int, shape: TensorShape) -> np.ndarray:
    """Sum (mod M) of one mode's block of rows; equals the all-ones row for
    the full generator, for every mode."""
    if not 0 <= mode < shape.num_modes:
        raise ValueError(f"mode {mode} outside [0, {shape.num_modes})")
    off = mode_offsets(shape)[mode]
    block = generator.entries[off : off + shape.dims[mode]]
    return np.asarray(block.sum(axis=0) % generator.modulus)


def reference_row_residuals(generator: RingMatrix, shape: TensorShape) -> np.ndarray:
    """Row-elimination witness: (mode-j row sum) - (mode-1 row sum) mod M for
    each j >= 2; all-zero rows certify the rank deficiency of d - 1."""
    base = mode_row_sum(generator, 0, shape)
    rows = [
        (mode_row_sum(generator, j, shape) - base) % generator.modulus
        for j in range(1, shape.num_modes)
    ]
    return np.array(rows, dtype=np.int64).reshape(shape.num_modes - 1, generator.cols)


# --- modulation -----------------------------------------------------------------


def factor_symbols(info: np.ndarray, shape: TensorShape, case: int) -> list[np.ndarray]:
    """Per-mode ring symbol vectors with reference entries pinned to 0.

    Case 2 uses all K entries of ``info``; case 3 pins the first entry of
    every mode after the first; case 1 additionally pins the first entry of
    mode 1.
    """
    u = validate_symbols(info, shape.modulation_order)
    if u.ndim != 1 or u.size != shape.info_length(case):
        raise ValueError(
            f"case {case} expects {shape.info_length(case)} info symbols, got {u.size}"
        )
    out = []
    pos = 0
    for i, t in enumerate(shape.dims):
        pinned = case == 1 or (case == 3 and i > 0)
        if pinned:
            vec = np.concatenate([[0], u[pos : pos + t - 1]])
            pos += t - 1
        else:
            vec = u[pos : pos + t].copy()
            pos += t
        out.append(vec.astype(np.int64))
    return out


def encode_systematic(info: np.ndarray, parity: RingMatrix, perm: np.ndarray) -> np.ndarray:
    """Case-1 codeword via the systematic route: c_sys = [u | u P], undone
    through ``perm`` back to transmit order, pilot prepended.

    Must agree symbol-for-symbol with :func:`tbmpsk.modulation.encode_case1`.
    """
    u = validate_symbols(info, parity.modulus)
    if u.ndim != 1 or u.size != parity.rows:
        raise ValueError(f"expected {parity.rows} info symbols, got {u.size}")
    if len(perm) != parity.rows + parity.cols:
        raise ValueError("permutation length does not match [I | P] width")
    p = (u @ parity.entries) % parity.modulus
    c_sys = np.concatenate([u, p])
    tail = np.empty(len(perm), dtype=np.int64)
    tail[np.asarray(perm)] = c_sys
    return np.concatenate([[0], tail])


def systematic_parts(shape: TensorShape) -> tuple[RingMatrix, np.ndarray]:
    """(P, perm) for the systematic case-1 encoder: P is the parity block of
    G_sys = [I | P], perm maps G_sys columns back to G_s columns."""
    gsys, perm = systematic_form(shape)
    p = RingMatrix(gsys.entries[:, gsys.rows :], gsys.modulus)
    return p, perm


# --- decoders -------------------------------------------------------------------


def spectrum_parts(f: np.ndarray, m: int, axis: int = 1) -> tuple[np.ndarray, ...]:
    """The parts of :func:`tbmpsk.decoders.check_extrinsics` of complex
    spectra ``f`` whose bins lie on ``axis``: at M = 4 the real parts of
    bins 0 and 2 and a copy of bin 1, otherwise ``f`` itself."""
    if m != 4:
        return (f,)
    return np.ascontiguousarray(f.take([0, 2], axis).real), f.take([1], axis)


def check_extrinsics_complex(target_f: np.ndarray, w: np.ndarray, m: int) -> np.ndarray:
    """The all-complex route of :func:`tbmpsk.decoders.check_extrinsics`:
    complex prefix/suffix products in the same operand order, the inverse DFT
    of numpy (``irfft`` up to M = 4, ``ifft(...).real`` above) along the bin
    axis 1, and the literal clean at ``PMF_FLOOR`` over that axis, summed as
    ``np.sum`` sums a contiguous last axis.  ``w``, (participants, bins, B) +
    positions, is overwritten."""
    n = w.shape[0]
    f = np.empty_like(w)
    f[0] = target_f
    for k in range(1, n):
        f[k] = f[k - 1] * w[k - 1]
    for k in range(n - 2, -1, -1):
        f[k] = f[k] * w[k + 1]
        if k:
            w[k] = w[k + 1] * w[k]
    if m <= HALF_SPECTRUM_M:
        y = np.fft.irfft(f, n=m, axis=1)
    else:
        y = np.fft.ifft(f, axis=1).real
    p = np.maximum(np.ascontiguousarray(np.moveaxis(y, 1, -1)), PMF_FLOOR)
    return np.moveaxis(p / p.sum(axis=-1, keepdims=True), -1, 1)


def check_update_fft(incoming: list[np.ndarray], target: np.ndarray | None = None) -> np.ndarray:
    """Extrinsic pmf for one more participant of a constraint
    (sum of participants = t mod M), given the others' pmfs.

    ``target`` is the pmf of t; None means the constraint sums to zero.
    The result is the pmf of (t - sum incoming): the last output of
    :func:`check_extrinsics` with the new participant appended as absent.
    """
    if not incoming and target is None:
        raise ValueError("need at least one incoming pmf or a target pmf")
    mats = [np.asarray(q, dtype=float) for q in incoming]
    m = mats[0].shape[-1] if mats else np.asarray(target).shape[-1]
    if any(q.shape != (m,) for q in mats):
        raise ValueError("pmf lengths differ")
    w = np.ones((len(mats) + 1, m, 1), dtype=complex)  # (participants, bins, B)
    if mats:
        w[:-1, :, 0] = np.conj(np.fft.fft(np.stack(mats), axis=-1))
    f = np.ones(m, dtype=complex) if target is None else np.fft.fft(np.asarray(target, dtype=float))
    out = np.empty(w.shape)
    return check_extrinsics(spectrum_parts(f[:, None], m, 0), spectrum_parts(w, m), out)[-1, :, 0]


def check_update_direct(incoming: list[np.ndarray], target: np.ndarray | None = None) -> np.ndarray:
    """O(M^2)-per-convolution reference for :func:`check_update_fft`."""
    if not incoming and target is None:
        raise ValueError("need at least one incoming pmf or a target pmf")
    m = len(incoming[0]) if incoming else len(target)
    out = np.zeros(m)
    out[0] = 1.0
    if target is not None:
        out = np.asarray(target, dtype=float).copy()
    for q in incoming:
        nxt = np.zeros(m)
        for t in range(m):
            for v in range(m):
                nxt[(t - v) % m] += out[t] * q[v]
        out = nxt
    return _clean(out)


def normalize_factors_per_user(cp: CpFactors) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """:func:`tbmpsk.decoders.normalize_factors` one user at a time: each
    decodable user's signal-mode columns divided by their first entries,
    its gain column times ``np.prod`` of those entries."""
    *modes, gains = [f.copy() for f in cp.factors]
    rank = gains.shape[1]
    undecodable = np.zeros(rank, dtype=bool)
    for r in range(rank):
        refs = np.array([f[0, r] for f in modes])
        if np.any(np.abs(refs) < REFERENCE_TOL):
            undecodable[r] = True
            continue
        for f, a in zip(modes, refs):
            f[:, r] = f[:, r] / a
        gains[:, r] = gains[:, r] * np.prod(refs)
    return modes, gains, undecodable


# --- trial producer ----------------------------------------------------------


def awgn_trials_per_trial(seed: int, snr_db: float, start: int, stop: int, shape: TensorShape,
                          case: int, noise_var: float) -> tuple[np.ndarray, np.ndarray]:
    """(info words, received signals) of AWGN trials [start, stop), a trial
    at a time as the engine once drew them: numpy's own seeding of
    ``[seed, SNR bit pattern, trial]``, the trial's info words, then its
    noise as one complex expression over two ``standard_normal`` calls."""
    m = shape.modulation_order
    key = int(np.float64(snr_db).view(np.uint64))
    info, received = [], []
    for t in range(start, stop):
        rng = np.random.default_rng(np.random.SeedSequence([seed, key, t]))
        u = rng.integers(0, m, (1, shape.info_length(case)))
        s = transmit_signal(encode(u, shape, case), m)
        re, im = rng.standard_normal(s.shape), rng.standard_normal(s.shape)
        received.append(s + np.sqrt(noise_var / 2.0) * (re + 1j * im))
        info.append(u[0])
    return np.array(info), np.concatenate(received)


# --- exact error rates -----------------------------------------------------------


def psk_symbol_error(m: int, snr: float) -> float:
    """The symbol error rate of nearest-point M-PSK detection at Es/N0 =
    ``snr`` (linear), by Craig's integral (Craig, 1991):
    P_s = (1 / pi) * int_0^{(M - 1) pi / M} exp(-snr sin^2(pi / M) / sin^2 t) dt."""
    from scipy.integrate import quad

    def integrand(t):
        return math.exp(-snr * math.sin(math.pi / m) ** 2 / math.sin(t) ** 2) if t > 0 else 0.0

    value, _ = quad(integrand, 0.0, (m - 1) * math.pi / m, epsabs=1e-14, epsrel=1e-12)
    return value / math.pi
