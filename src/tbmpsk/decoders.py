"""Receivers: FFT-domain belief propagation, an exhaustive ML oracle, and
the CP-decomposition front end for the multi-user non-coherent channel.

Messages are probability vectors over Z_M.  Check (position) constraints
c_p = sum of participants mod M are processed with length-M DFTs: the DFT
of a sum's pmf is the product of the DFTs, and negation conjugates the
transform.  Variable-side products run in the log domain so that nodes of
degree in the hundreds cannot underflow.

BP runs on the code's tensor layout rather than on an edge list: position
(j_1, ..., j_d) checks factor entry j_i of every mode i, so the messages of
mode i are one array indexed by position, and all d modes stack into one
array of shape (d, B, T_1, ..., T_d, M).  A pinned reference entry's slots
hold the all-ones DFT of a delta at 0, an absent participant.

The ML oracle enumerates the whole codebook; it refuses codebooks whose
signals would take more than ``ML_SIGNAL_BYTES`` (M^K * T * 16 bytes).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import softmax

from .factor_graph import FactorGraph, build_graph
from .modulation import encode, mls_encode, psk_map, transmit_signal
from .ring_code import TensorShape

PMF_FLOOR = 1e-30
ML_SIGNAL_BYTES = 2**30
REFERENCE_TOL = 1e-6


def channel_pmfs(received: np.ndarray, noise_var: float, modulation_order: int) -> np.ndarray:
    """Per-sample posterior pmfs over Z_M for y = phi(v) + CN(0, noise_var).

    Shape (..., M) for input (...,).  Distances are offset by the per-sample
    minimum before exponentiation, so arbitrarily small noise variances
    yield a clean indicator pmf instead of 0/0.
    """
    if noise_var <= 0:
        raise ValueError(f"noise variance must be positive, got {noise_var}")
    y = np.asarray(received, dtype=complex)
    points = psk_map(np.arange(modulation_order), modulation_order)
    d2 = np.abs(y[..., None] - points) ** 2
    return softmax(-d2 / noise_var, axis=-1)


def _clean(pmfs: np.ndarray) -> np.ndarray:
    p = np.maximum(pmfs, PMF_FLOOR)
    return p / p.sum(axis=-1, keepdims=True)


def check_extrinsics(target_f: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Extrinsic pmfs at sum constraints (sum of participants = t mod M),
    one per participant: the pmf of t minus the other participants.

    ``w[k]`` is the conjugated DFT of participant k's pmf (conjugation
    negates, and the DFT of a sum's pmf is the product of the DFTs), and
    ``target_f`` is the DFT of t's pmf, broadcast against ``w[0]``.  The
    products over the others run as a prefix/suffix product in participant
    order.  A participant whose ``w`` is exactly 1 (a delta at 0) is absent:
    multiplying by 1+0j is exact, so it changes no other output.
    """
    n = w.shape[0]
    f = np.empty(w.shape, dtype=complex)
    f[0] = target_f
    for k in range(1, n):
        f[k] = f[k - 1] * w[k - 1]
    suffix = w[n - 1]
    for k in range(n - 2, -1, -1):
        f[k] = f[k] * suffix
        suffix = suffix * w[k]
    return _clean(np.fft.ifft(f, axis=-1).real)


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
    w = np.ones((len(mats) + 1, m), dtype=complex)
    if mats:
        w[:-1] = np.conj(np.fft.fft(np.stack(mats), axis=-1))
    f = np.ones(m, dtype=complex) if target is None else np.fft.fft(np.asarray(target, dtype=float))
    return check_extrinsics(f, w)[-1]


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


@lru_cache(maxsize=32)
def _graph_context(shape: TensorShape, case: int) -> FactorGraph:
    return build_graph(shape, case)


def bp_decode_batch(
    graph: FactorGraph,
    observation_pmfs: np.ndarray,
    max_iters: int = 50,
    damping: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flooding BP over a batch of independent trials.

    ``observation_pmfs`` has shape (B, T, M): one channel pmf per position.
    Per trial, stops once hard decisions survive 3 consecutive iterations;
    each trial's outcome depends only on its own row, so results are
    identical under any batching.  Returns (decisions, posteriors,
    iterations, converged).

    Messages use the tensor layout of the module docstring.  The all-ones
    slots of pinned entries leave the check extrinsics bit-identical to a
    product over the participating entries only.  Variable sums move each
    slab's own mode to the front and add each entry's T / T_i rows with
    ``np.add.reduceat``: the order of a sum over an edge list sorted by
    variable (``np.sum`` adds in another order and moves the last bit).
    """
    if not 0.0 <= damping < 1.0:
        raise ValueError(f"damping must be in [0, 1), got {damping}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    obs = np.asarray(observation_pmfs, dtype=float)
    if obs.ndim != 3 or obs.shape[1] != graph.num_checks:
        raise ValueError(f"observation pmfs must be (B, {graph.num_checks}, M)")
    nb, t_len, m = obs.shape
    dims = graph.shape.dims
    d = len(dims)
    nv = graph.num_vars
    offsets = graph.shape.mode_offsets
    # rows of the stacked, mode-first slabs where each factor entry's sum starts
    starts = np.concatenate([i * t_len + np.arange(t) * (t_len // t) for i, t in enumerate(dims)])
    free = np.array([offsets[i] + e for i, e in graph.var_labels], dtype=np.int64)
    pinned = np.ones((d, 1) + dims + (1,), dtype=bool)
    for i, e in graph.var_labels:
        pinned[(i, 0) + (slice(None),) * i + (e,)] = False

    obs_f = np.fft.fft(_clean(obs), axis=-1).reshape((nb,) + dims + (m,))
    v2c = np.full((d, nb) + dims + (m,), 1.0 / m)
    by_mode = np.empty((nb, d, t_len, m))
    extrinsic = np.empty_like(v2c)

    decisions = np.zeros((nb, nv), dtype=np.int64)
    prev = np.full((nb, nv), -1, dtype=np.int64)
    streak = np.zeros(nb, dtype=np.int64)
    done = np.zeros(nb, dtype=bool)
    iters_used = np.full(nb, max_iters, dtype=np.int64)
    final = np.zeros((nb, nv), dtype=np.int64)
    final_post = np.full((nb, nv, m), 1.0 / m)

    for it in range(max_iters):
        # check side, DFT domain
        w = np.conj(np.fft.fft(v2c, axis=-1))
        np.copyto(w, 1.0, where=pinned)
        logs = np.log(check_extrinsics(obs_f, w))

        # variable side, log domain
        for i, t in enumerate(dims):
            view = by_mode[:, i].reshape((nb, t) + dims[:i] + dims[i + 1 :] + (m,))
            np.copyto(view, np.moveaxis(logs[i], i + 1, 1))
        sums = np.add.reduceat(by_mode.reshape(nb, d * t_len, m), starts, axis=1)
        posteriors = softmax(sums[:, free], axis=-1)
        for i, (o, t) in enumerate(zip(offsets, dims)):
            entry_shape = (nb,) + tuple(t if a == i else 1 for a in range(d)) + (m,)
            np.subtract(sums[:, o : o + t].reshape(entry_shape), logs[i], out=extrinsic[i])
        fresh = softmax(extrinsic, axis=-1)
        v2c = fresh if damping == 0.0 else _clean((1.0 - damping) * fresh + damping * v2c)

        decisions = np.argmax(posteriors, axis=-1)  # ties: smallest symbol
        streak = np.where((decisions == prev).all(axis=1), streak + 1, 0)
        prev = decisions
        newly = (~done) & (streak >= 3)
        if newly.any():
            final[newly] = decisions[newly]
            final_post[newly] = posteriors[newly]
            iters_used[newly] = it + 1
            done |= newly
        if done.all():
            break

    final[~done] = decisions[~done]
    final_post[~done] = posteriors[~done]
    return final, final_post, iters_used, done


@lru_cache(maxsize=8)
def _codebook(shape: TensorShape, case: int) -> tuple[np.ndarray, np.ndarray]:
    """All info words (lexicographic) and their transmit signals."""
    m = shape.modulation_order
    k = shape.info_length(case)
    nbytes = m**k * shape.blocklength * np.dtype(complex).itemsize
    if nbytes > ML_SIGNAL_BYTES:
        raise RuntimeError(
            f"ML enumeration needs {m}^{k} codewords of length {shape.blocklength}, "
            f"{nbytes} bytes of signals; limit is {ML_SIGNAL_BYTES}"
        )
    grids = np.indices((m,) * k).reshape(k, -1).T if k else np.zeros((1, 0), dtype=np.int64)
    words = np.ascontiguousarray(grids.astype(np.int64))
    return words, transmit_signal(encode(words, shape, case), m)


def ml_oracle_decode(received: np.ndarray, shape: TensorShape, case: int) -> np.ndarray:
    """Exhaustive max-correlation decoding; ties resolve to the
    lexicographically smallest info word.  Guarded to M^K * T * 16 bytes of
    codebook signals <= ML_SIGNAL_BYTES."""
    words, signals = _codebook(shape, case)
    y = np.asarray(received, dtype=complex)
    scores = np.real(y @ np.conj(signals.T))
    return words[int(np.argmax(scores))]


# --- CP decomposition -------------------------------------------------------


@dataclass
class CpFactors:
    """Rank-R factors of a complex tensor, last mode treated as gains."""

    factors: list[np.ndarray]
    rank: int
    residual: float
    residual_history: np.ndarray
    converged: bool


def _khatri_rao(mats: list[np.ndarray]) -> np.ndarray:
    out = mats[0]
    r = out.shape[1]
    for a in mats[1:]:
        out = (out[:, None, :] * a[None, :, :]).reshape(-1, r)
    return out


def _unfold(tensor: np.ndarray, mode: int) -> np.ndarray:
    return np.moveaxis(tensor, mode, 0).reshape(tensor.shape[mode], -1)


def _reconstruct(factors: list[np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    full = factors[0] @ _khatri_rao(factors[1:]).T
    return full.reshape(shape)


def cp_als(
    tensor: np.ndarray,
    rank: int,
    rng: np.random.Generator,
    max_iters: int = 300,
    tol: float = 1e-10,
    restarts: int = 3,
    ridge: float = 1e-9,
) -> CpFactors:
    """Alternating least squares CP decomposition of a complex tensor.

    Each mode update solves the regularized normal equations
    (G + ridge I) A_n^T = (Y_(n) conj(Z))^T with Z the Khatri-Rao product of
    the other factors and G the Hadamard product of their Grams.  Runs
    ``restarts`` random initializations and keeps the lowest relative
    residual; per start, stops when the residual improves by less than
    ``tol``.
    """
    y = np.asarray(tensor, dtype=complex)
    if y.ndim < 2:
        raise ValueError("tensor must have at least 2 modes")
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    norm_y = np.linalg.norm(y)
    if norm_y == 0:
        raise ValueError("zero tensor has no meaningful decomposition")
    nmodes = y.ndim
    unfolds = [_unfold(y, n) for n in range(nmodes)]

    best = None
    for _ in range(max(1, restarts)):
        factors = [
            (rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank)))
            / np.sqrt(2.0)
            for dim in y.shape
        ]
        grams = [f.conj().T @ f for f in factors]
        history = []
        prev_res = np.inf
        converged = False
        for _sweep in range(max_iters):
            for n in range(nmodes):
                others = [factors[i] for i in range(nmodes) if i != n]
                z = _khatri_rao(others)
                g = np.ones((rank, rank), dtype=complex)
                for i in range(nmodes):
                    if i != n:
                        g = g * grams[i]
                rhs = (unfolds[n] @ np.conj(z)).T
                a = np.linalg.solve(g + ridge * np.eye(rank), rhs).T
                factors[n] = a
                grams[n] = a.conj().T @ a
            res = float(np.linalg.norm(y - _reconstruct(factors, y.shape)) / norm_y)
            history.append(res)
            if prev_res - res < tol:
                converged = True
                break
            prev_res = res
        cand = CpFactors(factors, rank, history[-1], np.array(history), converged)
        if best is None or cand.residual < best.residual:
            best = cand
    return best


def normalize_factors(
    cp: CpFactors, modulation_order: int
) -> tuple[CpFactors, list[np.ndarray], np.ndarray]:
    """Resolve the per-user scaling ambiguity against the reference entries.

    Divides each signal-mode column by its first entry (the position whose
    transmitted symbol is the constellation's 1) and absorbs the product of
    those entries into the gain column.  Users with any reference entry of
    magnitude below 1e-6 are flagged undecodable.  Also returns hard
    projections round(angle * M / 2pi) mod M per signal-mode entry.
    """
    modes = [f.copy() for f in cp.factors[:-1]]
    gains = cp.factors[-1].copy()
    rank = cp.rank
    undecodable = np.zeros(rank, dtype=bool)
    for r in range(rank):
        refs = np.array([f[0, r] for f in modes])
        if np.any(np.abs(refs) < REFERENCE_TOL):
            undecodable[r] = True
            continue
        for f, a in zip(modes, refs):
            f[:, r] = f[:, r] / a
        gains[:, r] = gains[:, r] * np.prod(refs)
    hard = [
        np.mod(np.rint(np.angle(f) * modulation_order / (2 * np.pi)), modulation_order).astype(
            np.int64
        )
        for f in modes
    ]
    out = CpFactors(modes + [gains], rank, cp.residual, cp.residual_history, cp.converged)
    return out, hard, undecodable


def multiuser_decode(
    tensor: np.ndarray,
    num_users: int,
    noise_var: float,
    shape: TensorShape,
    rng: np.random.Generator,
    max_bp_iters: int = 50,
    damping: float = 0.0,
    als_iters: int = 300,
    als_tol: float = 1e-10,
    als_restarts: int = 3,
) -> list[np.ndarray | None]:
    """Non-coherent multi-user receiver: CP-ALS separation, reference-based
    normalization, then BP on every user's reconstructed signal in one batch.

    The observation tensor has the code's shape plus a trailing antenna
    mode.  Per decodable user, the normalized signal-mode columns are
    multiplied back into a length-T signal estimate whose effective noise
    level scales inversely with the recovered gain energy; BP then decodes
    it as a case-1 codeword.  Undecodable users yield None.
    """
    if tensor.shape[: shape.num_modes] != shape.dims:
        raise ValueError(
            f"tensor signal modes {tensor.shape[: shape.num_modes]} do not match {shape.dims}"
        )
    cp = cp_als(
        tensor, num_users, rng, max_iters=als_iters, tol=als_tol, restarts=als_restarts
    )
    ncp, _, undecodable = normalize_factors(cp, shape.modulation_order)
    users = [r for r in range(num_users) if not undecodable[r]]
    pmfs = []
    for r in users:
        cols = [f[:, r] for f in ncp.factors[:-1]]
        signal = mls_encode(cols)
        gain_energy = float(np.linalg.norm(ncp.factors[-1][:, r]) ** 2)
        eff_var = max(noise_var / max(gain_energy, 1e-300), 1e-12)
        pmfs.append(channel_pmfs(signal, eff_var, shape.modulation_order))
    out: list[np.ndarray | None] = [None] * num_users
    if users:
        dec, _, _, _ = bp_decode_batch(
            _graph_context(shape, 1), np.stack(pmfs), max_iters=max_bp_iters, damping=damping
        )
        for r, word in zip(users, dec):
            out[r] = word
    return out


# --- single-user decoder registry -------------------------------------------
# Uniform signature: (received (B, T), noise_var, shape, case, max_iters,
# damping) -> decisions (B, K_case).  A von Mises phase-domain message-passing
# decoder would slot in here; only FFT-BP and the ML oracle ship.


def _decode_trials_bp(received, noise_var, shape, case, max_iters, damping):
    pmfs = channel_pmfs(received, noise_var, shape.modulation_order)
    dec, _, _, _ = bp_decode_batch(_graph_context(shape, case), pmfs, max_iters, damping)
    return dec


def _decode_trials_ml(received, noise_var, shape, case, max_iters, damping):
    words, signals = _codebook(shape, case)
    scores = np.real(np.asarray(received, dtype=complex) @ np.conj(signals.T))
    return words[np.argmax(scores, axis=1)]


SINGLE_USER_DECODERS = {
    "bp": _decode_trials_bp,
    "ml": _decode_trials_ml,
}
