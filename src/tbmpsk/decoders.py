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
array.  The layout is planar and trial-contiguous: the pmf (or spectrum)
axis comes before the trials and the trials before the positions,
(d, M, B, T_1, ..., T_d), so each symbol of a mode is one contiguous plane
over all live trials and the short per-symbol arithmetic runs as long
whole-array ufuncs on those planes.  :func:`channel_pmfs` returns its pmfs
as such planes too, so softmax and clean always read the pmf axis as the
last axis of a planar view, where numpy's ``np.max`` and its short sums
are fast (:func:`_sum_last`).  A spectrum is a tuple of parts laid out
the same way (:func:`_bp_arrays`): at M = 4 the bins 0 and 2 of a real pmf
are real and are kept as real planes, bin 1 as a complex one; every other M
keeps one complex array.  A pinned reference entry's slots hold the all-ones
DFT of a delta at 0, an absent participant.

The ML oracle enumerates the whole codebook; it refuses codebooks whose
signals would take more than ``ML_SIGNAL_BYTES`` (M^K * T * 16 bytes).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .factor_graph import FactorGraph, build_graph
from .modulation import encode, mls_encode, transmit_signal
from .ring_code import TensorShape

PMF_FLOOR = 1e-30
# Largest M whose half-spectrum DFTs (rfft/irfft) were measured bit-identical
# to fft/ifft(...).real in BP
HALF_SPECTRUM_M = 4
ML_SIGNAL_BYTES = 2**30
# Most bytes of channel and CP-ALS arrays one simo-mac trial may take (see check_cp_bytes)
CP_BYTES = 2**30
# Most bytes of BP working arrays one decode holds (see bp_budget_rows)
BP_BYTES = 2**22
CODEBOOK_CHUNK = 2**18
ML_SCORE_CHUNK = 2**16
REFERENCE_TOL = 1e-6
# CP-ALS: sweeps per start, stopping improvement, random starts, ridge term
CP_MAX_SWEEPS = 300
CP_TOL = 1e-10
CP_RESTARTS = 3
CP_RIDGE = 1e-9


def channel_pmfs(received: np.ndarray, noise_var: float, modulation_order: int) -> np.ndarray:
    """Per-sample posterior pmfs over Z_M for y = phi(v) + CN(0, noise_var).

    Shape (..., M) for input (...,): a view of M planes, one per symbol,
    BP's planar layout, so the softmax reads each symbol as one contiguous
    plane.  Distances are offset by the per-sample minimum before
    exponentiation, so arbitrarily small noise variances yield a clean
    indicator pmf instead of 0/0; zero variance (infinite SNR) gives the
    indicator of the nearest point, ties to the smallest symbol.
    """
    if not noise_var >= 0:
        raise ValueError(f"noise variance must be non-negative, got {noise_var}")
    y = np.asarray(received, dtype=complex)
    points = transmit_signal(np.arange(modulation_order), modulation_order)
    d2 = np.empty((modulation_order,) + y.shape)
    # a symbol at a time, in one complex buffer that is gone before the softmax
    diff = np.empty_like(y)
    for j, point in enumerate(points):
        np.square(np.abs(np.subtract(y, point, out=diff), out=d2[j]), out=d2[j])
    del diff
    if noise_var == 0:
        return (np.argmin(d2, axis=0)[..., None] == np.arange(modulation_order)).astype(float)
    x = np.moveaxis(np.divide(np.negative(d2, out=d2), noise_var, out=d2), 0, -1)
    return _softmax(x, out=x)


def _sum_last(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.sum(x, axis=-1)`` of a contiguous ``x``, for ``x`` in any layout.

    Below 8 terms it is ``np.add.reduce``: on a view whose last-axis slices
    are planes numpy adds them left to right, as it adds a contiguous copy's
    terms.  From 8 terms on, numpy adds a contiguous axis in its pairwise
    order but a planar one in sequence, so :func:`_pairwise_sum` adds the
    slices in the pairwise order (up to the sign of a sum of negative
    zeros, which numpy starts from +0.0): up to 128 terms, eight running
    sums r_j over the terms j, j + 8, ... of the whole blocks combine as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) before the tail is
    added; longer axes split in two where numpy splits them.  Each block of
    up to 128 terms makes three arrays shaped like ``out`` for its partial
    sums, and each split one for its second half."""
    if x.shape[-1] < 8:
        return np.add.reduce(x, axis=-1, out=out)
    if out is None:
        out = np.empty(x.shape[:-1])
    return _pairwise_sum(x, 0, x.shape[-1], out)


def _pairwise_sum(x: np.ndarray, a: int, n: int, out: np.ndarray) -> np.ndarray:
    """Sum of the last-axis slices a, ..., a + n - 1 of ``x`` into ``out``,
    n >= 8, in the order of numpy's ``pairwise_sum``."""
    if n > 128:
        half = n // 2 - n // 2 % 8
        _pairwise_sum(x, a, half, out)
        return np.add(out, _pairwise_sum(x, a + half, n - half, np.empty_like(out)), out=out)
    whole = a + n - n % 8

    def running(j, buf):  # r_j, the running sum of terms j, j + 8, ... of the whole blocks
        if whole - a == 8:
            return x[..., a + j]
        np.add(x[..., a + j], x[..., a + j + 8], out=buf)
        for i in range(a + j + 16, whole, 8):
            np.add(buf, x[..., i], out=buf)
        return buf

    def pair(j, buf, other):  # r_j + r_{j+1} into buf
        return np.add(running(j, buf), running(j + 1, other), out=buf)

    t1, t2, t3 = (np.empty_like(out) for _ in range(3))
    pair(0, out, t1)
    np.add(out, pair(2, t1, t2), out=out)
    np.add(pair(4, t1, t2), pair(6, t2, t3), out=t1)
    np.add(out, t1, out=out)
    for i in range(whole, a + n):
        np.add(out, x[..., i], out=out)
    return out


def _softmax(
    x: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """``scipy.special.softmax(x, axis=-1)``: exp(x - max) / sum, in
    scipy's three operations.  ``out`` may be ``x``; ``scratch`` (shape
    ``x.shape[:-1]``) holds the per-row max and then the sum
    (:func:`_sum_last`)."""
    s = np.max(x, axis=-1, out=scratch)
    e = np.subtract(x, s[..., None], out=out)
    np.exp(e, out=e)
    return np.divide(e, _sum_last(e, s)[..., None], out=e)


def _clean(
    pmfs: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
    floor: float = PMF_FLOOR,
) -> np.ndarray:
    """Floor at ``floor`` and renormalize over the last axis; ``out`` and
    ``scratch`` as for :func:`_softmax`."""
    p = np.maximum(pmfs, floor, out=out)
    return np.divide(p, _sum_last(p, scratch)[..., None], out=p)


def _dft(
    x: np.ndarray, out: tuple[np.ndarray, ...], conj: bool = False
) -> tuple[np.ndarray, ...]:
    """DFT of real ``x`` along axis 1, the pmf axis of BP's layout
    (lead, M, B) + positions, into the spectrum parts ``out``
    (:func:`_bp_arrays`), conjugated if ``conj``: bit for bit
    ``np.fft.rfft`` (M <= ``HALF_SPECTRUM_M``, M // 2 + 1 bins) or
    ``np.fft.fft`` (larger M), and ``np.conj`` of it.

    At M = 4 the parts are the real bins 0 and 2 as real planes and bin 1
    as a complex one, and the transform is pocketfft's radf4 butterfly as
    whole-array ufuncs on the four planes of ``x``, one call per operation
    instead of one per row: X0 = (x0 + x2) + (x3 + x1),
    X1 = (x0 - x2) + i (x3 - x1) and X2 = (x0 + x2) - (x3 + x1).  The two
    sums wait in the real and imaginary parts of X1."""
    m = x.shape[1]
    if m != 4:
        (c,) = out
        if m <= HALF_SPECTRUM_M:
            np.fft.rfft(x, axis=1, out=c)
        else:  # fft casts real input to a complex copy; make that copy in c
            c[...] = x
            np.fft.fft(c, axis=1, out=c)
        if conj:
            np.conjugate(c, out=c)
        return out
    real, c = out
    x0, x1, x2, x3 = (x[:, j] for j in range(4))
    even, odd = c.real[:, 0], c.imag[:, 0]
    np.add(x0, x2, out=even)
    np.add(x3, x1, out=odd)
    np.add(even, odd, out=real[:, 0])
    np.subtract(even, odd, out=real[:, 1])
    np.subtract(x0, x2, out=even)
    np.subtract(x3, x1, out=odd)
    if conj:
        np.negative(odd, out=odd)
    return out


def _idft(f: tuple[np.ndarray, ...], out: np.ndarray) -> np.ndarray:
    """Inverse DFT along axis 1 of the spectrum parts ``f``, whose M is
    ``out.shape[1]``: bit for bit ``np.fft.irfft`` into ``out`` for M = 2
    and 3, and for M > 4 ``np.fft.ifft(f).real``, computed in ``f`` and
    returned as its real view.

    At M = 4 it is pocketfft's radb4 butterfly without irfft's scaling by
    1/4, so ``out`` gets 4 times irfft's values; :func:`check_extrinsics`
    folds the 1/4 into its clean.  From the real bins r0, r2 and bin 1
    r1 + i i1: tr1 = r0 - r2, tr2 = r0 + r2, tr3 = 2 r1, tr4 = 2 i1, and
    y = (tr2 + tr3, tr1 - tr4, tr2 - tr3, tr1 + tr4).  tr2 and tr4 wait in
    the planes of r0 and r2, which are overwritten, and tr1 and tr3 in the
    outputs they feed."""
    m = out.shape[1]
    if m != 4:
        (c,) = f
        if m <= HALF_SPECTRUM_M:
            return np.fft.irfft(c, n=m, axis=1, out=out)
        return np.fft.ifft(c, axis=1, out=c).real
    real, c = f
    r0, r2 = real[:, 0], real[:, 1]
    y0, y1, y2, y3 = (out[:, j] for j in range(4))
    np.subtract(r0, r2, out=y1)
    np.add(r0, r2, out=r0)
    np.multiply(c.real[:, 0], 2.0, out=y2)
    np.add(r0, y2, out=y0)
    np.subtract(r0, y2, out=y2)
    np.multiply(c.imag[:, 0], 2.0, out=r2)
    np.add(y1, r2, out=y3)
    np.subtract(y1, r2, out=y1)
    return out


def check_extrinsics(
    target_f: tuple[np.ndarray, ...],
    w: tuple[np.ndarray, ...],
    out: np.ndarray,
    scratch: np.ndarray | None = None,
    prefix: tuple[np.ndarray, ...] | None = None,
) -> np.ndarray:
    """Extrinsic pmfs at sum constraints (sum of participants = t mod M),
    one per participant: the pmf of t minus the other participants.

    ``w`` holds the conjugated DFT of each participant's pmf (conjugation
    negates, and the DFT of a sum's pmf is the product of the DFTs) as the
    spectrum parts of :func:`_dft`, each (participants, bins, B) + positions.
    ``target_f`` holds the parts of the DFT of t's pmf, each broadcast
    against its part of ``w[0]``.  The products over the others run as a
    prefix/suffix product in participant order, part by part; the running
    suffix is kept in ``w``, which is overwritten.  A participant whose
    ``w`` is exactly 1 (a delta at 0) is absent: multiplying by 1 is exact,
    so it changes no other output.

    Every product keeps the operand order of the all-complex route
    (``tests/oracles.py``): numpy's SIMD complex multiply fuses a multiply
    and an add, so ``a * b`` and ``b * a`` can differ in the last bit of the
    imaginary part.  At M = 4 the real bins multiply as reals; the real part
    of a complex product whose imaginary parts are zero is that real
    product, and the only difference, the sign of a zero, is floored away.

    The cleaned pmfs go to ``out``, shape (participants, M, B) + positions,
    which sets M.  For M <= ``HALF_SPECTRUM_M`` the inverse (:func:`_idft`)
    reads only the first M // 2 + 1 bins, so the parts may hold just those;
    larger M needs all M.  At M = 4 the inverse leaves out its scaling by
    1/4, and the clean floors at ``4 * PMF_FLOOR`` instead: scaling by 4 is
    exact for normal values, so max(4p, 4 floor) = 4 max(p, floor), a sum
    of four such terms is 4 times their sum, and (4a) / (4s) rounds as
    a / s; a p whose p / 4 would be subnormal lies below the floor either
    way.  The outputs are those of irfft and a ``PMF_FLOOR`` clean, bit for
    bit, one pass cheaper.  ``scratch``, shape (participants, B) +
    positions, serves the clean, and ``prefix``, shaped like ``w``, holds
    the prefix products (made per call when omitted).
    """
    n = len(w[0])
    f = tuple(np.empty_like(p) for p in w) if prefix is None else prefix
    for fp, wp, tp in zip(f, w, target_f):
        fp[0] = tp
        for k in range(1, n):
            np.multiply(fp[k - 1], wp[k - 1], out=fp[k])
        for k in range(n - 2, -1, -1):  # wp[k + 1] holds the product of wp[k + 1:]
            np.multiply(fp[k], wp[k + 1], out=fp[k])
            if k:
                np.multiply(wp[k + 1], wp[k], out=wp[k])
    last = (0, *range(2, out.ndim), 1)  # the pmf axis last, as _clean reads it
    floor = 4 * PMF_FLOOR if out.shape[1] == 4 else PMF_FLOOR
    _clean(_idft(f, out).transpose(last), out=out.transpose(last), scratch=scratch, floor=floor)
    return out


def check_bp_params(max_iters: int, damping: float) -> None:
    """Reject fewer than one BP iteration or a damping weight outside [0, 1)."""
    if not 0.0 <= damping < 1.0:
        raise ValueError(f"damping must be in [0, 1), got {damping}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")


def _bp_arrays(shape: TensorShape, damping: float, rows: int) -> dict:
    """The parts, (shape, dtype) each, of every working array
    :func:`bp_decode_batch` holds for ``rows`` trials: the messages (a second
    array when damped), the live trials' observation spectra, the check
    side's spectra and prefix products, and the per-symbol scratch.

    ``headroom``, one observation spectrum's bytes, is no array BP makes
    but room for an iteration's transients that grow with its rows.  Traced
    at (6,5,4), they are the copy of one mode's messages that
    ``np.add.reduceat`` reads (M floats a position) with its sums, and from
    M = 8 on :func:`_sum_last`'s partial sums (3d floats a position); over a
    stream of chunks, BP's peak grows per row by at most 1.01 of the count
    at M = 3 to 16.  A whole AWGN stream (:func:`~tbmpsk.sim.run`) holds
    besides these arrays only its kept outputs and the chunk in the making,
    since a used-up chunk is dropped at once: traced at 2 iterations, its
    peak is 0.98-1.10 of the count for its rows at (10,20,16) and 0.98-1.06
    at (6,5,4), M = 2 to 16.  Not counted: numpy's buffers for a ufunc on a
    strided view, up to 8,192 elements an operand whatever the rows.

    A spectrum's bins come before the trial axis.  Its parts are one complex
    array, except at M = 4, where the bins 0 and 2 of a real pmf are real and
    take a real array of two planes and bin 1 a complex one, a third fewer
    bytes.  An M <= 4 spectrum keeps only its first M // 2 + 1 bins, the
    others being their conjugates."""
    dims, d, m = shape.dims, shape.num_modes, shape.modulation_order

    def spectrum(*lead):
        if m == 4:
            return [(lead + (2, rows) + dims, float), (lead + (1, rows) + dims, complex)]
        bins = m // 2 + 1 if m <= HALF_SPECTRUM_M else m
        return [(lead + (bins, rows) + dims, complex)]

    arrays = {
        "v2c": [((d, m, rows) + dims, float)],
        "obs_f": spectrum(),
        "headroom": spectrum(1),
        "spectra": spectrum(d),
        "prefix": spectrum(d),
        "row_scratch": [((d, rows) + dims, float)],
    }
    if damping != 0.0:
        arrays["messages"] = arrays["v2c"]
    return arrays


def _alloc(parts: list) -> tuple[np.ndarray, ...]:
    """Uninitialized arrays of the (shape, dtype) ``parts`` of :func:`_bp_arrays`."""
    return tuple(np.empty(s, t) for s, t in parts)


def bp_budget_rows(shape: TensorShape, damping: float = 0.0) -> int:
    """Most trials whose BP working arrays (:func:`_bp_arrays`) fit in
    ``BP_BYTES``; at least one."""
    parts = [p for arr in _bp_arrays(shape, damping, 1).values() for p in arr]
    return max(1, BP_BYTES // int(sum(np.prod(s) * np.dtype(t).itemsize for s, t in parts)))


def bp_decode_batch(
    graph: FactorGraph,
    observation_pmfs: np.ndarray | Iterator[np.ndarray],
    max_iters: int = 50,
    damping: float = 0.0,
    on_leave: Callable[[np.ndarray, np.ndarray], object] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flooding BP over independent trials, as many at once as the first chunk has.

    ``observation_pmfs`` is a (B, T, M) array, one channel pmf per position
    and trial, or an iterator of such chunks, read lazily one chunk at a
    time; an array counts as one chunk, and an empty chunk adds no trial.
    The capacity is the first non-empty chunk's trials, cut to
    :func:`bp_budget_rows`, the most trials whose working arrays fit in
    ``BP_BYTES``, so a call's arrays stay within the budget whatever the
    batch.  Per trial, stops once hard decisions survive 3 consecutive
    iterations or after ``max_iters``; each trial's outcome depends only on
    its own row, so results are identical under any batching.  Returns
    (decisions, posteriors, iterations, converged), one row per trial in
    input order.

    Trials leave as they finish: on a trial's last iteration its outputs are
    kept with its trial index and the live rows are packed to the front of
    the working arrays, the last ones moving into the holes, and the chunk's
    next trials take the freed rows, their pmfs cleaned straight into their
    rows of the messages and transformed from there into their observation
    spectra.  So every iteration runs on min(capacity, live + waiting)
    trials, and the loop ends when both are exhausted.  The next chunk is
    read once a row is free and the chunk is used up.  Each row counts its
    own iterations.  The kept outputs are put in input order once, at the
    end.  ``on_leave(trials, decisions)``, if given, gets the input indices
    and decisions of the trials that leave, in the iteration they leave and
    before the next refill reads the iterator, so a caller can decide from
    them what its next chunk holds; a true return ends the call there, which
    then returns the outputs of the trials that have left, in input order.

    Messages use the trial-contiguous planar layout of the module
    docstring, (d, M, B) + positions, and spectra its parts
    (:func:`_bp_arrays`).  Entry 0 of a mode absent from
    ``graph.var_labels`` holds the reference symbol: slicing sets its slots
    to all ones, which leaves the check extrinsics bit-identical to a product
    over the participating entries only.  Mode i's variable sums are one
    ``np.add.reduceat`` over its slab, transposed so that axis i leads the
    positions and flattened to (M, n, T): the order of a sum over an edge
    list sorted by variable (``np.sum`` over the entry axis adds in another
    order and moves the last bit).  The posteriors come out (M, n, K).  The
    transposes, the segment starts and the broadcast shapes are made once
    per call.

    For M < 8 an iteration allocates almost nothing: the DFTs, the prefix
    products and check extrinsics of :func:`check_extrinsics` and their
    inverse transform write into capacity-sized per-call buffers, whose
    first rows of the trial axis hold the live trials; log, extrinsic
    subtraction, softmax and damping then run in place in the inverse
    transform's output, and an iteration that some trials leave moves at
    most as many rows.  Softmax and clean read the pmf axis through a
    transposed view, so each of their per-symbol slices is one contiguous
    plane per mode over the live trials; from M = 8 on, each of their sums
    makes its three partial-sum arrays (:func:`_sum_last`).  For
    M <= ``HALF_SPECTRUM_M`` the messages keep M // 2 + 1 DFT bins, and at
    M = 4 the transforms are pocketfft's butterflies on those planes, with
    the real bins as real planes and the inverse's 1/4 folded into the clean
    (:func:`_dft`, :func:`_idft`); larger M keeps the full spectrum.
    """
    check_bp_params(max_iters, damping)
    dims = graph.shape.dims
    d = len(dims)
    nv, t_len, m = graph.num_vars, graph.num_checks, graph.shape.modulation_order
    chunks = (observation_pmfs if isinstance(observation_pmfs, Iterator)
              else iter([observation_pmfs]))

    def take() -> np.ndarray | None:
        """The next non-empty chunk, or None once the chunks run out."""
        for chunk in chunks:
            obs = np.asarray(chunk, dtype=float)
            if obs.ndim != 3 or obs.shape[1:] != (t_len, m):
                raise ValueError(f"observation pmfs must be (B, {t_len}, {m})")
            if len(obs):
                return obs
        return None

    obs = take()  # read before the buffers, whose rows are its trials
    used_up = np.empty((0, t_len, m))
    capacity = min(max(1, 0 if obs is None else len(obs)), bp_budget_rows(graph.shape, damping))

    # each mode's first info entry: 1 where entry 0 holds the reference symbol
    first = [int((i, 0) not in graph.var_labels) for i in range(d)]

    # made once per call; an iteration uses the first n rows of the trial
    # axis, one per live trial.  Undamped, the check extrinsics become the
    # next messages in place
    spec = _bp_arrays(graph.shape, damping, capacity)
    (v2c,), obs_f, spectra, prefix, (row_scratch,) = (
        _alloc(spec[name]) for name in ("v2c", "obs_f", "spectra", "prefix", "row_scratch"))
    messages = _alloc(spec["messages"])[0] if "messages" in spec else v2c
    # views and shapes made once per call: the pmf axis moved last, each
    # mode's slab with its entry axis leading the positions, the starts of
    # its entries' segments, and the broadcast shape of its entry sums
    last = (0, 2, *range(3, d + 3), 1)
    slab = [(0, 1, i + 2, *(a + 2 for a in range(d) if a != i)) for i in range(d)]
    starts = [np.arange(0, t_len, t_len // t) for t in dims]
    entry = [(m, -1) + tuple(t if a == i else 1 for a in range(d)) for i, t in enumerate(dims)]
    pinned = [(i, slice(None), slice(None)) + (slice(None),) * i + (0,)
              for i in range(d) if first[i]]

    # working row r holds trial ``trial[r]``, in its ``age[r]``-th iteration
    trial = np.empty(capacity, dtype=np.int64)
    age = np.empty(capacity, dtype=np.int64)
    streak = np.empty(capacity, dtype=np.int64)
    prev = np.empty((capacity, nv), dtype=np.int64)
    # each iteration's leaving (trial, decisions, posteriors, iterations,
    # settled), after an empty entry that gives an empty stream its shapes
    left = [(np.empty(0, np.int64), np.empty((0, nv), np.int64), np.empty((0, nv, m)),
             np.empty(0, np.int64), np.empty(0, bool))]
    n = admitted = taken = 0

    while True:
        # the chunk's next trials take the free rows; the next chunk is read
        # once the chunk is used up and a row is free
        while n < capacity and obs is not None:
            if taken == len(obs):
                obs, taken = take(), 0
                continue
            a = min(capacity - n, len(obs) - taken)
            rows = v2c[:1, :, n : n + a]
            _clean(obs[taken : taken + a], out=rows[0].reshape(m, a, t_len).transpose(1, 2, 0),
                   scratch=row_scratch[0, n : n + a].reshape(a, t_len))
            _dft(rows, tuple(p[None, :, n : n + a] for p in obs_f))
            v2c[:, :, n : n + a] = 1.0 / m
            trial[n : n + a] = np.arange(admitted, admitted + a)
            age[n : n + a] = 0
            streak[n : n + a] = 0
            prev[n : n + a] = -1
            taken, n, admitted = taken + a, n + a, admitted + a
            if taken == len(obs):  # a used-up chunk is dropped at once, not at the next read
                obs, taken = used_up, 0
        if n == 0:
            break

        scratch = row_scratch[:, :n]
        # check side, DFT domain
        w = _dft(v2c[:, :, :n], tuple(p[:, :, :n] for p in spectra), conj=True)
        for index in pinned:
            for p in w:
                p[index] = 1.0
        logs = check_extrinsics(tuple(p[:, :n] for p in obs_f), w, messages[:, :, :n], scratch,
                                tuple(p[:, :, :n] for p in prefix))
        np.log(logs, out=logs)

        # variable side, log domain; posteriors are (M, n, K)
        sums = [
            np.add.reduceat(logs[i].transpose(p).reshape(m, n, t_len), s, axis=2)
            for i, (p, s) in enumerate(zip(slab, starts))
        ]
        posteriors = np.concatenate([s[:, :, e:] for s, e in zip(sums, first)], axis=2)
        by_word = posteriors.transpose(1, 2, 0)
        _softmax(by_word, out=by_word)
        for i in range(d):
            np.subtract(sums[i].reshape(entry[i]), logs[i], out=logs[i])
        _softmax(logs.transpose(last), out=logs.transpose(last), scratch=scratch)
        if damping != 0.0:
            # (1 - damping) * logs + damping * v2c, in v2c's own memory
            live = v2c[:, :, :n]
            np.multiply(logs, 1.0 - damping, out=logs)
            np.multiply(live, damping, out=live)
            np.add(logs, live, out=live)
            _clean(live.transpose(last), out=live.transpose(last), scratch=scratch)

        decisions = np.argmax(posteriors, axis=0)  # ties: smallest symbol
        age[:n] += 1
        streak[:n] = np.where((decisions == prev[:n]).all(axis=1), streak[:n] + 1, 0)
        prev[:n] = decisions
        settled = streak[:n] >= 3
        leaving = settled | (age[:n] >= max_iters)
        if not leaving.any():
            continue
        left.append((trial[:n][leaving], decisions[leaving], by_word[leaving],
                     age[:n][leaving], settled[leaving]))
        if on_leave is not None and on_leave(*left[-1][:2]):
            break
        # the kept rows past the first n - leaving.sum() fill the holes the
        # leaving rows made before them, so no more rows move than leave
        n_kept = n - int(leaving.sum())
        holes = np.flatnonzero(leaving[:n_kept])
        if holes.size:
            movers = n_kept + np.flatnonzero(~leaving[n_kept:])
            v2c[:, :, holes] = v2c[:, :, movers]
            for p in obs_f:
                p[:, holes] = p[:, movers]
            for x in (trial, age, streak, prev):
                x[holes] = x[movers]
        n = n_kept

    trials, *outputs = map(np.concatenate, zip(*left))
    del left  # so that the entries and the ordered outputs are never all held at once
    order = np.argsort(trials)
    return tuple(x[order] for x in outputs)


@lru_cache(maxsize=1)
def _codebook(shape: TensorShape, case: int) -> tuple[np.ndarray, np.ndarray]:
    """All info words (lexicographic) and their conjugated transmit signals.

    The signals fill one preallocated array about ``CODEBOOK_CHUNK`` samples
    at a time, so the temporaries of encoding stay small beside it, and are
    conjugated in place, so scoring never copies them."""
    m = shape.modulation_order
    k = shape.info_length(case)
    n, t = m**k, shape.blocklength
    nbytes = n * t * np.dtype(complex).itemsize
    if nbytes > ML_SIGNAL_BYTES:
        raise RuntimeError(
            f"ML enumeration needs {m}^{k} codewords of length {t}, "
            f"{nbytes} bytes of signals; limit is {ML_SIGNAL_BYTES}"
        )
    words = np.empty((n, k), dtype=np.int64)
    for j in range(k):
        words[:, j] = np.arange(n) // m ** (k - 1 - j) % m
    signals = np.empty((n, t), dtype=complex)
    step = max(1, CODEBOOK_CHUNK // t)
    for a in range(0, n, step):
        signals[a : a + step] = transmit_signal(encode(words[a : a + step], shape, case), m)
    np.conjugate(signals, out=signals)
    return words, signals


def ml_oracle_decode(received: np.ndarray, shape: TensorShape, case: int) -> np.ndarray:
    """Exhaustive max-correlation decoding of (..., T) samples; ties resolve
    to the lexicographically smallest info word.  Guarded to M^K * T * 16
    bytes of codebook signals <= ML_SIGNAL_BYTES.

    Scores about ``ML_SCORE_CHUNK`` (row, word) pairs at a time, so a call
    never holds the whole (rows, M^K) score matrix; a chunk's best replaces
    the running best only if strictly higher, which keeps ties on the
    smallest word."""
    words, conj_signals = _codebook(shape, case)
    y = np.asarray(received, dtype=complex)
    rows = y.reshape(-1, y.shape[-1])
    best = np.full(len(rows), -np.inf)
    pick = np.zeros(len(rows), dtype=np.int64)
    step = max(1, ML_SCORE_CHUNK // max(1, len(rows)))
    for a in range(0, len(words), step):
        scores = np.real(rows @ conj_signals[a : a + step].T)
        j = np.argmax(scores, axis=-1)
        top = scores[np.arange(len(rows)), j]
        better = top > best
        best[better] = top[better]
        pick[better] = a + j[better]
    return words[pick].reshape(y.shape[:-1] + words.shape[1:])


# --- CP decomposition -------------------------------------------------------


@dataclass
class CpFactors:
    """Rank-R factors of a complex tensor, last mode treated as gains."""

    factors: list[np.ndarray]
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


def check_cp_bytes(shape: TensorShape, num_users: int, num_antennas: int) -> None:
    """Refuse a multi-user trial whose arrays would take more than ``CP_BYTES``,
    counted from the shapes :func:`~tbmpsk.channels.simo_mac` and
    :func:`cp_als` allocate: the users' signals and channel pmfs, the T x N
    observation and its noise, the unfoldings, the reconstruction and its
    residual, a mode's Khatri-Rao product and its conjugate, and the factors,
    Gram matrices and normal equations of rank ``num_users``."""
    r, t, m = num_users, shape.blocklength, shape.modulation_order
    dims = shape.dims + (num_antennas,)
    cells = t * num_antennas
    items = (r * t + (4 + len(dims)) * cells + 2 * r * max(cells // n for n in dims)
             + 2 * r * sum(dims) + (5 + len(dims)) * r * r)
    nbytes = 16 * items + 8 * r * t * m
    if nbytes > CP_BYTES:
        raise RuntimeError(
            f"simo-mac with {r} users and {num_antennas} antennas at length {t} "
            f"needs {nbytes} bytes of channel and CP-ALS arrays; limit is {CP_BYTES}"
        )


def cp_als(
    tensor: np.ndarray,
    rank: int,
    rng: np.random.Generator,
) -> CpFactors:
    """Alternating least squares CP decomposition of a complex tensor.

    Each mode update solves the regularized normal equations
    (G + CP_RIDGE I) A_n^T = (Y_(n) conj(Z))^T with Z the Khatri-Rao product
    of the other factors and G the Hadamard product of their Grams.  Runs
    ``CP_RESTARTS`` random initializations and keeps the lowest relative
    residual; per start, stops after ``CP_MAX_SWEEPS`` sweeps or when the
    residual improves by less than ``CP_TOL``.
    """
    y = np.asarray(tensor, dtype=complex)
    if y.ndim < 2:
        raise ValueError("tensor must have at least 2 modes")
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    norm_y = np.linalg.norm(y)
    if norm_y == 0:
        raise ValueError("zero tensor has no meaningful decomposition")
    nmodes = y.ndim
    unfolds = [_unfold(y, n) for n in range(nmodes)]

    best = None
    for _ in range(CP_RESTARTS):
        factors = [
            (rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank)))
            / np.sqrt(2.0)
            for dim in y.shape
        ]
        grams = [f.conj().T @ f for f in factors]
        history = []
        prev_res = np.inf
        converged = False
        for _sweep in range(CP_MAX_SWEEPS):
            for n in range(nmodes):
                others = [factors[i] for i in range(nmodes) if i != n]
                z = _khatri_rao(others)
                g = np.ones((rank, rank), dtype=complex)
                for i in range(nmodes):
                    if i != n:
                        g = g * grams[i]
                rhs = (unfolds[n] @ np.conj(z)).T
                a = np.linalg.solve(g + CP_RIDGE * np.eye(rank), rhs).T
                factors[n] = a
                grams[n] = a.conj().T @ a
            res = float(np.linalg.norm(y - _reconstruct(factors, y.shape)) / norm_y)
            history.append(res)
            if prev_res - res < CP_TOL:
                converged = True
                break
            prev_res = res
        cand = CpFactors(factors, history[-1], np.array(history), converged)
        if best is None or cand.residual < best.residual:
            best = cand
    return best


def normalize_factors(cp: CpFactors) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Resolve the per-user scaling ambiguity against the reference entries.

    Returns (modes, gains, undecodable): each signal-mode column divided by
    its first entry (the position whose transmitted symbol is the
    constellation's 1), the gain columns times the product of those entries,
    and a mask of the users with a reference entry of magnitude below
    ``REFERENCE_TOL``, whose columns are left unscaled.

    Every user gets the bits of the per-user division and ``np.prod``: the
    product runs along the last axis of the C-contiguous (1, R, d) array of
    reference rows (a product over the first axis of a (d, R) array differs
    once d >= 2), and the kept row axis spares a lone (1, 1) gain the
    broadcast loop, whose complex multiply differs in the last bit.
    """
    *modes, gains = cp.factors
    refs = np.stack([f[:1] for f in modes], axis=-1)
    undecodable = (np.abs(refs[0]) < REFERENCE_TOL).any(axis=-1)
    refs[:, undecodable] = 1.0
    modes = [f / refs[..., i] for i, f in enumerate(modes)]
    return modes, gains * np.prod(refs, axis=-1), undecodable


def multiuser_decode(
    tensor: np.ndarray,
    num_users: int,
    noise_var: float,
    shape: TensorShape,
    rng: np.random.Generator,
    max_bp_iters: int = 50,
    damping: float = 0.0,
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
    cp = cp_als(tensor, num_users, rng)
    modes, gains, undecodable = normalize_factors(cp)
    users = [r for r in range(num_users) if not undecodable[r]]
    pmfs = []
    for r in users:
        signal = mls_encode([f[:, r] for f in modes])
        gain_energy = float(np.linalg.norm(gains[:, r]) ** 2)
        eff_var = max(noise_var / max(gain_energy, 1e-300), 1e-12)
        pmfs.append(channel_pmfs(signal, eff_var, shape.modulation_order))
    out: list[np.ndarray | None] = [None] * num_users
    if users:
        dec, _, _, _ = bp_decode_batch(
            build_graph(shape, 1), np.stack(pmfs), max_iters=max_bp_iters, damping=damping
        )
        for r, word in zip(users, dec):
            out[r] = word
    return out


# --- single-user decoder registry -------------------------------------------
# The stream contract every entry keeps, stated here only: (chunks,
# noise_var, shape, case, max_iters, damping, on_leave), returning None.  An
# entry reads the received chunks, an iterable of (b, T) arrays, as it
# decodes, and its one output is ``on_leave(trials, decisions)``: the
# trials' indices in chunk order and their (len(trials), K_case) info words,
# reported before the next chunk is read.  BP reports trials as they leave,
# the ML oracle a chunk at a time.  A true return ends the decoding there:
# nothing more is read or reported.  BP holds as many trials at once as the
# first chunk has, and no more than fit in ``BP_BYTES`` (the engine draws its
# chunks no larger, so each chunk's channel pmfs are no larger than BP's
# rows for them).  A von Mises phase-domain message-passing decoder would
# slot in here; only FFT-BP and the ML oracle ship.


def _decode_trials_bp(chunks, noise_var, shape, case, max_iters, damping, on_leave):
    # a map, unlike a generator, keeps no chunk's received signals across a read
    pmfs = map(partial(channel_pmfs, noise_var=noise_var,
                       modulation_order=shape.modulation_order), chunks)
    bp_decode_batch(build_graph(shape, case), pmfs, max_iters, damping, on_leave)


def _decode_trials_ml(chunks, noise_var, shape, case, max_iters, damping, on_leave):
    done = 0
    for y in chunks:
        words = ml_oracle_decode(y, shape, case)
        done += len(words)
        if on_leave(np.arange(done - len(words), done), words):
            return


SINGLE_USER_DECODERS = {
    "bp": _decode_trials_bp,
    "ml": _decode_trials_ml,
}
