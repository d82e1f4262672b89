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
array.  The layout is planar: the pmf (or spectrum) axis comes before the
positions, (d, B, M, T_1, ..., T_d), so each symbol of a (mode, trial) is one
contiguous plane and the short per-symbol arithmetic runs as whole-array
ufuncs on those planes.  A pinned reference entry's slots hold the all-ones
DFT of a delta at 0, an absent participant.

The ML oracle enumerates the whole codebook; it refuses codebooks whose
signals would take more than ``ML_SIGNAL_BYTES`` (M^K * T * 16 bytes).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

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

    Shape (..., M) for input (...,).  Distances are offset by the per-sample
    minimum before exponentiation, so arbitrarily small noise variances
    yield a clean indicator pmf instead of 0/0; zero variance (infinite
    SNR) gives the indicator of the nearest point, ties to the smallest
    symbol.
    """
    if not noise_var >= 0:
        raise ValueError(f"noise variance must be non-negative, got {noise_var}")
    y = np.asarray(received, dtype=complex)
    points = transmit_signal(np.arange(modulation_order), modulation_order)
    d2 = np.abs(y[..., None] - points) ** 2
    if noise_var == 0:
        return (np.argmin(d2, axis=-1)[..., None] == np.arange(modulation_order)).astype(float)
    x = -d2 / noise_var
    return _softmax(x, out=x)


def _max_last(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.max(x, axis=-1)`` as a running ``np.maximum`` over the last
    axis's slices: a maximum is exact, so every order gives the same bits,
    and the slices skip numpy's slow reduction over a short axis."""
    if out is None:
        out = np.empty(x.shape[:-1])
    np.maximum(x[..., 0], x[..., 1], out=out)
    for j in range(2, x.shape[-1]):
        np.maximum(out, x[..., j], out=out)
    return out


def _sum_last(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.sum(x, axis=-1)`` of a contiguous ``x``, as adds of the last
    axis's slices in numpy's pairwise order, so every layout of ``x`` gives
    the bits numpy gives its contiguous copy (up to the sign of a sum of
    negative zeros, which numpy starts from +0.0).  Below 8 terms the adds
    run left to right; up to 128, eight running sums r_j over the terms
    j, j + 8, ... of the whole blocks combine as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) before the tail is
    added; longer axes split in two where numpy splits them.

    From 8 terms on, each block of up to 128 terms makes three arrays shaped
    like ``out`` for its partial sums, and each split one for its second
    half."""
    if out is None:
        out = np.empty(x.shape[:-1])
    return _pairwise_sum(x, 0, x.shape[-1], out)


def _pairwise_sum(x: np.ndarray, a: int, n: int, out: np.ndarray) -> np.ndarray:
    """Sum of the last-axis slices a, ..., a + n - 1 of ``x`` into ``out``,
    in the order of numpy's ``pairwise_sum``."""
    if n < 8:
        np.add(x[..., a], x[..., a + 1], out=out)
        for j in range(a + 2, a + n):
            np.add(out, x[..., j], out=out)
        return out
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
    s = _max_last(x, scratch)
    e = np.subtract(x, s[..., None], out=out)
    np.exp(e, out=e)
    return np.divide(e, _sum_last(e, s)[..., None], out=e)


def _clean(
    pmfs: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Floor at ``PMF_FLOOR`` and renormalize over the last axis; ``out``
    and ``scratch`` as for :func:`_softmax`."""
    p = np.maximum(pmfs, PMF_FLOOR, out=out)
    return np.divide(p, _sum_last(p, scratch)[..., None], out=p)


def _dft(x: np.ndarray, out: np.ndarray, conj: bool = False) -> np.ndarray:
    """DFT of real ``x`` along axis 2, the spectrum axis of BP's layout
    (d, B, M) + positions, into complex ``out``, conjugated if ``conj``:
    bit for bit ``np.fft.rfft`` (M <= ``HALF_SPECTRUM_M``, M // 2 + 1 bins)
    or ``np.fft.fft`` (larger M), and ``np.conj`` of it.

    For M = 4 the transform is pocketfft's radf4 butterfly as whole-array
    ufuncs on the four planes of ``x``, one call per operation instead of one
    per row: X0 = (x0 + x2) + (x3 + x1), X1 = (x0 - x2) + i (x3 - x1) and
    X2 = (x0 + x2) - (x3 + x1).  The two sums wait in the imaginary parts of
    X0 and X2, which then take the zero that pocketfft writes there (-0.0
    once conjugated)."""
    m = x.shape[2]
    if m != 4:
        if m <= HALF_SPECTRUM_M:
            np.fft.rfft(x, axis=2, out=out)
        else:  # fft casts real input to a complex copy; make that copy in out
            out[...] = x
            np.fft.fft(out, axis=2, out=out)
        return np.conjugate(out, out=out) if conj else out
    x0, x1, x2, x3 = (x[:, :, j] for j in range(4))
    y0, y1, y2 = (out[:, :, j] for j in range(3))
    even, odd = y0.imag, y2.imag
    np.add(x0, x2, out=even)
    np.add(x3, x1, out=odd)
    np.add(even, odd, out=y0.real)
    np.subtract(even, odd, out=y2.real)
    np.subtract(x0, x2, out=y1.real)
    np.subtract(x3, x1, out=y1.imag)
    if conj:
        np.negative(y1.imag, out=y1.imag)
    # the zero imaginary parts: bins 0 and 2
    out.imag[:, :, ::2] = -0.0 if conj else 0.0
    return out


def _idft(f: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Inverse DFT along axis 2 of the spectra ``f``, whose M is
    ``out.shape[2]``: bit for bit ``np.fft.irfft`` into ``out`` for
    M <= ``HALF_SPECTRUM_M``, and for larger M ``np.fft.ifft(f).real``,
    computed in ``f`` and returned as its real view.

    For M = 4 it is pocketfft's radb4 butterfly, then the scaling by 1/4.
    From r0, r1 + i i1, r2: tr1 = r0 - r2, tr2 = r0 + r2, tr3 = 2 r1,
    tr4 = 2 i1, and y = (tr2 + tr3, tr1 - tr4, tr2 - tr3, tr1 + tr4).  tr1 and
    tr2 wait in the imaginary parts of bins 0 and 2, which irfft ignores, and
    tr3 and tr4 in the outputs they feed."""
    m = out.shape[2]
    if m != 4:
        if m <= HALF_SPECTRUM_M:
            return np.fft.irfft(f, n=m, axis=2, out=out)
        return np.fft.ifft(f, axis=2, out=f).real
    f0, f1, f2 = (f[:, :, j] for j in range(3))
    y0, y1, y2, y3 = (out[:, :, j] for j in range(4))
    tr2, tr1 = f0.imag, f2.imag
    np.add(f0.real, f2.real, out=tr2)
    np.subtract(f0.real, f2.real, out=tr1)
    np.multiply(f1.real, 2.0, out=y2)
    np.add(tr2, y2, out=y0)
    np.subtract(tr2, y2, out=y2)
    np.multiply(f1.imag, 2.0, out=y3)
    np.subtract(tr1, y3, out=y1)
    np.add(tr1, y3, out=y3)
    return np.multiply(out, 0.25, out=out)


def check_extrinsics(
    target_f: np.ndarray,
    w: np.ndarray,
    out: np.ndarray,
    scratch: np.ndarray | None = None,
    prefix: np.ndarray | None = None,
) -> np.ndarray:
    """Extrinsic pmfs at sum constraints (sum of participants = t mod M),
    one per participant: the pmf of t minus the other participants.

    ``w[k]`` is the conjugated DFT of participant k's pmf (conjugation
    negates, and the DFT of a sum's pmf is the product of the DFTs), in
    BP's planar layout: ``w`` is (participants, B, bins) + positions, the
    spectrum on axis 2.  ``target_f`` is the DFT of t's pmf, broadcast
    against ``w[0]``.  The products over the others run as a prefix/suffix
    product in participant order; the running suffix is kept in ``w``,
    which is overwritten.  A participant whose ``w`` is exactly 1 (a delta
    at 0) is absent: multiplying by 1+0j is exact, so it changes no other
    output.

    The cleaned pmfs go to ``out``, shape (participants, B, M) + positions,
    which sets M.  For M <= ``HALF_SPECTRUM_M`` the inverse (:func:`_idft`)
    reads only the first M // 2 + 1 bins, so ``w`` and ``target_f`` may hold
    just those; larger M needs all M.  ``scratch``, shape
    (participants, B) + positions, serves the clean, and ``prefix``, shaped
    like ``w``, holds the prefix products (made per call when omitted).
    """
    n = w.shape[0]
    f = np.empty_like(w) if prefix is None else prefix
    f[0] = target_f
    for k in range(1, n):
        np.multiply(f[k - 1], w[k - 1], out=f[k])
    for k in range(n - 2, -1, -1):  # w[k + 1] holds the product of w[k + 1:]
        np.multiply(f[k], w[k + 1], out=f[k])
        if k:
            np.multiply(w[k + 1], w[k], out=w[k])
    last = (0, 1, *range(3, out.ndim), 2)  # the pmf axis last, as _clean reads it
    _clean(_idft(f, out).transpose(last), out=out.transpose(last), scratch=scratch)
    return out


def check_bp_params(max_iters: int, damping: float) -> None:
    """Reject fewer than one BP iteration or a damping weight outside [0, 1)."""
    if not 0.0 <= damping < 1.0:
        raise ValueError(f"damping must be in [0, 1), got {damping}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")


def _bp_arrays(shape: TensorShape, damping: float, rows: int) -> dict:
    """Shape and dtype of each working array :func:`bp_decode_batch` holds for
    ``rows`` trials: the messages (a second array when damped), the
    observation spectra of the live trials and of the next chunk's pending
    ones, the check side's spectra and prefix products, and the per-symbol
    scratch."""
    dims, d, m = shape.dims, shape.num_modes, shape.modulation_order
    # an M <= 4 message keeps only its first M // 2 + 1 DFT bins, the others
    # being their conjugates
    bins = m // 2 + 1 if m <= HALF_SPECTRUM_M else m
    arrays = {
        "v2c": ((d, rows, m) + dims, float),
        "obs_f": ((rows, bins) + dims, complex),
        "pending": ((1, rows, bins) + dims, complex),
        "spectra": ((d, rows, bins) + dims, complex),
        "prefix": ((d, rows, bins) + dims, complex),
        "row_scratch": ((d, rows) + dims, float),
    }
    if damping != 0.0:
        arrays["messages"] = arrays["v2c"]
    return arrays


def bp_budget_rows(shape: TensorShape, damping: float = 0.0) -> int:
    """Most trials whose BP working arrays (:func:`_bp_arrays`) fit in
    ``BP_BYTES``; at least one."""
    arrays = _bp_arrays(shape, damping, 1).values()
    return max(1, BP_BYTES // int(sum(np.prod(s) * np.dtype(t).itemsize for s, t in arrays)))


def bp_decode_batch(
    graph: FactorGraph,
    observation_pmfs: np.ndarray | Iterator[np.ndarray],
    max_iters: int = 50,
    damping: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flooding BP over independent trials, as many at once as the first chunk has.

    ``observation_pmfs`` is a (B, T, M) array, one channel pmf per position
    and trial, or an iterator of such chunks, read lazily one chunk at a
    time; an array counts as one chunk.  The capacity is the first chunk's
    trials, at least one, cut to :func:`bp_budget_rows`, the most trials
    whose working arrays fit in ``BP_BYTES``; chunks are taken at most that
    many trials at a time, so a call's arrays stay within the budget
    whatever the batch.  Per trial, stops once hard decisions survive 3
    consecutive iterations or after ``max_iters``; each trial's outcome
    depends only on its own row, so results are identical under any
    batching.  Returns (decisions, posteriors, iterations, converged), one
    row per trial in input order.

    Trials leave as they finish: on a trial's last iteration its outputs are
    kept with its trial index and the live rows are packed to the front of
    the working arrays, the last ones moving into the holes, and the next
    pending trials move into the freed rows, so every iteration runs on
    min(capacity, live + pending) trials and the loop ends when both are
    exhausted.  Each row counts its own iterations.  The kept outputs are
    put in input order once, at the end.

    Messages use the planar tensor layout of the module docstring.  Entry 0
    of a mode absent from ``graph.var_labels`` holds the reference symbol:
    slicing sets its slots to all ones, which leaves the check extrinsics
    bit-identical to a product over the participating entries only.  Mode
    i's variable sums are one ``np.add.reduceat`` over its slab, transposed
    so that axis i leads the positions and flattened: the order of a sum
    over an edge list sorted by variable (``np.sum`` over the entry axis
    adds in another order and moves the last bit).  The transposes, the
    segment starts and the broadcast shapes are made once per call.

    For M < 8 an iteration allocates almost nothing: the DFTs, the prefix
    products and check extrinsics of :func:`check_extrinsics` and their
    inverse transform write into capacity-sized per-call buffers, whose
    first rows hold the live trials; log, extrinsic subtraction, softmax and
    damping then run in place in the inverse transform's output, and an
    iteration that some trials leave moves at most as many rows.  Softmax and
    clean read the pmf axis through a transposed view, so each of their
    per-symbol slices is one contiguous plane per (mode, trial); from M = 8
    on, each of their sums makes its three partial-sum arrays
    (:func:`_sum_last`).  For M <= ``HALF_SPECTRUM_M`` the messages keep
    M // 2 + 1 DFT bins, and at M = 4 the transforms are pocketfft's
    butterflies on those planes (:func:`_dft`, :func:`_idft`); larger M
    keeps the full spectrum.
    """
    check_bp_params(max_iters, damping)
    dims = graph.shape.dims
    d = len(dims)
    nv, t_len, m = graph.num_vars, graph.num_checks, graph.shape.modulation_order
    chunks = (observation_pmfs if isinstance(observation_pmfs, Iterator)
              else iter([observation_pmfs]))
    head = next(chunks, None)  # read before the buffers, whose rows are its trials
    capacity = min(max(1, 0 if head is None else len(head)), bp_budget_rows(graph.shape, damping))

    # each mode's first info entry: 1 where entry 0 holds the reference symbol
    first = [int((i, 0) not in graph.var_labels) for i in range(d)]

    def pieces(chunk) -> Iterator[np.ndarray]:
        """The spectra of the cleaned pmfs of ``chunk`` and the later chunks,
        (b, bins) + dims, read as needed, in pieces of b <= ``capacity``."""
        while chunk is not None:
            obs = np.asarray(chunk, dtype=float)
            if obs.ndim != 3 or obs.shape[1:] != (t_len, m):
                raise ValueError(f"observation pmfs must be (B, {t_len}, {m})")
            for a in range(0, len(obs), capacity):
                b = min(capacity, len(obs) - a)
                # one expression, so that no transient outlives the yield
                yield _dft(_clean(obs[a : a + b]).transpose(0, 2, 1).reshape((1, b, m) + dims),
                           np.empty(*_bp_arrays(graph.shape, damping, b)["pending"]))[0]
            chunk = next(chunks, None)

    source = pieces(head)
    del head  # so that the first chunk goes once it is read, as the later ones do
    pending = next(source, None)  # before the buffers, so that its temporaries come and go first
    # made once per call; an iteration uses the first n rows, one per live
    # trial.  Undamped, the check extrinsics become the next messages in place
    spec = _bp_arrays(graph.shape, damping, capacity)
    v2c, obs_f, spectra, prefix, row_scratch = (
        np.empty(*spec[name]) for name in ("v2c", "obs_f", "spectra", "prefix", "row_scratch"))
    messages = np.empty(*spec["messages"]) if "messages" in spec else v2c
    # views and shapes made once per call: the pmf axis moved last, each
    # mode's slab with its entry axis leading the positions, the starts of
    # its entries' segments, and the broadcast shape of its entry sums
    last = (0, 1, *range(3, d + 3), 2)
    slab = [(0, 1, i + 2, *(a + 2 for a in range(d) if a != i)) for i in range(d)]
    starts = [np.arange(0, t_len, t_len // t) for t in dims]
    entry = [(-1, m) + tuple(t if a == i else 1 for a in range(d)) for i, t in enumerate(dims)]
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
        # pending trials move into the free rows; a piece is dropped once all
        # of its trials are in, and the next one is read when rows are free
        while n < capacity:
            if pending is None:
                pending, taken = next(source, None), 0
                if pending is None:
                    break
            a = min(capacity - n, len(pending) - taken)
            obs_f[n : n + a] = pending[taken : taken + a]
            v2c[:, n : n + a] = 1.0 / m
            trial[n : n + a] = np.arange(admitted, admitted + a)
            age[n : n + a] = 0
            streak[n : n + a] = 0
            prev[n : n + a] = -1
            taken, n, admitted = taken + a, n + a, admitted + a
            if taken == len(pending):
                pending = None
        if n == 0:
            break

        scratch = row_scratch[:, :n]
        # check side, DFT domain
        w = _dft(v2c[:, :n], spectra[:, :n], conj=True)
        for index in pinned:
            w[index] = 1.0
        logs = check_extrinsics(obs_f[:n], w, messages[:, :n], scratch, prefix[:, :n])
        np.log(logs, out=logs)

        # variable side, log domain; posteriors are (n, M, K)
        sums = [
            np.add.reduceat(logs[i].transpose(p).reshape(n, m, t_len), s, axis=2)
            for i, (p, s) in enumerate(zip(slab, starts))
        ]
        posteriors = np.concatenate([s[:, :, e:] for s, e in zip(sums, first)], axis=2)
        by_word = posteriors.transpose(0, 2, 1)
        _softmax(by_word, out=by_word)
        for i in range(d):
            np.subtract(sums[i].reshape(entry[i]), logs[i], out=logs[i])
        _softmax(logs.transpose(last), out=logs.transpose(last), scratch=scratch)
        if damping != 0.0:
            # (1 - damping) * logs + damping * v2c, in v2c's own memory
            live = v2c[:, :n]
            np.multiply(logs, 1.0 - damping, out=logs)
            np.multiply(live, damping, out=live)
            np.add(logs, live, out=live)
            _clean(live.transpose(last), out=live.transpose(last), scratch=scratch)

        decisions = np.argmax(posteriors, axis=1)  # ties: smallest symbol
        age[:n] += 1
        streak[:n] = np.where((decisions == prev[:n]).all(axis=1), streak[:n] + 1, 0)
        prev[:n] = decisions
        settled = streak[:n] >= 3
        leaving = settled | (age[:n] >= max_iters)
        if not leaving.any():
            continue
        left.append((trial[:n][leaving], decisions[leaving], by_word[leaving],
                     age[:n][leaving], settled[leaving]))
        # the kept rows past the first n - leaving.sum() fill the holes the
        # leaving rows made before them, so no more rows move than leave
        n_kept = n - int(leaving.sum())
        holes = np.flatnonzero(leaving[:n_kept])
        if holes.size:
            movers = n_kept + np.flatnonzero(~leaving[n_kept:])
            v2c[:, holes] = v2c[:, movers]
            for x in (obs_f, trial, age, streak, prev):
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
# Uniform signature: (received chunks, an iterable of (b, T) arrays;
# noise_var, shape, case, max_iters, damping) -> decisions (sum of b,
# K_case) in chunk order, reading the chunks as it decodes.  BP holds as
# many trials at once as the first chunk has, and no more than fit in
# ``BP_BYTES`` (the engine draws its chunks no larger, so each chunk's
# channel pmfs are no larger than BP's rows for them).  A von Mises
# phase-domain message-passing decoder would slot in here; only FFT-BP and
# the ML oracle ship.


def _decode_trials_bp(chunks, noise_var, shape, case, max_iters, damping):
    pmfs = (channel_pmfs(y, noise_var, shape.modulation_order) for y in chunks)
    dec, _, _, _ = bp_decode_batch(build_graph(shape, case), pmfs, max_iters, damping)
    return dec


def _decode_trials_ml(chunks, noise_var, shape, case, max_iters, damping):
    return np.concatenate([ml_oracle_decode(y, shape, case) for y in chunks])


SINGLE_USER_DECODERS = {
    "bp": _decode_trials_bp,
    "ml": _decode_trials_ml,
}
