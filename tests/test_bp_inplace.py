"""BP's in-place arithmetic against literal formulas and the edge-list oracle.

``bp_decode_batch`` keeps its messages planar (the pmf axis before the
trials and positions), runs its softmax and clean in place on a view with
the pmf axis last, sums that short axis slice by slice in numpy's pairwise
order, and for M <= 4 transforms only the half spectrum, at M = 4 with
pocketfft's butterflies, the real bins as real planes and the inverse's 1/4
folded into the check's clean.  The edge oracle shares ``_clean`` with it,
so the helpers are pinned here to the formulas and numpy routines they
replace, the check kernel to its all-complex route, and the oracle runs at
the orders that ``tests/test_bp_oracle.py`` does not: M = 2, 3, 4, 8 and 16.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.special import softmax

from tbmpsk.channels import awgn
from tbmpsk.decoders import (
    HALF_SPECTRUM_M,
    PMF_FLOOR,
    _clean,
    _dft,
    _idft,
    _softmax,
    _sum_last,
    bp_decode_batch,
    channel_pmfs,
    check_extrinsics,
)
from tbmpsk.factor_graph import build_graph
from tbmpsk.modulation import encode, transmit_signal
from tbmpsk.ring_code import TensorShape

from oracles import check_extrinsics_complex, spectrum_parts
from test_bp_oracle import edge_bp_decode_batch


def literal_clean(x):
    p = np.maximum(x, PMF_FLOOR)
    return p / p.sum(-1, keepdims=True)


def same_bits(a, b):
    """Equal shapes and bytes: unlike ``np.array_equal``, tells -0.0 from 0.0."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def planar(x):
    """``x`` (..., M) rewritten with the pmf axis first, viewed back as (..., M):
    the same values, each slice x[..., j] one contiguous plane."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(x, -1, 0)), 0, -1)


def _bp_shaped(rng, m, scale):
    """A (d, 7, 4, 3, 2, M) array with BP's strided (d, :5) row slice of it,
    and a row scratch sliced the same way."""
    full = scale * rng.standard_normal((3, 7, 4, 3, 2, m))
    scratch = np.empty(full.shape[:-1])
    return full, full[:, :5], scratch[:, :5]


@pytest.mark.parametrize("m", [2, 3, 4, 8, 16])
class TestHelpersMatchLiteralFormulas:
    @pytest.mark.parametrize("scale", [1.0, 30.0, 1e4, 1e300, -1e300])
    def test_softmax(self, m, scale):
        rng = np.random.default_rng(m)
        _, x, scratch = _bp_shaped(rng, m, scale)
        want = softmax(x, axis=-1)
        assert np.array_equal(_softmax(x), want)
        posteriors = np.ascontiguousarray(x.reshape(-1, 24, m))  # (B, K, M)
        assert np.array_equal(_softmax(posteriors, out=posteriors), want.reshape(-1, 24, m))
        assert np.array_equal(_softmax(x, out=x, scratch=scratch), want)

    def test_clean(self, m):
        rng = np.random.default_rng(m)
        full, x, scratch = _bp_shaped(rng, m, 1.0)
        full[...] = rng.dirichlet(np.ones(m), full.shape[:-1])
        full[rng.random(full.shape) < 0.3] = 0.0  # exact zeros take the floor
        full[0, 0, 0, 0] = 0.0  # an all-zero row
        want = literal_clean(x)
        assert np.array_equal(_clean(x), want)
        spectrum = np.fft.fft(x, axis=-1)  # the ifft branch cleans a strided real view
        out = np.empty_like(x)
        got = _clean(np.fft.ifft(spectrum, axis=-1).real, out=out, scratch=scratch)
        assert got is out
        assert np.array_equal(got, literal_clean(np.fft.ifft(spectrum, axis=-1).real))
        assert np.array_equal(_clean(x, out=x, scratch=scratch), want)


@pytest.mark.parametrize("m", [*range(2, 18), 32, 129, 200])
def test_sum_last_is_np_sum_in_every_layout(m):
    rng = np.random.default_rng(m)
    x = rng.standard_normal((6, 5, m)) * np.exp(5.0 * rng.standard_normal((6, 5, m)))
    want = np.sum(x, axis=-1)
    assert np.array_equal(_sum_last(x), want)
    assert np.array_equal(_sum_last(planar(x)), want)
    out = np.empty((6, 5))[:, 1:4]  # BP's row scratch is a strided slice too
    assert _sum_last(planar(x)[:, 1:4], out=out) is out
    assert np.array_equal(out, want[:, 1:4])


def _transform_planes(rng, m):
    """Real (7, M, 5, 3) planes mixing exact zeros, values near 1e-300, ordinary
    values and values near 1e300 (sums of four stay finite)."""
    scale = rng.choice([0.0, 1e-300, 1.0, 1e300], size=(7, m, 5, 3))
    return scale * rng.uniform(-1.0, 1.0, scale.shape)


def _layouts(x, axis):
    """``x`` itself and a view of the same values whose planes are strided."""
    return x, np.moveaxis(np.ascontiguousarray(np.moveaxis(x, axis, -1)), -1, axis)


def _parts_out():
    """Spectrum parts of M = 4 for the (7, 4, 5, 3) planes: contiguous, and
    strided views of larger arrays."""
    return [(np.empty((7, 2, 5, 3)), np.empty((7, 1, 5, 3), complex)),
            (np.empty((14, 3, 5, 3))[::2, 1:], np.empty((14, 2, 5, 3), complex)[::2, 1:])]


@pytest.mark.parametrize("conj", [False, True])
def test_forward_butterflies_are_rfft(conj):
    rng = np.random.default_rng(40 + conj)
    x = _transform_planes(rng, 4)
    x[:3, 3] = x[:3, 1]  # Im X1 = x3 - x1 is an exact zero
    want = np.fft.rfft(x, axis=1)
    if conj:
        want = np.conj(want)
    for view in _layouts(x, 1):
        for real, c in _parts_out():
            got = _dft(view, (real, c), conj=conj)
            assert got[0] is real and got[1] is c
            # the real bins 0 and 2 as real planes, bin 1 as it is
            assert same_bits(real, want[:, 0::2].real) and same_bits(c, want[:, 1:2]), conj


def test_inverse_butterflies_are_irfft():
    rng = np.random.default_rng(4)
    f = _transform_planes(rng, 3) + 1j * _transform_planes(rng, 3)
    want = np.fft.irfft(f, n=4, axis=1)
    for view in _layouts(f, 1):
        for out in (np.empty((7, 4, 5, 3)), np.empty((7, 6, 5, 3))[:, 1:-1]):
            for real, c in _parts_out():
                real[...], c[...] = view[:, 0::2].real, view[:, 1:2]
                got = _idft((real, c), out)
                # irfft ends with its scaling by 1/4, which the clean takes over
                assert got is out and same_bits(np.multiply(out, 0.25), want)
                # only the real planes served as scratch
                assert same_bits(c, view[:, 1:2])


def _check_inputs(rng, m, n):
    """Target spectra (bins, B) + positions and participant spectra
    (n, bins, B) + positions, complex, whose real bins have zero imaginary
    parts of either sign: random bins whose inverse goes negative or below
    the floor, entries near 1e-300, exact ones (absent participants) and, at
    M = 4, exact zeros of either sign in bin 2."""
    bins = m // 2 + 1 if m <= HALF_SPECTRUM_M else m
    shape = (n + 1, bins, 5, 3, 2)
    scale = rng.choice([1.0, 1.0, 1e-300, 1e-150], size=shape)
    f = scale * (rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape))
    f[rng.random(shape) < 0.1] = 1.0
    real = [0] + ([bins - 1] if m % 2 == 0 and m <= HALF_SPECTRUM_M else [])
    for k in real:  # the bins of a real pmf's spectrum that are real
        f.imag[:, k] = rng.choice([0.0, -0.0], size=f[:, k].shape)
    if m == 4:
        zero = rng.random(f[:, 2].shape) < 0.2
        f.real[:, 2][zero] = rng.choice([0.0, -0.0], size=zero.sum())
    return f[0], f[1:]


@pytest.mark.parametrize("m", [2, 3, 4, 8])
def test_check_extrinsics_is_the_complex_route(m):
    rng = np.random.default_rng(70 + m)
    for n in (1, 2, 3, 5):
        target_f, w = _check_inputs(rng, m, n)
        want = check_extrinsics_complex(target_f.copy(), w.copy(), m)
        floored = want < 1e-25
        assert floored.any() and not floored.all()  # some outputs took the floor
        out = np.empty((n, m) + w.shape[2:])
        got = check_extrinsics(spectrum_parts(target_f, m, 0), spectrum_parts(w.copy(), m), out)
        assert got is out and np.array_equal(got, want), n


def test_folded_quarter_cleans_to_the_same_bits():
    # check_extrinsics at M = 4: the inverse's 1/4 moves into the floor
    floor4 = 4 * PMF_FLOOR
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, 1e-300,
               4e-30, floor4, np.nextafter(floor4, 0.0), np.nextafter(floor4, 1.0), 3.9e-30,
               4.1e-30, 1e-29, -1e-29, 0.5, 1.0, 3.0, -1.0, 1e300]
    rng = np.random.default_rng(12)
    x = rng.choice(special, size=(4000, 4)) * rng.choice([1.0, 1.0, 0.75, 1.5], size=(4000, 4))
    x[:len(special)] = np.array(special)[:, None]  # rows all of one value
    want = _clean(np.multiply(x, 0.25))
    assert same_bits(_clean(x, floor=floor4), want)
    assert same_bits(_clean(planar(x), floor=floor4), want)


# M: channel noise variance that leaves some trials of every M unconverged
ORACLE_NOISE = {2: 3.0, 3: 1.5, 4: 1.0, 8: 0.3, 16: 0.1}


@pytest.mark.parametrize("m", sorted(ORACLE_NOISE))
def test_tensor_bp_bit_identical_to_edge_oracle_at_more_orders(m):
    rng = np.random.default_rng(23)
    nv = ORACLE_NOISE[m]
    converged = []
    for dims in ((4, 2, 2), (4, 4, 2), (6, 5, 4)):
        sh = TensorShape(dims, m)
        for case in (1, 3):
            g = build_graph(sh, case)
            u = rng.integers(0, m, (8, sh.info_length(case)))
            pmfs = channel_pmfs(awgn(transmit_signal(encode(u, sh, case), m), nv, rng), nv, m)
            for damping in (0.0, 0.3):
                got = bp_decode_batch(g, pmfs, 50, damping)
                want = edge_bp_decode_batch(g, pmfs, 50, damping)
                for a, b in zip(got, want):
                    assert np.array_equal(a, b), (dims, case, damping)
                converged.append(got[3])
    converged = np.concatenate(converged)
    assert converged.any() and not converged.all()


def test_bp_peak_memory_within_eight_message_arrays():
    # (6,5,4), 32 trials: the messages are d*B*T*M float64; from M = 8 on the
    # softmax and clean sums also need partial-sum planes
    for m in (4, 8):
        sh = TensorShape((6, 5, 4), m)
        g = build_graph(sh, 1)
        rng = np.random.default_rng(3)
        u = rng.integers(0, m, (32, sh.info_length(1)))
        pmfs = channel_pmfs(awgn(transmit_signal(encode(u, sh, 1), m), 1.0, rng), 1.0, m)
        bp_decode_batch(g, pmfs, 5)
        tracemalloc.start()
        try:
            bp_decode_batch(g, pmfs, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        message_bytes = sh.num_modes * 32 * sh.blocklength * m * 8
        assert peak <= 8 * message_bytes, m
