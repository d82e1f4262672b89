"""BP's in-place arithmetic against literal formulas and the edge-list oracle.

``bp_decode_batch`` runs its softmax and clean in place, reduces the short
pmf axis slice by slice, and for M <= 4 transforms only the half spectrum.
The edge oracle shares ``_clean`` with it, so the helpers are pinned here to
the formulas they replace, and the oracle runs at the orders that
``tests/test_bp_oracle.py`` does not: M = 2 and 4 (half spectrum) and 16.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.special import softmax

from tbmpsk.channels import awgn
from tbmpsk.decoders import PMF_FLOOR, _clean, _softmax, bp_decode_batch, channel_pmfs
from tbmpsk.factor_graph import build_graph
from tbmpsk.modulation import encode, transmit_signal
from tbmpsk.ring_code import TensorShape

from test_bp_oracle import edge_bp_decode_batch


def literal_clean(x):
    p = np.maximum(x, PMF_FLOOR)
    return p / p.sum(-1, keepdims=True)


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


# M: channel noise variance that leaves some trials of every M unconverged
ORACLE_NOISE = {2: 3.0, 4: 1.0, 16: 0.1}


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
    # (6,5,4), M=4, 32 trials: the messages are d*B*T*M float64
    sh = TensorShape((6, 5, 4), 4)
    g = build_graph(sh, 1)
    rng = np.random.default_rng(3)
    u = rng.integers(0, 4, (32, sh.info_length(1)))
    pmfs = channel_pmfs(awgn(transmit_signal(encode(u, sh, 1), 4), 1.0, rng), 1.0, 4)
    bp_decode_batch(g, pmfs, 5)
    tracemalloc.start()
    try:
        bp_decode_batch(g, pmfs, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    message_bytes = sh.num_modes * 32 * sh.blocklength * 4 * 8
    assert peak <= 8 * message_bytes
