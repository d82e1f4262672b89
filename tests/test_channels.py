"""Channel model statistics and the tensor observation identity."""

import numpy as np
import pytest

from tbmpsk.channels import awgn, simo_mac
from tbmpsk.modulation import encode, transmit_signal
from tbmpsk.ring_code import TensorShape


class TestAwgn:
    def test_zero_variance_exact(self):
        s = np.exp(1j * np.linspace(0, 3, 50))[None]
        y = awgn(s, 0.0, [np.random.default_rng(0)])
        assert np.array_equal(y, s)

    def test_noise_variance(self):
        rng = np.random.default_rng(1)
        n = 200_000
        y = awgn(np.zeros((1, n), dtype=complex), 0.7, [rng])
        assert abs(np.mean(np.abs(y) ** 2) - 0.7) < 0.01
        # circular symmetry: equal power in both quadratures
        assert abs(np.var(y.real) - 0.35) < 0.01
        assert abs(np.var(y.imag) - 0.35) < 0.01

    def test_seeded_reproducibility(self):
        s = np.ones((1, 10), dtype=complex)
        a = awgn(s, 0.5, [np.random.default_rng(42)])
        b = awgn(s, 0.5, [np.random.default_rng(42)])
        assert np.array_equal(a, b)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            awgn(np.ones((1, 3), dtype=complex), -0.1, [np.random.default_rng(0)])

    def test_nan_variance_rejected(self):
        with pytest.raises(ValueError):
            awgn(np.ones((1, 3), dtype=complex), float("nan"), [np.random.default_rng(0)])

    def test_row_draws_real_then_imaginary_parts(self):
        # noise_var 2 scales by 1: a row's noise is its generator's first T
        # normals plus 1j times its next T
        y = awgn(np.zeros((1, 7), dtype=complex), 2.0, [np.random.default_rng(3)])
        rng = np.random.default_rng(3)
        re, im = rng.standard_normal(7), rng.standard_normal(7)
        assert np.array_equal(y[0].real, re) and np.array_equal(y[0].imag, im)

    def test_rows_are_their_own_generators(self):
        # a chunk's rows equal one-row chunks, and one generator for a whole
        # array equals that array as a one-row chunk
        s = np.exp(1j * np.arange(15.0)).reshape(3, 5)
        rows = [awgn(row[None], 0.4, [np.random.default_rng(i)]) for i, row in enumerate(s)]
        chunk = awgn(s, 0.4, [np.random.default_rng(i) for i in range(3)])
        assert np.array_equal(chunk, np.concatenate(rows))
        whole = awgn(s, 0.4, np.random.default_rng(9))
        assert np.array_equal(whole, awgn(s[None], 0.4, [np.random.default_rng(9)])[0])

    def test_one_generator_per_row(self):
        with pytest.raises(ValueError):
            awgn(np.ones((2, 3), dtype=complex), 1.0, [np.random.default_rng(0)])


class TestSimoMac:
    def _signals(self, rng, sh, users):
        u = rng.integers(0, sh.modulation_order, (users, sh.info_length(1)))
        return transmit_signal(encode(u, sh, 1), sh.modulation_order)

    def test_tensor_shape(self):
        rng = np.random.default_rng(2)
        sh = TensorShape((4, 3, 2), 4)
        s = self._signals(rng, sh, 3)
        tensor, gains = simo_mac(s, sh, 5, 0.1, rng)
        assert tensor.shape == (4, 3, 2, 5)
        assert gains.shape == (3, 5)

    def test_noiseless_identity(self):
        # the tensor must equal sum_k s_k (outer) h_k for the returned gains
        rng = np.random.default_rng(3)
        sh = TensorShape((4, 3, 2), 4)
        s = self._signals(rng, sh, 2)
        tensor, gains = simo_mac(s, sh, 4, 0.0, rng)
        direct = np.einsum("kt,kn->tn", s, gains).reshape(4, 3, 2, 4)
        assert np.allclose(tensor, direct, atol=1e-12)

    def test_gain_statistics(self):
        rng = np.random.default_rng(4)
        sh = TensorShape((2, 2), 4)
        s = np.ones((400, 4), dtype=complex)
        _, gains = simo_mac(s, sh, 50, 0.0, rng)
        power = np.mean(np.abs(gains) ** 2)
        assert abs(power - 1.0) < 0.02

    def test_single_user_vector_accepted(self):
        rng = np.random.default_rng(5)
        sh = TensorShape((2, 2), 4)
        tensor, gains = simo_mac(np.ones(4, dtype=complex), sh, 2, 0.0, rng)
        assert tensor.shape == (2, 2, 2)
        assert gains.shape == (1, 2)

    def test_validation(self):
        rng = np.random.default_rng(6)
        sh = TensorShape((2, 2), 4)
        with pytest.raises(ValueError):
            simo_mac(np.ones((1, 3), dtype=complex), sh, 2, 0.0, rng)
        with pytest.raises(ValueError):
            simo_mac(np.ones((1, 4), dtype=complex), sh, 0, 0.0, rng)
        with pytest.raises(ValueError):
            simo_mac(np.ones((1, 4), dtype=complex), sh, 2, -1.0, rng)

    def test_nan_variance_rejected(self):
        with pytest.raises(ValueError):
            simo_mac(np.ones((1, 4), dtype=complex), TensorShape((2, 2), 4), 2, float("nan"),
                     np.random.default_rng(6))
