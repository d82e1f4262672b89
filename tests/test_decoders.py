"""Receiver correctness: FFT check updates vs direct convolution, BP round
trips and batch invariance, the ML oracle, CP-ALS, and the multi-user path."""

import numpy as np
import pytest

from tbmpsk.channels import awgn, simo_mac
from tbmpsk.decoders import (
    CpFactors,
    bp_decode_batch,
    channel_pmfs,
    check_extrinsics,
    check_update_direct,
    check_update_fft,
    cp_als,
    ml_oracle_decode,
    multiuser_decode,
    normalize_factors,
)
from tbmpsk.factor_graph import build_graph
from tbmpsk.modulation import encode, mls_encode, psk_map, transmit_signal
from tbmpsk.ring_code import TensorShape


class TestChannelPmfs:
    def test_rows_normalized(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        p = channel_pmfs(y, 0.5, 4)
        assert p.shape == (20, 4)
        assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-9)

    def test_tiny_variance_gives_indicator(self):
        y = psk_map(np.array([0, 1, 2, 3]), 4)
        p = channel_pmfs(y, 1e-12, 4)
        assert np.array_equal(np.argmax(p, axis=-1), [0, 1, 2, 3])
        assert np.allclose(np.max(p, axis=-1), 1.0)

    def test_huge_variance_near_uniform(self):
        p = channel_pmfs(np.array([0.3 + 0.1j]), 1e6, 4)
        assert np.allclose(p, 0.25, atol=1e-4)

    def test_batched_shape(self):
        y = np.zeros((3, 7), dtype=complex)
        assert channel_pmfs(y, 1.0, 8).shape == (3, 7, 8)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            channel_pmfs(np.array([1.0 + 0j]), 0.0, 4)


class TestCheckUpdate:
    def test_worked_binary_example(self):
        out = check_update_fft([np.array([0.9, 0.1]), np.array([0.8, 0.2])])
        assert np.allclose(out, [0.74, 0.26], atol=1e-12)

    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(1)
        for m in (2, 4, 8, 16):
            for _ in range(50):
                pmfs = [rng.dirichlet(np.ones(m)) for _ in range(rng.integers(1, 5))]
                target = rng.dirichlet(np.ones(m)) if rng.random() < 0.5 else None
                a = check_update_fft(pmfs, target)
                b = check_update_direct(pmfs, target)
                assert np.allclose(a, b, atol=1e-12)

    def test_every_participant_matches_direct(self):
        # BP's prefix/suffix products: each output leaves out its own participant
        rng = np.random.default_rng(18)
        for m in (2, 4, 8):
            for n in (2, 3, 5):
                pmfs = [rng.dirichlet(np.ones(m)) for _ in range(n)]
                target = rng.dirichlet(np.ones(m))
                w = np.conj(np.fft.fft(np.stack(pmfs), axis=-1))
                out = check_extrinsics(np.fft.fft(target), w)
                for k in range(n):
                    want = check_update_direct(pmfs[:k] + pmfs[k + 1 :], target)
                    assert np.allclose(out[k], want, atol=1e-12)

    def test_single_input_negates(self):
        q = np.array([0.1, 0.2, 0.3, 0.4])
        out = check_update_fft([q])
        # pmf of -v: index k gets q[(-k) mod 4]
        assert np.allclose(out, q[(-np.arange(4)) % 4], atol=1e-12)

    def test_target_only_is_identity(self):
        t = np.array([0.7, 0.1, 0.1, 0.1])
        assert np.allclose(check_update_fft([], t), t, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            check_update_fft([])


def _bp_one(g, pmfs, **kwargs):
    """Single-trial BP: (decisions, posteriors, iterations, converged) of row 0."""
    return [out[0] for out in bp_decode_batch(g, pmfs[None], **kwargs)]


class TestBpDecode:
    def test_clean_round_trip(self):
        sh = TensorShape((4, 2, 2), 4)
        g = build_graph(sh, 1)
        rng = np.random.default_rng(2)
        for _ in range(25):
            u = rng.integers(0, 4, sh.k_shortened)
            s = transmit_signal(encode(u, sh, 1), 4)
            dec, _, _, conv = _bp_one(g, channel_pmfs(s, 1e-6, 4))
            assert np.array_equal(dec, u)
            assert conv

    def test_case3_round_trip(self):
        sh = TensorShape((4, 2, 2), 4)
        g = build_graph(sh, 3)
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = rng.integers(0, 4, sh.k_coherent)
            s = transmit_signal(encode(u, sh, 3), 4)
            dec, _, _, _ = _bp_one(g, channel_pmfs(s, 1e-6, 4))
            assert np.array_equal(dec, u)

    def test_posteriors_normalized(self):
        sh = TensorShape((4, 2, 2), 4)
        g = build_graph(sh, 1)
        s = transmit_signal(encode(np.array([1, 2, 3, 0, 1]), sh, 1), 4)
        y = awgn(s, 0.5, np.random.default_rng(4))
        _, post, _, _ = _bp_one(g, channel_pmfs(y, 0.5, 4))
        assert np.allclose(post.sum(axis=-1), 1.0, atol=1e-9)

    def test_batch_matches_single(self):
        sh = TensorShape((4, 2, 2), 4)
        g = build_graph(sh, 1)
        rng = np.random.default_rng(5)
        nv = 0.4
        ys = []
        for _ in range(8):
            u = rng.integers(0, 4, 5)
            ys.append(awgn(transmit_signal(encode(u, sh, 1), 4), nv, rng))
        pmfs = channel_pmfs(np.stack(ys), nv, 4)
        batch = bp_decode_batch(g, pmfs)
        for i in range(8):
            for got, one in zip(batch, _bp_one(g, pmfs[i])):
                assert np.array_equal(got[i], one)

    def test_large_degree_no_underflow(self):
        # (10,20,16) variable nodes aggregate up to 320 messages
        sh = TensorShape((10, 20, 16), 4)
        g = build_graph(sh, 1)
        u = np.zeros(sh.k_shortened, dtype=int)
        s = transmit_signal(encode(u, sh, 1), 4)
        y = awgn(s, 0.3, np.random.default_rng(6))
        _, post, _, _ = _bp_one(g, channel_pmfs(y, 0.3, 4), max_iters=10)
        assert np.isfinite(post).all()
        assert np.allclose(post.sum(axis=-1), 1.0, atol=1e-9)

    def test_damping_validation(self):
        sh = TensorShape((2, 2), 4)
        g = build_graph(sh, 1)
        with pytest.raises(ValueError):
            _bp_one(g, np.full((4, 4), 0.25), damping=1.0)

    def test_observation_shape_validation(self):
        sh = TensorShape((2, 2), 4)
        g = build_graph(sh, 1)
        with pytest.raises(ValueError):
            _bp_one(g, np.full((3, 4), 0.25))


class TestMlOracle:
    def test_clean_exhaustive(self):
        sh = TensorShape((2, 2), 4)
        for u0 in range(4):
            for u1 in range(4):
                u = np.array([u0, u1])
                s = transmit_signal(encode(u, sh, 1), 4)
                assert np.array_equal(ml_oracle_decode(s, sh, 1), u)

    def test_case2_returns_codeword_equivalent(self):
        # case 2 is many-to-one; the oracle must land on the same codeword
        sh = TensorShape((2, 2), 2)
        rng = np.random.default_rng(7)
        for _ in range(10):
            u = rng.integers(0, 2, 4)
            s = transmit_signal(encode(u, sh, 2), 2)
            got = ml_oracle_decode(s, sh, 2)
            assert np.array_equal(encode(got, sh, 2), encode(u, sh, 2))

    def test_enumeration_guard(self):
        with pytest.raises(RuntimeError):
            ml_oracle_decode(np.zeros(3200, dtype=complex), TensorShape((10, 20, 16), 4), 1)

    def test_guard_counts_signal_bytes(self):
        # 4^10 words pass a 2^20-word limit, but their signals take 16 GiB
        sh = TensorShape((2,) * 10, 4)
        with pytest.raises(RuntimeError):
            ml_oracle_decode(np.zeros(sh.blocklength, dtype=complex), sh, 1)


class TestCpAls:
    def _rank2_tensor(self, rng):
        sh = TensorShape((4, 3, 2), 4)
        u = rng.integers(0, 4, (2, sh.k_shortened))
        s = transmit_signal(encode(u, sh, 1), 4)
        tensor, real = simo_mac(s, sh, 4, 0.0, rng)
        return sh, u, s, tensor, real

    def test_exact_fit(self):
        rng = np.random.default_rng(8)
        _, _, _, tensor, _ = self._rank2_tensor(rng)
        cp = cp_als(tensor, 2, rng)
        assert cp.residual < 1e-8

    def test_residual_monotone(self):
        rng = np.random.default_rng(9)
        _, _, _, tensor, _ = self._rank2_tensor(rng)
        cp = cp_als(tensor, 2, rng)
        assert (np.diff(cp.residual_history) <= 1e-9).all()

    def test_noisy_fit_reasonable(self):
        rng = np.random.default_rng(10)
        sh = TensorShape((4, 3, 2), 4)
        u = rng.integers(0, 4, (2, sh.k_shortened))
        s = transmit_signal(encode(u, sh, 1), 4)
        tensor, _ = simo_mac(s, sh, 4, 0.01, rng)
        cp = cp_als(tensor, 2, rng)
        assert cp.residual < 0.1

    def test_validation(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            cp_als(np.zeros((2, 2)), 1, rng)
        with pytest.raises(ValueError):
            cp_als(np.ones((2, 2)), 0, rng)


class TestNormalizeFactors:
    def test_reference_entries_become_one(self):
        rng = np.random.default_rng(12)
        sh = TensorShape((4, 3, 2), 4)
        u = rng.integers(0, 4, (2, sh.k_shortened))
        s = transmit_signal(encode(u, sh, 1), 4)
        tensor, _ = simo_mac(s, sh, 4, 0.0, rng)
        cp = cp_als(tensor, 2, rng)
        ncp, hard, bad = normalize_factors(cp, 4)
        assert not bad.any()
        for f in ncp.factors[:-1]:
            assert np.allclose(f[0, :], 1.0, atol=1e-6)

    def test_reconstruction_invariant(self):
        rng = np.random.default_rng(13)
        sh = TensorShape((4, 3, 2), 4)
        u = rng.integers(0, 4, (2, sh.k_shortened))
        s = transmit_signal(encode(u, sh, 1), 4)
        tensor, _ = simo_mac(s, sh, 4, 0.0, rng)
        cp = cp_als(tensor, 2, rng)
        ncp, _, _ = normalize_factors(cp, 4)

        def rebuild(f):
            full = f[0]
            for a in f[1:]:
                full = (full[:, None, :] * a[None, :, :]).reshape(-1, f[0].shape[1])
            return full.sum(axis=1)

        assert np.allclose(rebuild(cp.factors), rebuild(ncp.factors), atol=1e-8)

    def test_hard_projection_recovers_symbols(self):
        rng = np.random.default_rng(14)
        sh = TensorShape((4, 3, 2), 4)
        u = rng.integers(0, 4, (1, sh.k_shortened))
        s = transmit_signal(encode(u, sh, 1), 4)
        tensor, _ = simo_mac(s, sh, 4, 0.0, rng)
        cp = cp_als(tensor, 1, rng)
        ncp, hard, bad = normalize_factors(cp, 4)
        assert not bad.any()
        # per-mode hard symbols are the factor vectors of the codeword
        c = encode(u[0], sh, 1).reshape(sh.dims)
        assert np.array_equal(hard[0][:, 0], c[:, 0, 0])
        assert np.array_equal(hard[1][:, 0], (c[0, :, 0] - c[0, 0, 0]) % 4)

    def test_vanishing_reference_flagged(self):
        factors = [
            np.array([[0.0 + 0j], [1.0 + 0j]]),
            np.array([[1.0 + 0j], [1.0 + 0j]]),
            np.array([[1.0 + 0j], [1.0 + 0j]]),
        ]
        cp = CpFactors(factors, 1, 0.0, np.array([0.0]), True)
        _, _, bad = normalize_factors(cp, 4)
        assert bad.all()


class TestMultiuserDecode:
    def test_two_user_round_trip(self):
        rng = np.random.default_rng(15)
        sh = TensorShape((4, 3, 2), 4)
        u = rng.integers(0, 4, (2, sh.k_shortened))
        s = transmit_signal(encode(u, sh, 1), 4)
        nv = 10 ** (-15 / 10)
        tensor, _ = simo_mac(s, sh, 5, nv, rng)
        decoded = multiuser_decode(tensor, 2, nv, sh, rng)
        sent = {tuple(r) for r in u}
        got = {tuple(d) for d in decoded if d is not None}
        assert sent == got

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(16)
        sh = TensorShape((4, 3, 2), 4)
        with pytest.raises(ValueError):
            multiuser_decode(np.zeros((3, 3, 2, 4), dtype=complex), 1, 0.1, sh, rng)
