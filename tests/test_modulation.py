"""Encoders checked against an index-arithmetic oracle that never touches
the generator matrices."""

import tracemalloc

import numpy as np
import pytest

from tbmpsk.modulation import encode, encode_case1, mls_encode, transmit_signal
from tbmpsk.ring_code import TensorShape, case_matrix

from oracles import encode_systematic, factor_symbols, systematic_parts


def oracle_factors(info, shape, case):
    """Split an info word into per-mode vectors, pinning reference entries
    to zero; written from the case definitions, independent of
    oracles.factor_symbols."""
    out, pos = [], 0
    for i, t in enumerate(shape.dims):
        if case == 2 or (case == 3 and i == 0):
            out.append(np.array(info[pos : pos + t]))
            pos += t
        else:
            out.append(np.concatenate([[0], info[pos : pos + t - 1]]))
            pos += t - 1
    assert pos == len(info)
    return out


def oracle_codeword(info, shape, case):
    """c_p = sum over modes of the factor entry selected by p's index tuple."""
    vecs = oracle_factors(info, shape, case)
    m = shape.modulation_order
    c = np.empty(shape.blocklength, dtype=int)
    for p in range(shape.blocklength):
        idx = np.unravel_index(p, shape.dims)
        c[p] = sum(int(vecs[i][idx[i]]) for i in range(shape.num_modes)) % m
    return c


def all_words(m, k):
    return np.indices((m,) * k).reshape(k, -1).T


class TestPskMap:
    def test_unit_circle_points(self):
        pts = transmit_signal(np.arange(4), 4)
        assert np.allclose(pts, [1, 1j, -1, -1j])

    def test_additive_to_multiplicative(self):
        rng = np.random.default_rng(0)
        for m in (2, 4, 8, 16):
            a = rng.integers(0, m, 50)
            b = rng.integers(0, m, 50)
            assert np.allclose(transmit_signal((a + b) % m, m),
                               transmit_signal(a, m) * transmit_signal(b, m))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            transmit_signal(np.array([4]), 4)
        with pytest.raises(ValueError):
            transmit_signal(np.array([0.5]), 4)


class TestPipelineEquivalence:
    @pytest.mark.parametrize("m", [2, 4])
    def test_exhaustive_2x2_case2(self, m):
        sh = TensorShape((2, 2), m)
        for u in all_words(m, 4):
            assert np.array_equal(encode(u, sh, 2), oracle_codeword(u, sh, 2))

    @pytest.mark.parametrize("m", [2, 4])
    def test_exhaustive_2x2_case1(self, m):
        sh = TensorShape((2, 2), m)
        for u in all_words(m, sh.info_length(1)):
            assert np.array_equal(encode(u, sh, 1), oracle_codeword(u, sh, 1))

    @pytest.mark.parametrize("case", [1, 2, 3])
    def test_random_words_4x2x2(self, case):
        sh = TensorShape((4, 2, 2), 4)
        rng = np.random.default_rng(1)
        for _ in range(200):
            u = rng.integers(0, 4, sh.info_length(case))
            assert np.array_equal(encode(u, sh, case), oracle_codeword(u, sh, case))

    def test_signal_equals_kron_of_factors(self):
        sh = TensorShape((4, 2, 2), 4)
        rng = np.random.default_rng(2)
        for case in (1, 2, 3):
            for _ in range(50):
                u = rng.integers(0, 4, sh.info_length(case))
                s = transmit_signal(encode(u, sh, case), 4)
                factors = [transmit_signal(v, 4) for v in factor_symbols(u, sh, case)]
                assert np.allclose(s, mls_encode(factors))

    def test_factor_symbols_match_oracle(self):
        sh = TensorShape((5, 4, 3), 4)
        rng = np.random.default_rng(3)
        for case in (1, 2, 3):
            u = rng.integers(0, 4, sh.info_length(case))
            got = factor_symbols(u, sh, case)
            want = oracle_factors(u, sh, case)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestCodewordCounts:
    # enumeration kept within M^K <= 4096
    @pytest.mark.parametrize("dims,m", [((2, 2), 2), ((2, 2), 4), ((2, 2), 8),
                                        ((2, 2, 2), 2), ((3, 2), 4)])
    def test_case3_count(self, dims, m):
        sh = TensorShape(dims, m)
        words = all_words(m, sh.info_length(3))
        seen = {tuple(encode(u, sh, 3)) for u in words}
        assert len(seen) == m**sh.info_length(3)

    @pytest.mark.parametrize("dims,m", [((2, 2), 2), ((2, 2), 4), ((2, 2), 8),
                                        ((2, 2, 2), 2), ((3, 2), 4)])
    def test_case1_count(self, dims, m):
        sh = TensorShape(dims, m)
        words = all_words(m, sh.info_length(1))
        seen = {tuple(encode(u, sh, 1)) for u in words}
        assert len(seen) == m**sh.info_length(1)

    def test_case2_collapses_to_coherent_count(self):
        sh = TensorShape((2, 2), 4)
        seen = {tuple(encode(u, sh, 2)) for u in all_words(4, 4)}
        assert len(seen) == 4**sh.info_length(3)


class TestSystematicEncoder:
    def test_matches_direct_route(self):
        for dims in [(4, 2, 2), (4, 4, 2), (6, 5, 4)]:
            sh = TensorShape(dims, 4)
            parity, perm = systematic_parts(sh)
            gs = case_matrix(sh, 1)
            rng = np.random.default_rng(4)
            for _ in range(50):
                u = rng.integers(0, 4, sh.info_length(1))
                assert np.array_equal(encode_systematic(u, parity, perm), encode_case1(u, gs))

    def test_info_symbols_appear_verbatim(self):
        sh = TensorShape((4, 2, 2), 4)
        parity, perm = systematic_parts(sh)
        u = np.array([3, 1, 2, 0, 1])
        c = encode_systematic(u, parity, perm)
        # tail position perm[q] carries systematic symbol q
        tail = c[1:]
        assert np.array_equal(tail[perm[: len(u)]], u)


class TestValidation:
    def test_pilot_prefix(self):
        sh = TensorShape((4, 2, 2), 4)
        c = encode(np.zeros(5, dtype=int), sh, 1)
        assert c[0] == 0
        assert not c.any()

    def test_wrong_length_rejected(self):
        sh = TensorShape((4, 2, 2), 4)
        with pytest.raises(ValueError):
            encode(np.zeros(6, dtype=int), sh, 1)

    def test_out_of_ring_rejected(self):
        sh = TensorShape((4, 2, 2), 4)
        with pytest.raises(ValueError):
            encode(np.full(5, 4), sh, 1)

    def test_mls_needs_factors(self):
        with pytest.raises(ValueError):
            mls_encode([])


def test_warm_encode_does_not_rebuild_the_generator():
    # building the (43, 3200) generator of this code alone peaks at 2.4 MB
    shape = TensorShape((10, 20, 16), 4)
    info = np.ones(shape.info_length(1), dtype=np.int64)
    encode(info, shape, 1)
    tracemalloc.start()
    try:
        encode(info, shape, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000
