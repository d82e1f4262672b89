"""Generator-matrix constructions against hand-checked fixtures."""

import numpy as np
import pytest

from tbmpsk.ring_code import (
    CASES,
    RingMatrix,
    TensorShape,
    case_matrix,
    generalized_parity_check,
    systematic_form,
)

from oracles import (
    build_generator_kronecker,
    index_to_tuple,
    mode_row_sum,
    reduce_coherent,
    reference_row_residuals,
    shorten_noncoherent,
    tuple_to_index,
)

# printed 8x16 generator for the (4,2,2) tensor, frozen from an external check
G_422 = np.array([[int(c) for c in row] for row in [
    "1111000000000000",
    "0000111100000000",
    "0000000011110000",
    "0000000000001111",
    "1100110011001100",
    "0011001100110011",
    "1010101010101010",
    "0101010101010101",
]])
# rows of G_422 that survive the coherent reduction (0-based)
GR_KEEP = [0, 1, 2, 3, 5, 7]
GS_422 = np.array([[int(c) for c in row] for row in [
    "000111100000000",
    "000000011110000",
    "000000000001111",
    "011001100110011",
    "101010101010101",
]])

SHAPES = [
    (2, 2), (3, 2), (4, 2), (2, 2, 2), (3, 2, 2), (4, 2, 2), (3, 3, 2),
    (4, 3, 2), (4, 4, 2), (5, 4, 3), (4, 4, 4), (6, 5, 4), (2, 2, 2, 2),
    (3, 2, 2, 2), (3, 3, 2, 2), (4, 3, 2, 2), (5, 5, 5), (10, 20, 16),
    (8, 5, 5, 4, 4), (7, 3, 2),
]


class TestTensorShape:
    def test_canonical_order(self):
        sh = TensorShape((10, 20, 16), 4)
        assert sh.dims == (20, 16, 10)

    def test_counts(self):
        sh = TensorShape((4, 2, 2), 4)
        assert sh.blocklength == 16
        assert sh.info_length(2) == 8
        assert sh.info_length(3) == 6
        assert sh.info_length(1) == 5

    def test_info_lengths(self):
        sh = TensorShape((10, 20, 16), 4)
        assert sh.info_length(2) == 46
        assert sh.info_length(3) == 44
        assert sh.info_length(1) == 43

    @pytest.mark.parametrize("bad", [(1, 2), (0,), ()])
    def test_rejects_degenerate_dims(self, bad):
        with pytest.raises(ValueError):
            TensorShape(bad, 4)

    def test_rejects_bad_modulation(self):
        with pytest.raises(ValueError):
            TensorShape((2, 2), 1)

    def test_rejects_bad_case(self):
        with pytest.raises(ValueError):
            TensorShape((2, 2), 4).info_length(4)

    def test_entry_rows_match_index_arithmetic(self):
        # [i, p]: the case's row of the entry position p reads in mode i
        for dims in [(5,), (4, 2, 2), (3, 2, 2, 2)]:
            sh = TensorShape(dims, 4)
            for case in CASES:
                row_of = {entry: r for r, entry in enumerate(sh.free_entries(case))}
                table = sh.entry_rows(case)
                assert table.shape == (sh.num_modes, sh.blocklength)
                for p in range(sh.blocklength):
                    idx = index_to_tuple(p, sh.dims)
                    for i in range(sh.num_modes):
                        assert table[i, p] == row_of.get((i, idx[i]), -1), (dims, case, i, p)


class TestIndexMaps:
    def test_round_trip(self):
        dims = (4, 2, 2)
        for p in range(16):
            assert tuple_to_index(index_to_tuple(p, dims), dims) == p

    def test_lexicographic_order(self):
        # last mode varies fastest
        assert index_to_tuple(0, (4, 2, 2)) == (0, 0, 0)
        assert index_to_tuple(1, (4, 2, 2)) == (0, 0, 1)
        assert index_to_tuple(2, (4, 2, 2)) == (0, 1, 0)
        assert index_to_tuple(4, (4, 2, 2)) == (1, 0, 0)

    def test_bounds_check(self):
        with pytest.raises(ValueError):
            index_to_tuple(16, (4, 2, 2))
        with pytest.raises(ValueError):
            tuple_to_index((0, 2, 0), (4, 2, 2))


class TestGenerator:
    def test_printed_full_matrix(self):
        g = case_matrix(TensorShape((4, 2, 2), 4), 2)
        assert np.array_equal(g.entries, G_422)
        assert g.modulus == 4

    def test_kronecker_route_agrees(self):
        for dims in SHAPES:
            sh = TensorShape(dims, 4)
            assert case_matrix(sh, 2) == build_generator_kronecker(sh), dims

    def test_small_kronecker_literal(self):
        g = build_generator_kronecker(TensorShape((2, 2), 4))
        assert g.entries.tolist() == [[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]]

    def test_column_weights_equal_num_modes(self):
        sh = TensorShape((5, 4, 3), 4)
        g = case_matrix(sh, 2)
        assert (g.entries.sum(axis=0) == sh.num_modes).all()

    def test_mode_row_sums_all_ones(self):
        for dims in [(4, 2, 2), (5, 4, 3), (3, 2, 2, 2)]:
            sh = TensorShape(dims, 4)
            g = case_matrix(sh, 2)
            for i in range(sh.num_modes):
                assert (mode_row_sum(g, i, sh) == 1).all()

    def test_elimination_rows_vanish(self):
        for dims in [(4, 2, 2), (10, 20, 16), (8, 5, 5, 4, 4)]:
            sh = TensorShape(dims, 4)
            res = reference_row_residuals(case_matrix(sh, 2), sh)
            assert res.shape == (sh.num_modes - 1, sh.blocklength)
            assert not res.any()


class TestDerivedMatrices:
    def test_printed_reduced_matrix(self):
        gr = case_matrix(TensorShape((4, 2, 2), 4), 3)
        assert np.array_equal(gr.entries, G_422[GR_KEEP])

    def test_printed_shortened_matrix(self):
        gs = case_matrix(TensorShape((4, 2, 2), 4), 1)
        assert np.array_equal(gs.entries, GS_422)

    def test_case_matrices_match_derivation(self):
        # rows of the free entries (and no pilot column in case 1) equal the
        # paper's route: reduce G to G_r, then shorten G_r to G_s
        for dims in SHAPES:
            sh = TensorShape(dims, 4)
            g = case_matrix(sh, 2)
            gr = reduce_coherent(g, sh)
            gs, pilot = shorten_noncoherent(gr, sh)
            assert pilot == 0
            assert case_matrix(sh, 3) == gr, dims
            assert case_matrix(sh, 1) == gs, dims
            assert case_matrix(sh, 2) == g, dims

    def test_free_entries_label_rows(self):
        sh = TensorShape((4, 2, 2), 4)
        assert sh.free_entries(2) == ((0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (2, 0), (2, 1))
        assert sh.free_entries(3) == ((0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (2, 1))
        assert sh.free_entries(1) == ((0, 1), (0, 2), (0, 3), (1, 1), (2, 1))

    def test_shortened_weight1_columns(self):
        sh = TensorShape((4, 2, 2), 4)
        gs = case_matrix(sh, 1)
        cols = [q for q in range(gs.cols) if np.count_nonzero(gs.entries[:, q]) == 1]
        assert [q + 1 for q in cols] == [1, 2, 4, 8, 12]

    def test_systematic_form(self):
        sh = TensorShape((4, 2, 2), 4)
        gs = case_matrix(sh, 1)
        gsys, perm = systematic_form(sh)
        k = gs.rows
        assert np.array_equal(gsys.entries[:, :k], np.eye(k, dtype=int))
        assert sorted(perm.tolist()) == list(range(gs.cols))
        assert np.array_equal(gsys.entries, gs.entries[:, perm])

    def test_systematic_exists_for_many_shapes(self):
        shapes = [(5,), (3, 2), (4, 4, 2), (6, 5, 4), (3, 2, 2, 2), (10, 20, 16), (2, 2, 2, 2, 2)]
        for dims in shapes:
            sh = TensorShape(dims, 4)
            gs = case_matrix(sh, 1)
            gsys, _ = systematic_form(sh)
            assert np.array_equal(gsys.entries[:, : gs.rows], np.eye(gs.rows, dtype=int))

    def test_parity_check_annihilates(self):
        rng = np.random.default_rng(3)
        for dims, m in [((4, 2, 2), 4), ((5, 4, 3), 8), ((3, 2, 2), 2)]:
            sh = TensorShape(dims, m)
            gr = case_matrix(sh, 3)
            h = generalized_parity_check(sh)
            assert h.rows == sh.blocklength
            assert h.cols == sh.info_length(3) + sh.blocklength
            for _ in range(25):
                u = rng.integers(0, m, sh.info_length(3))
                c = (u @ gr.entries) % m
                assert not (np.concatenate([u, c]) @ h.entries.T % m).any()

    def test_case_matrix_shapes(self):
        sh = TensorShape((4, 2, 2), 4)
        assert case_matrix(sh, 2).entries.shape == (8, 16)
        assert case_matrix(sh, 3).entries.shape == (6, 16)
        assert case_matrix(sh, 1).entries.shape == (5, 15)


class TestRingMatrix:
    def test_text_header(self):
        m = RingMatrix(np.array([[1, 2], [3, 0]]), 4)
        assert m.to_text().splitlines()[0] == "2 2 4"

    def test_rejects_out_of_ring(self):
        with pytest.raises(ValueError):
            RingMatrix(np.array([[4]]), 4)
        with pytest.raises(ValueError):
            RingMatrix(np.array([[-1]]), 4)

    @pytest.mark.parametrize("entries, modulus, message", [
        ([1, 2], 4, "matrix must be 2-D, got ndim=1"),
        ([[[0]]], 4, "matrix must be 2-D, got ndim=3"),
        ([[0]], 1, "modulus must be >= 2, got 1"),
    ])
    def test_rejects_non_matrix_or_modulus_below_2(self, entries, modulus, message):
        with pytest.raises(ValueError, match=message):
            RingMatrix(np.array(entries), modulus)

    def test_entries_immutable(self):
        g = case_matrix(TensorShape((2, 2), 2), 2)
        with pytest.raises(ValueError):
            g.entries[0, 0] = 1
