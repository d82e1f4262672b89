"""Graph structure against counted fixtures and the degree polynomial."""

import numpy as np
import pytest

from tbmpsk.factor_graph import build_graph, degree_distribution, export_edges
from tbmpsk.ring_code import TensorShape


class TestCase1Graph:
    def test_422_counts(self):
        g = build_graph(TensorShape((4, 2, 2), 4), 1)
        assert g.num_checks == 16
        assert g.num_vars == 5
        assert g.num_edges == 28

    def test_422_check_degree_histogram(self):
        g = build_graph(TensorShape((4, 2, 2), 4), 1)
        hist = np.bincount(g.check_degrees())
        assert hist.tolist() == [1, 5, 7, 3]

    def test_pilot_isolated(self):
        g = build_graph(TensorShape((4, 2, 2), 4), 1)
        assert g.check_degrees()[0] == 0
        assert (g.check_degrees()[1:] > 0).all()

    def test_var_degree_is_blocklength_ratio(self):
        sh = TensorShape((5, 4, 3), 4)
        g = build_graph(sh, 1)
        deg = np.bincount(g.edge_var, minlength=g.num_vars)
        for v, (mode, _) in enumerate(g.var_labels):
            assert deg[v] == sh.blocklength // sh.dims[mode]

    def test_edges_sorted_by_check_then_var(self):
        g = build_graph(TensorShape((4, 4, 2), 4), 1)
        key = g.edge_check * g.num_vars + g.edge_var
        assert (np.diff(key) > 0).all()

    def test_repeat_call_shares_one_read_only_graph(self):
        g = build_graph(TensorShape((4, 2, 2), 4), 1)
        assert build_graph(TensorShape((4, 2, 2), 4), 1) is g
        with pytest.raises(ValueError, match="read-only"):
            g.edge_check[0] = 1

    def test_edge_count_matches_generator_support(self):
        sh = TensorShape((10, 20, 16), 4)
        g = build_graph(sh, 1)
        # every position except the pilot touches one var per mode whose
        # entry is not the reference
        assert g.num_edges == sum(
            sh.blocklength // t * (t - 1) for t in sh.dims
        )


class TestDegreePolynomial:
    @pytest.mark.parametrize(
        "dims",
        [(2, 2), (4, 2, 2), (4, 4, 2), (5, 4, 3), (6, 5, 4), (3, 3, 2),
         (2, 2, 2, 2), (10, 20, 16), (8, 5, 5, 4, 4), (7, 3, 2)],
    )
    def test_matches_graph_histogram(self, dims):
        sh = TensorShape(dims, 4)
        g = build_graph(sh, 1)
        hist = np.bincount(g.check_degrees(), minlength=sh.num_modes + 1)
        assert hist.tolist() == degree_distribution(sh).tolist()

    def test_coefficient_sum_is_blocklength(self):
        sh = TensorShape((5, 4, 3), 4)
        assert degree_distribution(sh).sum() == sh.blocklength

    def test_422_literal(self):
        assert degree_distribution(TensorShape((4, 2, 2), 4)).tolist() == [1, 5, 7, 3]


class TestCase3Graph:
    def test_no_isolated_check(self):
        g = build_graph(TensorShape((4, 2, 2), 4), 3)
        assert (g.check_degrees() > 0).all()

    def test_var_count(self):
        sh = TensorShape((4, 2, 2), 4)
        assert build_graph(sh, 3).num_vars == sh.info_length(3)

    def test_case2_rejected(self):
        with pytest.raises(ValueError):
            build_graph(TensorShape((4, 2, 2), 4), 2)


class TestExport:
    def test_line_format_and_count(self):
        g = build_graph(TensorShape((4, 2, 2), 4), 1)
        lines = export_edges(g).splitlines()
        assert len(lines) == 28
        for line in lines:
            parts = line.split()
            assert parts[0] == "u" and parts[3] == "c"
            mode, entry, check = int(parts[1]), int(parts[2]), int(parts[4])
            assert 1 <= mode <= 3
            assert entry >= 2  # reference entries carry no variable
            assert 2 <= check <= 16  # check 1 is the pilot position

    def test_trailing_newline(self):
        g = build_graph(TensorShape((2, 2), 4), 1)
        assert export_edges(g).endswith("\n")

    def test_edges_reconstruct_membership(self):
        # an edge (mode, entry) -> position p must select that entry in p's tuple
        sh = TensorShape((4, 4, 2), 4)
        g = build_graph(sh, 1)
        for c, v in zip(g.edge_check, g.edge_var):
            mode, entry = g.var_labels[v]
            idx = np.unravel_index(int(c), sh.dims)
            assert idx[mode] == entry
