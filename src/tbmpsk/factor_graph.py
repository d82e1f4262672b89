"""Tanner graph of the tensor code, read from the tensor layout.

One constraint node per transmit position p = (j_1, ..., j_d) enforces
c_p = sum of the free entries among entry j_i of each mode i, mod M; its
edges are the position's column of ``TensorShape.entry_rows``.  Every info
(variable) node for a mode-i entry participates in T / T_i constraints.  In
the non-coherent case the pilot position's node touches no info symbol and
stays isolated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ring_code import TensorShape


@dataclass(frozen=True, eq=False)
class FactorGraph:
    """Bipartite info-symbol / position-constraint graph.

    ``edge_check`` and ``edge_var`` list endpoint ids per edge, sorted by
    (check, var) and read-only, since ``build_graph`` hands one graph to
    every caller; ``var_labels`` is ``shape.free_entries(case)``, so
    ``var_labels[v]`` is the (mode, entry) pair of info node v.
    """

    shape: TensorShape
    num_checks: int
    var_labels: tuple[tuple[int, int], ...]
    edge_check: np.ndarray
    edge_var: np.ndarray

    def __post_init__(self):
        self.edge_check.setflags(write=False)
        self.edge_var.setflags(write=False)

    @property
    def num_vars(self) -> int:
        return len(self.var_labels)

    @property
    def num_edges(self) -> int:
        return len(self.edge_check)

    def check_degrees(self) -> np.ndarray:
        return np.bincount(self.edge_check, minlength=self.num_checks)


@lru_cache(maxsize=32)
def build_graph(shape: TensorShape, case: int) -> FactorGraph:
    """Graph of the case-1 or case-3 code: a pinned entry checks nothing,
    the shortening of the code by its row of G.

    Case 2 has no identifiable graph semantics here and is rejected.
    """
    if case not in (1, 3):
        raise ValueError(f"factor graph is defined for cases 1 and 3, got case {case}")
    # var[p, i]: the info node position p checks in mode i; ids grow with the mode
    var = shape.entry_rows(case).T
    edge_check, mode = np.nonzero(var >= 0)  # sorted by position, then variable
    return FactorGraph(
        shape=shape,
        num_checks=shape.blocklength,
        var_labels=shape.free_entries(case),
        edge_check=edge_check.astype(np.int64),
        edge_var=var[edge_check, mode],
    )


def degree_distribution(shape: TensorShape) -> np.ndarray:
    """Constraint-degree counts for the case-1 graph as polynomial
    coefficients: coeffs[k] = number of positions touching k info symbols;
    equals the expansion of prod_i (1 + (T_i - 1) z)."""
    coeffs = np.array([1], dtype=np.int64)
    for t in shape.dims:
        coeffs = np.convolve(coeffs, np.array([1, t - 1], dtype=np.int64))
    return coeffs


def export_edges(graph: FactorGraph) -> str:
    """Edge list, one line per edge: 'u <mode> <entry> c <position>', all
    1-based, ordered by position then variable id."""
    lines = []
    for c, v in zip(graph.edge_check, graph.edge_var):
        mode, entry = graph.var_labels[v]
        lines.append(f"u {mode + 1} {entry + 1} c {c + 1}")
    return "\n".join(lines) + "\n" if lines else ""
