"""Generator matrices for multi-linear spreading codes over the ring Z_M.

A rank-1 tensor of M-PSK factor vectors, flattened in lexicographic order,
is the image of a linear block code over Z_M under the componentwise
exponential map: position p = (j_1, ..., j_d) carries the sum of entry j_i
of every mode i.  ``TensorShape.entry_rows`` states that rule once, as an
incidence table, and every construction reads it:

* ``case_matrix``: one binary row per free entry of a reference-symbol
  case (``TensorShape.free_entries``).  Case 2 gives the full G (K x T,
  K = sum T_i, rank deficient by d - 1), case 3 the full-rank coherent G_r
  (K - d + 1 rows), case 1 the non-coherent G_s (K - d rows, the pilot
  column 0 dropped).
* ``systematic_form``: G_s permuted into [I | P]; the identity columns are
  the single-mode positions.
* ``generalized_parity_check``: H = [G_r^T | (M-1) I_T].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

CASES = (1, 2, 3)


@dataclass(frozen=True)
class TensorShape:
    """Tensor dimensions plus the PSK modulation order.

    Dimensions are canonicalized to non-increasing order (required by the
    Kronecker recursion and assumed everywhere downstream).
    """

    dims: tuple[int, ...]
    modulation_order: int

    def __post_init__(self):
        dims = tuple(int(t) for t in self.dims)
        if not dims:
            raise ValueError("tensor shape needs at least one dimension")
        if any(t < 2 for t in dims):
            raise ValueError(f"every tensor dimension must be >= 2, got {dims}")
        m = int(self.modulation_order)
        if m < 2:
            raise ValueError(f"modulation order must be >= 2, got {m}")
        object.__setattr__(self, "dims", tuple(sorted(dims, reverse=True)))
        object.__setattr__(self, "modulation_order", m)

    @property
    def num_modes(self) -> int:
        return len(self.dims)

    @property
    def blocklength(self) -> int:
        """T = prod(T_i), the number of tensor entries."""
        return math.prod(self.dims)

    def free_entries(self, case: int) -> tuple[tuple[int, int], ...]:
        """The (mode, entry) pairs that carry an info symbol, in the row
        order of G; 0-based, entry indexed within the mode's factor vector.

        A pinned entry holds the reference symbol (ring zero, PSK point 1),
        so pinning is shortening: the entry's row of G leaves the code.
        Case 1 (non-coherent) pins entry 0 of every mode, case 2
        (non-identifiable) pins none, and case 3 (coherent) pins entry 0 of
        every mode but the first.
        """
        if case not in CASES:
            raise ValueError(f"case must be one of {CASES}, got {case}")
        return tuple(
            (i, e)
            for i, t in enumerate(self.dims)
            for e in range(t)
            if e > 0 or case == 2 or (case == 3 and i == 0)
        )

    def info_length(self, case: int) -> int:
        """Number of free ring symbols for a reference-symbol case."""
        return len(self.free_entries(case))

    def entry_rows(self, case: int) -> np.ndarray:
        """Incidence table (d, T): [i, p] is the generator row (the index in
        ``free_entries(case)``) of entry j_i of mode i, which position
        p = (j_1, ..., j_d) reads in lexicographic order; -1 if pinned."""
        d = self.num_modes
        row = np.full((d, max(self.dims)), -1, dtype=np.int64)
        for r, (i, e) in enumerate(self.free_entries(case)):
            row[i, e] = r
        return row[np.arange(d)[:, None], np.indices(self.dims).reshape(d, -1)]


@dataclass(frozen=True, eq=False)
class RingMatrix:
    """Dense matrix with entries in Z_modulus."""

    entries: np.ndarray
    modulus: int

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got ndim={a.ndim}")
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        if a.size and (a.min() < 0 or a.max() >= self.modulus):
            raise ValueError(f"entries must lie in [0, {self.modulus})")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return self.modulus == other.modulus and bool(np.array_equal(self.entries, other.entries))

    def to_text(self) -> str:
        """Render as 'rows cols modulus' header plus one space-separated row per line."""
        lines = [f"{self.rows} {self.cols} {self.modulus}"]
        for row in self.entries:
            lines.append(" ".join(str(int(v)) for v in row))
        return "\n".join(lines) + "\n"


@lru_cache(maxsize=16)
def case_matrix(shape: TensorShape, case: int) -> RingMatrix:
    """Generator of a reference-symbol case, G (2), G_r (3) or G_s (1): a 1
    in row r, column p wherever position p reads free entry r.  G_s also
    drops column 0, the pilot position no free entry of case 1 reaches."""
    rows = shape.entry_rows(case)
    g = np.zeros((shape.info_length(case), shape.blocklength), dtype=np.int64)
    mode, pos = np.nonzero(rows >= 0)
    g[rows[mode, pos], pos] = 1
    return RingMatrix(g[:, 1:] if case == 1 else g, shape.modulation_order)


def systematic_form(shape: TensorShape) -> tuple[RingMatrix, np.ndarray]:
    """G_s permuted into [I | P], and ``perm`` with G_sys[:, q] = G_s[:, perm[q]].

    Free entry (i, e) alone reaches position e * prod_{k>i} T_k, one column
    less in G_s (no pilot); those weight-1 columns, in row order, are I."""
    gs = case_matrix(shape, 1)
    front = [e * math.prod(shape.dims[i + 1 :]) - 1 for i, e in shape.free_entries(1)]
    perm = np.concatenate([front, np.setdiff1d(np.arange(gs.cols), front)]).astype(np.int64)
    return RingMatrix(gs.entries[:, perm], gs.modulus), perm


def generalized_parity_check(shape: TensorShape) -> RingMatrix:
    """H = [G_r^T | (M-1) I_T]; satisfies [u | c] H^T = 0 mod M for any
    info word u and its codeword c = u G_r."""
    gr = case_matrix(shape, 3).entries
    m = shape.modulation_order
    return RingMatrix(np.hstack([gr.T, (m - 1) * np.eye(shape.blocklength, dtype=np.int64)]), m)
