"""Generator matrices for multi-linear spreading codes over the ring Z_M.

A rank-1 tensor of M-PSK factor vectors, flattened in lexicographic order,
is the image of a linear block code over Z_M under the componentwise
exponential map.  This module builds that code's generator matrix G for a
given tensor shape, plus the derived forms used by the receivers:

* ``G`` (K x T, K = sum T_i): one binary row per factor-vector entry; full
  G is rank deficient by d - 1 because each mode's rows sum to the all-ones
  row.
* ``case_matrix``: the rows of G for a reference-symbol case's free entries
  (see ``TensorShape.free_entries``).  Case 3 keeps K_r = K - d + 1 rows:
  G_r, full rank, the coherent code.  Case 1 keeps K_s = K - d rows and
  drops the pilot column 0: G_s, the non-coherent code.
* ``G_sys = [I | P]``: column permutation of G_s exposing a systematic
  prefix, available because G_s keeps K_s weight-1 columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    @property
    def k_full(self) -> int:
        """K = sum(T_i), rows of the full generator."""
        return sum(self.dims)

    @property
    def mode_offsets(self) -> tuple[int, ...]:
        """Row index where each mode's block starts inside G."""
        offs = np.concatenate([[0], np.cumsum(self.dims[:-1])])
        return tuple(int(o) for o in offs)

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
        return (
            self.modulus == other.modulus
            and self.entries.shape == other.entries.shape
            and bool(np.array_equal(self.entries, other.entries))
        )

    def to_text(self) -> str:
        """Render as 'rows cols modulus' header plus one space-separated row per line."""
        lines = [f"{self.rows} {self.cols} {self.modulus}"]
        for row in self.entries:
            lines.append(" ".join(str(int(v)) for v in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RingMatrix":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty matrix text")
        header = lines[0].split()
        if len(header) != 3:
            raise ValueError(f"matrix header must be 'rows cols modulus', got {lines[0]!r}")
        r, c, m = (int(v) for v in header)
        if len(lines) - 1 != r:
            raise ValueError(f"expected {r} matrix rows, got {len(lines) - 1}")
        body = [[int(v) for v in ln.split()] for ln in lines[1:]]
        a = np.array(body, dtype=np.int64).reshape(r, c if r else 0)
        if r and a.shape != (r, c):
            raise ValueError(f"row width mismatch: header says {c} columns")
        return cls(a, m)


def build_generator(shape: TensorShape) -> RingMatrix:
    """Full K x T generator: column p has a 1 in row (offset_i + m_i) for each
    mode i, where (m_1, ..., m_d) is the index tuple of position p."""
    dims = shape.dims
    T = shape.blocklength
    G = np.zeros((shape.k_full, T), dtype=np.int64)
    tuples = np.stack(np.unravel_index(np.arange(T), dims))
    for i, off in enumerate(shape.mode_offsets):
        G[off + tuples[i], np.arange(T)] = 1
    return RingMatrix(G, shape.modulation_order)


def systematic_form(shortened: RingMatrix) -> tuple[RingMatrix, np.ndarray]:
    """Permute G_s columns into [I | P].

    G_s keeps exactly K_s weight-1 columns, one per row; moving them to the
    front (ordered by their row) gives the identity block.  Returns the
    permuted matrix and ``perm`` with ``G_sys[:, q] = G_s[:, perm[q]]``.
    """
    a = shortened.entries
    k = shortened.rows
    weight1 = [q for q in range(shortened.cols) if np.count_nonzero(a[:, q]) == 1]
    col_of_row = {}
    for q in weight1:
        r = int(np.nonzero(a[:, q])[0][0])
        if a[r, q] == 1 and r not in col_of_row:
            col_of_row[r] = q
    if len(col_of_row) != k:
        raise ValueError("no systematic column set: some row lacks a weight-1 column")
    front = [col_of_row[r] for r in range(k)]
    rest = [q for q in range(shortened.cols) if q not in set(front)]
    perm = np.array(front + rest, dtype=np.int64)
    return RingMatrix(a[:, perm], shortened.modulus), perm


def generalized_parity_check(reduced: RingMatrix, shape: TensorShape) -> RingMatrix:
    """H = [G_r^T | (M-1) I_T]; satisfies [u | c] H^T = 0 mod M for any
    info word u and its codeword c = u G_r."""
    if reduced.rows != shape.info_length(3) or reduced.cols != shape.blocklength:
        raise ValueError("reduced generator dimensions do not match the shape")
    m = reduced.modulus
    T = reduced.cols
    h = np.hstack([reduced.entries.T, (m - 1) * np.eye(T, dtype=np.int64)]) % m
    return RingMatrix(h, m)


def case_matrix(shape: TensorShape, case: int) -> RingMatrix:
    """Generator actually used by a reference-symbol case: the rows of G for
    the case's free entries, i.e. G (case 2), G_r (case 3) or G_s (case 1).
    G_s also drops column 0, the pilot position no free entry of case 1
    reaches."""
    offsets = shape.mode_offsets
    rows = [offsets[i] + e for i, e in shape.free_entries(case)]
    g = build_generator(shape).entries[rows]
    return RingMatrix(g[:, 1:] if case == 1 else g, shape.modulation_order)
