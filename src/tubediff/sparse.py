"""Read-only compressed sparse row (CSR) matrices on numpy arrays.

CSR, the padded ELLPACK layout and the diagonal (DIA) one of ``band``
follow Saad, *Iterative Methods for Sparse Linear Systems* (2nd ed.,
2003, sec. 3.4).  Built matrices keep each row sorted by column, with
no duplicates and no exact zeros.  A product with a vector pads every
row to the longest, slot-major, with its own column (or the last one)
and 0.0, then sums it slot by slot in stored order: the order a CSR
product sums in, so both give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


def row_slots(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positions of every entry of the given CSR rows, row after row."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(counts.sum())


@dataclass(frozen=True, eq=False)
class CSR:
    """A sparse matrix: row ``i`` holds ``indices``/``data`` over
    ``indptr[i]:indptr[i+1]``.  The arrays are made read-only."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self):
        for a in (self.indptr, self.indices, self.data):
            a.flags.writeable = False

    @property
    def nnz(self) -> int:
        return len(self.data)

    @property
    def rows(self) -> np.ndarray:
        """The row of every stored entry (made on each call, never kept)."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    @cached_property
    def padded(self) -> tuple[np.ndarray, np.ndarray]:
        """Slot-major padded columns and values, each (longest row, n_rows)."""
        rows = self.rows
        slot = np.arange(self.nnz) - self.indptr[rows]
        own = np.minimum(np.arange(self.shape[0]), self.shape[1] - 1)
        cols = np.tile(own, (slot.max(initial=-1) + 1, 1))
        vals = np.zeros(cols.shape)
        cols[slot, rows] = self.indices
        vals[slot, rows] = self.data
        return cols, vals

    @cached_property
    def band(self) -> tuple[int, np.ndarray] | None:
        """Diagonal (DIA) copy ``(lo, values)``: ``values[s, i]`` is the entry
        in column ``i + lo + s`` (0.0 where absent), its band spanning the
        diagonal; None when that band is wider than the longest row."""
        rows = self.rows
        offsets = self.indices - rows
        lo, hi = offsets.min(initial=0), offsets.max(initial=0)
        if hi - lo >= np.diff(self.indptr).max(initial=0):
            return None
        values = np.zeros((hi - lo + 1, self.shape[0]))
        values[offsets - lo, rows] = self.data
        return int(lo), values

    def __matmul__(self, other):
        """Product with a CSR matrix (each entry spread over the matching
        row of ``other``, then one build), a vector or columns of vectors."""
        if isinstance(other, CSR):
            counts = np.diff(other.indptr)[self.indices]
            slots = row_slots(other.indptr, self.indices)
            return build(np.repeat(self.rows, counts), other.indices[slots],
                         np.repeat(self.data, counts) * other.data[slots],
                         (self.shape[0], other.shape[1]))
        x = np.asarray(other, dtype=float)
        cols, vals = self.padded
        terms = x[cols]
        terms *= vals.reshape(vals.shape + (1,) * (x.ndim - 1))
        return np.add.reduce(terms, axis=0)

    def __rmul__(self, scalar: float) -> CSR:
        return CSR(self.indptr, self.indices, self.data * scalar, self.shape)


def build(rows, cols, vals, shape) -> CSR:
    """CSR matrix from (broadcast) triplets.

    Duplicates are summed in the order given (a stable sort, then a
    bincount, which adds one by one), so listing a row's terms in stencil
    order fixes its rounding; entries that are or sum to 0.0 are left out.
    """
    rows, cols, vals = (a.ravel() for a in np.broadcast_arrays(rows, cols, vals))
    # the sort key as narrow as the shape allows, and each temporary
    # dropped once used: the triplets are the largest arrays of a build
    key = rows.astype(np.int32 if shape[0] * shape[1] < 2**31 else np.int64)
    key *= shape[1]
    key += cols
    order = np.argsort(key, kind="stable")
    key = key[order]
    new = np.concatenate([[True], key[1:] != key[:-1]])[: len(key)]
    del key
    first = order[new]  # each entry's first triplet
    weights = vals[order]
    group = np.cumsum(new, out=order)  # each triplet's entry, in order's place
    del order, new
    group -= 1
    sums = np.bincount(group, weights=weights, minlength=len(first))
    del group, weights
    first = first[sums != 0.0]
    counts = np.bincount(rows[first], minlength=shape[0])
    return CSR(np.concatenate([[0], np.cumsum(counts)]), cols[first], sums[sums != 0.0], shape)


def add(*terms: CSR) -> CSR:
    """Sum of matrices of one shape in one build: each entry adds its
    terms left to right, the bits of ``add(add(a, b), c)``."""
    return build(np.concatenate([m.rows for m in terms]),
                 np.concatenate([m.indices for m in terms]),
                 np.concatenate([m.data for m in terms]), terms[0].shape)


def scale_rows(d: np.ndarray, m: CSR) -> CSR:
    """``diag(d) @ m``."""
    return CSR(m.indptr, m.indices, m.data * d[m.rows], m.shape)

