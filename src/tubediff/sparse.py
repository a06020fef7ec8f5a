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
        return self.pad()

    def pad(self, identity: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """``padded``, made anew; with ``identity`` (a square matrix) every
        row takes one more slot, 1.0 on its own column: ``self + I``, the
        identity summed last."""
        rows = self.rows
        slot = np.arange(self.nnz) - self.indptr[rows]
        own = np.minimum(np.arange(self.shape[0]), self.shape[1] - 1)
        cols = np.tile(own, (slot.max(initial=-1) + 1 + identity, 1))
        vals = np.zeros(cols.shape)
        if identity:
            vals[-1] = 1.0
        cols[slot, rows] = self.indices
        vals[slot, rows] = self.data
        return cols, vals

    @cached_property
    def band(self) -> tuple[int, np.ndarray] | None:
        """Diagonal (DIA) copy ``(lo, values)``: ``values[s, i]`` is the entry
        in column ``i + lo + s`` (0.0 where absent), its band spanning the
        diagonal; None when that band is wider than the longest row."""
        lengths = np.diff(self.indptr)
        full = np.flatnonzero(lengths)  # rows are sorted: first and last column
        lo = (self.indices[self.indptr[full]] - full).min(initial=0)
        hi = (self.indices[self.indptr[full + 1] - 1] - full).max(initial=0)
        if hi - lo >= lengths.max(initial=0):
            return None
        rows = self.rows
        values = np.zeros((hi - lo + 1, self.shape[0]))
        values[self.indices - rows - lo, rows] = self.data
        return int(lo), values

    def __matmul__(self, other):
        """Product with a CSR matrix (each entry spread over the matching
        row of ``other``, then one build), a vector or columns of vectors."""
        if isinstance(other, CSR):
            shape = (self.shape[0], other.shape[1])
            counts = np.diff(other.indptr)[self.indices]
            slots = row_slots(other.indptr, self.indices)
            return _summed(_keys(np.repeat(self.rows, counts), other.indices[slots], shape),
                           np.repeat(self.data, counts) * other.data[slots], shape)
        x = np.asarray(other, dtype=float)
        cols, vals = self.padded
        terms = x[cols]
        terms *= vals.reshape(vals.shape + (1,) * (x.ndim - 1))
        return np.add.reduce(terms, axis=0)

    def __rmul__(self, scalar: float) -> CSR:
        return CSR(self.indptr, self.indices, self.data * scalar, self.shape)


def _key_dtype(shape) -> type:
    """The narrowest integer that holds every key ``row * n_cols + col``."""
    return np.int32 if shape[0] * shape[1] < 2**31 else np.int64


def _keys(rows, cols, shape) -> np.ndarray:
    """The sort key ``row * n_cols + col`` of (broadcast) rows and columns."""
    key = rows.astype(_key_dtype(shape))
    key *= shape[1]
    key += cols
    return key.ravel()


def _summed(key: np.ndarray, vals: np.ndarray, shape) -> CSR:
    """CSR matrix from the sort keys of its terms and their values.

    Duplicates are summed in the order given (a stable sort, then a
    bincount, which adds one by one); entries that sum to 0.0 are left
    out.  Each kept entry's row and column are read back from its key, so
    no row or column array lives through the sort.  Callers pass ``key``
    and ``vals`` unnamed, so that each is freed here once used.
    """
    order = np.argsort(key, kind="stable")
    key = key[order]
    new = np.concatenate([[True], key[1:] != key[:-1]])[: len(key)]
    key = key[new]  # each entry's key
    vals = vals[order]
    group = np.cumsum(new, out=order)  # each term's entry, in order's place
    del order, new
    group -= 1
    sums = np.bincount(group, weights=vals, minlength=len(key))
    del group, vals
    kept = sums != 0.0
    rows, cols = np.divmod(key[kept], shape[1])
    del key
    counts = np.bincount(rows, minlength=shape[0])
    return CSR(np.concatenate([[0], np.cumsum(counts)]), cols.astype(np.int64, copy=False),
               sums[kept], shape)


def build(rows, cols, vals, shape) -> CSR:
    """CSR matrix from (broadcast) triplets.

    Duplicates are summed in the order given, so listing a row's terms in
    stencil order fixes its rounding; entries that are or sum to 0.0 are
    left out.
    """
    rows, cols, vals = np.broadcast_arrays(rows, cols, vals)
    return _summed(_keys(rows, cols, shape), vals.ravel(), shape)


def _entry_keys(terms, shape) -> np.ndarray:
    """The sort keys of every stored entry of ``terms``, term after term."""
    key = np.empty(sum(m.nnz for m in terms), dtype=_key_dtype(shape))
    row_key = np.arange(shape[0], dtype=key.dtype) * shape[1]
    start = 0
    for m in terms:
        part = key[start:start + m.nnz]
        part[:] = np.repeat(row_key, np.diff(m.indptr))
        part += m.indices
        start += m.nnz
    return key


def add(*terms: CSR) -> CSR:
    """Sum of matrices of one shape in one build: each entry adds its
    terms left to right, the bits of ``add(add(a, b), c)``."""
    shape = terms[0].shape
    return _summed(_entry_keys(terms, shape), np.concatenate([m.data for m in terms]), shape)


def scale_rows(d: np.ndarray, m: CSR) -> CSR:
    """``diag(d) @ m``."""
    return CSR(m.indptr, m.indices, m.data * np.repeat(d, np.diff(m.indptr)), m.shape)


def stack(blocks, diagonal: bool) -> CSR:
    """CSR blocks one below the other, each row in its stored order.

    With ``diagonal`` each block also takes its own columns (a block
    diagonal); without, all blocks share the columns of the first.  A
    lone block is returned as it is.
    """
    if len(blocks) == 1:
        return blocks[0]
    nnz = np.cumsum([0] + [b.nnz for b in blocks])
    cols = np.cumsum([0] + [b.shape[1] for b in blocks]) if diagonal else [0] * len(blocks)
    indptr = np.concatenate([[0]] + [b.indptr[1:] + off for b, off in zip(blocks, nnz)])
    indices = np.concatenate([b.indices + off for b, off in zip(blocks, cols)])
    data = np.concatenate([b.data for b in blocks])
    shape = (sum(b.shape[0] for b in blocks), cols[-1] if diagonal else blocks[0].shape[1])
    return CSR(indptr, indices, data, shape)


def nonempty_rows(m: CSR) -> tuple[np.ndarray, CSR]:
    """The rows of ``m`` that hold an entry, and ``m`` with those rows only."""
    rows = np.flatnonzero(np.diff(m.indptr))
    return rows, CSR(np.concatenate([[0], m.indptr[rows + 1]]), m.indices, m.data,
                     (len(rows), m.shape[1]))
