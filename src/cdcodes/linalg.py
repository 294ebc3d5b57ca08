"""Exact row reduction and rank computations over a finite field.

Matrices are numpy int64 arrays of element codes.  Row operations go through
the field's lookup tables and products through `Field.matmul`, so they work
uniformly for prime fields and small extensions; canonical output (reduced
row echelon form with ascending pivot columns) makes row spaces directly
comparable.
"""

from __future__ import annotations

import numpy as np

from .field import Field

SPAN_CHUNK = 4096  # most words (or offsets) a span computation holds at once


def as_matrix(rows) -> np.ndarray:
    a = np.asarray(rows, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    return a


def rref(field: Field, mat: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form with zero rows dropped; returns (R, pivots)."""
    t = field.tables()
    m = as_matrix(mat).copy()
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + nz[0]
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        m[r] = t.mul[t.inv[m[r, c]], m[r]]
        f = t.neg[m[:, c]]
        f[r] = 0
        m = t.add[m, t.mul[f[:, None], m[r]]]  # every row i -= m[i, c] * row r, in one update
        pivots.append(c)
        r += 1
    return m[:r], tuple(pivots)


def rank(field: Field, mat: np.ndarray) -> int:
    return rref(field, mat)[0].shape[0]


def nullspace(field: Field, mat: np.ndarray) -> np.ndarray:
    """Canonical basis of {v : mat . v^T = 0}, as RREF rows."""
    t = field.tables()
    R, pivots = rref(field, mat)
    cols = as_matrix(mat).shape[1]
    free = [c for c in range(cols) if c not in set(pivots)]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, f in enumerate(free):
        basis[i, f] = 1
        for j, p in enumerate(pivots):
            basis[i, p] = t.neg[R[j, f]]
    return rref(field, basis)[0]


def matmul(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError("inner dimensions differ")
    return field.matmul(a, b)


def in_row_space(field: Field, R: np.ndarray, pivots: tuple[int, ...], v) -> bool:
    """Whether v reduces to zero modulo the row space of (R, pivots) from rref."""
    t = field.tables()
    v = np.array(v, dtype=np.int64)
    for j, p in enumerate(pivots):
        if v[p]:
            v = t.add[v, t.mul[t.neg[v[p]], R[j]]]
    return not v.any()


def enumerate_span(field: Field, basis: np.ndarray) -> np.ndarray:
    """All q^k vectors of the row space, message-digit order (row 0 = zero)."""
    t = field.tables()
    basis = as_matrix(basis)
    k, n = basis.shape
    words = np.zeros((1, n), dtype=np.int64)
    for i in range(k):
        scaled = t.mul[np.arange(field.q)[:, None], basis[i][None, :]]
        words = t.add[words[:, None, :], scaled[None, :, :]].reshape(-1, n)
    return words


def _low_rows(q: int, k: int) -> int:
    """The largest j <= k with q^j <= SPAN_CHUNK, but at least one row when k > 0."""
    j = min(k, 1)
    while j < k and q ** (j + 1) <= SPAN_CHUNK:
        j += 1
    return j


def _span_chunks(field: Field, basis: np.ndarray):
    """The row space of basis as blocks of at most SPAN_CHUNK words each."""
    k = len(basis)
    j = _low_rows(field.q, k)
    low = enumerate_span(field, basis[k - j :])
    if j == k:
        yield low
        return
    add = field.tables().add
    for tops in _span_chunks(field, basis[: k - j]):
        for top in tops:
            yield add[top, low]


def weight_distribution(field: Field, basis: np.ndarray) -> np.ndarray:
    """Counts A_0..A_n of the row space's words by Hamming weight.

    The span of the last j rows (q^j <= SPAN_CHUNK) is held once; each word o
    of the span of the other rows shifts it, and x + o has weight the number
    of coordinates where x differs from -o, so no sum is formed.  The offsets
    come in blocks of SPAN_CHUNK too: memory is O(SPAN_CHUNK n), not O(q^k n).
    """
    basis = as_matrix(basis)
    k, n = basis.shape
    j = _low_rows(field.q, k)
    dtype = np.uint8 if field.q <= 256 else np.uint16
    low = enumerate_span(field, basis[k - j :]).astype(dtype)
    neg = field.tables().neg.astype(dtype)
    counts = np.zeros(n + 1, dtype=np.int64)
    for offsets in _span_chunks(field, basis[: k - j]):
        for o in neg[offsets]:
            counts += np.bincount(np.count_nonzero(low != o, axis=1), minlength=n + 1)
    return counts
