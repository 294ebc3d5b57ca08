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


def kernel_basis(field: Field, R: np.ndarray, pivots: tuple[int, ...]) -> np.ndarray:
    """A basis of {v : R . v^T = 0}: row f is e_f - sum_j R[j, f] e_{p_j}.

    (R, pivots) is a reduced row echelon form as rref returns it; a
    LinearCode's gen and pivots are one.  There is one row per free column f
    (ascending), and the basis is not reduced: its pivot columns carry -R^T.
    """
    cols = R.shape[1]
    free = sorted(set(range(cols)) - set(pivots))
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, list(pivots)] = field.tables().neg[R[:, free]].T
    return basis


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


def _pack(words: np.ndarray, b: int) -> np.ndarray:
    """Rows of element codes as rows of uint64 lanes: b bits a coordinate, 64 // b to a lane."""
    per = 64 // b
    padded = np.zeros((len(words), -(-words.shape[1] // per) * per), dtype=np.uint64)
    padded[:, : words.shape[1]] = words
    shifts = np.arange(per, dtype=np.uint64) * np.uint64(b)
    return np.bitwise_or.reduce(padded.reshape(len(words), -1, per) << shifts, axis=2)


def weight_distribution(field: Field, basis: np.ndarray) -> np.ndarray:
    """Counts A_0..A_n of the row space's words by Hamming weight.

    The span of the last j = min(_low_rows, ceil(k/2)) rows is held once; each
    word o of the other rows' span (both ~sqrt(q^k) words) shifts it, and x + o
    has weight #{i : x_i != -o_i}.  In uint64 lanes, b = bit_length(q - 1) bits
    a coordinate, ((z & M) + M | z) & H with z = x XOR pack(-o) keeps the top
    bit (H) of each nonzero field (M: its low b - 1 bits) for a popcount.  At
    most SPAN_CHUNK words are weighed at a time: memory is O(SPAN_CHUNK n).
    """
    basis = as_matrix(basis)
    k, n = basis.shape
    j = min(_low_rows(field.q, k), -(-k // 2))
    b = (field.q - 1).bit_length()
    low = _pack(enumerate_span(field, basis[k - j :]), b)
    H, M = _pack(np.array([[1 << (b - 1)], [(1 << (b - 1)) - 1]]).repeat(n, axis=1), b)
    step = max(1, SPAN_CHUNK // len(low))
    counts = np.zeros(n + 1, dtype=np.int64)
    for offsets in _span_chunks(field, basis[: k - j]):
        negs = _pack(field.tables().neg[offsets], b)[:, None, :]
        for s in range(0, len(negs), step):
            z = low ^ negs[s : s + step]
            weights = np.bitwise_count((((z & M) + M) | z) & H).sum(axis=2, dtype=np.intp)
            counts += np.bincount(weights.ravel(), minlength=n + 1)
    return counts
