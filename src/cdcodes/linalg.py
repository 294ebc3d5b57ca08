"""Exact row reduction and rank computations over a finite field.

Matrices are numpy int64 arrays of element codes.  Row operations go through
the field's lookup tables and products through `Field.matmul`, so they work
uniformly for prime fields and small extensions; canonical output (reduced
row echelon form with ascending pivot columns) makes row spaces directly
comparable.
"""

from __future__ import annotations

import numpy as np

from .errors import NoNonzeroWords
from .field import Field

SPAN_CHUNK = 4096  # most words (or offsets) a span computation holds at once


def as_matrix(rows) -> np.ndarray:
    a = np.asarray(rows, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    return a


def rref(field: Field, mat: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form with zero rows dropped; returns (R, pivots).

    Only the columns nonzero in mat are probed (row operations keep a zero
    column zero), and the first probe that finds no pivot while the rows
    below the last pivot are all zero ends the loop, as does a pivot in the
    last row.  R and the pivots are those of the full column loop.
    """
    t = field.tables()
    m = as_matrix(mat).copy()
    rows = len(m)
    pivots = []
    r = 0
    for c in m.any(axis=0).nonzero()[0].tolist():
        nz = m[r:, c].nonzero()[0]
        if nz.size == 0:
            if not m[r:].any():
                break
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
        if r == rows:
            break
    return m[:r], tuple(pivots)


def rref_stack(field: Field, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rref of every matrix of a (c, rows, cols) stack whose matrices share one
    rank k; returns R of shape (c, k, cols) and the (c, k) array of pivots.

    One column loop serves the whole stack.  Each matrix keeps its own next
    row r; in each column every matrix with a nonzero entry at or below its r
    swaps the first such row up, scales it to 1 and clears the column in its
    other rows, as rref does.  Unequal ranks raise ValueError.  For a single
    matrix rref is faster: the stack's fancy indexing costs more per column.
    """
    t = field.tables()
    m = np.array(stack, dtype=np.int64)
    c, rows, cols = m.shape
    r = np.zeros(c, dtype=np.intp)
    pivots = np.zeros((c, rows), dtype=np.intp)
    below = np.arange(rows)
    for col in range(cols):
        if (r == rows).all():
            break
        cand = (m[:, :, col] != 0) & (below >= r[:, None])
        sel = np.flatnonzero(cand.any(axis=1))
        if sel.size == 0:
            continue
        rs, piv = r[sel], cand[sel].argmax(axis=1)
        top = m[sel, piv]
        m[sel, piv] = m[sel, rs]
        top = t.mul[t.inv[top[:, col]][:, None], top]
        f = t.neg[m[sel, :, col]]
        f[np.arange(sel.size), rs] = 0
        m[sel] = t.add[m[sel], t.mul[f[:, :, None], top[:, None, :]]]  # every row i -= m[i, col] * top
        m[sel, rs] = top
        pivots[sel, rs] = col
        r[sel] += 1
    k = int(r[0]) if c else 0
    if (r != k).any():
        raise ValueError(f"the stack's matrices have ranks {sorted(set(r.tolist()))}, not one rank")
    return m[:, :k], pivots[:, :k]


def rank(field: Field, mat: np.ndarray) -> int:
    return rref(field, mat)[0].shape[0]


def kernel_basis(field: Field, R: np.ndarray, pivots: tuple[int, ...]) -> np.ndarray:
    """A basis of {v : R . v^T = 0}: row f is e_f - sum_j R[j, f] e_{p_j}.

    (R, pivots) is a reduced row echelon form as rref returns it; a
    LinearCode's gen and pivots are one.  There is one row per free column f
    (ascending), and the basis is not reduced: its pivot columns carry -R^T.
    """
    cols = R.shape[1]
    free = np.ones(cols, dtype=bool)
    free[list(pivots)] = False
    free = free.nonzero()[0]
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
    return _span(*_code_rows(field, as_matrix(basis)))


def _code_rows(field: Field, basis: np.ndarray):
    """The multiples of basis as element codes, a * basis[i] at [i, a], and their addition."""
    t = field.tables()
    return t.mul[np.arange(field.q)[:, None], basis[:, None]], lambda x, y: t.add[x, y]


def _span(rows: np.ndarray, add):
    """All q^k words of span(b_0, ..., b_{k-1}) in message-digit order.

    The span walk takes every row b_i as its multiples, rows[i, a] = a b_i
    (shape (k, q, width)), and add, which adds words elementwise with
    broadcasting: element codes and table gathers (_code_rows), or packed
    lanes and XOR in characteristic 2 (_walk_rows).
    """
    words = np.zeros((1, rows.shape[2]), dtype=rows.dtype)
    for multiples in rows:
        words = add(words[:, None], multiples).reshape(-1, rows.shape[2])
    return words


def _low_rows(q: int, k: int) -> int:
    """The largest j <= k with q^j <= SPAN_CHUNK, but at least one row when k > 0."""
    j = min(k, 1)
    while j < k and q ** (j + 1) <= SPAN_CHUNK:
        j += 1
    return j


def _span_chunks(rows: np.ndarray, add):
    """The words of _span(rows, add) in blocks of at most SPAN_CHUNK words."""
    k = len(rows)
    j = _low_rows(rows.shape[1], k)
    low = _span(rows[k - j :], add)
    if j == k:
        yield low
        return
    for tops in _span_chunks(rows[: k - j], add):
        for top in tops:
            yield add(top, low)


def _normalised_chunks(rows: np.ndarray, add):
    """Offset 0, then one word of each scalar class of the other nonzero
    words of _span(rows, add), in blocks of at most SPAN_CHUNK words.

    The classes' representatives are the words whose message has first
    nonzero digit 1: b_i + span(b_{i+1}, ...) for every row i, so there are
    (q^h - 1)/(q - 1) of them for h rows.  The first block starts with the
    zero word and holds the pieces of the last rows while they fit, each
    piece's span grown from the one before; the pieces of the other rows
    follow in the blocks of _span_chunks.
    """
    h, q, width = rows.shape
    m = h  # the last m rows' pieces fit the first block, offset 0 included
    while (q**m - 1) // (q - 1) >= SPAN_CHUNK:
        m -= 1
    tail = np.zeros((1, width), dtype=rows.dtype)  # span(b_{i+1}, ...)
    pieces = [tail]
    for i in reversed(range(h - m, h)):
        pieces.append(add(rows[i, 1], tail))
        if i > h - m:
            tail = add(rows[i][:, None], tail).reshape(-1, width)
    yield np.concatenate(pieces)
    for i in range(h - m):
        for tail in _span_chunks(rows[i + 1 :], add):
            yield add(rows[i, 1], tail)


def _walk_rows(field: Field, joined: np.ndarray, b: int, n: int):
    """The row multiples of joined bases for the span walk, their addition,
    and the map that takes words of their span to uint64 lanes (see _pack).

    Bit i of a code of GF(2^m) is its i-th coordinate over GF(2), so adding
    two elements XORs their codes, and as b-bit fields never carry into each
    other, pack(x + y) = pack(x) ^ pack(y).  So in characteristic 2 the
    multiples are packed once, the walk adds by XOR of lanes and what it
    weighs is packed already; in odd characteristic it adds element codes by
    table gathers and packs what it weighs.
    """
    rows, add = _code_rows(field, joined)
    if field.p != 2:
        return rows, add, lambda words: _pack(words, b, n)
    k, q, width = rows.shape
    lanes = _pack(rows.reshape(k * q, width), b, n)
    return lanes.reshape(k, q, lanes.shape[1]), np.bitwise_xor, lambda words: words


def _pack(words: np.ndarray, b: int, n: int) -> np.ndarray:
    """Rows of c codes' element codes, n coordinates each, as rows of uint64 lanes.

    b bits a coordinate and per = 64 // b coordinates to a lane; each code
    starts a lane of its own, so a row becomes c * ceil(n / per) lanes.
    """
    shifts = (np.arange(words.shape[1]) % n % (64 // b) * b).astype(np.uint64)  # each coordinate's field
    return np.bitwise_or.reduceat(words.astype(np.uint64) << shifts, (shifts == 0).nonzero()[0], axis=1)


def weight_distribution(field: Field, basis: np.ndarray) -> np.ndarray:
    """Counts A_0..A_n of the row space's words by Hamming weight, per code.

    basis is one (k, n) basis, giving counts of shape (n + 1,), or a stack of
    c of them, (c, k, n), giving (c, n + 1); one basis is the c = 1 case.

    The span of the last j = min(_low_rows, ceil(k/2)) rows is held once, and
    a word o of the other h = k - j rows' span (both ~sqrt(q^k) words) shifts
    it.  As x + a o = a (a^-1 x + o) and x -> a^-1 x permutes the held span,
    the shift a o (a != 0) gives the weights of o; so offset 0 and one o of
    each scalar class are weighed, 1 + (q^h - 1)/(q - 1) shifts, each class
    counting q - 1 times: about q^k/(q - 1) words in all.  The held span
    and the shifts are built from the q multiples of each row: in
    characteristic 2 by XOR of packed lanes, as adding codes there is XOR
    (_walk_rows), and otherwise as element codes, packed after.  In uint64
    lanes, b = bit_length(q - 1) bits a coordinate, ((z & M) + M | z) & H with
    z = x XOR pack(o) keeps the top bit (H) of each nonzero field (M: its low
    b - 1 bits) for a popcount; at b = 1, M = 0 and the mask is the identity.
    That weighs x - o, not x + o: as the held span is a subspace, x -> -x
    permutes it, so both give one multiset of weights.

    Codes are weighed in batches side by side: a batch's bases are joined
    column-wise into [G_1 | G_2 | ...], whose span holds its codes' words
    under the same messages, so one walk of the span serves the batch, each
    code packed into lanes of its own; one bincount with an offset per code
    counts them.  A batch holds at most SPAN_CHUNK / 16 words of low spans
    (but at least one code), so its joined blocks stay as small as those of
    one code with a 256-word low span: larger blocks leave the cache, and 16
    codes with 256-word low spans took 1.35-1.4 times as long in one batch
    as one at a time.  An XOR pass holds at most 4 SPAN_CHUNK packed lanes
    (but at least one offset), and an offset block at most SPAN_CHUNK
    offsets.  As q^(k - j) <= q^j unless q^j > SPAN_CHUNK / q, memory is
    O(SPAN_CHUNK n) whatever c and q^k are.
    """
    stack = np.asarray(basis, dtype=np.int64)
    single = stack.ndim < 3
    if single:
        stack = as_matrix(stack)[None]
    c, k, n = stack.shape
    j = min(_low_rows(field.q, k), -(-k // 2))
    batch = max(1, SPAN_CHUNK // (16 * field.q**j))
    counts = np.zeros((c, n + 1), dtype=np.int64)
    for s in range(0, c, batch):
        counts[s : s + batch] = _batch_counts(field, stack[s : s + batch], j)
    return counts[0] if single else counts


def _batch_counts(field: Field, stack: np.ndarray, j: int) -> np.ndarray:
    """weight_distribution of a (c, k, n) stack, every code in one span walk.

    The first row of the first block is offset 0, and every other row one
    shift of a scalar class, so A = A(offset 0) + (q - 1) A(the other
    shifts).  That holds for dependent rows too: it counts messages, not
    distinct words.
    """
    c, _, n = stack.shape
    size = c * (n + 1)
    bins = np.arange(c)[:, None] * (n + 1)  # code i counts weight w in bin i (n + 1) + w
    counts = np.zeros(size, dtype=np.int64)
    zero = None  # offset 0's counts
    for weights in _weighed_blocks(field, stack, j):
        if c > 1:
            weights = weights + bins
        if zero is None:
            zero = np.bincount(weights[0].ravel(), minlength=size)
        counts += np.bincount(weights.ravel(), minlength=size)
    # offset 0 stands for itself and every other offset for its q - 1 multiples
    return ((field.q - 1) * counts - (field.q - 2) * zero).reshape(c, n + 1)


def min_nonzero_weight(field: Field, basis: np.ndarray) -> int:
    """The least weight of a nonzero word of the row space of one (k, n) basis.

    It walks the shifts weight_distribution walks, so it weighs about
    q^k/(q - 1) words in O(SPAN_CHUNK n) memory, but keeps only their
    minimum.  Every zero word (offset 0 against the held zero word and,
    when rows are dependent, any offset that lies in the held span) wraps
    under w - 1 to the largest value of the weights' unsigned type, so it
    never wins.  A row space without a nonzero word raises NoNonzeroWords.
    """
    basis = as_matrix(basis)
    k, n = basis.shape
    j = min(_low_rows(field.q, k), -(-k // 2))
    blocks = _weighed_blocks(field, basis[None], j)
    least = min(int((w.view(f"u{w.itemsize}") - 1).min()) for w in blocks)
    if least >= n:
        raise NoNonzeroWords("the row space has no nonzero word")
    return least + 1


def _weighed_blocks(field: Field, stack: np.ndarray, j: int):
    """The weights of the span walk of a (c, k, n) stack, one block per XOR pass.

    The span of each code's last j rows is held packed, and the walk runs
    over the shifts of _normalised_chunks: offset 0, the first row of the
    first block, then one shift of each scalar class.  Both are built from
    _walk_rows's multiples, by XOR of lanes in characteristic 2, so nothing
    there is packed twice.  A block has shape (shifts, c, held words), uint8
    when a code fits one lane and intp sums over its lanes otherwise.  Lanes run along the first axes and held words
    along the last, so every elementwise pass loops over |low| words at a
    time.
    """
    c, k, n = stack.shape
    b = (field.q - 1).bit_length()
    joined = stack.transpose(1, 0, 2).reshape(k, c * n)  # [G_1 | ... | G_c]
    rows, add, pack = _walk_rows(field, joined, b, n)
    low = np.ascontiguousarray(pack(_span(rows[k - j :], add)).T)
    lanes = len(low) // c
    ones = ((1 << (64 // b * b)) - 1) // ((1 << b) - 1)  # a 1 in the low bit of every field of a lane
    H, M = np.uint64(ones << (b - 1)), np.uint64(ones * ((1 << (b - 1)) - 1))  # padding fields of z stay 0
    step = max(1, 4 * SPAN_CHUNK // low.size)
    for offsets in _normalised_chunks(rows[: k - j], add):
        packed = pack(offsets)[:, :, None]
        for s in range(0, len(packed), step):
            z = low ^ packed[s : s + step]
            if b > 1:
                z = (((z & M) + M) | z) & H
            weights = np.bitwise_count(z)
            if lanes > 1:
                weights = weights.reshape(len(z), c, lanes, -1).sum(axis=2, dtype=np.intp)
            yield weights
