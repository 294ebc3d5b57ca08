"""Exact row reduction and rank computations over a finite field.

Matrices are numpy int64 arrays of element codes.  Row operations read the
field's lookup tables by takes: a row is scaled by a take from one row of
mul and its q multiples by a take along mul's columns, and codes are added
by XOR in characteristic 2 and otherwise by a take from the flat add table
(_add); products go through `Field.matmul`.  So they work uniformly for
prime fields and small extensions; canonical output (reduced row echelon
form with ascending pivot columns) makes row spaces directly comparable.

This is also the one module that weighs codewords.  Every weight is a
popcount of words packed into uint64 lanes (_pack, _lane_weights), and two
walks build those words from the row multiples of _walk_rows: the span walk
of weight_distribution and min_nonzero_weight, which weighs one word of each
scalar class of the whole row space, and the layer walk of
pruned_min_weight, which weighs the messages of whole weight layers on an
information set.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterator

import numpy as np

from .errors import DimensionMismatch, NoNonzeroWords
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

    Each pivot step is a few row takes from the field's tables: the first
    nonzero row at or below r is scaled to 1 by one take from the row of
    mul at the inverse of its pivot entry (or copied, when that entry is 1
    already, as it always is for q = 2), the q multiples of its negation by
    one take along the columns of mul (in characteristic 2, where -x = x,
    of the row itself), and every row's multiple by one take at its entry in
    the pivot column.  Every row then adds its multiple: in characteristic 2
    by XOR in place, as m is rref's own copy, and otherwise through the add
    table (_add).  That clears the pivot row itself, so the scaled row goes
    to slot r and, when the pivot was below it, the eliminated old row r to
    the pivot's slot, which is the swap of the textbook loop.
    """
    t = field.tables()
    char2 = field.p == 2
    add = _add(field)
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
        piv = r + int(nz[0])
        a = m[piv, c]
        row = m[piv].copy() if a == 1 else t.mul[t.inv[a]].take(m[piv])
        multiples = t.mul.take(row if char2 else t.neg.take(row), axis=1)  # a * -row at [a]
        upd = multiples.take(m[:, c], axis=0)  # every row i -= m[i, c] * row, in one update
        if char2:
            np.bitwise_xor(m, upd, out=m)
        else:
            m = add(m, upd)
        if piv != r:
            m[piv] = m[r]
        m[r] = row
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m[:r], tuple(pivots)


def _add(field: Field):
    """The field's addition of element codes, elementwise with broadcasting,
    into a new array: XOR in characteristic 2, where bit i of a code of
    GF(2^m) is its i-th coordinate over GF(2) (see _walk_rows), and
    otherwise one take from the flat add table at x q + y.  The index is
    built in the array the take then writes, in place where x has the
    result's shape, so the add holds no more result-sized arrays than a 2-D
    gather from the table would.  Codes must lie in [0, q): the take clips
    rather than checks."""
    if field.p == 2:
        return np.bitwise_xor
    q = field.q
    flat = field.tables().add.ravel()

    def add(x, y):
        idx = np.multiply(x, q, dtype=np.int64)
        if idx.shape == np.shape(y):
            idx += y
        else:
            idx = idx + y
        return flat.take(idx, out=idx, mode="clip")

    return add


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
        raise DimensionMismatch("inner dimensions differ")
    return field.matmul(a, b)


def residual(field: Field, R: np.ndarray, pivots: tuple[int, ...], rows) -> np.ndarray:
    """rows - rows[:, P] . R: each row of rows reduced modulo the row space of
    (R, pivots), an RREF as rref returns it, so a row lies in the row space
    iff its residual is zero.  R[:, P] = I, so the residual is zero on P.
    It adds (-rows[:, P]) . R, and in characteristic 2, where -x = x, that
    is rows XOR rows[:, P] . R."""
    rows = as_matrix(rows)
    coeffs = rows[:, list(pivots)]
    if field.p != 2:
        coeffs = field.tables().neg[coeffs]
    return _add(field)(rows, field.matmul(coeffs, R))


def enumerate_span(field: Field, basis: np.ndarray) -> np.ndarray:
    """All q^k vectors of the row space, message-digit order (row 0 = zero)."""
    return _span(*_code_rows(field, as_matrix(basis)))


def _code_rows(field: Field, basis: np.ndarray):
    """The multiples of basis as element codes, a * basis[i] at [i, a], and their addition."""
    return field.tables().mul[np.arange(field.q)[:, None], basis[:, None]], _add(field)


def _span(rows: np.ndarray, add):
    """All q^k words of span(b_0, ..., b_{k-1}) in message-digit order.

    The span walk takes every row b_i as its multiples, rows[i, a] = a b_i
    (shape (k, q, width)), and add, which adds words elementwise with
    broadcasting: element codes and the field's addition (_code_rows), or
    packed lanes and XOR in characteristic 2 (_walk_rows).
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
    one take from the flat add table at x q + y (in the least unsigned type
    that holds q^2 - 1, up to q = 256) and packs what it weighs.
    """
    rows, add = _code_rows(field, joined)
    k, q, width = rows.shape
    if field.p != 2:
        dtype = np.min_scalar_type(q * q - 1) if q <= 256 else np.int64  # larger tables cost more to convert
        table = field.tables().add.astype(dtype, copy=False).ravel()
        return rows.astype(dtype, copy=False), lambda x, y: table.take(x * q + y), lambda words: _pack(words, b, n)
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
    """Counts A_0..A_n of the row space's words by Hamming weight, shape (n + 1,).

    The span of the last j = min(_low_rows, ceil(k/2)) rows is held once, and
    a word o of the other h = k - j rows' span (both ~sqrt(q^k) words) shifts
    it.  As x + a o = a (a^-1 x + o) and x -> a^-1 x permutes the held span,
    the shift a o (a != 0) gives the weights of o; so offset 0 and one o of
    each scalar class are weighed, 1 + (q^h - 1)/(q - 1) shifts, each class
    counting q - 1 times: about q^k/(q - 1) words in all.  The held span
    and the shifts are built from the q multiples of each row: in
    characteristic 2 by XOR of packed lanes, as adding codes there is XOR
    (_walk_rows), and otherwise as element codes, packed after.  In uint64
    lanes, b = bit_length(q - 1) bits a coordinate, z = x XOR pack(o) has a
    nonzero field where x and o differ, and _lane_weights counts them.  That
    weighs x - o, not x + o: as the held span is a subspace, x -> -x
    permutes it, so both give one multiset of weights.

    The first row of the first block is offset 0, and every other row one
    shift of a scalar class, so A = A(offset 0) + (q - 1) A(the other
    shifts).  That holds for dependent rows too: it counts messages, not
    distinct words.  An XOR pass holds at most 4 SPAN_CHUNK packed lanes
    (but at least one offset), and an offset block at most SPAN_CHUNK
    offsets.  As q^(k - j) <= q^j unless q^j > SPAN_CHUNK / q, memory is
    O(SPAN_CHUNK n) whatever q^k is.
    """
    basis = as_matrix(basis)
    k, n = basis.shape
    j = min(_low_rows(field.q, k), -(-k // 2))
    counts = np.zeros(n + 1, dtype=np.int64)
    zero = None  # offset 0's counts
    for weights in _weighed_blocks(field, basis[None], j):
        if zero is None:
            zero = np.bincount(weights[0].ravel(), minlength=n + 1)
        counts += np.bincount(weights.ravel(), minlength=n + 1)
    # offset 0 stands for itself and every other offset for its q - 1 multiples
    return (field.q - 1) * counts - (field.q - 2) * zero


def min_nonzero_weight(field: Field, basis: np.ndarray):
    """The least weight of a nonzero word of the row space, per code.

    basis is one (k, n) basis, giving an int, or a stack of c of them,
    (c, k, n), giving the (c,) int64 array of their minima; one basis is
    the c = 1 case.  It walks the shifts weight_distribution walks, about
    q^k/(q - 1) words a code, in O(SPAN_CHUNK n) memory for one code, but
    keeps only their minimum: no weight distribution is counted.  Every
    zero word (offset 0 against the held zero word and, when rows are
    dependent, any offset that lies in the held span) wraps under w - 1 to
    the largest value of the weights' unsigned type, so it never wins.  A
    code without a nonzero word raises NoNonzeroWords.

    Codes are weighed in batches side by side: a batch's bases are joined
    column-wise into [G_1 | G_2 | ...], whose span holds its codes' words
    under the same messages, so one walk of the span serves the batch, each
    code packed into lanes of its own.  A batch holds up to 4 SPAN_CHUNK
    words of low spans, as many as one XOR pass takes (but at least one
    code).  That puts a census's small classes in one batch and 16-22 of its
    large ones in each.  Measured on the stacked class generators of two
    censuses, in seconds, the median of 4 runs:

        codes of (q, n), low span    1 a batch    4-5    16-22    64-89
        1755 of (2, 21), 1024 words     4.95      5.03    4.27     7.96
        784 of (3, 13), 729 words       1.24      1.24    1.14     1.10

    The nine class stacks of the criterion-8 grid (at most 50 codes, low
    spans of at most 169 words) took 2.7 ms in all with 4096 or more words
    a batch, 6.2 ms with 256 and 6.5 ms as stacked weight distributions.
    """
    stack = np.asarray(basis, dtype=np.int64)
    single = stack.ndim < 3
    if single:
        stack = stack.reshape(1, -1, stack.shape[-1])
    c, k, n = stack.shape
    j = min(_low_rows(field.q, k), -(-k // 2))
    batch = max(1, 4 * SPAN_CHUNK // field.q**j)
    least = []  # each code's least weight - 1, or a wrapped zero weight
    for s in range(0, c, batch):
        blocks = _weighed_blocks(field, stack[s : s + batch], j)
        minima = [(w.view(f"u{w.itemsize}") - 1).min(axis=(0, 2)).tolist() for w in blocks]
        least += map(min, zip(*minima))
    if max(least, default=0) >= n:
        raise NoNonzeroWords("the row space has no nonzero word")
    return least[0] + 1 if single else np.array(least, dtype=np.int64) + 1


def _weighed_blocks(field: Field, stack: np.ndarray, j: int):
    """The weights of the span walk of a (c, k, n) stack, one block per XOR pass.

    The span of each code's last j rows is held packed, and the walk runs
    over the shifts of _normalised_chunks: offset 0, the first row of the
    first block, then one shift of each scalar class.  Both are built from
    _walk_rows's multiples, by XOR of lanes in characteristic 2, so nothing
    there is packed twice.  A block has shape (shifts, c, held words), as
    _lane_weights weighs it.  Lanes run along the first axes and held words
    along the last, so every elementwise pass loops over |low| words at a
    time.
    """
    c, k, n = stack.shape
    b = (field.q - 1).bit_length()
    joined = stack.transpose(1, 0, 2).reshape(k, c * n)  # [G_1 | ... | G_c]
    rows, add, pack = _walk_rows(field, joined, b, n)
    low = np.ascontiguousarray(pack(_span(rows[k - j :], add)).T)
    step = max(1, 4 * SPAN_CHUNK // low.size)
    for offsets in _normalised_chunks(rows[: k - j], add):
        packed = pack(offsets)[:, :, None]
        for s in range(0, len(packed), step):
            yield _lane_weights(low ^ packed[s : s + step], b, c)


def _lane_weights(z: np.ndarray, b: int, c: int) -> np.ndarray:
    """Hamming weights, shape (words, c, ...), of the packed words z, shape
    (words, c * lanes, ...), of c codes side by side in b-bit fields (_pack):
    uint8 when a code fits one lane and intp sums over its lanes otherwise.

    ((z & M) + M | z) & H keeps the top bit (H) of each nonzero field (M: its
    low b - 1 bits) for a popcount; at b = 1, M = 0 and the mask is the identity.
    """
    if b > 1:
        ones = ((1 << (64 // b * b)) - 1) // ((1 << b) - 1)  # a 1 in the low bit of every field of a lane
        H, M = np.uint64(ones << (b - 1)), np.uint64(ones * ((1 << (b - 1)) - 1))  # padding fields stay 0
        # in place on one new array: two block-sized arrays live, not three,
        # so a block's temporaries fit the heap's free space instead of
        # growing it and faulting its pages in again on every block
        t = z & M
        t += M
        t |= z
        t &= H
        z = t
    weights = np.bitwise_count(z)
    if z.shape[1] > c:  # a code takes more than one lane
        weights = weights.reshape(len(z), c, z.shape[1] // c, -1).sum(axis=2, dtype=np.intp)
    return weights


def pruned_min_weight(field: Field, R: np.ndarray, pivots: tuple[int, ...], budget: int) -> tuple[int, int]:
    """A bracket (lower, upper) on the least weight of a nonzero word of the
    row space of (R, pivots), an RREF with at least one row as rref returns
    it, from the messages of whole weight layers within budget words.

    Information-set bracketing: all messages of weight <= w are expanded;
    any unseen codeword then has weight >= w + 1 on the information set.  At
    w = k no nonzero codeword is unseen, and the bracket closes on upper,
    which starts at the lightest row of R (every row is a codeword).

    A message's multiples give words of one weight, so each layer expands
    only _layer_runs' one message per scalar class.  As R is RREF, a
    message m of weight w gives m on the pivot columns, so its weight is
    w + wt(m R[:, free]): a sum of its support's row multiples from
    _walk_rows (XOR of packed lanes in characteristic 2), weighed by
    _lane_weights.  The budget still counts whole layers, C(k, w)
    (q - 1)^w words each, so the bracket does not depend on the folding; it
    closes early once upper <= w + 1, which no later layer can undercut.
    """
    q = field.q
    k, n = R.shape
    piv = list(pivots)
    assert np.array_equal(R[:, piv], np.eye(k, dtype=np.int64)), "the generator is not in RREF"
    b = (q - 1).bit_length()
    rows, add, pack = _walk_rows(field, np.delete(R, piv, axis=1), b, n - k)
    flat = rows.reshape(k * q, -1)
    upper = int(np.count_nonzero(R, axis=1).min())
    spent = w = 0
    while w < k and upper > w + 1:
        w += 1
        layer = math.comb(k, w) * (q - 1) ** w
        if spent + layer > budget:
            w -= 1
            break
        for sup, vals in _layer_runs(k, q, w):
            terms = (sup[:, None] * q + vals).reshape(-1, w).T  # the rows of flat that each word sums
            words = functools.reduce(add, (flat.take(i, axis=0) for i in terms))
            upper = min(upper, w + int(_lane_weights(pack(words), b, 1).min()))
        spent += layer
    return (upper if w == k else min(upper, w + 1)), upper


def _layer_runs(k: int, q: int, w: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """One message of each scalar class of Hamming weight w, the one whose
    first nonzero value is 1: C(k, w) (q - 1)^(w - 1) messages, as runs
    (supports, values) of at most SPAN_CHUNK messages: every support of a
    run (from _support_blocks, in combinations order) with every value tuple
    (a 1 followed by w - 1 digits in base q - 1, plus one).
    """
    per_support = (q - 1) ** (w - 1)
    runs = max(1, SPAN_CHUNK // per_support)
    powers = (q - 1) ** np.arange(w - 1, dtype=np.int64)
    for block in _support_blocks(0, k, w):
        for r in range(0, len(block), runs):
            for start in range(0, per_support, SPAN_CHUNK):
                idx = np.arange(start, min(per_support, start + SPAN_CHUNK), dtype=np.int64)
                vals = np.ones((len(idx), w), dtype=np.int64)
                vals[:, 1:] += idx[:, None] // powers % (q - 1)
                yield block[r : r + runs], vals


def _support_blocks(lo: int, k: int, w: int) -> Iterator[np.ndarray]:
    """The w-subsets of range(lo, k) in itertools.combinations order, as
    blocks of at most SPAN_CHUNK rows (at least one block).

    While C(k - lo, w) exceeds SPAN_CHUNK the first index is expanded: each
    i in turn heads the blocks of the (w - 1)-subsets of range(i + 1, k).
    """
    if math.comb(k - lo, w) <= SPAN_CHUNK:
        yield lo + _combinations(k - lo, w)
        return
    for i in range(lo, k - w + 1):
        for block in _support_blocks(i + 1, k, w - 1):
            yield np.concatenate([np.full((len(block), 1), i, dtype=np.int64), block], axis=1)


@functools.lru_cache(maxsize=256)  # _support_blocks asks for each (m, w) under many prefixes
def _combinations(m: int, w: int) -> np.ndarray:
    """All w-subsets of range(m) in itertools.combinations order, (C(m, w), w)."""
    count = math.comb(m, w)
    subsets = itertools.chain.from_iterable(itertools.combinations(range(m), w))
    table = np.fromiter(subsets, dtype=np.int64, count=count * w).reshape(count, w)
    table.setflags(write=False)  # cached
    return table
