import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdcodes import linalg
from cdcodes.field import field_from_order


def random_matrix(data, q, rows=3, cols=5):
    return np.array(
        data.draw(
            st.lists(
                st.lists(st.integers(0, q - 1), min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            )
        ),
        dtype=np.int64,
    )


def brute_row_space(field, M):
    """All linear combinations of the rows, as a frozenset of tuples."""
    words = linalg.enumerate_span(field, M)
    return frozenset(map(tuple, words.tolist()))


@given(data=st.data(), q=st.sampled_from([2, 3, 5]))
@settings(max_examples=40, deadline=None)
def test_rref_preserves_row_space(data, q):
    F = field_from_order(q)
    M = random_matrix(data, q)
    R, piv = linalg.rref(F, M)
    assert brute_row_space(F, M) == brute_row_space(F, R) if R.size else True
    R2, piv2 = linalg.rref(F, R)
    assert np.array_equal(R, R2) and piv == piv2  # idempotent
    assert len(piv) == R.shape[0]


@given(data=st.data(), q=st.sampled_from([2, 3, 4, 5]))
@settings(max_examples=40, deadline=None)
def test_nullspace_orthogonality(data, q):
    F = field_from_order(q)
    M = random_matrix(data, q, rows=data.draw(st.integers(1, 4)))
    N = linalg.nullspace(F, *linalg.rref(F, M))
    assert N.shape[0] == M.shape[1] - linalg.rank(F, M)
    assert np.array_equal(N, linalg.rref(F, N)[0])  # canonical, a single row included
    if N.size:
        prod = linalg.matmul(F, M, N.T)
        assert not prod.any()


def test_nullspace_one_row_is_reduced():
    # a 1-dimensional nullspace is scaled to leading entry 1 like any other
    F = field_from_order(5)
    N = linalg.nullspace(F, *linalg.rref(F, np.array([[1, 0, 2], [0, 1, 3]])))
    assert N.tolist() == [[1, 4, 2]]


def reference_rref(field, M):
    """Gauss-Jordan elimination one entry at a time with the scalar field ops."""
    m = [list(map(int, row)) for row in M]
    rows, cols = len(m), len(M[0]) if len(M) else 0
    pivots = []
    for c in range(cols):
        r = len(pivots)
        below = [i for i in range(r, rows) if m[i][c]]
        if not below:
            continue
        m[r], m[below[0]] = m[below[0]], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = field.neg(m[i][c])
                m[i] = [field.add(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m[: len(pivots)], tuple(pivots)


@st.composite
def rref_inputs(draw):
    q = draw(st.sampled_from([2, 3, 4, 5, 9, 13]))
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(1, 7))
    entry = st.integers(0, q - 1)
    shape = draw(st.sampled_from(["random", "zero", "zero rows", "deficient"]))
    row = st.lists(entry, min_size=cols, max_size=cols)
    M = np.array(draw(st.lists(row, min_size=rows, max_size=rows)), dtype=np.int64).reshape(rows, cols)
    if shape == "zero":
        M[:] = 0
    elif shape == "zero rows" and rows:
        M[draw(st.lists(st.integers(0, rows - 1), min_size=1))] = 0
    elif shape == "deficient" and rows > 1:
        # the last row is a combination of two earlier ones
        F = field_from_order(q)
        a, b = draw(entry), draw(entry)
        i, j = draw(st.integers(0, rows - 2)), draw(st.integers(0, rows - 2))
        M[-1] = F.matmul(np.array([[a, b]]), M[[i, j]])[0]
    return q, M


@given(rref_inputs())
@settings(max_examples=300, deadline=None)
def test_rref_matches_reference_elimination(case):
    # zero, zero-row, rank-deficient, tall (rows > cols) and wide matrices
    q, M = case
    F = field_from_order(q)
    R, piv = linalg.rref(F, M)
    want, want_piv = reference_rref(F, M)
    assert piv == want_piv
    assert R.shape == (len(want_piv), M.shape[1])
    assert R.tolist() == want


def test_matmul_matches_integer_arithmetic():
    F = field_from_order(7)
    rng = np.random.default_rng(1)
    A = rng.integers(0, 7, (4, 6))
    B = rng.integers(0, 7, (6, 3))
    assert np.array_equal(linalg.matmul(F, A, B), (A @ B) % 7)


@pytest.mark.parametrize("q", [2, 4, 7, 9, 13])
def test_matmul_matches_scalar_field_arithmetic(q):
    # oracle: the field's own scalar add/mul, one entry at a time
    F = field_from_order(q)
    rng = np.random.default_rng(q)
    A = rng.integers(0, q, (3, 5))
    B = rng.integers(0, q, (5, 4))
    want = [[0] * 4 for _ in range(3)]
    for i in range(3):
        for j in range(4):
            for k in range(5):
                want[i][j] = F.add(want[i][j], F.mul(int(A[i, k]), int(B[k, j])))
    assert linalg.matmul(F, A, B).tolist() == want


@given(data=st.data(), q=st.sampled_from([2, 3]))
@settings(max_examples=30, deadline=None)
def test_intersection_dim_vs_bruteforce(data, q):
    F = field_from_order(q)
    A = random_matrix(data, q, rows=2, cols=4)
    B = random_matrix(data, q, rows=2, cols=4)
    inter = brute_row_space(F, A) & brute_row_space(F, B)
    # |intersection| = q^dim, dim by inclusion-exclusion as in hull_dimension
    d = linalg.rank(F, A) + linalg.rank(F, B) - linalg.rank(F, np.vstack([A, B]))
    assert len(inter) == q**d


def test_enumerate_span_counts():
    F = field_from_order(3)
    basis = np.array([[1, 0, 2], [0, 1, 1]], dtype=np.int64)
    words = linalg.enumerate_span(F, basis)
    assert words.shape == (9, 3)
    assert not words[0].any()
    assert len({tuple(w) for w in words.tolist()}) == 9


def span_weights(field, basis):
    """The weight distribution read off the fully materialised span."""
    words = linalg.enumerate_span(field, basis)
    return np.bincount(np.count_nonzero(words, axis=1), minlength=basis.shape[1] + 1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9, 13, 1024])
def test_weight_distribution_matches_span(q):
    # k = 1, the largest k with q^k <= SPAN_CHUNK (one chunk) and the least
    # k past it (a chunk of offsets); q = 1024 holds its words as uint16
    F = field_from_order(q)
    rng = np.random.default_rng(q)
    n = 4 if q > 256 else 9
    one_chunk = linalg._low_rows(q, 64)
    for k in (1, one_chunk, one_chunk + 1):
        basis = rng.integers(0, q, (k, n))
        counts = linalg.weight_distribution(F, basis)
        assert counts.dtype == np.int64 and counts.sum() == q**k
        assert np.array_equal(counts, span_weights(F, basis)), k


@pytest.mark.parametrize("q, k", [(2, 11), (3, 7), (4, 5)])
def test_weight_distribution_many_offset_chunks(monkeypatch, q, k):
    # a small chunk puts several blocks of offsets, and a nested split, in reach
    monkeypatch.setattr(linalg, "SPAN_CHUNK", 16)
    F = field_from_order(q)
    basis = np.random.default_rng(k).integers(0, q, (k, 10))
    j = linalg._low_rows(q, k)
    blocks = list(linalg._span_chunks(F, basis[: k - j]))
    assert len(blocks) > 1 and all(len(b) <= 16 for b in blocks)
    assert sum(map(len, blocks)) == q ** (k - j)
    assert np.array_equal(linalg.weight_distribution(F, basis), span_weights(F, basis))


def test_weight_distribution_dependent_rows_and_empty_basis():
    F = field_from_order(3)
    basis = np.array([[1, 2, 0, 1], [2, 1, 0, 2]], dtype=np.int64)  # row 1 = 2 * row 0
    assert linalg.weight_distribution(F, basis).tolist() == [3, 0, 0, 6, 0]
    assert linalg.weight_distribution(F, np.zeros((0, 4), dtype=np.int64)).tolist() == [1, 0, 0, 0, 0]


def test_in_row_space():
    F = field_from_order(5)
    M = np.array([[1, 2, 3], [0, 1, 4]], dtype=np.int64)
    R, piv = linalg.rref(F, M)
    assert linalg.in_row_space(F, R, piv, (2, 4, 6 % 5))
    assert not linalg.in_row_space(F, R, piv, (0, 0, 1))
