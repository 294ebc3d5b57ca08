import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import get_algebra, run_python
from oracles import dual, first_nonzero_weight, span_weights

from cdcodes import codes, linalg
from cdcodes.codes import LinearCode
from cdcodes.errors import DimensionMismatch, NoNonzeroWords
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
    N = dual(LinearCode.from_rows(F, M)).gen
    assert N.shape[0] == M.shape[1] - linalg.rank(F, M)
    assert np.array_equal(N, linalg.rref(F, N)[0])  # canonical, a single row included
    if N.size:
        prod = linalg.matmul(F, M, N.T)
        assert not prod.any()


@given(data=st.data(), q=st.sampled_from([2, 3, 4, 5]))
@settings(max_examples=40, deadline=None)
def test_kernel_basis_reduces_to_nullspace(data, q):
    F = field_from_order(q)
    M = random_matrix(data, q, rows=data.draw(st.integers(1, 4)))
    R, piv = linalg.rref(F, M)
    K = linalg.kernel_basis(F, R, piv)
    free = [c for c in range(M.shape[1]) if c not in piv]
    assert np.array_equal(K[:, free], np.eye(len(free), dtype=np.int64))
    assert not linalg.matmul(F, M, K.T).any()
    assert np.array_equal(linalg.rref(F, K)[0], dual(LinearCode.from_rows(F, M)).gen)


def test_nullspace_one_row_is_reduced():
    # a 1-dimensional nullspace is scaled to leading entry 1 like any other
    F = field_from_order(5)
    N = dual(LinearCode.from_rows(F, np.array([[1, 0, 2], [0, 1, 3]]))).gen
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
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 13, 16, 25, 27]))
    shape = draw(st.sampled_from(["random", "zero", "zero rows", "deficient", "zero columns", "low rank wide"]))
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(1, 14 if shape == "low rank wide" else 7))
    entry = st.integers(0, q - 1)
    row = st.lists(entry, min_size=cols, max_size=cols)
    M = np.array(draw(st.lists(row, min_size=rows, max_size=rows)), dtype=np.int64).reshape(rows, cols)
    F = field_from_order(q)
    if shape == "zero":
        M[:] = 0
    elif shape == "zero rows" and rows:
        M[draw(st.lists(st.integers(0, rows - 1), min_size=1))] = 0
    elif shape == "deficient" and rows > 1:
        # the last row is a combination of two earlier ones
        a, b = draw(entry), draw(entry)
        i, j = draw(st.integers(0, rows - 2)), draw(st.integers(0, rows - 2))
        M[-1] = F.matmul(np.array([[a, b]]), M[[i, j]])[0]
    elif shape == "zero columns" and cols > 1:
        # all-zero columns scattered between nonzero ones
        M[:, draw(st.lists(st.integers(0, cols - 1), min_size=1, max_size=cols - 1))] = 0
    elif shape == "low rank wide":
        # rank <= 2 with some zero columns, like the hull's residual H - H[:, P] G
        pair = st.lists(entry, min_size=2, max_size=2)
        left = np.array(draw(st.lists(pair, min_size=rows, max_size=rows)), dtype=np.int64).reshape(rows, 2)
        M = F.matmul(left, M[:2] if rows >= 2 else np.zeros((2, cols), dtype=np.int64))
        M[:, draw(st.lists(st.integers(0, cols - 1), max_size=cols // 2))] = 0
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


@given(rref_inputs())
@settings(max_examples=300, deadline=None)
def test_rank_matches_reference_elimination(case):
    # rref's skipped zero columns and early stop leave the rank exact too
    q, M = case
    F = field_from_order(q)
    assert linalg.rank(F, M) == len(reference_rref(F, M)[1])


@pytest.mark.parametrize("q, n", [(2, 21), (4, 11), (8, 7), (3, 13)])
def test_rref_matches_reference_on_twisted_generators(q, n):
    # the full-rank G . L(beta) that a family builder reduces before its hull:
    # plain, and self-dual where C_0 exists (q even or 4 | q - 1)
    A = get_algebra(q, n)
    kts = codes.kt_fields(A)
    rng = random.Random(q * 100 + n)
    betas = [tuple(rng.randrange(1, kt.order) for kt in kts) for _ in range(4)]
    L = A.translates(codes.unit_words(kts, betas)).reshape(len(betas), 2 * n, 2 * n)
    families = [(codes.build_plain_code, [])]
    if q % 4 != 3:
        families.append((codes.build_self_dual_code, [codes.build_C0(A.decompose()[0])]))
    for build, c0 in families:
        G = A.ideal_rref([g for _, g in codes.standard_parts(A)] + c0)
        for beta, Lb in zip(betas, L):
            M = A.field.matmul(G, Lb)
            R, piv = linalg.rref(A.field, M)
            want, want_piv = reference_rref(A.field, M)
            assert len(piv) == len(G)  # full rank
            assert piv == want_piv and R.tolist() == want
            assert np.array_equal(R, build(A, codes.BetaVector(kts, beta)).gen)


@pytest.mark.parametrize("q, n", [(2, 7), (4, 5), (8, 3), (16, 3), (3, 7), (9, 5), (13, 3)])
def test_rref_leaves_its_argument_alone(q, n):
    # rref eliminates in its own copy (by XOR in place in characteristic 2):
    # a writable argument comes back unchanged, and a read-only one, such as
    # the cached ideal_rref G, is reduced as a copy
    A = get_algebra(q, n)
    F = A.field
    G = A.ideal_rref([g for _, g in codes.standard_parts(A)])
    assert not G.flags.writeable
    R, _ = linalg.rref(F, G)
    assert np.array_equal(R, G) and R is not G and R.flags.writeable
    rng = np.random.default_rng(q * n)
    M = rng.integers(0, q, (len(G) + 2, G.shape[1]))
    M[-1] = M[0]  # rank-deficient, so rref drops a row
    before = M.copy()
    R, _ = linalg.rref(F, M)
    assert np.array_equal(M, before)
    assert R.tolist() == reference_rref(F, M)[0]


@pytest.mark.parametrize("q", [3, 5, 7, 9, 13, 25, 27])
def test_odd_add_is_the_add_table(q):
    # odd q adds by one take from the flat add table at x q + y, into a new
    # array: every pair, and the broadcast shapes of the span walk
    # ((w, 1, N) with (q, N)), residual and rref ((r, N) with (r, N)) and
    # stacks ((s, rows, cols) twice)
    F = field_from_order(q)
    t = F.tables()
    add = linalg._add(F)
    a = np.arange(q)
    assert np.array_equal(add(a[:, None], a), t.add)
    x, y = np.meshgrid(a, a, indexing="ij")
    assert np.array_equal(add(x, y), t.add)
    rng = np.random.default_rng(q)
    for xs, ys in [((6, 1, 11), (q, 11)), ((4, 11), (4, 11)), ((3, 5, 9), (3, 5, 9)), ((11,), (6, 11))]:
        x, y = rng.integers(0, q, xs), rng.integers(0, q, ys)
        x_before, y_before = x.copy(), y.copy()
        s = add(x, y)
        assert s.shape == np.broadcast_shapes(xs, ys) and s.dtype == np.int64
        assert np.array_equal(s, t.add[x, y])
        assert np.array_equal(x, x_before) and np.array_equal(y, y_before)


def test_matmul_matches_integer_arithmetic():
    F = field_from_order(7)
    rng = np.random.default_rng(1)
    A = rng.integers(0, 7, (4, 6))
    B = rng.integers(0, 7, (6, 3))
    assert np.array_equal(linalg.matmul(F, A, B), (A @ B) % 7)
    with pytest.raises(DimensionMismatch, match="inner dimensions differ"):
        linalg.matmul(F, A, B.T)


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
    # |intersection| = q^dim, dim by inclusion-exclusion: rank A + rank B - rank [A; B]
    d = linalg.rank(F, A) + linalg.rank(F, B) - linalg.rank(F, np.vstack([A, B]))
    assert len(inter) == q**d


def test_enumerate_span_counts():
    F = field_from_order(3)
    basis = np.array([[1, 0, 2], [0, 1, 1]], dtype=np.int64)
    words = linalg.enumerate_span(F, basis)
    assert words.shape == (9, 3)
    assert not words[0].any()
    assert len({tuple(w) for w in words.tolist()}) == 9


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9, 13, 1024])
def test_weight_distribution_matches_span(q):
    # k = 1, the largest k with q^k <= SPAN_CHUNK (one chunk) and the least
    # k past it (a chunk of offsets); q = 1024 packs 10 bits a coordinate
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
    j = min(linalg._low_rows(q, k), -(-k // 2))  # the split weight_distribution makes
    blocks = list(linalg._span_chunks(*linalg._code_rows(F, basis[: k - j])))
    assert len(blocks) > 1 and all(len(b) <= 16 for b in blocks)
    assert sum(map(len, blocks)) == q ** (k - j)
    assert np.array_equal(linalg.weight_distribution(F, basis), span_weights(F, basis))


@pytest.mark.parametrize(
    "b, q, k",
    [(1, 2, 6), (2, 3, 4), (3, 5, 3), (4, 9, 3), (5, 17, 2), (6, 49, 2), (7, 81, 2), (8, 169, 2), (9, 343, 2),
     (10, 729, 1), (11, 2048, 1)],
)
def test_weight_distribution_packed_fields(b, q, k):
    # every field width b; a word one coordinate short of a full lane, a full
    # lane, one coordinate over, and two lanes plus one
    F = field_from_order(q)
    assert (q - 1).bit_length() == b
    rng = np.random.default_rng(q)
    per = 64 // b
    for n in (per - 1, per, per + 1, 2 * per + 1):
        basis = rng.integers(0, q, (k, n))
        basis[:, -1] = q - 1  # the largest code in the last field of each word
        assert np.array_equal(linalg.weight_distribution(F, basis), span_weights(F, basis)), n


def test_weight_distribution_long_words():
    F = field_from_order(3)
    basis = np.random.default_rng(0).integers(0, 3, (5, 300))
    basis[0] = 1  # weights past 255
    assert np.array_equal(linalg.weight_distribution(F, basis), span_weights(F, basis))


def test_weight_distribution_dependent_rows_and_empty_basis():
    F = field_from_order(3)
    basis = np.array([[1, 2, 0, 1], [2, 1, 0, 2]], dtype=np.int64)  # row 1 = 2 * row 0
    assert linalg.weight_distribution(F, basis).tolist() == [3, 0, 0, 6, 0]
    assert linalg.weight_distribution(F, np.zeros((0, 4), dtype=np.int64)).tolist() == [1, 0, 0, 0, 0]


@pytest.mark.parametrize("chunk", [16, linalg.SPAN_CHUNK])
@pytest.mark.parametrize(
    "q, k, n",
    [(2, 9, 14), (3, 6, 10), (4, 5, 10), (5, 4, 6), (7, 3, 6), (8, 3, 10), (9, 3, 10), (13, 2, 22), (13, 3, 22)],
)
def test_weight_distribution_stack_matches_single_codes(monkeypatch, chunk, q, k, n):
    # a stack is weighed by min_nonzero_weight: 40 codes, all in one batch
    # at the default chunk; chunk 16 puts 4 to 12 codes in a batch, the last
    # one part full at q = 3, 5, 7 and 9, and walks several offset blocks.
    # At q = 13, n = 22 each code takes two lanes of 16 coordinates
    monkeypatch.setattr(linalg, "SPAN_CHUNK", chunk)
    F = field_from_order(q)
    c = 40
    stack = np.random.default_rng(q * n).integers(0, q, (c, k, n))
    stack[0, 1] = stack[0, 0]  # a dependent row
    minima = linalg.min_nonzero_weight(F, stack)
    assert minima.shape == (c,) and minima.dtype == np.int64
    for basis, m in zip(stack, minima.tolist()):
        assert m == linalg.min_nonzero_weight(F, basis)
        assert m == first_nonzero_weight(span_weights(F, basis))


@pytest.mark.parametrize("q, k", [(2, 10), (3, 6), (4, 5), (5, 4), (7, 4), (8, 4), (9, 4), (13, 4)])
def test_weight_distribution_scalar_classes_over_many_blocks(monkeypatch, q, k):
    # at chunk 16 the 1 + (q^h - 1)/(q - 1) offsets fill several blocks, so
    # offset 0, weighed once, must be told apart from the block starts; words
    # of 70 coordinates take two lanes or more for every q
    monkeypatch.setattr(linalg, "SPAN_CHUNK", 16)
    F = field_from_order(q)
    n = 70
    stack = np.random.default_rng(q).integers(0, q, (3, k, n))
    stack[0, 1] = F.tables().mul[q - 1, stack[0, 0]]  # a dependent row
    stack[1, -1] = stack[1, 0]  # a dependent row in the held low span
    j = min(linalg._low_rows(q, k), -(-k // 2))
    assert len(list(linalg._normalised_chunks(*linalg._code_rows(F, stack[0, : k - j])))) > 1
    for basis in stack:
        assert np.array_equal(linalg.weight_distribution(F, basis), span_weights(F, basis))
    empty = [linalg.weight_distribution(F, basis).tolist() for basis in np.zeros((3, 0, n), dtype=np.int64)]
    assert empty == [[1] + [0] * n] * 3


def record_walks(monkeypatch):
    """The shape (shifts, codes, held words) of every block each span walk weighs, one list a walk."""
    walks = []
    real = linalg._weighed_blocks

    def recording(field, stack, j):
        walks.append([])
        for block in real(field, stack, j):
            walks[-1].append(block.shape)
            yield block

    monkeypatch.setattr(linalg, "_weighed_blocks", recording)
    return walks


@pytest.mark.parametrize("chunk", [16, linalg.SPAN_CHUNK])
@pytest.mark.parametrize("q, k", [(2, 12), (3, 8), (4, 6), (5, 6), (7, 5), (9, 4), (13, 4)])
def test_weight_distribution_weighs_one_offset_per_scalar_class(monkeypatch, chunk, q, k):
    # every block weighs shifts against the held low span of j rows; the
    # shifts are offset 0 and one per scalar class of the rest
    monkeypatch.setattr(linalg, "SPAN_CHUNK", chunk)
    walks = record_walks(monkeypatch)
    F = field_from_order(q)
    basis = np.random.default_rng(k).integers(0, q, (k, 9))
    counts = linalg.weight_distribution(F, basis)
    j = min(linalg._low_rows(q, k), -(-k // 2))
    h = k - j
    (blocks,) = walks
    assert {(codes, held) for _, codes, held in blocks} == {(1, q**j)}
    assert sum(shifts for shifts, _, _ in blocks) == 1 + (q**h - 1) // (q - 1)
    assert np.array_equal(counts, span_weights(F, basis))


def test_weight_distribution_walks_one_span_per_batch(monkeypatch):
    # 40 codes with 5-word low spans (q = 5, k = 2) fit one batch of
    # min_nonzero_weight: one walk of the joined bases weighs all of them in
    # one block, which holds offset 0 and the leading row, 1 + (5 - 1)/(5 - 1)
    # shifts
    walks = record_walks(monkeypatch)
    F = field_from_order(5)
    stack = np.random.default_rng(5).integers(0, 5, (40, 2, 6))
    minima = linalg.min_nonzero_weight(F, stack)
    assert walks == [[(2, 40, 5)]]
    assert minima.tolist() == [first_nonzero_weight(span_weights(F, basis)) for basis in stack]


def test_characteristic_2_addition_is_xor_of_codes():
    # the packed walk adds words by XOR of their lanes; that is exact only if
    # adding codes of GF(2^m) is XOR, which is checked for every m with
    # 2^m <= MAX_TABLE_SIZE, in a fresh interpreter: GF(4096)'s tables take
    # 256 MiB, and the rest of the session should not hold that peak
    check = (
        "import numpy as np\n"
        "from cdcodes.field import MAX_TABLE_SIZE, field_from_order\n"
        "m = 1\n"
        "while 2**m <= MAX_TABLE_SIZE:\n"
        "    a = np.arange(2**m)\n"
        "    assert np.array_equal(field_from_order(2**m).tables().add, a[:, None] ^ a), m\n"
        "    m += 1\n"
        "print(m - 1)\n"
    )
    proc = run_python(check, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "12\n"  # q = 2 .. 4096


@pytest.mark.parametrize("chunk", [16, linalg.SPAN_CHUNK])
@pytest.mark.parametrize(
    "q, k, n", [(2, 0, 70), (2, 1, 5), (2, 11, 70), (2, 14, 9), (4, 1, 40), (4, 6, 40), (8, 4, 30), (16, 4, 17)]
)
def test_packed_walk_matches_code_walk(monkeypatch, chunk, q, k, n):
    # in characteristic 2 the walk XORs packed multiples of the rows; its
    # held span, every block of offsets and every span chunk must be the
    # packing of the code walk's.  Three codes side by side, with dependent
    # rows; at k = 0 and k = 1 the held span is the whole span; n = 70, 40,
    # 30 and 17 take two lanes a code
    monkeypatch.setattr(linalg, "SPAN_CHUNK", chunk)
    F = field_from_order(q)
    b = (q - 1).bit_length()
    c = 3
    stack = np.random.default_rng(q * k).integers(0, q, (c, k, n))
    if k > 1:
        stack[0, 1] = F.tables().mul[q - 1, stack[0, 0]]
        stack[1, -1] = stack[1, 0]
    joined = stack.transpose(1, 0, 2).reshape(k, c * n)
    lanes, xor, pack = linalg._walk_rows(F, joined, b, n)
    codes, add = linalg._code_rows(F, joined)
    assert xor is np.bitwise_xor and lanes.dtype == np.uint64 and pack(lanes) is lanes
    assert np.array_equal(lanes.reshape(-1, lanes.shape[2]), linalg._pack(codes.reshape(-1, c * n), b, n))
    j = min(linalg._low_rows(q, k), -(-k // 2))
    assert np.array_equal(linalg._span(lanes[k - j :], xor), linalg._pack(linalg._span(codes[k - j :], add), b, n))
    walks = [
        (linalg._normalised_chunks(lanes[: k - j], xor), linalg._normalised_chunks(codes[: k - j], add)),
        (linalg._span_chunks(lanes, xor), linalg._span_chunks(codes, add)),
    ]
    for packed_blocks, code_blocks in walks:
        code_blocks = list(code_blocks)
        packed_blocks = list(packed_blocks)
        assert len(packed_blocks) == len(code_blocks)
        for packed, words in zip(packed_blocks, code_blocks):
            assert np.array_equal(packed, linalg._pack(words, b, n))
    for basis in stack:
        assert np.array_equal(linalg.weight_distribution(F, basis), span_weights(F, basis))


@pytest.mark.parametrize("q", [3, 5, 9, 13, 17, 27, 729])
def test_odd_walk_adds_by_the_flat_table(q):
    # in odd characteristic the walk holds element codes in the least
    # unsigned type that holds q^2 - 1 (uint16 from q = 17 on; int64, the
    # tables' own type, past q = 256) and adds them by one take from the
    # flat add table; its span must be the table walk's
    F = field_from_order(q)
    basis = np.random.default_rng(q).integers(0, q, (2, 7))
    rows, add, pack = linalg._walk_rows(F, basis, (q - 1).bit_length(), 7)
    codes, table_add = linalg._code_rows(F, basis)
    assert rows.dtype == (np.uint8 if q <= 16 else np.uint16 if q <= 256 else np.int64)
    assert np.array_equal(rows, codes)
    span = linalg._span(rows, add)
    assert span.dtype == rows.dtype and np.array_equal(span, linalg._span(codes, table_add))
    assert np.array_equal(pack(span), linalg._pack(span, (q - 1).bit_length(), 7))


def test_weight_distribution_stack_memory_is_bounded():
    # 64 binary codes of dimension 14 and length 42, weighed as a stack by
    # min_nonzero_weight, all in one batch: their 2^20 words would take
    # 336 MiB as int64, and the walk holds a few MiB
    F = field_from_order(2)
    stack = np.random.default_rng(1).integers(0, 2, (64, 14, 42))
    F.tables()
    tracemalloc.start()
    try:
        minima = linalg.min_nonzero_weight(F, stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert minima.tolist() == [linalg.min_nonzero_weight(F, basis) for basis in stack]
    assert minima[-1] == first_nonzero_weight(linalg.weight_distribution(F, stack[-1]))
    assert peak <= 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def assert_min_matches(F, basis):
    """min_nonzero_weight against weight_distribution and the materialised span."""
    counts = linalg.weight_distribution(F, basis)
    assert np.array_equal(counts, span_weights(F, basis))
    if counts[1:].any():
        assert linalg.min_nonzero_weight(F, basis) == first_nonzero_weight(counts)
    else:
        with pytest.raises(NoNonzeroWords):
            linalg.min_nonzero_weight(F, basis)
    return counts


@given(data=st.data(), q=st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16]))
@settings(max_examples=60, deadline=None)
def test_min_nonzero_weight_matches_distribution(data, q):
    # up to 2^10 words; lengths up to two lanes plus one field, so some codes
    # sum their weights over lanes; rows may repeat or vanish
    F = field_from_order(q)
    per = 64 // (q - 1).bit_length()
    k = data.draw(st.integers(1, max(1, int(math.log(1024, q)))))
    n = data.draw(st.integers(1, 2 * per + 1))
    basis = random_matrix(data, q, rows=k, cols=n)
    if k > 1 and data.draw(st.booleans()):
        basis[-1] = basis[0]
    assert_min_matches(F, basis)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_min_nonzero_weight_dependent_rows(q):
    # a duplicated row, a zero row and a multiple of another row leave rank
    # 3 of 6 rows: q^3 zero words, from dependencies among the offsets' rows
    # (0, 1, 2) and the held rows (3, 4, 5); then a basis of zero rows only
    F = field_from_order(q)
    basis = np.random.default_rng(q).integers(0, q, (6, 12))
    basis[1] = basis[0]
    basis[-1] = F.tables().mul[q - 1, basis[-2]]
    basis[2] = 0
    counts = assert_min_matches(F, basis)
    assert counts[0] == q**3
    assert_min_matches(F, np.zeros((2, 5), dtype=np.int64))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_min_nonzero_weight_several_lanes(q):
    # n_len > 64 // b: each word spans three lanes and its weight is an intp sum
    F = field_from_order(q)
    per = 64 // (q - 1).bit_length()
    rng = np.random.default_rng(q)
    for n in (per + 1, 2 * per + 3):
        basis = rng.integers(0, q, (3, n))
        basis[1] = basis[0]
        basis[2, : n - 2] = 0  # a light word whose support crosses no lane
        assert_min_matches(F, basis)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_min_nonzero_weight_held_span_only(monkeypatch, q):
    # k = 1 <= j: the held span is the whole row space and offset 0 its only shift
    walks = record_walks(monkeypatch)
    F = field_from_order(q)
    basis = np.array([[0, 1, q - 1, 0, 1]], dtype=np.int64)
    assert linalg.min_nonzero_weight(F, basis) == 3
    assert walks == [[(1, 1, q)]]


@pytest.mark.parametrize("q, k", [(2, 11), (3, 7), (4, 5), (5, 4), (7, 4), (8, 4), (9, 4), (16, 3)])
def test_min_nonzero_weight_many_offset_blocks(monkeypatch, q, k):
    # at chunk 16 the offsets fill several blocks and each block several XOR
    # passes; 30 coordinates take one lane at b <= 2 and two past it
    monkeypatch.setattr(linalg, "SPAN_CHUNK", 16)
    F = field_from_order(q)
    basis = np.random.default_rng(q).integers(0, q, (k, 30))
    basis[-1] = basis[0]
    j = min(linalg._low_rows(q, k), -(-k // 2))
    assert len(list(linalg._normalised_chunks(*linalg._code_rows(F, basis[: k - j])))) > 1
    assert_min_matches(F, basis)


@given(data=st.data(), q=st.sampled_from([2, 3, 4, 5, 7, 9, 13]), chunk=st.sampled_from([16, linalg.SPAN_CHUNK]))
@settings(max_examples=80, deadline=None)
def test_min_nonzero_weight_stack_matches_distributions(data, q, chunk):
    # code by code, the stacked minima are the first nonzero weights of the
    # codes' weight distributions; at chunk 16 a batch holds 64 words of
    # low spans, so the stack crosses batch boundaries; codes may take more
    # than one lane, repeat a row, or have no nonzero word (then it raises)
    F = field_from_order(q)
    per = 64 // (q - 1).bit_length()
    k = data.draw(st.integers(1, max(1, int(math.log(512, q)))))
    n = data.draw(st.integers(1, 2 * per + 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "SPAN_CHUNK", chunk)
        j = min(linalg._low_rows(q, k), -(-k // 2))
        batch = max(1, 4 * chunk // q**j)
        c = data.draw(st.integers(1, min(3 * batch + 1, 40)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        stack = rng.integers(0, q, (c, k, n))
        if k > 1:
            repeat = rng.random(c) < 0.5
            stack[repeat, -1] = stack[repeat, 0]
        counts = np.array([linalg.weight_distribution(F, basis) for basis in stack])
        if counts[:, 1:].any(axis=1).all():
            got = linalg.min_nonzero_weight(F, stack)
            assert got.dtype == np.int64
            assert got.tolist() == [first_nonzero_weight(row) for row in counts]
        else:
            with pytest.raises(NoNonzeroWords):
                linalg.min_nonzero_weight(F, stack)


@pytest.mark.parametrize("chunk", [16, linalg.SPAN_CHUNK])
@pytest.mark.parametrize("q", [2, 3, 9])
def test_min_nonzero_weight_stack_with_a_zero_code_raises(monkeypatch, chunk, q):
    # one zero code raises, first in the stack or in its last batch; without
    # it the stack gives each code's minimum, as one basis at a time does
    monkeypatch.setattr(linalg, "SPAN_CHUNK", chunk)
    F = field_from_order(q)
    stack = np.random.default_rng(q).integers(0, q, (30, 3, 8))
    want = [linalg.min_nonzero_weight(F, basis) for basis in stack]
    assert linalg.min_nonzero_weight(F, stack).tolist() == want
    for i in (0, len(stack) - 1):
        zeroed = stack.copy()
        zeroed[i] = 0
        with pytest.raises(NoNonzeroWords):
            linalg.min_nonzero_weight(F, zeroed)


def test_residual():
    # rows of the row space reduce to zero, and every residual vanishes on the pivots
    F = field_from_order(5)
    M = np.array([[1, 2, 3], [0, 1, 4]], dtype=np.int64)
    R, piv = linalg.rref(F, M)
    res = linalg.residual(F, R, piv, [(2, 4, 6 % 5), (0, 0, 1), (1, 1, 1)])
    assert res.shape == (3, 3) and not res[:, list(piv)].any()
    assert [bool(r.any()) for r in res] == [False, True, True]
    assert linalg.residual(F, R, piv, (0, 0, 1)).tolist() == [[0, 0, 1]]
    empty = np.zeros((0, 3), dtype=np.int64)
    assert linalg.residual(F, empty, (), (3, 0, 1)).tolist() == [[3, 0, 1]]
