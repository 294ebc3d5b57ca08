import itertools
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import get_algebra, odd_coprime_grid
from oracles import (
    Mat2,
    beta_at,
    contains,
    dual,
    enumerate_beta,
    iso_from_mat2,
    kt_element,
    kt_identity_code,
    scaled,
    unit,
    v_elem,
)

from cdcodes import codes, linalg
from cdcodes.algebra import PAIRED, SELF_CONJ, TRIVIAL_SPLIT, TwistedDihedralAlgebra
from cdcodes.analysis import census_K_le_delta
from cdcodes.codes import (
    BetaVector,
    LinearCode,
    assemble_code,
    build_C0,
    build_Ct,
    build_lcd_code,
    build_plain_code,
    build_self_dual_code,
    hull_dimension,
    k_star_size,
    kt_fields,
)
from cdcodes.errors import BlockCollision, DimensionMismatch, DomainError, HypothesisUnmet, InvalidBeta, NotInComponent
from cdcodes.field import field_from_order


# -- K_t ------------------------------------------------------------------------


def test_kt_selfconj_order():
    A = get_algebra(3, 5)
    (kt,) = kt_fields(A)
    assert kt.order == 81  # dim FHe = 4
    assert k_star_size([kt]) == 80
    assert kt_element(kt, kt_identity_code(kt)) == kt.comp.identity


def test_kt_paired_order():
    A = get_algebra(7, 3)
    (kt,) = kt_fields(A)
    assert kt.order == 49
    assert k_star_size([kt]) == 48
    assert kt_element(kt, kt_identity_code(kt)) == kt.comp.identity


def test_kt_basis_spans():
    for q, n in ((7, 3), (3, 5)):
        A = get_algebra(q, n)
        (kt,) = kt_fields(A)
        words = kt.basis_words()
        assert words.shape == (2 * kt.comp.k, 2 * n) and words.dtype == np.int64
        assert linalg.rank(A.field, words) == len(words)
        assert all(contains(kt.comp, A.from_word(w)) for w in words)
        assert not words.flags.writeable


def test_kt_tables_are_built_once_per_block(monkeypatch):
    # each block caches its K_t, so a second census rebuilds none of its tables
    built = Counter()
    real = codes._mul_table

    def counting(ft):
        built[ft.label] += 1
        return real(ft)

    monkeypatch.setattr(codes, "_mul_table", counting)
    A = TwistedDihedralAlgebra(field_from_order(2), 9, -1)
    for _ in range(2):
        census_K_le_delta(A, delta=0.3)
    comps = A.decompose()[1:]
    assert len(comps) == 2 and built == Counter(c.ft.label for c in comps)
    assert set(built.values()) == {1}
    assert [kt.comp for kt in kt_fields(A)] == comps and kt_fields(A) == kt_fields(A)


def test_kt_closed_under_multiplication():
    A = get_algebra(4, 3)  # paired block over GF(4), K_t of order 16
    (kt,) = kt_fields(A)
    elems = {kt_element(kt, c).to_word() for c in range(kt.order)}
    assert len(elems) == kt.order
    sample = [kt_element(kt, c) for c in range(kt.order)]
    for x in sample:
        for y in sample:
            assert (x * y).to_word() in elems


# -- C_0 ------------------------------------------------------------------------------


def test_build_C0_gf5():
    A = get_algebra(5, 3)
    comp0 = A.decompose()[0]
    gen = build_C0(comp0)
    e0 = comp0.e
    assert gen == A.elem(e0.scale(2), e0)  # r = 2
    assert gen.inner(gen) == 0
    # one-dimensional ideal: v gen is a scalar multiple of gen
    assert v_elem(A) * gen == scaled(gen, 2)


def test_build_C0_absent_for_q7():
    A = get_algebra(7, 3)
    assert build_C0(A.decompose()[0]) is None


def test_build_C0_gf2():
    A = get_algebra(2, 7)
    comp0 = A.decompose()[0]
    gen = build_C0(comp0)
    assert gen == A.elem(comp0.e, comp0.e)  # r = 1


def test_block_constructions_refuse_the_other_kind_of_block():
    # C_0's generator cached on A_0 must not pass for a C_t
    A = TwistedDihedralAlgebra(field_from_order(2), 7, -1)
    comp0, comp1 = A.decompose()[:2]
    assert build_C0(comp0) is not None
    with pytest.raises(NotInComponent, match="matrix block"):
        build_Ct(comp0)
    with pytest.raises(NotInComponent, match="matrix blocks"):
        codes.KtField(comp0)
    with pytest.raises(NotInComponent, match="trivial block"):
        build_C0(comp1)


def test_the_zero_code_needs_a_length():
    F = field_from_order(3)
    with pytest.raises(DimensionMismatch, match="explicit length"):
        LinearCode.from_rows(F, [])
    assert LinearCode.from_rows(F, [], n_len=4).gen.shape == (0, 4)


# -- C_t ---------------------------------------------------------------------------------


def test_build_Ct_paired_dim():
    A = get_algebra(7, 3)
    comp = A.decompose()[1]
    code = assemble_code(A, [(comp, build_Ct(comp))])
    assert code.k_dim == 2 * comp.k == 2


def test_build_Ct_selfconj_dim_and_orthogonality():
    A = get_algebra(3, 5)
    comp = A.decompose()[1]
    code = assemble_code(A, [(comp, build_Ct(comp))])
    assert code.k_dim == 2 * comp.k == 4
    assert hull_dimension(code) == code.k_dim  # 4 | (3^2 - 1): self-orthogonal


def test_build_Ct_is_cached_on_the_block():
    # one AlgElem per block, built on the first call, its word read-only;
    # the oracle is the generator formula on each kind of block
    A = TwistedDihedralAlgebra(field_from_order(2), 15, -1)
    kinds = set()
    for comp in A.decompose()[1:]:
        gen = build_Ct(comp)
        assert build_Ct(comp) is gen
        assert not gen.word.flags.writeable
        with pytest.raises(ValueError):
            gen.word[0] = 1
        if comp.kind == SELF_CONJ:
            assert gen == A.elem(comp.s - comp.s_prime * comp.ue, comp.e)
        else:
            assert gen == A.embed_fh(comp.e)
        kinds.add(comp.kind)
    assert kinds == {SELF_CONJ, PAIRED}


@pytest.mark.parametrize(
    "q, n, builder",
    [(2, 15, build_plain_code), (5, 9, build_self_dual_code), (3, 7, build_lcd_code), (7, 11, build_lcd_code)],
)
def test_family_builders_give_equal_codes_twice(q, n, builder):
    # the second call reuses the cached block generators and gives the same code
    A = TwistedDihedralAlgebra(field_from_order(q), n, -1)
    beta = BetaVector.random(kt_fields(A), random.Random(q * n))
    first, second = builder(A, beta), builder(A, beta)
    assert first == second and first.origin == second.origin
    assert first == builder(TwistedDihedralAlgebra(field_from_order(q), n, -1), beta)


def test_selfconj_ideals_always_self_orthogonal():
    # Every simple-ideal summand is self-orthogonal (bar acts as the
    # adjugate), including blocks with q^k = 3 mod 4.
    for q, n in ((3, 7), (7, 11), (3, 5)):
        A = get_algebra(q, n)
        for comp in A.decompose()[1:]:
            code = assemble_code(A, [(comp, build_Ct(comp))])
            assert hull_dimension(code) == code.k_dim


# -- assembly ------------------------------------------------------------------------------


def test_assemble_full_C_dim():
    A = get_algebra(7, 3)
    code = build_plain_code(A)
    assert code.k_dim == A.n - 1 == 2


def test_assemble_Chat_self_dual():
    A = get_algebra(5, 3)
    code = build_self_dual_code(A)
    assert code.k_dim == 3
    assert 2 * code.k_dim == code.n_len and hull_dimension(code) == code.k_dim
    assert dual(code) == code


def test_assemble_empty_errors():
    A = get_algebra(7, 3)
    with pytest.raises(BlockCollision):
        assemble_code(A, [])


def test_assemble_block_collision():
    A = get_algebra(7, 3)
    comp = A.decompose()[1]
    f = build_Ct(comp)
    with pytest.raises(BlockCollision):
        assemble_code(A, [(comp, f), (comp, f)])


def test_assemble_rejects_parts_that_overlap():
    # both parts' generators span block 1's ideal: the sum is not direct, so
    # the assembled dimension 2 k_1 = 2 falls short of 2 k_1 + 2 k_2 = 8
    A = get_algebra(2, 9)
    c1, c2 = A.decompose()[1:]
    assert (c1.k, c2.k) == (1, 3)
    g = build_Ct(c1)
    with pytest.raises(AssertionError, match="assembled dim 2, expected 8"):
        assemble_code(A, [(c1, g), (c2, g)])


def test_assemble_c0_unavailable():
    A = get_algebra(7, 3)
    with pytest.raises(HypothesisUnmet):
        assemble_code(A, codes.standard_parts(A), a0="C0")


def test_assemble_a0_choices():
    # A_0's choice adds nothing, C_0 or the whole block to the parts' ideal;
    # any other choice is refused
    A = get_algebra(5, 3)
    parts = codes.standard_parts(A)
    comp0 = A.decompose()[0]
    for a0, extra, dim in ((None, [], 2), ("C0", [build_C0(comp0)], 3), ("A0", [comp0.identity], 4)):
        code = assemble_code(A, parts, a0=a0)
        want = LinearCode.from_rows(A.field, A.left_ideal_rows([g for _, g in parts] + extra))
        assert code == want and code.k_dim == dim
        assert code.origin["include_C0"] == (a0 == "C0")
    assert assemble_code(A, [], a0="A0").k_dim == 2
    with pytest.raises(DomainError):
        assemble_code(A, parts, a0="C_0")


@pytest.mark.parametrize("a0", [None, "C0", "A0"])
@pytest.mark.parametrize("tw", [-1, 1])
@pytest.mark.parametrize("q, n", [(5, 3), (3, 5)])
def test_assemble_stack_matches_assemble_code(monkeypatch, q, n, tw, a0):
    # every beta of K*, in chunks of six, against the one-beta path; C_0 on
    # v^2 = -1 at q = 3 fails on both paths
    monkeypatch.setattr(linalg, "SPAN_CHUNK", 12 * n)
    A = get_algebra(q, n, tw)
    kts = kt_fields(A)
    parts = codes.standard_parts(A)
    betas = list(enumerate_beta(kts))
    stack = np.array([beta.codes for beta in betas])
    if a0 == "C0" and A.decompose()[0].kind != TRIVIAL_SPLIT:
        assert (q, tw) == (3, -1)
        with pytest.raises(HypothesisUnmet):
            assemble_code(A, parts, a0=a0)
        with pytest.raises(HypothesisUnmet):
            next(codes.assemble_stack(A, parts, a0, kts, stack))
        return
    want = np.array([assemble_code(A, parts, a0=a0, beta=beta).gen for beta in betas])
    chunks = list(codes.assemble_stack(A, parts, a0, kts, stack))
    assert [s for s, _ in chunks] == list(range(0, len(betas), 6))
    got = np.concatenate([R for _, R in chunks])
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("q, n", [(5, 3), (2, 7)])
def test_assemble_stack_raises_on_a_twist_that_drops_the_rank(q, n):
    # code 0 is no unit: its L(beta) kills that block's part of the ideal,
    # so the twisted rank falls below k, and the pass raises rather than
    # yield a smaller code
    A = get_algebra(q, n)
    kts = kt_fields(A)
    parts = codes.standard_parts(A)
    stack = np.ones((3, len(kts)), dtype=np.int64)
    assert [R.shape for _, R in codes.assemble_stack(A, parts, None, kts, stack)] == [(3, n - 1, 2 * n)]
    stack[1, -1] = 0
    with pytest.raises(AssertionError, match="twisted ranks"):
        list(codes.assemble_stack(A, parts, None, kts, stack))


# -- duals and hulls -----------------------------------------------------------------------------


def test_dual_involution(rng):
    A = get_algebra(5, 3)
    for _ in range(10):
        rows = [[rng.randrange(5) for _ in range(6)] for _ in range(3)]
        code = LinearCode.from_rows(A.field, np.array(rows, dtype=np.int64))
        assert dual(dual(code)) == code
        assert dual(code).k_dim == 6 - code.k_dim


def test_dual_of_full_space_is_zero():
    F = field_from_order(3)
    full = LinearCode.from_rows(F, np.eye(4, dtype=np.int64))
    d = dual(full)
    assert d.k_dim == 0
    assert hull_dimension(d) == 0


def test_hull_zero_code():
    F = field_from_order(3)
    z = LinearCode.from_rows(F, np.zeros((1, 4), dtype=np.int64), n_len=4)
    assert z.k_dim == 0 and hull_dimension(z) == 0


def test_hull_self_dual_example():
    A = get_algebra(5, 3)
    code = build_self_dual_code(A)
    assert hull_dimension(code) == 3 == code.k_dim


def brute_hull(code: LinearCode) -> int:
    """log_q #{c in C : c . g^T = 0 for every row g of G}, the words enumerated."""
    q = code.field.q
    words = linalg.enumerate_span(code.field, code.gen)
    count = int((~linalg.matmul(code.field, words, code.gen.T).any(axis=1)).sum())
    dim = round(np.log(count) / np.log(q))
    assert q**dim == count
    return dim


@given(data=st.data(), q=st.sampled_from([2, 3, 4, 5, 9]))
@settings(max_examples=60, deadline=None)
def test_hull_dimension_vs_bruteforce(data, q):
    F = field_from_order(q)
    n = data.draw(st.integers(1, 7))
    rows = data.draw(st.integers(1, min(n, int(np.log(60000) / np.log(q)))))
    M = np.array(
        data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n), min_size=rows, max_size=rows)),
        dtype=np.int64,
    )
    code = LinearCode.from_rows(F, M)
    assert hull_dimension(code) == brute_hull(code)


@pytest.mark.parametrize(
    "q, rows, hull",
    [
        (3, np.zeros((1, 5), dtype=np.int64), 0),  # k = 0
        (4, np.eye(5, dtype=np.int64), 0),  # k = n_len: C-perp = 0
        (3, [[1, 1, 0, 0], [0, 0, 1, 0]], 0),  # LCD: G G^T is invertible
        (5, [[1, 2, 0, 0], [0, 0, 1, 3]], 2),  # self-dual: 1 + 2^2 = 1 + 3^2 = 0 mod 5
        # the [7, 4] Hamming code contains its dual, the [7, 3] simplex code
        (2, [[1, 0, 0, 0, 1, 1, 0], [0, 1, 0, 0, 1, 0, 1], [0, 0, 1, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 1]], 3),
        (3, [[1, 1, 1, 0], [0, 0, 0, 1]], 1),  # 0 < hull < k
    ],
    ids=["zero", "full", "lcd", "self-dual", "hamming-contains-dual", "partial"],
)
def test_hull_dimension_explicit_cases(q, rows, hull):
    F = field_from_order(q)
    code = LinearCode.from_rows(F, np.array(rows, dtype=np.int64), n_len=np.shape(rows)[1])
    assert hull_dimension(code) == brute_hull(code) == hull
    if hull == code.n_len - code.k_dim:  # C-perp inside C
        assert not linalg.residual(F, code.gen, code.pivots, dual(code).gen).any()


def test_hull_dimension_reduces_the_kernel_basis_only(monkeypatch):
    cases = [
        build_plain_code(get_algebra(7, 3)),
        build_self_dual_code(get_algebra(5, 3)),
        build_lcd_code(get_algebra(3, 7)),
    ]
    # a canonical dual would take a third rref, of the kernel basis
    rref, calls = linalg.rref, []

    def counting(*args, **kwargs):
        calls.append(args)
        return rref(*args, **kwargs)

    monkeypatch.setattr(linalg, "rref", counting)
    for code in cases:
        calls.clear()
        assert hull_dimension(code) == code.k_dim
        assert len(calls) == 2  # the residual and the Gram matrix


# -- twisting ----------------------------------------------------------------------------------------


def test_twist_identity_is_noop():
    A = get_algebra(7, 3)
    kts = kt_fields(A)
    parts = codes.standard_parts(A)
    base = assemble_code(A, parts)
    assert assemble_code(A, parts, beta=BetaVector(kts, [kt_identity_code(kt) for kt in kts])) == base


def test_twist_orbit_covers_each_ideal_q_minus_1_times():
    A = get_algebra(7, 3)
    kts = kt_fields(A)
    parts = codes.standard_parts(A)
    counter = Counter()
    for beta in enumerate_beta(kts):
        counter[assemble_code(A, parts, beta=beta).key()] += 1
    assert len(counter) == 8  # q + 1 simple left ideals
    assert set(counter.values()) == {6}  # each appears q - 1 times


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 13])
def test_basis_words_match_the_isomorphism(q):
    # the closed-form basis words are the isomorphism's elements of the codes
    # q^i, and the unit words of seeded codes on every block at once are e_0
    # plus the isomorphism's elements; codes past int64 are drawn too
    rng = random.Random(q)
    kinds = set()
    for n in odd_coprime_grid(q, 21):
        for tw in (-1, 1):
            A = get_algebra(q, n, tw)
            kts = kt_fields(A)
            for kt in kts:
                kinds.add(kt.comp.kind)
                B = kt.basis_words()
                assert B.shape == (2 * kt.comp.k, 2 * n) and B.dtype == np.int64
                for i, word in enumerate(B):
                    assert np.array_equal(word, kt_element(kt, q**i).word), (n, tw, kt.comp.index, i)
            stack = [[rng.randrange(1, kt.order) for kt in kts] for _ in range(50)]
            words = codes.unit_words(kts, stack)
            assert words.shape == (50, 2 * n) and words.dtype == np.int64
            e0 = A.decompose()[0].identity
            for row, word in zip(stack, words):
                want = e0
                for kt, c in zip(kts, row):
                    want = want + kt_element(kt, c)
                assert np.array_equal(word, want.word), (n, tw, row)
    assert kinds == {PAIRED, SELF_CONJ}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 13])
def test_kt_tables_match_the_element_wise_construction(q):
    # basis_words, g' and class_ids (where |K_t| <= 200,000) against their
    # construction one element product at a time, on every block of odd
    # n <= 21, v^2 = +-1; g' against the root criterion where |F_t| <= 4096
    blocks = Counter()
    for n in odd_coprime_grid(q, 21):
        for tw in (-1, 1):
            for kt in kt_fields(get_algebra(q, n, tw)):
                where = (n, tw, kt.comp.index)
                assert np.array_equal(kt.basis_words(), oracles.kt_basis_words(kt)), where
                if kt.order <= 200_000:
                    assert kt.class_ids() == oracles.kt_class_ids(kt), where
                    blocks["class_ids"] += 1
                if kt.comp.kind == PAIRED and kt.comp.ft.order <= 4096:
                    assert kt.g_prime == oracles.first_irreducible_g(kt.comp.ft), where
                    blocks["g_prime"] += 1
    assert blocks["class_ids"] and blocks["g_prime"], blocks


def test_kt_word_is_linear_in_digits():
    # the oracle's element of a code is the digit combination of the basis words
    for q, n in ((7, 3), (3, 5), (4, 3), (4, 5), (2, 7)):
        A = get_algebra(q, n)
        for kt in kt_fields(A):
            B = kt.basis_words()
            for c in range(kt.order):
                digits = [c // q**i % q for i in range(len(B))]
                assert kt_element(kt, c).word.tolist() == linalg.matmul(A.field, digits, B)[0].tolist()


@pytest.mark.parametrize("q, n, kind", [(7, 3, "paired"), (4, 3, "paired"), (3, 5, SELF_CONJ), (4, 5, SELF_CONJ)])
def test_kt_words_are_the_words_of_each_code(q, n, kind):
    # the stacked unit words of a whole K_t, in any order, are e_0 plus its
    # one-code words; the other blocks take code 0, whose element is 0
    A = get_algebra(q, n)
    kts = kt_fields(A)
    kt = kts[0]
    assert kt.comp.kind == kind
    stack = np.zeros((kt.order, len(kts)), dtype=np.int64)
    stack[:, 0] = np.random.default_rng(q * n).permutation(kt.order)
    words = codes.unit_words(kts, stack)
    assert words.shape == (kt.order, 2 * n) and words.dtype == np.int64
    e0 = A.decompose()[0].identity
    assert words.tolist() == [(e0 + kt_element(kt, c)).word.tolist() for c in stack[:, 0].tolist()]
    assert codes.unit_words(kts, stack[:0]).shape == (0, 2 * n)


def test_beta_vector_component_is_lazy_oracle():
    # beta holds only its codes; beta_t is built on demand from the basis words
    A = get_algebra(7, 3)
    kts = kt_fields(A)
    beta = BetaVector(kts, [5])
    assert vars(beta).keys() == {"kts", "codes"}
    assert unit(beta) == A.decompose()[0].identity + kt_element(kts[0], 5)


def test_beta_unit_is_e0_plus_components(rng):
    # unit() is digits times basis words; the oracle sums the matrix-isomorphism elements
    for q, n, tw in ((7, 3, -1), (3, 5, -1), (4, 5, -1), (2, 7, -1), (5, 7, 1), (9, 5, 1)):
        A = get_algebra(q, n, tw)
        kts = kt_fields(A)
        assert unit(BetaVector(kts, [kt_identity_code(kt) for kt in kts])) == A.one()
        for _ in range(5):
            beta = BetaVector.random(kts, rng)
            total = A.decompose()[0].identity
            for kt, c in zip(beta.kts, beta.codes):
                total = total + kt_element(kt, c)
            assert unit(beta) == total


@pytest.mark.parametrize("q, ns", [(2, (7, 5, 15)), (3, (13, 5)), (4, (3, 5)), (9, (7, 5))])
@pytest.mark.parametrize("tw", [-1, 1])
def test_unit_words_are_e0_plus_kt_words(q, ns, tw):
    # one product over every block equals the sum of the one-block words
    rng = np.random.default_rng(q)
    kinds = set()
    for n in ns:
        A = get_algebra(q, n, tw)
        kts = kt_fields(A)
        kinds.update(kt.comp.kind for kt in kts)
        twists = np.stack([rng.integers(1, kt.order, 12) for kt in kts], axis=1)
        words = codes.unit_words(kts, twists)
        assert words.shape == (12, 2 * n) and words.dtype == np.int64
        add = A.field.tables().add
        for row, word in zip(twists.tolist(), words):
            want = A.decompose()[0].identity.word
            for kt, c in zip(kts, row):
                want = add[want, kt_element(kt, c).word]
            assert np.array_equal(word, want)
            assert np.array_equal(unit(BetaVector(kts, row)).word, want)
    assert kinds == {SELF_CONJ, PAIRED}


def _product_oracle(A, family, beta, include_a0=False):
    """The family's code with every part generator twisted by an AlgElem
    product g * beta_t, then row-reduced; None when the family does not exist."""
    comps = A.decompose()
    q = A.field.q
    if family == "lcd":
        if q % 4 != 3:
            return None
        blocks = [c for c in comps[1:] if c.kind == SELF_CONJ and c.k % 2 == 1]
        if not blocks:
            return None
    else:
        blocks = comps[1:]
    beta_t = {kt.comp.index: kt_element(kt, c) for kt, c in zip(beta.kts, beta.codes)}
    gens = [build_Ct(c) * beta_t[c.index] for c in blocks]
    if family == "self-dual":
        if q % 2 and (A.tw == 1 or q % 4 == 3):
            return None
        gens.append(build_C0(comps[0]))
    if include_a0:
        gens.append(comps[0].identity)
    return LinearCode.from_rows(A.field, A.left_ideal_rows(gens))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_linear_twist_matches_product_oracle(q):
    ns = {2: (7, 9, 15), 3: (5, 7, 11), 4: (3, 5, 7), 5: (3, 7, 9), 7: (3, 5, 11), 9: (5, 7)}[q]
    rng = random.Random(q)
    built = Counter()
    for n in ns:
        for tw in (-1, 1):
            A = get_algebra(q, n, tw)
            kts = kt_fields(A)
            cases = [
                ("plain", build_plain_code, {}),
                ("self-dual", build_self_dual_code, {}),
                ("lcd", build_lcd_code, {}),
                ("lcd", build_lcd_code, {"include_a0": True}),
            ]
            for family, builder, kw in cases:
                for _ in range(3):
                    beta = BetaVector.random(kts, rng)
                    want = _product_oracle(A, family, beta, **kw)
                    if want is None:
                        with pytest.raises(HypothesisUnmet):
                            builder(A, beta, **kw)
                        continue
                    got = builder(A, beta, **kw)
                    assert got.gen.shape == want.gen.shape
                    assert np.array_equal(got.gen, want.gen), (q, n, tw, family, kw, beta)
                    built[family, bool(kw)] += 1
    assert built["plain", False] and bool(built["self-dual", False]) == (q not in (3, 7))
    if q in (3, 7):
        assert built["lcd", False] and built["lcd", True]


def _translate_path(A, parts, beta=None, include_C0=False, extra=()):
    """assemble_code's generator matrix the direct way: the rref of the
    translates of every part's g * beta, with C_0 and the extras taken
    verbatim (beta fixes A_0)."""
    gens = [f if beta is None else f * unit(beta) for _, f in parts]
    if include_C0:
        gens.append(build_C0(A.decompose()[0]))
    gens.extend(extra)
    R, _ = linalg.rref(A.field, A.left_ideal_rows(gens))
    return R


# the criterion-8 census grid plus (2, 15) and (4, 7)
K_ROW_GRID = [(5, 3), (7, 3), (13, 3), (3, 5), (2, 7), (2, 9), (3, 7), (2, 11), (7, 5), (2, 15), (4, 7)]


@pytest.mark.parametrize("q, n", K_ROW_GRID)
def test_k_row_assembly_matches_translate_path(q, n):
    # C beta from the k rows G . L(beta) equals the rref of all translates
    rng = random.Random(q * 100 + n)
    built = Counter()
    for tw in (-1, 1):
        A = get_algebra(q, n, tw)
        kts = kt_fields(A)
        comps = A.decompose()
        qualifying = [(c, build_Ct(c)) for c in comps[1:] if c.kind == SELF_CONJ and c.k % 2 == 1]
        cases = [
            ("plain", build_plain_code, {}, codes.standard_parts(A), False, ()),
            ("self-dual", build_self_dual_code, {}, codes.standard_parts(A), True, ()),
            ("lcd", build_lcd_code, {}, qualifying, False, ()),
            ("lcd+a0", build_lcd_code, {"include_a0": True}, qualifying, False, (comps[0].identity,)),
        ]
        one = BetaVector(kts, [kt_identity_code(kt) for kt in kts])
        betas = [one] + [BetaVector.random(kts, rng) for _ in range(3)]
        for family, builder, kw, parts, c0, extra in cases:
            for beta in betas:
                try:
                    got = builder(A, beta, **kw)
                except HypothesisUnmet:
                    break
                want = _translate_path(A, parts, beta, include_C0=c0, extra=extra)
                assert got.gen.dtype == want.dtype and got.gen.tobytes() == want.tobytes(), (tw, family, beta)
                built[family] += 1
    assert built["plain"] == 8
    # v^2 = -1 for q even or 4 | q - 1, and v^2 = +1 for q even only
    assert built["self-dual"] == (8 if q % 2 == 0 else 4 if q % 4 == 1 else 0)
    if (q, n) == (3, 7):
        assert built["lcd"] == built["lcd+a0"] == 8


def test_k_row_assembly_cache_tells_part_lists_apart():
    # two part lists on one fresh algebra: the same block with two different
    # generators, and different blocks, each against the translate path
    A = TwistedDihedralAlgebra(field_from_order(2), 9, -1)
    kts = kt_fields(A)
    c1, c2 = A.decompose()[1:]
    unit = kt_element(kts[0], 1)  # not in F_1*, so it moves the ideal
    lists = [
        [(c1, build_Ct(c1))],
        [(c1, build_Ct(c1) * unit)],
        [(c2, build_Ct(c2))],
        [(c1, build_Ct(c1)), (c2, build_Ct(c2))],
    ]
    assert _translate_path(A, lists[0]).tobytes() != _translate_path(A, lists[1]).tobytes()
    for beta in (None, BetaVector.random(kts, random.Random(9))):
        for parts in lists + lists[::-1]:
            got = assemble_code(A, parts, beta=beta)
            assert got.gen.tobytes() == _translate_path(A, parts, beta).tobytes()


@pytest.mark.parametrize("q, n, kind", [(2, 7, "paired"), (4, 3, "paired"), (3, 5, SELF_CONJ), (7, 3, "paired"), (4, 5, SELF_CONJ)])
def test_twist_class_is_beta_modulo_Ft_star(q, n, kind):
    # C beta = C beta' iff beta' beta^-1 lies in F_t^*, the scalar matrices of
    # the block; the twist of one block is varied, the others stay at 1
    A = get_algebra(q, n)
    kts = kt_fields(A)
    parts = codes.standard_parts(A)
    kt = kts[0]
    comp = kt.comp
    assert comp.kind == kind
    ft = comp.ft
    scalars = [iso_from_mat2(comp, Mat2.identity(ft).scaled(ft.element(c))) for c in range(1, ft.order)]
    assert len(scalars) == ft.order - 1
    code_of = {kt_element(kt, c).to_word(): c for c in range(1, kt.order)}
    rest = [kt_identity_code(k) for k in kts[1:]]
    key = {
        c: assemble_code(A, parts, beta=BetaVector(kts, [c] + rest)).key() for c in range(1, kt.order)
    }
    ids = kt.class_ids()
    for c in range(1, kt.order):
        beta_t = kt_element(kt, c)
        orbit = {code_of[(s * beta_t).to_word()] for s in scalars}
        same_code = {d for d in range(1, kt.order) if key[d] == key[c]}
        assert same_code == orbit == {d for d in range(1, kt.order) if ids[d] == ids[c]}
    assert len(set(key.values())) == ft.order + 1


CLASS_TABLE_GRID = [
    # (q, n, kind of every block): prime and extension fields; the least q = 9
    # paired block has |K_t| = 9^6, too many codes to assemble one by one
    (2, 7, "paired"), (2, 5, SELF_CONJ), (3, 13, "paired"), (3, 5, SELF_CONJ),
    (4, 3, "paired"), (4, 5, SELF_CONJ), (7, 3, "paired"), (7, 5, SELF_CONJ),
    (9, 5, SELF_CONJ),
]


@pytest.mark.parametrize("tw", [-1, 1])
@pytest.mark.parametrize("q, n, kind", CLASS_TABLE_GRID)
def test_class_ids_are_the_twist_classes(q, n, kind, tw):
    # on every block, two codes share a class id iff twisting by them (the
    # other blocks at 1) assembles the same code; |F_t| + 1 ids
    A = get_algebra(q, n, tw)
    kts = kt_fields(A)
    parts = codes.standard_parts(A)
    assert {kt.comp.kind for kt in kts} == {kind}
    ones = [kt_identity_code(kt) for kt in kts]
    for i, kt in enumerate(kts):
        ids = kt.class_ids()
        assert len(ids) == kt.order and ids[0] == -1
        assert len(set(ids[1:])) == kt.comp.ft.order + 1
        keys = {}
        for c in range(1, kt.order):
            beta = BetaVector(kts, ones[:i] + [c] + ones[i + 1 :])
            keys.setdefault(ids[c], set()).add(assemble_code(A, parts, beta=beta).key())
        assert all(len(k) == 1 for k in keys.values())
        assert len(set.union(*keys.values())) == len(keys)


def test_assemble_code_memo_serves_a_class_without_rref(monkeypatch):
    # the memo is read, never filled: a hit returns the memo's code itself and
    # builds no unit, product or rref, and a miss is an error, not an assembly
    A = get_algebra(3, 5)
    kts = kt_fields(A)
    parts = codes.standard_parts(A)
    betas = list(enumerate_beta(kts))
    memo = {}
    for beta in betas:
        memo.setdefault(beta.twist_class(), assemble_code(A, parts, beta=beta, origin={"family": "plain"}))
    assert len(memo) == 10
    missing = betas[-1].twist_class()
    partial = {cls: code for cls, code in memo.items() if cls != missing}

    def boom(*args, **kwargs):
        raise AssertionError("computed on a hit")

    monkeypatch.setattr(linalg, "rref", boom)
    monkeypatch.setattr(codes, "unit_words", boom)
    monkeypatch.setattr(A, "translates", boom)
    monkeypatch.setattr(A, "ideal_rref", boom)
    for beta in betas:
        code = assemble_code(A, parts, beta=beta, memo=memo, origin={"family": "other"})
        assert code is memo[beta.twist_class()] and code.origin["family"] == "plain"
        if beta.twist_class() == missing:
            with pytest.raises(KeyError):
                assemble_code(A, parts, beta=beta, memo=partial)
        else:
            assert assemble_code(A, parts, beta=beta, memo=partial) is code
    assert len(memo) == 10 and len(partial) == 9


def test_twist_preserves_dimension(rng):
    A = get_algebra(3, 5)
    kts = kt_fields(A)
    parts = codes.standard_parts(A)
    for _ in range(20):
        beta = BetaVector.random(kts, rng)
        assert assemble_code(A, parts, beta=beta).k_dim == A.n - 1


@pytest.mark.parametrize("q, n", [(2, 9), (2, 15)])
def test_enumerate_beta_follows_the_census_order(q, n):
    # two and three blocks: one order of K*, block 1 fastest
    A = get_algebra(q, n)
    kts = kt_fields(A)
    res = census_K_le_delta(A, delta=0.5)
    assert [b.codes for b in enumerate_beta(kts)] == [codes_ for _, codes_, _, _ in res.rows]


def test_beta_at_covers_k_star_once():
    for q, n in ((7, 3), (3, 5), (4, 5), (2, 7), (2, 9)):
        kts = kt_fields(get_algebra(q, n))
        size = k_star_size(kts)
        seen = {beta_at(kts, i).codes for i in range(size)}
        assert len(seen) == size
        assert seen == set(itertools.product(*(range(1, kt.order) for kt in kts)))
        assert beta_at(kts, 1).codes[0] == 2  # block 1 fastest
        for bad in (-1, size):
            with pytest.raises(InvalidBeta):
                beta_at(kts, bad)


def test_linear_code_pivots_are_its_rref_pivots():
    F = field_from_order(5)
    rows = [[0, 2, 1, 0, 3], [0, 4, 2, 1, 1], [0, 0, 0, 0, 0]]
    code = LinearCode.from_rows(F, rows)
    assert code.pivots == linalg.rref(F, np.array(rows))[1] == (1, 3)
    assert LinearCode.from_rows(F, [], n_len=4).pivots == ()
    plain = build_plain_code(get_algebra(3, 7))
    assert plain.pivots == linalg.rref(plain.field, plain.gen)[1]


def test_invalid_beta():
    A = get_algebra(7, 3)
    kts = kt_fields(A)
    with pytest.raises(InvalidBeta):
        BetaVector(kts, [0])
    with pytest.raises(InvalidBeta):
        BetaVector(kts, [])


# -- family builders -------------------------------------------------------------------------------------


def test_lcd_family_construction_7_3():
    A = get_algebra(3, 7)
    code = build_lcd_code(A)
    assert code.k_dim == 6
    with_a0 = build_lcd_code(A, include_a0=True)
    assert with_a0.k_dim == 8


def test_lcd_family_rejections():
    with pytest.raises(HypothesisUnmet):
        build_lcd_code(get_algebra(3, 5))  # k = 2 even
    with pytest.raises(HypothesisUnmet):
        build_lcd_code(get_algebra(2, 7))  # q even
    with pytest.raises(HypothesisUnmet):
        build_lcd_code(get_algebra(5, 3))  # 4 | q - 1
    with pytest.raises(HypothesisUnmet):
        build_lcd_code(get_algebra(7, 3))  # paired block only


def test_self_dual_family_rejects_q3mod4():
    with pytest.raises(HypothesisUnmet):
        build_self_dual_code(get_algebra(7, 3))


# hull of the code C_0 + C_1 + ... + C_m on v^2 = +1, which is never self-dual for odd q
PLUS_ONE_HULLS = {(5, 7): 0, (3, 7): 0, (9, 5): 0, (5, 3): 0, (13, 3): 2, (7, 3): 2}


@pytest.mark.parametrize("q, n", list(PLUS_ONE_HULLS))
def test_self_dual_family_rejects_odd_q_on_v2_plus_1(q, n):
    # <C_0, C_0> = (r^2 + 1)/n = 2/n != 0 for odd q: the code would not be self-dual
    A = get_algebra(q, n, 1)
    with pytest.raises(HypothesisUnmet, match=r"v\^2 = \+1"):
        build_self_dual_code(A)
    code = assemble_code(A, codes.standard_parts(A), a0="C0")
    assert code.k_dim == n and hull_dimension(code) == PLUS_ONE_HULLS[q, n]


@pytest.mark.parametrize("q, n", [(2, 7), (4, 5)])
def test_self_dual_family_on_v2_plus_1_for_even_q(q, n, rng):
    # in characteristic 2 the algebras coincide and the family is self-dual
    A = get_algebra(q, n, 1)
    for beta in (None, BetaVector.random(kt_fields(A), rng)):
        code = build_self_dual_code(A, beta)
        assert code.k_dim == n and hull_dimension(code) == n


@pytest.mark.parametrize("q", [2, 4, 8, 16])
def test_characteristic_2_algebras_coincide(q):
    # -1 = +1 in characteristic 2, so v^2 = -1 and v^2 = +1 give one algebra:
    # equal decompositions and, for the same beta codes, equal codes
    rng = random.Random(q)
    pairs = 0
    for n in odd_coprime_grid(q, 29):
        algs = [get_algebra(q, n, tw) for tw in (-1, 1)]
        reports = [A.decomposition_report() for A in algs]
        assert [r.pop("v_squared") for r in reports] == [-1, 1]
        assert reports[0] == reports[1], n
        kts = [kt_fields(A) for A in algs]
        for _ in range(3):
            twist = [rng.randrange(1, kt.order) for kt in kts[0]]
            for builder in (build_plain_code, build_self_dual_code):
                consta, dihedral = (builder(A, BetaVector(k, twist)) for A, k in zip(algs, kts))
                assert np.array_equal(consta.gen, dihedral.gen), (n, twist, builder.__name__)
                pairs += 1
    assert pairs == 6 * 14


def test_self_orthogonal_family():
    code = build_plain_code(get_algebra(2, 7))
    assert hull_dimension(code) == code.k_dim == 6
    code = build_plain_code(get_algebra(3, 5))
    assert hull_dimension(code) == code.k_dim == 4
    # self-conjugate blocks with q^k = 3 mod 4 are self-orthogonal too
    for q, n, k in ((3, 7, 6), (7, 11, 10), (11, 3, 2)):
        code = build_plain_code(get_algebra(q, n))
        assert hull_dimension(code) == code.k_dim == k


def test_paired_block_ideals_self_orthogonal_all_beta():
    for q, n in ((7, 3), (13, 3)):
        A = get_algebra(q, n)
        kts = kt_fields(A)
        parts = codes.standard_parts(A)
        for beta in enumerate_beta(kts):
            code = assemble_code(A, parts, beta=beta)
            assert hull_dimension(code) == code.k_dim


# -- left-ideal property and component recovery --------------------------------------------------------------


def test_assembled_codes_are_left_ideals(rng):
    from cdcodes.analysis import is_left_ideal

    cases = [
        build_plain_code(get_algebra(7, 3)),
        build_self_dual_code(get_algebra(5, 3)),
        build_self_dual_code(get_algebra(13, 3)),
        build_lcd_code(get_algebra(3, 7)),
        build_self_dual_code(get_algebra(4, 7)),
        build_lcd_code(get_algebra(7, 11)),
    ]
    for code in cases:
        q = code.origin["q"]
        n = code.origin["n"]
        assert is_left_ideal(get_algebra(q, n), code)


def test_component_recovery(rng):
    A = get_algebra(3, 5)
    kts = kt_fields(A)
    parts = codes.standard_parts(A)
    beta = BetaVector.random(kts, rng)
    code = assemble_code(A, parts, beta=beta)
    comp = A.decompose()[1]
    rows = [(comp.identity * A.from_word(r)).word for r in code.gen]
    comp_code = LinearCode.from_rows(A.field, rows, n_len=code.n_len)
    expected = assemble_code(A, [(comp, build_Ct(comp))], beta=beta)
    assert comp_code == expected


# -- serialization ----------------------------------------------------------------------------------------------


def test_text_roundtrip(tmp_path):
    A = get_algebra(5, 3)
    code = build_self_dual_code(A)
    text = code.to_text()
    first = text.splitlines()[0].split()
    assert first == ["5", "6", "3"]
    back = LinearCode.from_text(text)
    assert back == code and back.field is A.field


def test_text_field_mismatch():
    # the header's q picks the field: the cached GF(q), so the loaded code
    # compares equal to the written one and a different q is a different field
    A = get_algebra(9, 5)
    code = build_self_dual_code(A)
    back = LinearCode.from_text(code.to_text())
    assert back.field is field_from_order(9) is A.field and back == code
    other = LinearCode.from_text("7" + code.to_text()[1:])
    assert other.field is field_from_order(7) and other != code


@pytest.mark.parametrize(
    "text",
    ["3 4 2\n1 0 1 2\n2 0 2 1\n", "3 4 1\n1 0 1 2\n9 9 9 9\n", "3 4 1\n1 0 1 2\n0 1 0 0\n"],
    ids=["dependent-rows", "extra-line", "extra-row"],
)
def test_text_declaring_another_code_is_refused(text):
    # rows of lower rank than the header's k, or lines after the k rows,
    # would load a different code than the file declares
    with pytest.raises(DimensionMismatch):
        LinearCode.from_text(text)
    assert LinearCode.from_text("3 4 1\n1 0 1 2\n\n").gen.tolist() == [[1, 0, 1, 2]]


def test_json_dict():
    A = get_algebra(5, 3)
    code = build_self_dual_code(A)
    d = code.to_json_dict()
    assert d["q"] == 5 and d["k_dim"] == 3 and len(d["gen"]) == 3
    assert d["origin"]["family"] == "self-dual"
