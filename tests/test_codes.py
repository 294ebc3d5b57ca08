import itertools
import random
from collections import Counter

import numpy as np
import pytest

from conftest import get_algebra

from cdcodes import codes, linalg
from cdcodes.algebra import SELF_CONJ, Mat2, TwistedDihedralAlgebra
from cdcodes.analysis import census_K_le_delta
from cdcodes.codes import (
    BetaVector,
    LinearCode,
    assemble_code,
    beta_at,
    build_C0,
    build_Ct,
    build_lcd_code,
    build_plain_code,
    build_self_dual_code,
    component_of_code,
    dual_code,
    enumerate_beta,
    hull_dimension,
    k_star_size,
    kt_fields,
)
from cdcodes.errors import BlockCollision, DimensionMismatch, HypothesisUnmet, InvalidBeta
from cdcodes.field import field_from_order


# -- K_t ------------------------------------------------------------------------


def test_kt_selfconj_order():
    A = get_algebra(3, 5)
    (kt,) = kt_fields(A)
    assert kt.order == 81  # dim FHe = 4
    assert k_star_size([kt]) == 80
    assert kt.element(kt.identity_code) == kt.comp.identity


def test_kt_paired_order():
    A = get_algebra(7, 3)
    (kt,) = kt_fields(A)
    assert kt.order == 49
    assert k_star_size([kt]) == 48
    assert kt.element(kt.identity_code) == kt.comp.identity


def test_kt_basis_spans():
    for q, n in ((7, 3), (3, 5)):
        A = get_algebra(q, n)
        (kt,) = kt_fields(A)
        basis = kt.basis()
        assert len(basis) == 2 * kt.comp.k
        words = np.array([b.to_word() for b in basis], dtype=np.int64)
        assert linalg.rank(A.field, words) == len(basis)
        assert all(kt.comp.contains(b) for b in basis)


def test_kt_closed_under_multiplication():
    A = get_algebra(4, 3)  # paired block over GF(4), K_t of order 16
    (kt,) = kt_fields(A)
    elems = {kt.element(c).to_word() for c in range(kt.order)}
    assert len(elems) == kt.order
    sample = [kt.element(c) for c in range(kt.order)]
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
    assert A.v() * gen == gen.scale(2)


def test_build_C0_absent_for_q7():
    A = get_algebra(7, 3)
    assert build_C0(A.decompose()[0]) is None


def test_build_C0_gf2():
    A = get_algebra(2, 7)
    comp0 = A.decompose()[0]
    gen = build_C0(comp0)
    assert gen == A.elem(comp0.e, comp0.e)  # r = 1


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
    assert dual_code(code) == code


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


def test_assemble_c0_unavailable():
    A = get_algebra(7, 3)
    with pytest.raises(HypothesisUnmet):
        assemble_code(A, codes.standard_parts(A), include_C0=True)


# -- duals and hulls -----------------------------------------------------------------------------


def test_dual_involution(rng):
    A = get_algebra(5, 3)
    for _ in range(10):
        rows = [[rng.randrange(5) for _ in range(6)] for _ in range(3)]
        code = LinearCode.from_rows(A.field, np.array(rows, dtype=np.int64))
        assert dual_code(dual_code(code)) == code
        assert dual_code(code).k_dim == 6 - code.k_dim


def test_dual_of_full_space_is_zero():
    F = field_from_order(3)
    full = LinearCode.from_rows(F, np.eye(4, dtype=np.int64))
    d = dual_code(full)
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


# -- twisting ----------------------------------------------------------------------------------------


def test_twist_identity_is_noop():
    A = get_algebra(7, 3)
    kts = kt_fields(A)
    parts = codes.standard_parts(A)
    base = assemble_code(A, parts)
    assert assemble_code(A, parts, beta=BetaVector.identity(kts)) == base


def test_twist_orbit_covers_each_ideal_q_minus_1_times():
    A = get_algebra(7, 3)
    kts = kt_fields(A)
    parts = codes.standard_parts(A)
    counter = Counter()
    for beta in enumerate_beta(kts):
        counter[assemble_code(A, parts, beta=beta).key()] += 1
    assert len(counter) == 8  # q + 1 simple left ideals
    assert set(counter.values()) == {6}  # each appears q - 1 times


def test_kt_word_is_linear_in_digits():
    # the word of element(code) is the digit combination of the basis words
    for q, n in ((7, 3), (3, 5), (4, 3), (4, 5), (2, 7)):
        A = get_algebra(q, n)
        for kt in kt_fields(A):
            for c in range(kt.order):
                assert kt.word(c).tolist() == list(kt.element(c).to_word())


def test_beta_vector_component_is_lazy_oracle():
    # beta holds only its codes; beta_t is built on demand by KtField.element
    A = get_algebra(7, 3)
    kts = kt_fields(A)
    beta = BetaVector(kts, [5])
    assert vars(beta).keys() == {"kts", "codes"}
    assert beta.unit() == A.decompose()[0].identity + kts[0].element(5)


def test_beta_unit_is_e0_plus_components(rng):
    # unit() sums KtField.word; the oracle sums the matrix-isomorphism elements
    for q, n, tw in ((7, 3, -1), (3, 5, -1), (4, 5, -1), (2, 7, -1), (5, 7, 1), (9, 5, 1)):
        A = get_algebra(q, n, tw)
        kts = kt_fields(A)
        assert BetaVector.identity(kts).unit() == A.one()
        for _ in range(5):
            beta = BetaVector.random(kts, rng)
            total = A.decompose()[0].identity
            for kt, c in zip(beta.kts, beta.codes):
                total = total + kt.element(c)
            assert beta.unit() == total


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
    beta_t = {kt.comp.index: kt.element(c) for kt, c in zip(beta.kts, beta.codes)}
    gens = [build_Ct(c) * beta_t[c.index] for c in blocks]
    if family == "self-dual":
        if A.tw == -1 and q % 4 == 3:
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
    assert built["plain", False] and built["self-dual", False]
    if q in (3, 7):
        assert built["lcd", False] and built["lcd", True]


def _translate_path(A, parts, beta=None, include_C0=False, extra=()):
    """assemble_code's generator matrix the direct way: the rref of the
    translates of every g * beta, with C_0 and the extras taken verbatim."""
    gens = [f if beta is None else f * beta.unit() for _, f in parts]
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
        betas = [BetaVector.identity(kts)] + [BetaVector.random(kts, rng) for _ in range(3)]
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
    assert built["self-dual"] >= 4
    if (q, n) == (3, 7):
        assert built["lcd"] == built["lcd+a0"] == 8


def test_k_row_assembly_cache_tells_part_lists_apart():
    # two part lists on one fresh algebra: the same block with two different
    # generators, and different blocks, each against the translate path
    A = TwistedDihedralAlgebra(field_from_order(2), 9, -1)
    kts = kt_fields(A)
    c1, c2 = A.decompose()[1:]
    unit = kts[0].element(1)  # not in F_1*, so it moves the ideal
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
    scalars = [comp.iso_from_mat2(Mat2.identity(ft).scaled(a)) for a in ft.elements() if not a.is_zero()]
    assert len(scalars) == ft.order - 1
    code_of = {kt.element(c).to_word(): c for c in range(1, kt.order)}
    rest = [k.identity_code for k in kts[1:]]
    key = {
        c: assemble_code(A, parts, beta=BetaVector(kts, [c] + rest)).key() for c in range(1, kt.order)
    }
    for c in range(1, kt.order):
        beta_t = kt.element(c)
        orbit = {code_of[(s * beta_t).to_word()] for s in scalars}
        same_code = {d for d in range(1, kt.order) if key[d] == key[c]}
        assert same_code == orbit
    assert len(set(key.values())) == ft.order + 1


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
    comp_code = component_of_code(A, code, comp)
    expected = assemble_code(A, [(comp, build_Ct(comp))], beta=beta)
    assert comp_code == expected


# -- serialization ----------------------------------------------------------------------------------------------


def test_text_roundtrip(tmp_path):
    A = get_algebra(5, 3)
    code = build_self_dual_code(A)
    text = code.to_text()
    first = text.splitlines()[0].split()
    assert first == ["5", "6", "3"]
    back = LinearCode.from_text(A.field, text)
    assert back == code


def test_text_field_mismatch():
    A = get_algebra(5, 3)
    code = build_self_dual_code(A)
    with pytest.raises(DimensionMismatch):
        LinearCode.from_text(field_from_order(7), code.to_text())


def test_json_dict():
    A = get_algebra(5, 3)
    code = build_self_dual_code(A)
    d = code.to_json_dict()
    assert d["q"] == 5 and d["k_dim"] == 3 and len(d["gen"]) == 3
    assert d["origin"]["family"] == "self-dual"
