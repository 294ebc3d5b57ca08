import hashlib
import json
import math

import pytest

from conftest import get_algebra, odd_coprime_grid
from oracles import (
    Mat2,
    bar_via_matrix,
    halves,
    iso_from_mat2,
    iso_to_mat2,
    matrix_basis,
    norm_by_scan,
    random_elem,
    scaled,
    v_elem,
)

from cdcodes.algebra import (
    PAIRED,
    SELF_CONJ,
    TRIVIAL_FIELD,
    TRIVIAL_SPLIT,
    AlgElem,
    SubfieldView,
    TwistedDihedralAlgebra,
    solve_norm_equation,
)
from cdcodes import algebra
from cdcodes.cyclic import CyclicElem, conj_pairing
from cdcodes.errors import DegenerateG, DimensionMismatch, DomainError, GcdViolation, NotInComponent, NotPaired
from cdcodes.field import Poly, _minimal_ideal_rref, field_from_order
from cdcodes import linalg
import numpy as np


def scalar_view(q):
    """A plain field GF(q) presented as the n = 1 subfield of FH."""
    F = field_from_order(q)
    one = CyclicElem.one(F, 1)
    return SubfieldView(F, 1, one, one.coeffs[None], (0,), label=f"GF({q})")


# -- defining relations ------------------------------------------------------------


def test_consta_relations():
    A = get_algebra(7, 3)
    v, u = v_elem(A), A.u()
    assert v * v == scaled(A.one(), A.field.neg(1))
    assert v * u == A.u(-1) * v
    assert A.u(3) == A.one()


def test_dihedral_relations():
    D = get_algebra(7, 3, 1)
    v, u = v_elem(D), D.u()
    assert v * v == D.one()
    assert v * u == D.u(-1) * v


def test_associativity_distributivity(rng):
    A = get_algebra(3, 5)
    for _ in range(100):
        x, y, z = (random_elem(A, rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * A.one() == x == A.one() * x


# -- bar map -----------------------------------------------------------------------------


def test_bar_of_v():
    A = get_algebra(7, 3)
    assert v_elem(A).bar() == -v_elem(A)
    D = get_algebra(7, 3, 1)
    assert v_elem(D).bar() == v_elem(D)


def test_bar_involution_and_antihom(rng):
    A = get_algebra(7, 3)
    for _ in range(100):
        x, y = random_elem(A, rng), random_elem(A, rng)
        assert x.bar().bar() == x
        assert (x * y).bar() == y.bar() * x.bar()


# -- sigma and the inner product ------------------------------------------------------------


def test_sigma_examples():
    A = get_algebra(5, 3)
    assert A.one().word[0] == 1
    assert v_elem(A).word[0] == 0


def test_inner_examples(rng):
    A2 = get_algebra(2, 5)
    for _ in range(30):
        x = random_elem(A2, rng)
        w = sum(1 for c in x.to_word() if c) % 2
        assert x.inner(x) == w
    A = get_algebra(5, 3)
    assert v_elem(A).inner(v_elem(A)) == 1


def test_inner_equals_sigma_bar(rng):
    # includes (n, q) = (5, 5): the bilinear identity needs no semisimplicity
    for q, n in ((5, 5), (7, 3), (3, 5), (4, 7)):
        A = get_algebra(q, n)
        for _ in range(100):
            x, y = random_elem(A, rng), random_elem(A, rng)
            assert x.inner(y) == (x * y.bar()).word[0]
            assert x.inner(y) == (x.bar() * y).word[0]


def test_inner_adjoint_identity(rng):
    A = get_algebra(3, 7)
    for _ in range(100):
        d, x, y = (random_elem(A, rng) for _ in range(3))
        assert (d * x).inner(y) == x.inner(d.bar() * y)


# -- decomposition -------------------------------------------------------------------------


def test_decompose_3_gf7():
    comps = get_algebra(7, 3).decompose()
    assert [c.kind for c in comps] == [TRIVIAL_FIELD, PAIRED]
    assert comps[1].k == 1


def test_decompose_5_gf3():
    comps = get_algebra(3, 5).decompose()
    assert [c.kind for c in comps] == [TRIVIAL_FIELD, SELF_CONJ]
    assert comps[1].k == 2


def test_decompose_rejects_degenerate():
    with pytest.raises(GcdViolation):
        get_algebra(5, 1).decompose()
    with pytest.raises(GcdViolation):
        get_algebra(3, 9).decompose()


@pytest.mark.parametrize("tw", [0, 2, -2])
def test_algebra_rejects_a_twist_other_than_plus_or_minus_one(tw):
    # a CdcodesError like every library error, not a bare ValueError
    with pytest.raises(DomainError, match=r"tw must be \+1 or -1"):
        TwistedDihedralAlgebra(field_from_order(5), 3, tw)


@pytest.mark.parametrize("n", [0, -3])
def test_algebra_rejects_n_below_one(n):
    with pytest.raises(GcdViolation, match="positive integer"):
        TwistedDihedralAlgebra(field_from_order(5), n, -1)


def test_elements_of_different_algebras_do_not_mix():
    A = get_algebra(5, 3)
    for B in (get_algebra(5, 3, 1), get_algebra(7, 3)):
        for op in (AlgElem.__add__, AlgElem.__sub__, AlgElem.__mul__, AlgElem.inner):
            with pytest.raises(DimensionMismatch, match="different algebras"):
                op(A.one(), B.one())
    for length in (3, 7):
        with pytest.raises(DimensionMismatch, match="word length must be 6"):
            A.from_word([0] * length)


def test_trivial_block_kind_follows_sqrt():
    assert get_algebra(5, 3).decompose()[0].kind == TRIVIAL_SPLIT
    assert get_algebra(5, 3).decompose()[0].r == 2
    assert get_algebra(2, 7).decompose()[0].kind == TRIVIAL_SPLIT
    assert get_algebra(2, 7).decompose()[0].r == 1
    assert get_algebra(7, 3).decompose()[0].kind == TRIVIAL_FIELD
    # dihedral: r = 1 always works since v^2 = +1
    assert get_algebra(7, 3, 1).decompose()[0].kind == TRIVIAL_SPLIT


def test_block_orthogonality():
    for q, n in ((3, 5), (7, 3), (5, 7)):
        A = get_algebra(q, n)
        comps = A.decompose()
        bases = []
        for c in comps:
            R, _ = linalg.rref(A.field, A.left_ideal_rows([c.identity]))
            bases.append([A.from_word(r.tolist()) for r in R])
        for i, bi in enumerate(bases):
            for j, bj in enumerate(bases):
                if i == j:
                    continue
                assert all(x.inner(y) == 0 for x in bi for y in bj)


def _orthogonal_idempotents_by_products(A, words):
    """The pairwise AlgElem oracle: w_i w_j = w_i if i == j, else 0."""
    elems = [A.from_word(w) for w in words]
    return all(
        x * y == (x if i == j else A.zero()) for i, x in enumerate(elems) for j, y in enumerate(elems)
    )


@pytest.mark.parametrize("tw", [-1, 1])
@pytest.mark.parametrize("q, n", [(3, 5), (7, 3), (2, 9), (5, 13)])
def test_block_identities_are_orthogonal_idempotents(q, n, tw):
    # decompose checks only that the blocks partition the certified
    # idempotents; the pairwise AlgElem products confirm what that implies
    A = get_algebra(q, n, tw)
    W = np.array([c.identity.word for c in A.decompose()])
    assert not W[:, n:].any()
    assert _orthogonal_idempotents_by_products(A, W)
    total = A.zero()
    for w in W:
        total = total + A.from_word(w)
    assert total == A.one()
    t = A.field.tables()
    summed = W.copy()
    summed[1] = t.add[W[1], W[0]]  # e_1 + e_0 is idempotent, but meets e_0
    assert not _orthogonal_idempotents_by_products(A, summed)


@pytest.mark.parametrize("tw", [-1, 1])
@pytest.mark.parametrize("q, n", [(3, 7), (5, 13), (7, 5)])
def test_self_conj_iso_to_mat2_is_a_ring_isomorphism(rng, q, n, tw):
    A = TwistedDihedralAlgebra(field_from_order(q), n, tw)
    selfconj = [c for c in A.decompose() if c.kind == SELF_CONJ]
    assert selfconj
    for comp in selfconj:
        assert iso_to_mat2(comp, comp.identity) == Mat2.identity(comp.ft)
        for _ in range(10):
            x = comp.identity * random_elem(A, rng)
            y = comp.identity * random_elem(A, rng)
            M = iso_to_mat2(comp, x)
            assert iso_from_mat2(comp, M) == x
            assert iso_to_mat2(comp, x * y) == M * iso_to_mat2(comp, y)


def test_component_split_of_random_ideals(rng):
    # C = sum over t of 1_At C, with matching dimensions
    for q, n in ((3, 5), (7, 3)):
        A = get_algebra(q, n)
        comps = A.decompose()
        for _ in range(10):
            x = random_elem(A, rng)
            rows = A.left_ideal_rows([x])
            R, _ = linalg.rref(A.field, rows)
            total = R.shape[0]
            split = 0
            for c in comps:
                prows = [
                    (c.identity * A.from_word(r.tolist())).to_word() for r in R
                ]
                split += linalg.rank(A.field, np.array(prows, dtype=np.int64))
            assert split == total


# -- the group action on words ---------------------------------------------------------------


def pair_product(x, y):
    """The pair formula (a + b v)(c + d v) = (ac + tw b bar(d)) + (ad + b bar(c)) v
    on CyclicElem halves: a reference for AlgElem products that shares
    nothing with group_action."""
    A = x.alg
    (a, b), (c, d) = halves(x), halves(y)
    return A.elem(a * c + (b * d.bar()).scale(A.tw_code), a * d + b * c.bar())


@pytest.mark.parametrize("tw", [-1, 1])
def test_group_action_matches_multiplication(tw, rng):
    # reference: pair-formula products by all 2n group elements u^a and u^a v
    for q, n in ((5, 7), (4, 5), (2, 3), (9, 5)):
        A = get_algebra(q, n, tw)
        perm, sign = A.group_action()
        assert perm.shape == sign.shape == (2 * n, 2 * n)
        group = [A.u(a) for a in range(n)] + [pair_product(A.u(a), v_elem(A)) for a in range(n)]
        mul = A.field.tables().mul
        for _ in range(20):
            x, y = random_elem(A, rng), random_elem(A, rng)
            assert x * y == pair_product(x, y)
            w = np.array(x.to_word(), dtype=np.int64)
            products = [list(pair_product(h, x).to_word()) for h in group]
            for h, prod in enumerate(products):
                assert mul[sign[h], w[perm[h]]].tolist() == prod
            assert A.left_ideal_rows([x]).tolist() == products
            stacked = products + [list(pair_product(h, y).to_word()) for h in group]
            assert A.left_ideal_rows([x, y]).tolist() == stacked


@pytest.mark.parametrize("q, n", [(2, 7), (3, 7), (4, 5), (5, 3), (9, 5), (13, 3), (16, 3)])
def test_translates_is_the_signed_permutation(q, n):
    # translates reads mul[s, w] at s q + w of the flat table; every entry of
    # block i must be field.mul(sign[h, j], words[i, perm[h, j]])
    A = get_algebra(q, n)
    F = A.field
    perm, sign = A.group_action()
    words = np.random.default_rng(q * n).integers(0, q, (3, 2 * n))
    words[0] = q - 1  # the largest index, (q - 1) q + q - 1, wherever sign[h, j] = q - 1
    L = A.translates(words)
    assert L.shape == (3 * 2 * n, 2 * n) and L.dtype == np.int64
    want = [
        [F.mul(int(sign[h, j]), int(w[perm[h, j]])) for j in range(2 * n)] for w in words for h in range(2 * n)
    ]
    assert L.tolist() == want


def test_left_ideal_rows_accepts_words(rng):
    A = get_algebra(5, 7)
    x, y = random_elem(A, rng), random_elem(A, rng)
    w = np.array(x.to_word(), dtype=np.int64)
    assert A.left_ideal_rows([w, y]).tolist() == A.left_ideal_rows([x, y]).tolist()


# -- subfield views ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_subfield_inverse_stays_in_the_subfield(q):
    # an order-2 subfield's only unit is its identity e, not y^0 = 1 of FH
    for n in range(3, 16, 2):
        if math.gcd(n, q) != 1:
            continue
        for comp in get_algebra(q, n).decompose()[1:]:
            for view in (comp.ft, comp.fhe):
                for code in {1, min(2, view.order - 1), view.order - 1}:
                    y = view.element(code)
                    inv = view.inv(y)
                    assert view.contains(inv), (n, view)
                    assert inv * y == view.identity, (n, view)
                with pytest.raises(ZeroDivisionError, match="inverse of 0"):
                    view.inv(view.zero)


@pytest.mark.parametrize(
    "q, lengths",
    [pytest.param(q, odd_coprime_grid(q, 35), id=str(q)) for q in (2, 3, 4, 5, 7, 8, 9, 13, 16, 25, 27)]
    + [pytest.param(2, [263], id="2-263"), pytest.param(3, [257], id="3-257")],
)
def test_fhe_rows_are_the_rref_of_the_full_circulant(q, lengths):
    # FHe's rows are read off its factor; the RREF of all n rotations u^i e is
    # the same, also at the large k of (2, 263) and (3, 257)
    F = field_from_order(q)
    for n in lengths:
        i = np.arange(n)
        for comp in get_algebra(q, n).decompose()[1:]:
            R, _ = linalg.rref(F, comp.e.coeffs[(i - i[:, None]) % n])
            assert R.shape == comp.fhe.rows.shape and R.tobytes() == comp.fhe.rows.tobytes(), (n, comp)


# the perfbench decompose grid, (q, n)
DECOMPOSE_GRID = [
    (2, 23), (2, 29), (3, 19), (3, 23), (3, 31), (4, 11), (4, 23), (5, 19),
    (5, 23), (7, 13), (7, 17), (7, 29), (9, 7), (9, 11), (13, 23),
]


@pytest.mark.parametrize("q, n", DECOMPOSE_GRID)
def test_fhe_membership_guard(monkeypatch, q, n):
    # the guard passes on every block of a fresh algebra; it fires on FHe's
    # rows built from f instead of f*, which are FHebar's and miss e where
    # f != f* (paired blocks), and on a basis with one coefficient changed in
    # a row where e has a nonzero coordinate
    F = field_from_order(q)
    for c in TwistedDihedralAlgebra(F, n, -1).decompose()[1:]:
        assert c.fhe.contains(c.e), (n, c)
    idems = get_algebra(q, n).idempotents()
    pairing = conj_pairing(idems)

    def from_f(field, f, n):
        return _minimal_ideal_rref(field, Poly(field, f.coeffs[::-1]).monic(), n)

    def one_changed(field, f, n):
        R = _minimal_ideal_rref(field, f, n)
        e = next(e for g, e in zip(idems.factors, idems.idems) if g == f)
        row = int(np.flatnonzero(e.coeffs[: f.degree])[0])
        R[row, f.degree] = field.tables().add[R[row, f.degree], field.one]
        return R

    paired = any(pairing[i] != i for i in range(1, len(pairing)))
    for mutant in (from_f, one_changed) if paired else (one_changed,):
        with monkeypatch.context() as m:
            m.setattr(algebra, "_minimal_ideal_rref", mutant)
            with pytest.raises(AssertionError, match="e is not in FHe"):
                TwistedDihedralAlgebra(F, n, -1).decompose()


def small_subfields(q):
    """GF(q) itself and one subfield view of each dimension 2, 3 that the
    blocks of the algebras with odd n <= 35 offer, F_t or FHe."""
    views = {1: scalar_view(q)}
    for n in odd_coprime_grid(q, 35):
        for comp in get_algebra(q, n).decompose()[1:]:
            for view in (comp.ft, comp.fhe):
                if view.dim <= 3:
                    views.setdefault(view.dim, view)
    return [views[d] for d in sorted(views)]


# -- norm equation ----------------------------------------------------------------------------


# sha256 prefixes of json [[s, s']] over the self-conjugate blocks of the
# perfbench decompose grid that have one, by (q, n, v^2)
NORM_SOLUTIONS = {
    (2, 29, -1): "d2aa21fa80a83c1d",
    (3, 19, -1): "e0ffa19240977c10",
    (3, 31, -1): "fbebf994cc0b50fe",
    (5, 23, -1): "46e76e3cae08268e",
    (7, 13, -1): "73ad6168bf235441",
    (7, 17, -1): "664e5d09d8ec839f",
    (2, 29, 1): "d2aa21fa80a83c1d",
    (3, 19, 1): "ca7f06d73c1b942f",
    (3, 31, 1): "15fb94cd62d7e52f",
    (5, 23, 1): "1fa4289f465daa37",
    (7, 13, 1): "cb0575e6cbea2ba6",
    (7, 17, 1): "b2a513f59f2afd60",
}


@pytest.mark.parametrize("q, n, tw", sorted(NORM_SOLUTIONS))
def test_norm_solutions_on_the_decompose_grid_are_pinned(q, n, tw):
    comps = [c for c in get_algebra(q, n, tw).decompose() if c.kind == SELF_CONJ]
    for c in comps:
        e = c.ft.identity
        assert c.s * c.s + c.g * c.s * c.s_prime + c.s_prime * c.s_prime == (e if tw == 1 else -e)
    sol = [[c.s.coeffs.tolist(), c.s_prime.coeffs.tolist()] for c in comps]
    assert hashlib.sha256(json.dumps(sol).encode()).hexdigest()[:16] == NORM_SOLUTIONS[q, n, tw]


def test_solve_norm_equation_examples():
    ft5 = scalar_view(5)
    one5 = ft5.identity
    s, sp = solve_norm_equation(ft5, one5)  # g = 1 over GF(5)
    assert (list(s.coeffs), list(sp.coeffs)) == ([2], [0])

    ft3 = scalar_view(3)
    s, sp = solve_norm_equation(ft3, ft3.zero)  # g = 0 over GF(3)
    assert (list(s.coeffs), list(sp.coeffs)) == ([1], [1])

    ft4 = scalar_view(4)
    g = ft4.element(2)  # any g with X^2 + gX + 1 irreducible is fine here
    s, sp = solve_norm_equation(ft4, g)
    assert (list(s.coeffs), list(sp.coeffs)) == ([1], [0])


def test_solve_norm_equation_degenerate():
    ft = scalar_view(5)
    two = ft.identity + ft.identity
    with pytest.raises(DegenerateG):
        solve_norm_equation(ft, two)
    with pytest.raises(DegenerateG):
        solve_norm_equation(ft, -two)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_solve_norm_equation_is_the_first_solution_by_scan(q):
    # the views cover tw = +1, q even, q = 1 mod 4, and for q = 3 mod 4 both
    # -e a square (dimension 2) and not (dimensions 1 and 3, where s' != 0)
    views = small_subfields(q)
    assert [v.dim for v in views] == [1, 2, 3]
    for ft in views:
        for tw in (1, -1):
            first = norm_by_scan(ft, tw)
            for g, want in first.items():
                s, sp = solve_norm_equation(ft, ft.element(g), tw)
                assert (ft.code_of(s), ft.code_of(sp)) == want, (ft, g, tw)
            sprime_needed = tw == -1 and q % 4 == 3 and ft.dim % 2 == 1
            assert {sp != 0 for _, sp in first.values()} == {sprime_needed}, (ft, tw)


@pytest.mark.parametrize("tw", [0, 2, -2])
def test_solve_norm_equation_rejects_a_twist_other_than_plus_or_minus_one(tw):
    ft = scalar_view(5)
    with pytest.raises(DomainError):
        solve_norm_equation(ft, ft.identity, tw)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9, 13])
def test_norm_solution_sprime_zero_iff(q):
    ft = scalar_view(q)
    # g must avoid +-2: over characteristic 3 that set is {1, 2}, so take 0
    g = ft.zero if ft.field.p == 3 else ft.element(1)
    s, sp = solve_norm_equation(ft, g)
    e = ft.identity
    assert s * s + g * s * sp + sp * sp == -e
    assert sp.is_zero() == (q % 2 == 0 or q % 4 == 1)


# -- matrix isomorphisms ------------------------------------------------------------------------


def test_paired_iso_identity_and_roundtrip(rng):
    A = get_algebra(7, 3)
    comp = A.decompose()[1]
    ident = iso_to_mat2(comp, comp.identity)
    assert ident == Mat2.identity(comp.ft)
    for _ in range(100):
        x = comp.identity * random_elem(A, rng)
        y = comp.identity * random_elem(A, rng)
        M = iso_to_mat2(comp, x)
        assert iso_from_mat2(comp, M) == x
        assert iso_to_mat2(comp, x * y) == M * iso_to_mat2(comp, y)


def test_selfconj_iso_roundtrip_and_eta(rng):
    A = get_algebra(3, 5)
    comp = A.decompose()[1]
    # eta satisfies its characteristic polynomial X^2 + gX + 1
    epsilon, eta = matrix_basis(comp)[:2]
    ch = eta * eta + eta.scaled(comp.g) + epsilon
    assert ch.is_zero()
    assert iso_to_mat2(comp, comp.identity) == Mat2.identity(comp.ft)
    for _ in range(100):
        x = comp.identity * random_elem(A, rng)
        y = comp.identity * random_elem(A, rng)
        M = iso_to_mat2(comp, x)
        assert iso_from_mat2(comp, M) == x
        assert iso_to_mat2(comp, x * y) == M * iso_to_mat2(comp, y)


def test_iso_requires_membership():
    A = get_algebra(7, 3)
    comp = A.decompose()[1]
    with pytest.raises(NotInComponent):
        iso_to_mat2(comp, A.one())  # 1 is not in the block


def test_bar_via_matrix():
    A = get_algebra(7, 3)
    comp = A.decompose()[1]
    I = Mat2.identity(comp.ft)
    assert bar_via_matrix(comp, I) == I
    z, e = comp.ft.zero, comp.ft.identity
    M = Mat2(comp.ft, ((z, e), (z, z)))
    expect = Mat2(comp.ft, ((z, -e), (z, z)))
    assert bar_via_matrix(comp, M) == expect


def test_bar_via_matrix_matches_bar(rng):
    A = get_algebra(7, 3)
    comp = A.decompose()[1]
    for _ in range(100):
        x = comp.identity * random_elem(A, rng)
        assert iso_to_mat2(comp, x.bar()) == bar_via_matrix(comp, iso_to_mat2(comp, x))


def test_bar_via_matrix_requires_paired():
    A = get_algebra(3, 5)
    comp = A.decompose()[1]
    with pytest.raises(NotPaired):
        bar_via_matrix(comp, Mat2.identity(comp.ft))


def test_bar_is_adjugate_on_all_matrix_blocks(rng):
    """On every consta matrix block, bar corresponds to the matrix adjugate,
    hence x bar(x) = det(x) 1; rank-1 generators give self-orthogonal ideals."""
    for q, n in ((7, 3), (3, 5), (3, 7), (2, 5)):
        A = get_algebra(q, n)
        for comp in A.decompose()[1:]:
            for _ in range(25):
                x = comp.identity * random_elem(A, rng)
                M = iso_to_mat2(comp, x)
                (a, b), (c, d) = M.entries
                adj = Mat2(comp.ft, ((d, -b), (-c, a)))
                assert iso_to_mat2(comp, x.bar()) == adj


def test_selfconj_f_barf_vanishes():
    """f = s e - s' u e + v e always satisfies f bar(f) = 0 (the adjugate
    identity); the twisted ideals C_t beta are therefore self-orthogonal."""
    from cdcodes.codes import build_Ct

    for q, n in ((3, 5), (3, 7), (5, 7), (2, 5), (7, 11)):
        A = get_algebra(q, n)
        for comp in A.decompose()[1:]:
            if comp.kind != SELF_CONJ:
                continue
            f = build_Ct(comp)
            assert (f * f.bar()).is_zero()


def test_lemma_matrix_commutant_uniqueness():
    """For c != 0 in a simple left ideal and a, b units of the embedded
    quadratic extension E: a c = c b iff a = b lies in the base field.
    Checked exhaustively for q <= 5."""
    from cdcodes.codes import _first_irreducible_quadratic_g

    for q in (2, 3, 4, 5):
        F = field_from_order(q)
        ft = scalar_view(q)
        gp = _first_irreducible_quadratic_g(ft)
        gcode = gp.coeffs[0]
        W = np.array([[0, F.neg(1)], [1, F.neg(gcode)]], dtype=np.int64)
        I2 = np.eye(2, dtype=np.int64)

        def emb(a, b):
            t = F.tables()
            return t.add[t.mul[a, I2], t.mul[b, W]]

        E_units = [
            emb(a, b) for a in range(q) for b in range(q) if (a, b) != (0, 0)
        ]
        # L = M f for f = E11: matrices with second column zero
        L = [
            np.array([[x, 0], [y, 0]], dtype=np.int64)
            for x in range(q)
            for y in range(q)
            if (x, y) != (0, 0)
        ]
        for cmat in L:
            for a in E_units:
                for b in E_units:
                    lhs = linalg.matmul(F, a, cmat)
                    rhs = linalg.matmul(F, cmat, b)
                    if np.array_equal(lhs, rhs):
                        assert np.array_equal(a, b)
                        assert np.array_equal(a, emb(a[0, 0], 0))
