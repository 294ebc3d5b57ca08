import math

import pytest

from conftest import get_algebra
from oracles import bar_via_matrix, random_elem

from cdcodes import algebra
from cdcodes.algebra import (
    PAIRED,
    SELF_CONJ,
    TRIVIAL_FIELD,
    TRIVIAL_SPLIT,
    Mat2,
    SubfieldView,
    TwistedDihedralAlgebra,
    solve_norm_equation,
)
from cdcodes.cyclic import CyclicElem
from cdcodes.errors import DegenerateG, GcdViolation, NotInComponent, NotPaired
from cdcodes.field import field_from_order
from cdcodes import linalg
import numpy as np


def scalar_view(q):
    """A plain field GF(q) presented as the n = 1 subfield of FH."""
    F = field_from_order(q)
    one = CyclicElem.one(F, 1)
    return SubfieldView(F, 1, one, one.coeffs[None], label=f"GF({q})")


# -- defining relations ------------------------------------------------------------


def test_consta_relations():
    A = get_algebra(7, 3)
    v, u = A.v(), A.u()
    assert v * v == A.one().scale(A.field.neg(1))
    assert v * u == A.u(-1) * v
    assert A.u(3) == A.one()


def test_dihedral_relations():
    D = get_algebra(7, 3, 1)
    v, u = D.v(), D.u()
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
    assert A.v().bar() == -A.v()
    D = get_algebra(7, 3, 1)
    assert D.v().bar() == D.v()


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
    assert A.v().word[0] == 0


def test_inner_examples(rng):
    A2 = get_algebra(2, 5)
    for _ in range(30):
        x = random_elem(A2, rng)
        w = sum(1 for c in x.to_word() if c) % 2
        assert x.inner(x) == w
    A = get_algebra(5, 3)
    assert A.v().inner(A.v()) == 1


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


def test_block_identity_check_rejects_bad_sets():
    A = get_algebra(5, 13)
    W = np.array([c.identity.word for c in A.decompose()])
    A._check_orthogonal_idempotents(W)
    t = A.field.tables()
    not_orthogonal = W.copy()
    not_orthogonal[1] = t.add[W[1], W[2]]  # e_1 + e_2 is idempotent, but meets e_2
    not_idempotent = W.copy()
    not_idempotent[1] = (A.u(1) * A.from_word(W[1])).word  # orthogonal to the rest, u e_1 != (u e_1)^2
    for bad in (not_orthogonal, not_idempotent):
        assert not _orthogonal_idempotents_by_products(A, bad)
        with pytest.raises(AssertionError):
            A._check_orthogonal_idempotents(bad)


def test_block_identity_check_matches_pairwise_products(rng):
    # raises exactly when some pairwise product is wrong
    for q, n in ((3, 5), (7, 3), (2, 9), (5, 13)):
        A = get_algebra(q, n)
        W = np.array([c.identity.word for c in A.decompose()])
        t = A.field.tables()
        for _ in range(6):
            sets = [W, W[rng.sample(range(len(W)), len(W))], W[: rng.randrange(1, len(W) + 1)]]
            i, j = rng.randrange(len(W)), rng.randrange(len(W))
            summed = W.copy()
            summed[i] = t.add[W[i], W[j]]
            sets.append(summed)
            for words in sets:
                if _orthogonal_idempotents_by_products(A, words):
                    A._check_orthogonal_idempotents(words)
                else:
                    with pytest.raises(AssertionError):
                        A._check_orthogonal_idempotents(words)


@pytest.mark.parametrize("tw", [-1, 1])
@pytest.mark.parametrize("q, n", [(3, 7), (5, 13), (7, 5)])
def test_decompose_builds_no_iso_data(monkeypatch, rng, q, n, tw):
    # the 4x4 inverse and the matrix basis serve only the isomorphisms
    def fail(*args):
        raise AssertionError("_ft_mat_inv called")

    with monkeypatch.context() as m:
        m.setattr(algebra, "_ft_mat_inv", fail)
        A = TwistedDihedralAlgebra(field_from_order(q), n, tw)
        A.decompose()
        A.decomposition_report()
        selfconj = [c for c in A.decompose() if c.kind == SELF_CONJ]
        assert selfconj and all(c._iso is None for c in selfconj)
    for comp in selfconj:
        assert comp.iso_to_mat2(comp.identity) == Mat2.identity(comp.ft)
        for _ in range(10):
            x = comp.identity * random_elem(A, rng)
            y = comp.identity * random_elem(A, rng)
            M = comp.iso_to_mat2(x)
            assert comp.iso_from_mat2(M) == x
            assert comp.iso_to_mat2(x * y) == M * comp.iso_to_mat2(y)


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
    a, b, c, d = x.a, x.b, y.a, y.b
    return A.elem(a * c + (b * d.bar()).scale(A.tw_code), a * d + b * c.bar())


@pytest.mark.parametrize("tw", [-1, 1])
def test_group_action_matches_multiplication(tw, rng):
    # reference: pair-formula products by all 2n group elements u^a and u^a v
    for q, n in ((5, 7), (4, 5), (2, 3), (9, 5)):
        A = get_algebra(q, n, tw)
        perm, sign = A.group_action()
        assert perm.shape == sign.shape == (2 * n, 2 * n)
        group = [A.u(a) for a in range(n)] + [pair_product(A.u(a), A.v()) for a in range(n)]
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


# -- norm equation ----------------------------------------------------------------------------


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
    ident = comp.iso_to_mat2(comp.identity)
    assert ident == Mat2.identity(comp.ft)
    for _ in range(100):
        x = comp.identity * random_elem(A, rng)
        y = comp.identity * random_elem(A, rng)
        M = comp.iso_to_mat2(x)
        assert comp.iso_from_mat2(M) == x
        assert comp.iso_to_mat2(x * y) == M * comp.iso_to_mat2(y)


def test_selfconj_iso_roundtrip_and_eta(rng):
    A = get_algebra(3, 5)
    comp = A.decompose()[1]
    # eta satisfies its characteristic polynomial X^2 + gX + 1
    ch = comp.eta * comp.eta + comp.eta.scaled(comp.g) + comp.epsilon
    assert ch.is_zero()
    assert comp.iso_to_mat2(comp.identity) == Mat2.identity(comp.ft)
    for _ in range(100):
        x = comp.identity * random_elem(A, rng)
        y = comp.identity * random_elem(A, rng)
        M = comp.iso_to_mat2(x)
        assert comp.iso_from_mat2(M) == x
        assert comp.iso_to_mat2(x * y) == M * comp.iso_to_mat2(y)


def test_iso_requires_membership():
    A = get_algebra(7, 3)
    comp = A.decompose()[1]
    with pytest.raises(NotInComponent):
        comp.iso_to_mat2(A.one())  # 1 is not in the block


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
        assert comp.iso_to_mat2(x.bar()) == bar_via_matrix(comp, comp.iso_to_mat2(x))


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
                M = comp.iso_to_mat2(x)
                (a, b), (c, d) = M.entries
                adj = Mat2(comp.ft, ((d, -b), (-c, a)))
                assert comp.iso_to_mat2(x.bar()) == adj


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
