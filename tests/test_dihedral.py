import pytest

from conftest import get_algebra
from oracles import (
    Mat2,
    bar_via_matrix,
    iso_from_mat2,
    iso_to_mat2,
    mat2_generator_ideals,
    mat2_simple_left_ideals,
    random_elem,
    v_elem,
)

from cdcodes import dihedral as dih
from cdcodes.codes import LinearCode, hull_dimension
from cdcodes.errors import HypothesisUnmet, NotPaired
from cdcodes.field import field_from_order


# -- relations and the char-2 degeneration ----------------------------------------


def test_dihedral_v_relations():
    D = get_algebra(7, 3, 1)
    assert v_elem(D) * v_elem(D) == D.one()
    assert v_elem(D).bar() == v_elem(D)


def test_char2_consta_equals_dihedral(rng):
    A = get_algebra(4, 5, -1)
    D = get_algebra(4, 5, 1)
    for _ in range(50):
        w1 = [rng.randrange(4) for _ in range(10)]
        w2 = [rng.randrange(4) for _ in range(10)]
        assert (A.from_word(w1) * A.from_word(w2)).to_word() == (
            D.from_word(w1) * D.from_word(w2)
        ).to_word()
        assert A.from_word(w1).bar().to_word() == D.from_word(w1).bar().to_word()


def test_dihedral_inner_sigma_identity(rng):
    D = get_algebra(5, 7, 1)
    for _ in range(100):
        x, y = random_elem(D, rng), random_elem(D, rng)
        assert x.inner(y) == (x * y.bar()).word[0]


# -- the counterexample -------------------------------------------------------------


def test_counterexample_exact():
    rep = dih.counterexample_check()
    assert rep.q == 7 and rep.n == 3
    assert rep.c_bar_d_zero
    assert rep.inner_cd_zero
    assert rep.bar_d_c_nonzero
    assert rep.witness_matches_ebar_v
    # the witness is ebar v: a-part zero, b-part = ebar = 5(1 + 4u + 2u^2)
    assert rep.witness_word == (0, 0, 0, 5, 6, 3)


# -- matrix-level ideal enumeration ---------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_mat2_simple_left_ideal_count(q):
    F = field_from_order(q)
    exhaustive = mat2_simple_left_ideals(F)
    from_generators = mat2_generator_ideals(F)
    assert len(exhaustive) == q + 1
    assert set(exhaustive) == set(from_generators)


# -- block-level ideals (Eq.-(46)-style iso) ----------------------------------------------


def test_dihedral_paired_iso_roundtrip(rng):
    D = get_algebra(7, 3, 1)
    comp = D.decompose()[1]
    for _ in range(100):
        x = comp.identity * random_elem(D, rng)
        y = comp.identity * random_elem(D, rng)
        M = iso_to_mat2(comp, x)
        assert iso_from_mat2(comp, M) == x
        assert iso_to_mat2(comp, x * y) == M * iso_to_mat2(comp, y)


def test_dihedral_bar_matrix_no_sign_flip():
    D = get_algebra(7, 3, 1)
    comp = D.decompose()[1]
    z, e = comp.ft.zero, comp.ft.identity
    M = Mat2(comp.ft, ((z, e), (z, z)))
    assert bar_via_matrix(comp, M) == M  # (0 1; 0 0) is bar-fixed here
    I = Mat2.identity(comp.ft)
    assert bar_via_matrix(comp, I) == I


def test_dihedral_bar_matrix_matches_bar(rng):
    D = get_algebra(7, 3, 1)
    comp = D.decompose()[1]
    for _ in range(100):
        x = comp.identity * random_elem(D, rng)
        assert iso_to_mat2(comp, x.bar()) == bar_via_matrix(comp, iso_to_mat2(comp, x))


def block_ideal(comp, gen):
    """The left ideal generated by gen, as a code of length 2n."""
    alg = comp.alg
    return LinearCode.from_rows(alg.field, alg.left_ideal_rows([gen]), n_len=2 * alg.n)


def test_enumerate_simple_left_ideals_block():
    # the q + 1 generators of a paired block give q + 1 distinct simple left ideals
    D = get_algebra(7, 3, 1)
    comp = D.decompose()[1]
    ideals = [block_ideal(comp, dih.f_ab(comp, a, b)) for a, b in dih._block_choices(comp)]
    assert len(ideals) == 8
    assert all(c.k_dim == 2 * comp.k for c in ideals)
    assert len({c.key() for c in ideals}) == 8


def test_enumerate_requires_paired():
    D = get_algebra(3, 5, 1)
    comp = D.decompose()[1]
    with pytest.raises(NotPaired):
        [dih.f_ab(comp, a, b) for a, b in dih._block_choices(comp)]


@pytest.mark.parametrize("tw", [-1, 1])
@pytest.mark.parametrize("q, n", [(7, 3), (3, 11), (4, 3), (13, 3), (2, 21)])
def test_f_ab_is_the_image_of_its_matrix(q, n, tw):
    # the closed form a + tw b v is the isomorphism's image of (a b; 0 0), for
    # every (a, b) on every paired block
    A = get_algebra(q, n, tw)
    paired = [c for c in A.decompose() if c.kind == "paired"]
    assert paired
    for comp in paired:
        ft = comp.ft
        elems = [ft.element(c) for c in range(ft.order)]
        for a in elems:
            for b in elems:
                assert dih.f_ab(comp, a, b) == iso_from_mat2(comp, Mat2(ft, ((a, b), (ft.zero, ft.zero))))


# -- the 2ab = 0 rule --------------------------------------------------------------------------


def expected_hull(comp, a, b):
    """The hull of the ideal of f_ab: all of its dimension 2 k_t when p = 2 or
    ab = 0 (self-orthogonal), else 0 (LCD)."""
    return 2 * comp.k if comp.alg.field.p == 2 or (a * b).is_zero() else 0


def test_classify_examples():
    D = get_algebra(7, 3, 1)
    comp = D.decompose()[1]
    ft = comp.ft
    z, e = ft.zero, ft.identity
    for a, b, hull in ((z, e, 2), (e, z, 2), (e, e, 0)):
        code = block_ideal(comp, dih.f_ab(comp, a, b))
        assert code.k_dim == 2
        assert hull_dimension(code) == hull == expected_hull(comp, a, b)
    assert block_ideal(comp, dih.f_ab(comp, z, z)).k_dim == 0


def test_classify_char2_always_self_orthogonal():
    D = get_algebra(2, 7, 1)
    comp = D.decompose()[1]
    ft = comp.ft
    for a_code in range(ft.order):
        for b_code in range(ft.order):
            if a_code == 0 and b_code == 0:
                continue
            code = block_ideal(comp, dih.f_ab(comp, ft.element(a_code), ft.element(b_code)))
            assert hull_dimension(code) == code.k_dim == 2 * comp.k


def test_classify_agrees_with_hull_small_ft():
    # every (a, b) over blocks with |F_t| <= 9
    for q, n in ((7, 3), (3, 13)):
        D = get_algebra(q, n, 1)
        for comp in D.decompose()[1:]:
            if comp.kind != "paired" or comp.ft.order > 9:
                continue
            ft = comp.ft
            for a_code in range(ft.order):
                for b_code in range(ft.order):
                    if a_code == 0 and b_code == 0:
                        continue
                    a, b = ft.element(a_code), ft.element(b_code)
                    code = block_ideal(comp, dih.f_ab(comp, a, b))
                    assert code.k_dim == 2 * comp.k
                    assert hull_dimension(code) == expected_hull(comp, a, b)


# -- counting ----------------------------------------------------------------------------------


def test_count_3_gf7_exhaustive():
    r = dih.count_Cab_codes(get_algebra(7, 3, 1))
    assert r.exhaustive
    assert (r.total_formula, r.lcd_formula) == (8, 6)
    assert (r.total_observed, r.lcd_observed) == (8, 6)
    assert r.verified


def test_exhaustive_count_holds_every_code_to_the_ab_rule(monkeypatch):
    # swapping the verdicts of one LCD and one non-LCD code keeps the totals at
    # 8/6, so only the per-code rule "LCD iff every a_t b_t != 0" catches it
    swapped = set()

    def swapping_hull(code):
        hull = hull_dimension(code)
        if (hull == 0) in swapped:
            return hull
        swapped.add(hull == 0)
        return code.k_dim if hull == 0 else 0

    monkeypatch.setattr(dih, "hull_dimension", swapping_hull)
    r = dih.count_Cab_codes(get_algebra(7, 3, 1))
    assert r.exhaustive and swapped == {True, False}
    assert (r.total_observed, r.lcd_observed) == (8, 6)
    assert not r.verified


def test_count_hypotheses():
    with pytest.raises(HypothesisUnmet):
        dih.count_Cab_codes(get_algebra(2, 7, 1))  # q even
    with pytest.raises(HypothesisUnmet):
        dih.count_Cab_codes(get_algebra(3, 5, 1))  # ord_5(3) = 4 even
    with pytest.raises(HypothesisUnmet):
        dih.count_Cab_codes(get_algebra(7, 3, -1))  # consta algebra


def test_count_11_gf3_formula_and_samples():
    alg = get_algebra(3, 11, 1)
    r = dih.count_Cab_codes(alg, exhaust_limit=100, samples=40, seed=11)
    assert (r.total_formula, r.lcd_formula) == (244, 242)
    assert not r.exhaustive
    assert r.sample_agreements == r.sampled == 40
    # the instance is in fact small enough to exhaust; cross-check fully
    r_full = dih.count_Cab_codes(alg)
    assert r_full.exhaustive and r_full.verified
    assert (r_full.total_observed, r_full.lcd_observed) == (244, 242)
