import pytest

from conftest import get_algebra

from cdcodes import dihedral as dih
from cdcodes.algebra import Mat2
from cdcodes.errors import HypothesisUnmet, NotPaired, ZeroGenerator
from cdcodes.field import field_from_order


# -- relations and the char-2 degeneration ----------------------------------------


def test_dihedral_v_relations():
    D = get_algebra(7, 3, 1)
    assert D.v() * D.v() == D.one()
    assert D.v().bar() == D.v()


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
        x, y = D.random_elem(rng), D.random_elem(rng)
        assert x.inner(y) == (x * y.bar()).sigma()


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
    exhaustive = dih.mat2_simple_left_ideals(F)
    from_generators = dih.mat2_generator_ideals(F)
    assert len(exhaustive) == q + 1
    assert set(exhaustive) == set(from_generators)


# -- block-level ideals (Eq.-(46)-style iso) ----------------------------------------------


def test_dihedral_paired_iso_roundtrip(rng):
    D = get_algebra(7, 3, 1)
    comp = D.decompose()[1]
    for _ in range(100):
        x = comp.project(D.random_elem(rng))
        y = comp.project(D.random_elem(rng))
        M = comp.iso_to_mat2(x)
        assert comp.iso_from_mat2(M) == x
        assert comp.iso_to_mat2(x * y) == M * comp.iso_to_mat2(y)


def test_dihedral_bar_matrix_no_sign_flip():
    D = get_algebra(7, 3, 1)
    comp = D.decompose()[1]
    z, e = comp.ft.zero, comp.ft.identity
    M = Mat2(comp.ft, ((z, e), (z, z)))
    assert comp.bar_via_matrix(M) == M  # (0 1; 0 0) is bar-fixed here
    I = Mat2.identity(comp.ft)
    assert comp.bar_via_matrix(I) == I


def test_dihedral_bar_matrix_matches_bar(rng):
    D = get_algebra(7, 3, 1)
    comp = D.decompose()[1]
    for _ in range(100):
        x = comp.project(D.random_elem(rng))
        assert comp.iso_to_mat2(x.bar()) == comp.bar_via_matrix(comp.iso_to_mat2(x))


def test_enumerate_simple_left_ideals_block():
    D = get_algebra(7, 3, 1)
    comp = D.decompose()[1]
    ideals = dih.enumerate_simple_left_ideals(comp)
    assert len(ideals) == 8
    assert all(c.k_dim == 2 * comp.k for c in ideals)
    assert len({c.key() for c in ideals}) == 8


def test_enumerate_requires_paired():
    D = get_algebra(3, 5, 1)
    comp = D.decompose()[1]
    with pytest.raises(NotPaired):
        dih.enumerate_simple_left_ideals(comp)


# -- classification --------------------------------------------------------------------------


def test_classify_examples():
    D = get_algebra(7, 3, 1)
    comp = D.decompose()[1]
    ft = comp.ft
    assert dih.classify_Cab(comp, ft.zero, ft.identity) == dih.SELF_ORTHOGONAL_IN_BLOCK
    assert dih.classify_Cab(comp, ft.identity, ft.zero) == dih.SELF_ORTHOGONAL_IN_BLOCK
    assert dih.classify_Cab(comp, ft.identity, ft.identity) == dih.LCD_IN_BLOCK
    with pytest.raises(ZeroGenerator):
        dih.classify_Cab(comp, ft.zero, ft.zero)


def test_classify_char2_always_self_orthogonal():
    D = get_algebra(2, 7, 1)
    comp = D.decompose()[1]
    ft = comp.ft
    for a_code in range(ft.order):
        for b_code in range(ft.order):
            if a_code == 0 and b_code == 0:
                continue
            verdict = dih.classify_Cab(comp, ft.element(a_code), ft.element(b_code))
            assert verdict == dih.SELF_ORTHOGONAL_IN_BLOCK


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
                    dih.classify_Cab(comp, ft.element(a_code), ft.element(b_code))


# -- counting ----------------------------------------------------------------------------------


def test_count_3_gf7_exhaustive():
    r = dih.count_Cab_codes(get_algebra(7, 3, 1))
    assert r.exhaustive
    assert (r.total_formula, r.lcd_formula) == (8, 6)
    assert (r.total_observed, r.lcd_observed) == (8, 6)
    assert r.verified


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
