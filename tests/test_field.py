import math
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdcodes.cyclic import primitive_idempotents
from cdcodes.errors import GcdViolation, NotPrime, Overflow, ReducibleModulus
from cdcodes.field import (
    MAX_N,
    ExtField,
    Poly,
    PrimeField,
    cyclotomic_cosets,
    factor_xn_minus_1,
    factor_xn_minus_1_with_cosets,
    field_from_order,
    field_make,
    mult_order,
    prime_factors,
    smallest_irreducible,
    sqrt_minus_one,
)

# -- oracles -------------------------------------------------------------------


def oracle_monic_polys(q_field, degree):
    """All monic polynomials of the given degree, ascending encoding."""
    out = []
    for code in range(q_field.q**degree):
        coeffs = []
        c = code
        for _ in range(degree):
            coeffs.append(c % q_field.q)
            c //= q_field.q
        out.append(Poly(q_field, coeffs + [q_field.one]))
    return out


def oracle_is_irreducible(f):
    """Trial division by every lower-degree monic polynomial."""
    F = f.field
    d = f.degree
    if d < 1:
        return False
    for e in range(1, d // 2 + 1):
        for g in oracle_monic_polys(F, e):
            if (f % g).is_zero():
                return False
    return True


def oracle_phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def oracle_prime_powers(limit):
    out = []
    for q in range(2, limit + 1):
        p = min(f for f in range(2, q + 1) if q % f == 0)
        t = q
        while t % p == 0:
            t //= p
        if t == 1:
            out.append((q, p))
    return out


# -- field construction ----------------------------------------------------------


def test_field_make_prime_field():
    F = field_make(7, 1)
    assert (F.p, F.m, F.q) == (7, 1, 7)
    assert F.modulus.coeffs == (0, 1)  # the X - 0 convention


def test_field_make_not_prime():
    with pytest.raises(NotPrime):
        field_make(4, 1)
    with pytest.raises(NotPrime):
        field_from_order(12)


def test_gf4_modulus_is_unique_irreducible_quadratic():
    # independent oracle: enumerate all 4 monic quadratics over GF(2)
    F2 = PrimeField(2)
    irred = [f for f in oracle_monic_polys(F2, 2) if oracle_is_irreducible(f)]
    assert len(irred) == 1
    assert irred[0].coeffs == (1, 1, 1)  # X^2 + X + 1
    assert field_from_order(4).modulus.coeffs == (1, 1, 1)


def test_reducible_modulus_rejected():
    F2 = PrimeField(2)
    with pytest.raises(ReducibleModulus):
        field_make(2, 2, modulus=Poly(F2, (1, 0, 1)))  # (X+1)^2


def test_field_make_overflow():
    with pytest.raises(Overflow):
        field_make(2, 200)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_field_axioms_exhaustive(q):
    F = field_from_order(q)
    elems = list(F.elements())
    for a in elems:
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
        assert F.pow(a, q) == a
    for a, b, c in product(elems, repeat=3):
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_smallest_irreducible_matches_oracle():
    for q, d in ((2, 3), (3, 2), (5, 2), (4, 2)):
        F = field_from_order(q)
        mine = smallest_irreducible(F, d)
        first = next(f for f in oracle_monic_polys(F, d) if oracle_is_irreducible(f))
        assert mine == first
        assert oracle_is_irreducible(mine)


# -- factorization of x^n - 1 ------------------------------------------------------


def test_factor_x3_minus_1_over_gf7():
    F = field_from_order(7)
    factors = factor_xn_minus_1(3, F)
    # oracle: roots of x^3 - 1 in GF(7) are 1, 2, 4 (2 and 4 primitive)
    roots = sorted(a for a in F.elements() if F.pow(a, 3) == 1)
    assert roots == [1, 2, 4]
    assert factors[0].coeffs == (6, 1)  # x - 1 pinned first
    # remaining factors in canonical order (leading-end comparison):
    # x - 4 = x + 3 before x - 2 = x + 5
    assert [f.coeffs for f in factors[1:]] == [(3, 1), (5, 1)]
    assert {f.coeffs for f in factors} == {(6, 1), (5, 1), (3, 1)}


def test_factor_n1():
    F = field_from_order(2)
    assert [f.coeffs for f in factor_xn_minus_1(1, F)] == [(1, 1)]


def test_factor_x7_minus_1_over_gf2():
    F = field_from_order(2)
    factors = factor_xn_minus_1(7, F)
    # oracle: brute-force trial division of x^7 + 1 over GF(2)
    xn1 = Poly.x_pow_n_minus_1(F, 7)
    divisors = [
        f
        for d in (1, 2, 3)
        for f in oracle_monic_polys(F, d)
        if (xn1 % f).is_zero() and oracle_is_irreducible(f)
    ]
    assert sorted(f.coeffs for f in factors) == sorted(f.coeffs for f in divisors)
    assert [f.coeffs for f in factors] == [(1, 1), (1, 1, 0, 1), (1, 0, 1, 1)]


def test_factor_gcd_violation():
    with pytest.raises(GcdViolation):
        factor_xn_minus_1(7, field_from_order(7))
    with pytest.raises(GcdViolation):
        factor_xn_minus_1(4, field_from_order(3))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_factor_product_and_degrees(q):
    F = field_from_order(q)
    for n in range(1, 16, 2):
        if math.gcd(n, q) != 1:
            continue
        pairs = factor_xn_minus_1_with_cosets(n, F)
        prod = Poly.one(F)
        for f, coset in pairs:
            assert f.degree == len(coset)
            prod = prod * f
        assert prod == Poly.x_pow_n_minus_1(F, n)
        sizes = sorted(len(c) for c in cyclotomic_cosets(n, q))
        assert sorted(f.degree for f, _ in pairs) == sizes


def sympy_factors(p, n):
    """Monic irreducible factors of x^n - 1 over GF(p), as coefficient tuples."""
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    _, facs = sympy.Poly(x**n - 1, x, modulus=p).factor_list()
    return sorted(tuple(int(c) % p for c in reversed(f.all_coeffs())) for f, _ in facs)


@pytest.mark.parametrize(
    "q, n_max", [(2, 101), (3, 101), (5, 101), (7, 101), (11, 101), (13, 101), (257, 15), (1021, 15)]
)
def test_factor_matches_sympy(q, n_max):
    F = field_from_order(q)
    for n in range(1, n_max + 1, 2):
        if math.gcd(n, q) == 1:
            assert sorted(f.coeffs for f in factor_xn_minus_1(n, F)) == sympy_factors(q, n), n


@pytest.mark.parametrize("q", [4, 8, 9, 16])
def test_factor_extension_fields_crt(q):
    F = field_from_order(q)
    one, zero = Poly.one(F), Poly.zero(F)
    for n in range(1, 36, 2):
        if math.gcd(n, q) != 1:
            continue
        s = primitive_idempotents(n, F)
        assert len(s.factors) == len(cyclotomic_cosets(n, q))
        prod = one
        for f in s.factors:
            prod = prod * f
        assert prod == Poly.x_pow_n_minus_1(F, n)
        for i, f in enumerate(s.factors):
            assert all(f.gcd(g) == one for g in s.factors[i + 1 :])
        # the CRT definition: e_i = 1 mod f_i and e_i = 0 mod f_j, j != i
        for i, e in enumerate(s.idems):
            assert [Poly(F, e.coeffs) % f for f in s.factors] == [one if j == i else zero for j in range(len(s))]


def test_factor_n101_over_gf3():
    F = field_from_order(3)
    d = mult_order(3, 101)
    assert [f.degree for f in factor_xn_minus_1(101, F)] == [1] + [d] * (100 // d)


def test_factor_length_bound():
    with pytest.raises(Overflow):
        factor_xn_minus_1(MAX_N + 1 + MAX_N % 2, field_from_order(2))


def _compose_power(f, s):
    """f(x^s) as a polynomial."""
    F = f.field
    out = [F.zero] * ((len(f.coeffs) - 1) * s + 1)
    for i, c in enumerate(f.coeffs):
        out[i * s] = F.add(out[i * s], c)
    return Poly(F, out)


@pytest.mark.parametrize("q, n", [(2, 7), (2, 15), (3, 13), (4, 9), (5, 21), (7, 9), (9, 13), (13, 21)])
def test_coset_labels_follow_zeta_convention(q, n):
    # zeta = x mod m1, m1 the first factor whose roots have order exactly n;
    # f is labelled {s : f(x^s) = 0 mod m1}
    F = field_from_order(q)
    pairs = factor_xn_minus_1_with_cosets(n, F)
    m1 = next(
        f
        for f, _ in pairs
        if all(not (Poly.x_pow_n_minus_1(F, n // p) % f).is_zero() for p in prime_factors(n))
    )
    for f, coset in pairs:
        assert {s for s in range(n) if (_compose_power(f, s) % m1).is_zero()} == set(coset)


def test_coset_labels_example_gf2():
    pairs = factor_xn_minus_1_with_cosets(7, field_from_order(2))
    # zeta is a root of m1 = x^3 + x + 1, the first of the two cubics
    assert [(f.coeffs, c) for f, c in pairs] == [((1, 1), [0]), ((1, 1, 0, 1), [1, 2, 4]), ((1, 0, 1, 1), [3, 6, 5])]


# -- cyclotomic cosets ----------------------------------------------------------------


def test_cosets_examples():
    assert cyclotomic_cosets(7, 2) == [[0], [1, 2, 4], [3, 6, 5]]
    assert cyclotomic_cosets(3, 7) == [[0], [1], [2]]
    assert cyclotomic_cosets(1, 5) == [[0]]
    with pytest.raises(GcdViolation):
        cyclotomic_cosets(6, 2)


@given(n=st.integers(2, 60), q=st.integers(2, 16))
@settings(max_examples=60, deadline=None)
def test_cosets_partition(n, q):
    if math.gcd(n, q) != 1:
        return
    cosets = cyclotomic_cosets(n, q)
    flat = [x for c in cosets for x in c]
    assert sorted(flat) == list(range(n))
    for c in cosets:
        assert c[0] == min(c)
        for i, x in enumerate(c):
            assert c[(i + 1) % len(c)] == (x * q) % n or (i + 1 == len(c))
        assert (c[-1] * q) % n == c[0]


# -- multiplicative order ------------------------------------------------------------


def test_mult_order_examples():
    assert mult_order(3, 7) == 6
    assert mult_order(2, 7) == 3
    assert mult_order(8, 7) == 1  # q = 1 mod n
    with pytest.raises(GcdViolation):
        mult_order(3, 6)
    with pytest.raises(GcdViolation):
        mult_order(5, 1)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 9, 13])
def test_mult_order_divides_phi(q):
    for n in range(2, 201):
        if math.gcd(n, q) != 1:
            continue
        assert oracle_phi(n) % mult_order(q, n) == 0


# -- square roots of -1 -----------------------------------------------------------------


def test_sqrt_minus_one_examples():
    assert sqrt_minus_one(field_from_order(2)) == 1
    assert sqrt_minus_one(field_from_order(5)) == 2
    assert sqrt_minus_one(field_from_order(7)) is None


def test_sqrt_minus_one_all_prime_powers_to_100():
    for q, p in oracle_prime_powers(100):
        F = field_from_order(q)
        r = sqrt_minus_one(F)
        if q % 4 == 3:
            assert r is None
        else:
            assert r is not None
            assert F.mul(r, r) == F.neg(F.one)


# -- polynomial arithmetic ----------------------------------------------------------------


@given(data=st.data(), q=st.sampled_from([2, 3, 5, 4]))
@settings(max_examples=80, deadline=None)
def test_poly_divmod_roundtrip(data, q):
    F = field_from_order(q)
    a = Poly(F, data.draw(st.lists(st.integers(0, q - 1), min_size=0, max_size=7)))
    b = Poly(F, data.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=5)))
    if b.is_zero():
        return
    quo, rem = a.divmod(b)
    assert quo * b + rem == a
    assert rem.degree < b.degree


@given(data=st.data(), q=st.sampled_from([2, 3, 5]))
@settings(max_examples=50, deadline=None)
def test_poly_ext_gcd(data, q):
    F = field_from_order(q)
    a = Poly(F, data.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=6)))
    b = Poly(F, data.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=6)))
    if a.is_zero() and b.is_zero():
        return
    g, s, t = a.ext_gcd(b)
    assert s * a + t * b == g
    if not a.is_zero():
        assert (a % g).is_zero()
    if not b.is_zero():
        assert (b % g).is_zero()


def test_extfield_tower_arithmetic():
    # GF(9) built over GF(3); Frobenius and inverses behave
    F9 = field_from_order(9)
    assert isinstance(F9, ExtField)
    for a in F9.elements():
        assert F9.pow(a, 9) == a
        if a:
            assert F9.mul(a, F9.inv(a)) == 1
