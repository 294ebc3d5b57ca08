import functools
import gc
import math
import random
import tracemalloc
import weakref
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_python
from oracles import _shifted_rows_product, circulant_product, factor_all_branches

from cdcodes import field as field_module
from cdcodes.algebra import TwistedDihedralAlgebra
from cdcodes.codes import BetaVector, build_plain_code, hull_dimension, kt_fields
from cdcodes.cyclic import primitive_idempotents
from cdcodes.errors import DimensionMismatch, GcdViolation, NotPrime, Overflow, ReducibleModulus
from cdcodes.field import (
    MAX_N,
    MAX_TABLE_SIZE,
    ExtField,
    Poly,
    PrimeField,
    _check_primitive_idempotents,
    _convolve,
    _multiplier_images,
    _order_idempotent,
    cyclotomic_cosets,
    factor_xn_minus_1_with_cosets,
    field_from_order,
    is_prime,
    minus_one_in_powers,
    mult_order,
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
    for F in (field_from_order(7), PrimeField(7)):
        assert type(F) is PrimeField and (F.p, F.m, F.q) == (7, 1, 7)
        assert F.modulus.coeffs == (0, 1)  # the X - 0 convention


def test_field_make_not_prime():
    with pytest.raises(NotPrime):
        PrimeField(4)
    for q in (12, 1, 0, -7):
        with pytest.raises(NotPrime):
            field_from_order(q)


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
        ExtField(F2, Poly(F2, (1, 0, 1)))  # (X+1)^2


def test_modulus_must_be_monic_over_the_prime_base():
    F3, F9 = field_from_order(3), field_from_order(9)
    with pytest.raises(DimensionMismatch, match="over a prime field"):
        ExtField(F9, Poly(F9, (1, 0, 1)))
    with pytest.raises(DimensionMismatch, match="over a prime field"):
        ExtField(F3, Poly(field_from_order(5), (2, 0, 1)))
    for coeffs in ((1, 0, 2), (2,)):  # 2X^2 + 1, and a constant
        with pytest.raises(ReducibleModulus, match="monic of degree >= 1"):
            ExtField(F3, Poly(F3, coeffs))


@pytest.mark.parametrize("q", [5, 9])
def test_zero_is_refused_as_a_divisor(q):
    F = field_from_order(q)
    with pytest.raises(ZeroDivisionError, match="inverse of 0"):
        F.inv(0)
    with pytest.raises(ZeroDivisionError, match="polynomial division by zero"):
        Poly(F, (1, 1)).divmod(Poly.zero(F))


def test_polynomials_over_different_fields_do_not_mix():
    a, b = Poly.x(field_from_order(5)), Poly.x(field_from_order(7))
    for op in (Poly.__add__, Poly.__mul__, Poly.divmod):
        with pytest.raises(DimensionMismatch, match="different fields"):
            op(a, b)


def test_field_make_overflow():
    # refused before q is factored: trial division of 2^200 would not end
    for q in (2**200, 4099, 10**4):
        with pytest.raises(Overflow, match=f"field of size {q} too large"):
            field_from_order(q)


def test_field_cache_returns_the_held_field():
    F = field_from_order(9)
    assert field_from_order(9) is F
    assert TwistedDihedralAlgebra(field_from_order(9), 5, -1).field is F
    F3 = PrimeField(3)
    assert ExtField(F3, Poly(F3, F.modulus.coeffs)) is not F  # the constructors never cache


def test_field_cache_frees_unheld_fields():
    # GF(2^9) is held by no other test: once dropped, it and its tables go
    F = field_from_order(512)
    field, tables = weakref.ref(F), weakref.ref(F.tables())
    del F
    gc.collect()
    assert field() is None and tables() is None
    assert field_from_order(512).q == 512


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_field_axioms_exhaustive(q):
    F = field_from_order(q)
    elems = range(q)
    for a in elems:
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
        assert functools.reduce(F.mul, [a] * q) == a  # Frobenius fixes GF(q)
    for a, b, c in product(elems, repeat=3):
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


# -- the lookup tables against independent arithmetic ------------------------------


def sympy_field_ops(F):
    """add, mul and neg of F on codes, by sympy's galoistools on digit polynomials."""
    gt = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    p, m = F.p, F.m
    modulus = [int(c) for c in reversed(F.modulus.coeffs)]
    polys = [gt.gf_strip([ZZ(a // p**i % p) for i in reversed(range(m))]) for a in range(F.q)]

    def code(f):
        return sum(int(c) * p**i for i, c in enumerate(reversed(f)))

    def add(a, b):
        return code(gt.gf_add(polys[a], polys[b], p, ZZ))

    def mul(a, b):
        return code(gt.gf_rem(gt.gf_mul(polys[a], polys[b], p, ZZ), modulus, p, ZZ))

    def neg(a):
        return code(gt.gf_neg(polys[a], p, ZZ))

    return add, mul, neg


EXTENSION_QS = (4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128, 169, 243, 256)


def test_gf27_modulus_is_canonical():
    # X^3 + 2X + 1 is the smallest monic irreducible cubic over GF(3), so the
    # q = 27 case of the exhaustive table check covers it
    assert field_from_order(27).modulus.coeffs == (1, 2, 0, 1)


@pytest.mark.parametrize(
    "make",
    [functools.partial(field_from_order, q) for q in EXTENSION_QS],
    ids=[f"q{q}" for q in EXTENSION_QS],
)
def test_tables_match_sympy_exhaustive(make):
    # GF(9)'s X^2 + 1 and GF(256)'s X^8 + X^4 + X^3 + X + 1 are not primitive
    F = make()
    t = F.tables()
    add, mul, neg = sympy_field_ops(F)
    q = F.q
    oracle_add = np.zeros((q, q), dtype=np.int64)
    oracle_mul = np.zeros((q, q), dtype=np.int64)
    for a in range(q):
        for b in range(a, q):
            oracle_add[a, b] = oracle_add[b, a] = add(a, b)
            oracle_mul[a, b] = oracle_mul[b, a] = mul(a, b)
    assert np.array_equal(t.add, oracle_add)
    assert np.array_equal(t.mul, oracle_mul)
    assert t.neg.tolist() == [neg(a) for a in range(q)]
    assert t.inv[0] == 0 and all(mul(a, int(t.inv[a])) == 1 for a in range(1, q))
    assert all(x.dtype == np.int64 for x in (t.add, t.mul, t.neg, t.inv))
    assert (F.add(q - 1, 1), F.mul(q - 1, q - 2), F.neg(1), F.inv(q - 1)) == (
        add(q - 1, 1),
        mul(q - 1, q - 2),
        neg(1),
        int(t.inv[q - 1]),
    )


@pytest.mark.parametrize("p, m", [(2, 10), (3, 7)])
def test_tables_match_sympy_sampled(p, m):
    base = PrimeField(p)
    F = ExtField(base, smallest_irreducible(base, m))  # uncached, so the tables go with the test
    t = F.tables()
    add, mul, neg = sympy_field_ops(F)
    rng = random.Random(p * 1000 + m)
    for _ in range(2000):
        a, b = rng.randrange(F.q), rng.randrange(F.q)
        assert (t.add[a, b], t.mul[a, b], t.neg[a]) == (add(a, b), mul(a, b), neg(a))
        if a:
            assert mul(a, int(t.inv[a])) == 1


@pytest.mark.parametrize("p", [2, 3, 1021, 4093])
def test_prime_tables_match_integer_arithmetic(p):
    t = PrimeField(p).tables()  # uncached, so the tables go with the test
    a = np.arange(p)
    for lo in range(0, p, 512):
        rows = a[lo : lo + 512, None]
        assert np.array_equal(t.add[lo : lo + 512], (rows + a) % p)
        assert np.array_equal(t.mul[lo : lo + 512], rows * a % p)
    assert np.array_equal(t.neg, -a % p)
    assert t.inv.tolist() == [0] + [pow(x, p - 2, p) for x in range(1, p)]


@pytest.mark.parametrize("q, n", [(9, 7), (4, 11), (9, 11)])
def test_extension_scalar_ops_off_the_hot_path(monkeypatch, q, n):
    # vectors, polynomials and matrices read the tables; the scalar ExtField
    # methods remain for callers outside the pipeline
    calls = Counter()

    def counting(name, method):
        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)

        return wrapper

    for name in ("add", "mul", "neg"):
        monkeypatch.setattr(ExtField, name, counting(name, getattr(ExtField, name)))
    A = TwistedDihedralAlgebra(field_from_order(q), n, -1)
    A.decompose()
    A.decomposition_report()
    for beta in (None, BetaVector.random(kt_fields(A), random.Random(7))):
        hull_dimension(build_plain_code(A, beta))
    assert sum(calls.values()) <= 10, dict(calls)


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
    factors = [f for f, _ in factor_xn_minus_1_with_cosets(3, F)]
    # oracle: roots of x^3 - 1 in GF(7) are 1, 2, 4 (2 and 4 primitive)
    roots = sorted(a for a in range(7) if F.mul(F.mul(a, a), a) == 1)
    assert roots == [1, 2, 4]
    assert factors[0].coeffs == (6, 1)  # x - 1 pinned first
    # remaining factors in canonical order (leading-end comparison):
    # x - 4 = x + 3 before x - 2 = x + 5
    assert [f.coeffs for f in factors[1:]] == [(3, 1), (5, 1)]
    assert {f.coeffs for f in factors} == {(6, 1), (5, 1), (3, 1)}


def test_factor_n1():
    F = field_from_order(2)
    assert [f.coeffs for f, _ in factor_xn_minus_1_with_cosets(1, F)] == [(1, 1)]


def test_factor_x7_minus_1_over_gf2():
    F = field_from_order(2)
    factors = [f for f, _ in factor_xn_minus_1_with_cosets(7, F)]
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
        factor_xn_minus_1_with_cosets(7, field_from_order(7))
    with pytest.raises(GcdViolation):
        factor_xn_minus_1_with_cosets(4, field_from_order(3))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_factor_product_and_degrees(q):
    F = field_from_order(q)
    for n in range(1, 16, 2):
        if math.gcd(n, q) != 1:
            continue
        pairs = factor_xn_minus_1_with_cosets(n, F)
        prod = Poly.one(F)
        for f, _ in pairs:
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
            assert sorted(f.coeffs for f, _ in factor_xn_minus_1_with_cosets(n, F)) == sympy_factors(q, n), n


@pytest.mark.parametrize("q", [4, 8, 9, 16, 2, 3, 5, 7, 13])
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
            assert [Poly(F, e.coeffs.tolist()) % f for f in s.factors] == [one if j == i else zero for j in range(len(s))]


def test_factor_matches_sympy_at_1023():
    F = field_from_order(2)
    assert sorted(f.coeffs for f, _ in factor_xn_minus_1_with_cosets(1023, F)) == sympy_factors(2, 1023)


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_factoring_matches_the_all_branch_split(q):
    """One branch per divisor and its multiplier orbit give, byte for byte,
    the pairs of splitting every idempotent by every coset sum."""
    F = field_from_order(q)
    for n in range(9, 64, 2):
        if is_prime(n) or math.gcd(n, q) != 1:
            continue
        got = [(f.coeffs, e.dtype, e.tobytes()) for f, e in factor_xn_minus_1_with_cosets(n, F)]
        assert got == [(f.coeffs, e.dtype, e.tobytes()) for f, e in factor_all_branches(n, F)], n


@pytest.mark.parametrize("q, d", [(2, 21), (3, 35), (4, 45), (9, 7), (13, 15)])
def test_multiplier_images_are_automorphisms(q, d):
    """Row i is a(x^s) mod x^d - 1 for s = units[i], and mu_s(ab) = mu_s(a) mu_s(b)."""
    F = field_from_order(q)
    rng = np.random.default_rng(q * d)
    units = [s for s in range(d) if math.gcd(s, d) == 1]
    a, b = rng.integers(0, q, d), rng.integers(0, q, d)
    images = _multiplier_images(a, units)
    images_b = _multiplier_images(b, units)
    images_ab = _multiplier_images(_convolve(F, a, b), units)
    xd1 = Poly.x_pow_n_minus_1(F, d)
    for i, s in enumerate(units):
        substituted = [0] * (s * (d - 1) + 1)
        substituted[::s] = a.tolist()  # a_j at x^(j s)
        reduced = (Poly(F, substituted) % xd1).coeffs
        assert images[i].tolist() == list(reduced) + [0] * (d - len(reduced)), s
        assert images_ab[i].tolist() == _convolve(F, images[i], images_b[i]).tolist(), s


def _root_order(f, n):
    """The order of the roots of the irreducible factor f of x^n - 1."""
    return next(d for d in range(1, n + 1) if n % d == 0 and (Poly.x_pow_n_minus_1(f.field, d) % f).is_zero())


@pytest.mark.parametrize("q, n", [(2, 45), (3, 35), (4, 63), (5, 21), (7, 45), (25, 63), (13, 1)])
def test_order_idempotents_are_orthogonal_and_sum_to_one(q, n):
    """E_d, tiled n/d times and scaled by (n/d)^-1, over the divisors d of n:
    orthogonal idempotents summing to 1, each the sum of the primitive
    idempotents whose roots have order d."""
    F = field_from_order(q)
    t = F.tables()
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    lifted = {d: t.mul[pow(n // d, -1, F.p), np.tile(_order_idempotent(F, d), n // d)] for d in divisors}
    by_order = {d: np.zeros(n, dtype=np.int64) for d in divisors}
    for f, e in factor_xn_minus_1_with_cosets(n, F):
        d = _root_order(f, n)
        by_order[d] = t.add[by_order[d], e]
    total = np.zeros(n, dtype=np.int64)
    for d, a in lifted.items():
        assert a.tolist() == by_order[d].tolist(), d
        total = t.add[total, a]
        for d2, b in lifted.items():
            assert _convolve(F, a, b).tolist() == (a if d2 == d else 0 * a).tolist(), (d, d2)
    assert total.tolist() == [F.one] + [0] * (n - 1)


def _certificate_mutants(F, pairs, rng):
    """Corrupted copies of the (factor, idempotent) pairs at two random
    indices i != j, each with the message of the assertion that rejects it."""
    t = F.tables()
    i, j = rng.sample(range(len(pairs)), 2)
    (fi, ei), (fj, ej) = pairs[i], pairs[j]
    k = rng.randrange(len(ei))
    changed = ei.copy()
    changed[k] = t.add[changed[k], rng.randrange(1, F.q)]
    zero = np.zeros_like(ej)
    edits = [
        ({i: (fi, changed)}, "E != 0"),  # one coefficient changed
        ({i: (fi, ej), j: (fj, ei)}, "E != 0"),  # swapped
        ({i: (fi, t.add[ei, ej]), j: (fj, zero)}, "E != 0"),  # summed into one
        ({i: (Poly.one(F), ei)}, "degree >= 1"),  # a constant factor
        # passes all but the degree bound: r distinct monic factors with
        # product x^n - 1, the E summing to 1, and f E = 0 for every pair
        ({i: (fi * fj, t.add[ei, ej]), j: (Poly.one(F), zero)}, "degree >= 1"),
        ({i: (fi, zero)}, "sum to 1"),  # f E = 0 holds for E = 0
    ]
    return [([edit.get(m, pair) for m, pair in enumerate(pairs)], match) for edit, match in edits]


@pytest.mark.parametrize(
    "q, n",
    [(q, n) for q, ns in ((2, (7, 21, 45)), (3, (5, 13, 35)), (4, (7, 15, 45)), (9, (5, 7, 35)), (13, (3, 7, 15))) for n in ns],
)
def test_idempotent_certificate_rejects_mutants(q, n, rng):
    F = field_from_order(q)
    pairs = factor_xn_minus_1_with_cosets(n, F)
    _check_primitive_idempotents(n, F, pairs)
    for _ in range(3):
        for bad, match in _certificate_mutants(F, pairs, rng):
            with pytest.raises(AssertionError, match=match):
                _check_primitive_idempotents(n, F, bad)


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 25])
def test_convolve_with_a_short_first_operand(q):
    """A first operand of k <= n coefficients multiplies as its zero-padding to n."""
    F = field_from_order(q)
    rng = np.random.default_rng(q)
    for n in (1, 7, 23, 45):
        for k in sorted({k for k in (1, 2, n // 2 + 1, n) if k <= n}):
            a, b = rng.integers(0, q, k), rng.integers(0, q, n)
            padded = np.concatenate((a, np.zeros(n - k, dtype=a.dtype)))
            product = _convolve(F, a, b).tolist()
            assert product == _convolve(F, padded, b).tolist() == _shifted_rows_product(F, padded, b).tolist(), (n, k)


def test_factor_n101_over_gf3():
    F = field_from_order(3)
    d = mult_order(3, 101)
    assert [f.degree for f, _ in factor_xn_minus_1_with_cosets(101, F)] == [1] + [d] * (100 // d)


def test_factor_length_bound():
    with pytest.raises(Overflow):
        factor_xn_minus_1_with_cosets(MAX_N + 1 + MAX_N % 2, field_from_order(2))


@pytest.mark.parametrize("p", [2, 3, 13, 4093])
@pytest.mark.parametrize("n", [1, 3, 23, 1023])
def test_prime_convolution_matches_circulant(p, n):
    F = field_from_order(p)
    rng = np.random.default_rng(p * n)
    for _ in range(3):
        a, b = rng.integers(0, p, n), rng.integers(0, p, n)
        assert _convolve(F, a, b).tolist() == circulant_product(F, a, b).tolist()


@pytest.mark.parametrize("q", [4, 8, 9, 16, 27, 64, 4096])
def test_extension_convolution_matches_circulant(q):
    F = field_from_order(q)
    rng = np.random.default_rng(q)
    for n in (1, 3, 23, 255):
        for k in sorted({k for k in (1, 2, n // 2 + 1, n) if k <= n}):
            a, b = rng.integers(0, q, k), rng.integers(0, q, n)
            assert _convolve(F, a, b).tolist() == circulant_product(F, a, b).tolist(), (n, k)


def test_products_leave_no_square_table_cached():
    # a product may hold a len(a) x n table while it runs, but every array
    # left in the module's caches afterwards is 1-D (the unit gathers), so
    # scans over many lengths do not pin n^2 words per length
    F = field_from_order(4)
    for n in range(3, 128, 2):
        TwistedDihedralAlgebra(F, n, -1).decompose()
    gc.collect()
    caches = [c for c in vars(field_module).values() if isinstance(c, dict)]
    cached = [v for c in caches for v in c.values() if isinstance(v, np.ndarray)]
    assert cached and all(v.ndim == 1 for v in cached), sorted({v.shape for v in cached if v.ndim != 1})


def test_prime_convolution_at_its_largest_sums():
    # all n products in each coefficient are (p - 1)^2, near the largest p and n
    p, n = 4093, 4095
    full = np.full(n, p - 1, dtype=np.int64)
    assert _convolve(field_from_order(p), full, full).tolist() == [n * (p - 1) ** 2 % p] * n


def test_prime_convolution_sums_fit_int64():
    # `_convolve` sums n products below p^2 in int64 before reducing mod p
    p_max = max(p for p in range(MAX_TABLE_SIZE + 1) if is_prime(p))
    assert MAX_N * (p_max - 1) ** 2 < 2**63


def test_negative_exponent_raises():
    # e >>= 1 stays at -1, so a negative exponent must be refused, not looped on
    code = (
        "from cdcodes.errors import DomainError\n"
        "from cdcodes.field import Poly, field_from_order\n"
        "F = field_from_order(3)\n"
        "try:\n"
        "    Poly.x(F).pow_mod(-1, Poly(F, (1, 0, 1)))\n"
        "except DomainError:\n"
        "    print('refused')\n"
    )
    proc = run_python(code, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refused\n"


def test_coset_labels_example_gf2():
    pairs = factor_xn_minus_1_with_cosets(7, field_from_order(2))
    # x + 1 first, then the two cubics in canonical order, each with its
    # idempotent: 1 + x + x^2 + x^4 is 0 mod x + 1, 1 mod x^3 + x + 1 (where
    # x^4 = x^2 + x) and 0 mod x^3 + x^2 + 1 (where x^4 = x^2 + x + 1)
    assert [(f.coeffs, e.tolist()) for f, e in pairs] == [
        ((1, 1), [1, 1, 1, 1, 1, 1, 1]),
        ((1, 1, 0, 1), [1, 1, 1, 0, 1, 0, 0]),
        ((1, 0, 1, 1), [1, 0, 0, 1, 0, 1, 1]),
    ]


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


def test_minus_one_in_powers_matches_the_scan():
    # read off q^(ord/2), against a scan of q^1 .. q^ord for -1, on every prime
    # power q <= 128 and odd n < 600 coprime to it
    for q, _ in oracle_prime_powers(128):
        for n in range(3, 600, 2):
            if math.gcd(n, q) != 1:
                continue
            x, scan = q % n, False
            while not scan and x != 1:
                scan = x == n - 1
                x = x * q % n
            assert minus_one_in_powers(q, n) == scan, (q, n)


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


def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _loop_divmod(F, a, b):
    """Schoolbook division, one scalar field operation at a time."""
    rem, d = list(a), len(b) - 1
    quo = [0] * max(0, len(rem) - d)
    for i in range(len(rem) - d - 1, -1, -1):
        c = F.mul(rem[i + d], F.inv(b[-1]))
        quo[i] = c
        for j, y in enumerate(b):
            rem[i + j] = F.add(rem[i + j], F.neg(F.mul(c, y)))
    return _trim(quo), _trim(rem[:d])


@pytest.mark.parametrize("q", [2, 4, 5, 8, 9, 16, 27, 64, 1021, 4096])
def test_poly_arithmetic_matches_scalar_loops(q):
    F = field_from_order(q)
    rng = random.Random(q)
    zero = Poly.zero(F)
    for trial in range(60):
        long = trial % 3 == 0  # every third pair has operands of up to 40 coefficients
        a = [rng.randrange(q) for _ in range(rng.randrange(0, 41 if long else 9))]
        b = [rng.randrange(q) for _ in range(rng.randrange(0, 40 if long else 6))] + [rng.randrange(1, q)]
        c = rng.randrange(q)
        A, B = Poly(F, a), Poly(F, b)
        pad = max(len(a), len(b))
        a0, b0 = a + [0] * (pad - len(a)), b + [0] * (pad - len(b))
        assert (A + B).coeffs == _trim(F.add(x, y) for x, y in zip(a0, b0))
        assert (-A).coeffs == _trim(F.neg(x) for x in a)
        assert A.scale(c).coeffs == _trim(F.mul(c, x) for x in a)
        prod = [0] * (len(a) + len(b))
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = F.add(prod[i + j], F.mul(x, y))
        assert (A * B).coeffs == (B * A).coeffs == _trim(prod)
        assert A * zero == zero * A == B * zero == zero
        quo, rem = A.divmod(B)
        assert (quo.coeffs, rem.coeffs) == _loop_divmod(F, a, b)


@pytest.mark.parametrize("q", [2, 9])
def test_poly_product_of_long_and_short_factors(q):
    # the product gathers one row per coefficient of the shorter factor,
    # whichever side it is on: 12 rows of the longer one zero-padded to 2012,
    # not 2001 rows (a 32 MB table)
    F = field_from_order(q)
    rng = random.Random(q)
    long = Poly(F, [rng.randrange(q) for _ in range(2000)] + [1])
    short = Poly(F, [rng.randrange(q) for _ in range(11)] + [1])
    tracemalloc.start()
    try:
        products = (long * short, short * long)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert products[0] == products[1]
    assert products[0].degree == 2011
    assert products[0].divmod(short) == (long, Poly.zero(F))
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_extfield_tower_arithmetic():
    # GF(9) built over GF(3); Frobenius and inverses behave
    F9 = field_from_order(9)
    assert isinstance(F9, ExtField)
    for a in range(9):
        assert functools.reduce(F9.mul, [a] * 9) == a
        if a:
            assert F9.mul(a, F9.inv(a)) == 1
