import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_python
from oracles import _shifted_rows_product, power_by_squaring

from cdcodes.cyclic import CyclicElem, conj_pairing, lambda_n, primitive_idempotents
from cdcodes.errors import DimensionMismatch, DomainError, GcdViolation
from cdcodes.field import Poly, _unit_index, cyclotomic_cosets, field_from_order, mult_order

GRID_QS = (2, 3, 4, 5, 7, 9, 13)


def idem_set(q, n, _cache={}):
    key = (q, n)
    if key not in _cache:
        _cache[key] = primitive_idempotents(n, field_from_order(q))
    return _cache[key]


def degrees(s):
    return [f.degree for f in s.factors]


# -- multiplication ---------------------------------------------------------------


def test_u_times_u_inverse():
    F = field_from_order(5)
    u = CyclicElem.u_power(F, 7, 1)
    un1 = CyclicElem.u_power(F, 7, 6)
    assert u * un1 == CyclicElem.one(F, 7)


def test_e0_squared_paper_values():
    F = field_from_order(7)
    e0 = CyclicElem(F, (5, 5, 5))  # 5(1 + u + u^2)
    assert e0 * e0 == e0


def test_gf2_binomial_square():
    F = field_from_order(2)
    a = CyclicElem(F, (1, 1, 0))  # 1 + u
    assert a * a == CyclicElem(F, (1, 0, 1))  # 1 + u^2


@pytest.mark.parametrize("q, n", [(2, 9), (4, 7), (5, 11), (9, 5), (16, 15), (1021, 3)])
def test_arithmetic_matches_scalar_loops(q, n, rng):
    F = field_from_order(q)
    for _ in range(20):
        a = [rng.randrange(q) for _ in range(n)]
        b = [rng.randrange(q) for _ in range(n)]
        c = rng.randrange(q)
        A, B = CyclicElem(F, a), CyclicElem(F, b)
        assert (A + B).coeffs.tolist() == [F.add(x, y) for x, y in zip(a, b)]
        assert (-A).coeffs.tolist() == [F.neg(x) for x in a]
        assert A.scale(c).coeffs.tolist() == [F.mul(c, x) for x in a]
        prod = [0] * n
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[(i + j) % n] = F.add(prod[(i + j) % n], F.mul(x, y))
        assert (A * B).coeffs.tolist() == prod


@pytest.mark.parametrize("q, n", [(2, 9), (4, 7), (9, 5), (13, 3), (3, 9)])
def test_shift_bar_pow_match_index_loops(q, n, rng):
    """(3, 9) has gcd(n, q) > 1, where pow never takes the Frobenius; the
    large exponents reach its base-q Horner everywhere else.  q^n - 2 and
    (q^n - 1) / 2 have the form of the inverse and Euler-test exponents."""
    F = field_from_order(q)
    for _ in range(10):
        a = [rng.randrange(q) for _ in range(n)]
        A = CyclicElem(F, a)
        for k in (-n - 1, -1, 0, 1, 2, n + 2):
            assert A.shift(k).coeffs.tolist() == [a[(i - k) % n] for i in range(n)]
        assert A.bar().coeffs.tolist() == [a[-i % n] for i in range(n)]
        power = CyclicElem.one(F, n)
        for e in range(6):
            assert A.pow(e) == power
            power = power * A
    for _ in range(3):
        A = CyclicElem(F, [rng.randrange(q) for _ in range(n)])
        for e in (q, q + 1, q**2, q**n - 2, (q**n - 1) // 2, rng.randrange(q**40)):
            assert A.pow(e) == power_by_squaring(A, e), e


@pytest.mark.parametrize("q, n", [(2, 9), (4, 7), (9, 5), (13, 3), (13, 5), (3, 7)])
def test_frobenius_gather_is_the_q_th_power(q, n, rng):
    """a[_unit_index(n, q)] = a^q, and it fixes every primitive idempotent."""
    F = field_from_order(q)
    frob = _unit_index(n, q)
    for _ in range(10):
        A = CyclicElem(F, [rng.randrange(q) for _ in range(n)])
        assert CyclicElem(F, A.coeffs[frob]) == power_by_squaring(A, q)
    for e in idem_set(q, n).idems:
        assert e.coeffs[frob].tolist() == e.coeffs.tolist()


def test_negative_power_raises():
    # e >>= 1 stays at -1, so a negative exponent must be refused, not looped on
    code = (
        "from cdcodes.cyclic import CyclicElem\n"
        "from cdcodes.errors import DomainError\n"
        "from cdcodes.field import field_from_order\n"
        "try:\n"
        "    CyclicElem.u_power(field_from_order(5), 7, 1).pow(-1)\n"
        "except DomainError:\n"
        "    print('refused')\n"
    )
    proc = run_python(code, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refused\n"
    with pytest.raises(DomainError, match="exponent -1 is negative"):
        CyclicElem.u_power(field_from_order(5), 7, 1).pow(-1)


def test_elements_of_different_rings_do_not_mix():
    x = CyclicElem.u_power(field_from_order(5), 7, 1)
    for y in (CyclicElem.u_power(field_from_order(5), 9, 1), CyclicElem.u_power(field_from_order(7), 7, 1)):
        for op in (CyclicElem.__add__, CyclicElem.__sub__, CyclicElem.__mul__):
            with pytest.raises(DimensionMismatch, match="different algebras"):
                op(x, y)


def test_coeffs_are_a_read_only_copy():
    F = field_from_order(5)
    src = np.array([1, 2, 3], dtype=np.int64)
    e = CyclicElem(F, src)
    with pytest.raises(ValueError):
        e.coeffs[0] = 4
    src[0] = 4
    assert e.coeffs.tolist() == [1, 2, 3]
    for other in ((-e) * e, e.shift(1), e.bar(), e.pow(3), e + e):
        with pytest.raises(ValueError):
            other.coeffs[0] = 0


def test_equal_vectors_from_list_and_array():
    F = field_from_order(7)
    a, b = CyclicElem(F, [5, 3, 6]), CyclicElem(F, np.array([5, 3, 6]))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != CyclicElem(F, [5, 6, 3])
    assert a != CyclicElem(field_from_order(13), [5, 3, 6])


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_mul_commutative_associative(data):
    F = field_from_order(3)
    n = 5
    vec = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    a = CyclicElem(F, data.draw(vec))
    b = CyclicElem(F, data.draw(vec))
    c = CyclicElem(F, data.draw(vec))
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


# -- bar map ---------------------------------------------------------------------------


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_bar_involution_and_homomorphism(data):
    F = field_from_order(7)
    n = 3
    vec = st.lists(st.integers(0, 6), min_size=n, max_size=n)
    a = CyclicElem(F, data.draw(vec))
    b = CyclicElem(F, data.draw(vec))
    assert a.bar().bar() == a
    assert (a * b).bar() == a.bar() * b.bar()


def test_bar_paper_values():
    F = field_from_order(7)
    e = CyclicElem(F, (5, 3, 6))  # 5(1 + 2u + 4u^2)
    ebar = CyclicElem(F, (5, 6, 3))  # 5(1 + 4u + 2u^2)
    assert e.bar() == ebar
    e0 = CyclicElem(F, (5, 5, 5))
    assert e0.bar() == e0


# -- primitive idempotents -----------------------------------------------------------------


def test_idempotents_paper_example():
    s = idem_set(7, 3)
    assert [list(e.coeffs) for e in s.idems] == [[5, 5, 5], [5, 3, 6], [5, 6, 3]]
    assert degrees(s) == [1, 1, 1]


def test_idempotents_n1():
    s = primitive_idempotents(1, field_from_order(5))
    assert len(s) == 1 and s.idems[0].coeffs.tolist() == [1]


def test_idempotents_gf2_n7_dims():
    s = idem_set(2, 7)
    assert sorted(degrees(s)) == [1, 3, 3]
    assert degrees(s)[0] == 1


def test_e0_is_the_averaging_idempotent():
    # e_0 = (1/n) sum of all powers of u
    for q, n in ((7, 3), (3, 5), (2, 7), (5, 3)):
        F = field_from_order(q)
        s = idem_set(q, n)
        inv_n = F.inv(n % F.p)
        expected = CyclicElem(F, [inv_n] * n)
        assert s.idems[0] == expected


@pytest.mark.parametrize("q", GRID_QS)
def test_idempotent_invariants_full_grid(q):
    """Sum to 1, pairwise orthogonal, degrees sum to n: all odd n <= 35.  The
    products are the oracle's shifted rows, independent of the `_convolve`
    the factoring certifies the idempotents with."""
    F = field_from_order(q)
    for n in range(3, 36, 2):
        if math.gcd(n, q) != 1:
            continue
        s = idem_set(q, n)
        total = s.idems[0]
        zero = [0] * n
        for e in s.idems[1:]:
            total = total + e
        assert total == CyclicElem.one(F, n)
        for i, ei in enumerate(s.idems):
            for j, ej in enumerate(s.idems):
                assert _shifted_rows_product(F, ei.coeffs, ej.coeffs).tolist() == (ei.coeffs.tolist() if i == j else zero)
        assert sum(degrees(s)) == n


@pytest.mark.parametrize("q", GRID_QS)
def test_factor_pairing_and_degrees(q):
    """x - 1 comes first, the degrees are the coset sizes, and bar(e_i) = e_j
    exactly when f_j is the monic reciprocal x^deg f_i(1/x) / f_i(0)."""
    F = field_from_order(q)
    for n in range(3, 36, 2):
        if math.gcd(n, q) != 1:
            continue
        s = idem_set(q, n)
        assert s.factors[0] == Poly(F, (F.neg(F.one), F.one))
        assert sorted(degrees(s)) == sorted(len(c) for c in cyclotomic_cosets(n, q))
        pairing = conj_pairing(s)
        for i, f in enumerate(s.factors):
            reciprocal = Poly(F, f.coeffs[::-1]).monic()
            assert [j for j, g in enumerate(s.factors) if g == reciprocal] == [pairing[i]]


# -- conjugation pairing ------------------------------------------------------------------


def test_pairing_examples():
    assert conj_pairing(idem_set(7, 3)) == (0, 2, 1)
    p = conj_pairing(idem_set(2, 7))
    assert p[0] == 0 and all(p[i] != i for i in (1, 2))
    p = conj_pairing(idem_set(3, 5))
    assert p == (0, 1)  # the single nontrivial idempotent is self-conjugate


@pytest.mark.parametrize("q", GRID_QS)
def test_pairing_criteria_full_grid(q):
    """conj_pairing asserts both classical criteria internally."""
    for n in range(3, 36, 2):
        if math.gcd(n, q) != 1:
            continue
        conj_pairing(idem_set(q, n))


# -- lambda ---------------------------------------------------------------------------------


def test_lambda_examples():
    assert lambda_n(15, 2) == 2
    assert lambda_n(49, 3) == 6
    assert lambda_n(7, 3) == mult_order(3, 7)  # prime n
    with pytest.raises(GcdViolation):
        lambda_n(9, 3)
    with pytest.raises(GcdViolation):
        lambda_n(4, 3)


@pytest.mark.parametrize("q", GRID_QS)
def test_lambda_equals_min_block_dim_full_grid(q):
    for n in range(3, 36, 2):
        if math.gcd(n, q) != 1:
            continue
        lam = lambda_n(n, q)  # asserts agreement with coset sizes internally
        s = idem_set(q, n)
        assert lam == min(degrees(s)[1:])


# -- the set's fields and its pairing ---------------------------------------------------------


def test_idempotent_set_json():
    s = idem_set(7, 3)
    assert s.field.q == 7 and s.n == 3
    assert s.idems[1].coeffs.tolist() == [5, 3, 6]
    assert conj_pairing(s) == (0, 2, 1)  # e_0 self-conjugate, e_1 and e_2 paired
