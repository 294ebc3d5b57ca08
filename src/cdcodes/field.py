"""Exact arithmetic in GF(p^m), polynomials over it, and x^n - 1 machinery.

Field elements are encoded as integers in [0, q).  For GF(p^m) with modulus
basis 1, X, ..., X^(m-1), the element with coordinates (c_0, ..., c_{m-1})
has code c_0 + c_1*p + ... + c_{m-1}*p^(m-1).  All "first element
satisfying P" choices scan codes in ascending order, so every construction
here is deterministic.

The lookup tables (`Tables`) are the one definition of the arithmetic: they
are built vectorised, addition from the base-p digits and multiplication,
inversion and negation from one log/antilog pair, so fields are limited to
q <= MAX_TABLE_SIZE, which `field_make` enforces.  Vectors and polynomials
are added and scaled by table gathers; products of matrices go through
`Field.matmul`: integers mod p for prime fields, and for GF(p^m) the m x m
multiplication matrices over GF(p), again one integer product mod p.

x^n - 1 is factored over GF(q) itself, without a splitting field: its
primitive idempotents are split out of the fixed subalgebra of
GF(q)[x]/(x^n - 1) with length-n convolutions (Berlekamp's method), and each
factor is a gcd with x^n - 1.  The idempotents are returned with their
factors, so nothing downstream rebuilds them.

Polynomials are coefficient tuples in ascending degree with trailing zeros
trimmed.  The canonical order on monic polynomials of equal degree compares
coefficients from the leading end down, i.e. it coincides with the ascending
order of the integer encoding sum(c_i * q^i) + q^deg.
"""

from __future__ import annotations

import math
import weakref
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    GcdViolation,
    NotPrime,
    Overflow,
    ReducibleModulus,
)

# Fields are limited to this size: every product reads lookup tables.
MAX_TABLE_SIZE = 4096

# x^n - 1 is factored for n up to this bound, so that the (n, n) int64 index
# table of `_rot_index` (and each product table gathered through it) stays
# within 128 MiB.
MAX_N = 4096

_rot_cache: dict[int, np.ndarray] = {}


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n in ascending order."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


class Tables:
    """Dense int64 lookup tables: the arithmetic of GF(p^m) on element codes.

    add[a, b] adds base-p digits mod p.  mul, inv and neg read one
    log/antilog pair: the generator g is the first code whose powers run
    through all q - 1 units, and they are found as powers of the matrix of
    multiplication by g, a polynomial in the companion matrix of the modulus
    (the modulus need not be primitive).  neg is the row of -1 = p - 1 in
    mul.  digits[a] are the m base-p digits of a, and mat[a] is the m x m
    matrix over GF(p) of multiplication by a, for `ExtField.matmul`.  Every
    build is O(q^2) numpy work; field_make bounds q by MAX_TABLE_SIZE.
    """

    def __init__(self, field: "Field"):
        p, m, q = field.p, field.m, field.q
        self.pw = p ** np.arange(m)
        self.digits = np.arange(q)[:, None] // self.pw % p
        add = np.zeros((q, q), dtype=np.int16)  # every partial sum stays below q
        for d, w in zip(self.digits.T.astype(np.int16), self.pw.tolist()):
            add += (d[:, None] + d) % p * w
        self.add = add.astype(np.int64)
        companion = np.eye(m, k=-1, dtype=np.int64)  # column j: X^(j+1) mod modulus
        companion[:, -1] = -np.array(field.modulus.coeffs[:-1]) % p
        x_powers = [np.eye(m, dtype=np.int64)]
        for _ in range(m - 1):
            x_powers.append(companion @ x_powers[-1] % p)
        for g in range(1, q):
            step = np.tensordot(self.digits[g], x_powers, 1) % p  # multiplication by g
            powers = np.eye(1, m, dtype=np.int64)  # digits of g^0, g^1, ... by doubling
            while len(powers) < q - 1:
                powers = np.vstack([powers, powers @ step.T % p])
                step = step @ step % p
            exp = powers[: q - 1] @ self.pw
            if np.all(exp[1:] != 1):
                break
        log = np.zeros(q, dtype=np.int32)
        log[exp] = np.arange(q - 1)
        antilog = np.concatenate([exp, exp])
        self.mul = antilog[log[:, None] + log]
        self.mul[0] = self.mul[:, 0] = 0
        self.inv = antilog[q - 1 - log]
        self.inv[0] = 0
        self.neg = self.mul[p - 1].copy()
        self.mat = self.digits[self.mul[:, self.pw]].transpose(0, 2, 1)


class Field:
    """Common interface: arithmetic on integer-coded elements of GF(q)."""

    p: int
    m: int
    q: int
    modulus: "Poly"

    _tables: Optional[Tables] = None

    def add(self, a: int, b: int) -> int:
        raise NotImplementedError

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def neg(self, a: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise NotImplementedError

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Product of two int64 code matrices with matching inner dimension."""
        raise NotImplementedError

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def tables(self) -> Tables:
        if self._tables is None:
            self._tables = Tables(self)
        return self._tables

    def __repr__(self):
        return f"GF({self.q})"


class PrimeField(Field):
    """GF(p) with elements 0..p-1 and mod-p arithmetic."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.p = p
        self.m = 1
        self.q = p
        self.modulus = Poly(self, (0, 1))  # the degree-1 convention X - 0

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def matmul(self, a, b):
        # codes are residues mod p <= 4096, so int64 sums are exact
        return a @ b % self.p


class ExtField(Field):
    """GF(p^m) built as GF(p)[X]/(modulus); elements coded in base-p digits.

    The modulus is always validated (monic, irreducible by Rabin's test).  The
    scalar operations read the lookup tables.
    """

    def __init__(self, base: Field, modulus: "Poly"):
        if modulus.field is not base or base.m != 1:
            raise DimensionMismatch("modulus must be a polynomial over a prime field")
        d = modulus.degree
        if d < 1 or modulus.coeffs[-1] != base.one:
            raise ReducibleModulus("modulus must be monic of degree >= 1")
        if not modulus.is_irreducible():
            raise ReducibleModulus(f"{modulus} is reducible over GF({base.q})")
        self.p = base.p
        self.m = d
        self.q = base.q**d
        self.modulus = modulus

    def add(self, a, b):
        return int(self.tables().add[a, b])

    def neg(self, a):
        return int(self.tables().neg[a])

    def mul(self, a, b):
        return int(self.tables().mul[a, b])

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return int(self.tables().inv[a])

    def matmul(self, a, b):
        """Each entry of a becomes its m x m multiplication matrix over GF(p)
        and each entry of b its digits, so a @ b is one integer product mod p."""
        t = self.tables()
        m, (r, k), c = self.m, a.shape, b.shape[1]
        left = t.mat[a].transpose(0, 2, 1, 3).reshape(r * m, k * m)
        right = t.digits[b].transpose(0, 2, 1).reshape(k * m, c)
        return (left @ right % self.p).reshape(r, m, c).transpose(0, 2, 1) @ t.pw


class Poly:
    """Polynomial over a Field; coefficients ascending, trailing zeros trimmed."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Sequence[int]):
        k = len(coeffs)
        while k > 0 and coeffs[k - 1] == 0:
            k -= 1
        self.field = field
        self.coeffs = tuple(coeffs[:k])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial gets -1

    def is_zero(self) -> bool:
        return not self.coeffs

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (field.one,))

    @classmethod
    def x(cls, field):
        return cls(field, (field.zero, field.one))

    @classmethod
    def x_pow_n_minus_1(cls, field, n: int):
        c = [field.zero] * (n + 1)
        c[0] = field.neg(field.one)
        c[n] = field.one
        return cls(field, c)

    def _check(self, other: "Poly"):
        if self.field is not other.field:
            raise DimensionMismatch("polynomials over different fields")

    def __eq__(self, other):
        return isinstance(other, Poly) and self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __add__(self, other):
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = np.array(a, dtype=np.int64)
        out[: len(b)] = self.field.tables().add[out[: len(b)], list(b)]
        return Poly(self.field, out.tolist())

    def __neg__(self):
        return Poly(self.field, self.field.tables().neg[list(self.coeffs)].tolist())

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        F = self.field
        if self.is_zero() or other.is_zero():
            return Poly.zero(F)
        a, b = self.coeffs, other.coeffs
        # row i holds b shifted by i, so a times these rows is a * b
        shifted = np.zeros((len(a), len(a) + len(b) - 1), dtype=np.int64)
        i = np.arange(len(a))[:, None]
        shifted[i, i + np.arange(len(b))] = b
        return Poly(F, F.matmul(np.array([a], dtype=np.int64), shifted)[0].tolist())

    def scale(self, c: int) -> "Poly":
        return Poly(self.field, self.field.tables().mul[c, list(self.coeffs)].tolist())

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Long division.  Prime fields run it on Python integers mod p, which
        beats a numpy call per step on short polynomials; GF(p^m) updates the
        remainder by one table gather per step."""
        self._check(other)
        F = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        d = other.degree
        lead_inv = F.inv(other.coeffs[-1])
        quo = [0] * max(0, len(self.coeffs) - d)
        if F.m == 1:
            p = F.p
            rem = list(self.coeffs)
            for i in range(len(rem) - d - 1, -1, -1):
                c = rem[i + d] * lead_inv % p
                if c:
                    quo[i] = c
                    rem[i : i + d + 1] = [(r - c * b) % p for r, b in zip(rem[i : i + d + 1], other.coeffs)]
            return Poly(F, quo), Poly(F, rem[:d])
        t = F.tables()
        rem = np.array(self.coeffs, dtype=np.int64)
        minus_b = t.neg[list(other.coeffs)]
        for i in range(len(rem) - d - 1, -1, -1):
            c = int(t.mul[rem[i + d], lead_inv])
            if c:
                quo[i] = c
                rem[i : i + d + 1] = t.add[rem[i : i + d + 1], t.mul[c, minus_b]]
        return Poly(F, quo), Poly(F, rem[:d].tolist())

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def pow_mod(self, e: int, modulus: "Poly") -> "Poly":
        """self^e mod modulus for e >= 0."""
        if e < 0:
            raise DomainError(f"exponent {e} is negative")
        result = Poly.one(self.field)
        base = self % modulus
        while e:
            if e & 1:
                result = (result * base) % modulus
            base = (base * base) % modulus
            e >>= 1
        return result

    def is_irreducible(self) -> bool:
        """Rabin's test; assumes self is monic of degree >= 1."""
        F = self.field
        d = self.degree
        if d < 1:
            return False
        if d == 1:
            return True
        x = Poly.x(F)
        # x^(q^d) = x mod f
        if x.pow_mod(F.q**d, self) != x % self:
            return False
        for r in prime_factors(d):
            h = x.pow_mod(F.q ** (d // r), self) - x
            if self.gcd(h).degree != 0:
                return False
        return True

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*x^{i}" if i else f"{c}")
        return "Poly(" + " + ".join(terms) + ")"


def smallest_irreducible(field: Field, degree: int) -> Poly:
    """Canonically smallest monic irreducible of the given degree.

    Candidates x^degree + sum(c_i x^i) are scanned by the integer encoding
    sum(c_i q^i) ascending, which orders coefficient tuples leading-end first.
    """
    q = field.q
    if degree == 1:
        return Poly.x(field)  # X itself; any monic linear is irreducible
    for code in range(q**degree):
        coeffs = []
        c = code
        for _ in range(degree):
            coeffs.append(c % q)
            c //= q
        coeffs.append(field.one)
        f = Poly(field, coeffs)
        if f.is_irreducible():
            return f
    raise AssertionError("no irreducible polynomial found (impossible)")


def field_make(p: int, m: int = 1) -> Field:
    """Construct GF(p^m) with the canonical modulus (smallest_irreducible)."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if m < 1:
        raise ReducibleModulus("extension degree must be >= 1")
    if p**m > MAX_TABLE_SIZE:
        raise Overflow(f"field of size {p**m} too large for lookup tables")
    base = PrimeField(p)
    if m == 1:
        return base
    return ExtField(base, smallest_irreducible(base, m))


# Canonical fields by (p, m), held weakly: while anything holds a field every
# lookup returns that object, and once nothing does its tables are freed.
_fields: "weakref.WeakValueDictionary[tuple[int, int], Field]" = weakref.WeakValueDictionary()


def _field_cached(p: int, m: int) -> Field:
    field = _fields.get((p, m))
    if field is None:
        field = _fields[p, m] = field_make(p, m)
    return field


def prime_power(q: int) -> tuple[int, int]:
    """(p, m) with q = p^m; NotPrime when q is not a prime power."""
    primes = prime_factors(q)  # [] for q < 2
    if len(primes) != 1:
        raise NotPrime(f"{q} is not a prime power")
    p = primes[0]
    m = 1
    while p**m < q:
        m += 1
    return p, m


def field_from_order(q: int) -> Field:
    """GF(q) for a prime power q, with the canonical modulus."""
    return _field_cached(*prime_power(q))


def mult_order(q: int, n: int) -> int:
    """Smallest t >= 1 with q^t = 1 mod n."""
    if n <= 1:
        raise GcdViolation("n must exceed 1")
    if math.gcd(n, q) != 1:
        raise GcdViolation(f"gcd({n}, {q}) != 1")
    t = 1
    x = q % n
    while x != 1:
        x = (x * q) % n
        t += 1
    return t


def cyclotomic_cosets(n: int, q: int) -> list[list[int]]:
    """q-cyclotomic cosets of Z_n, each in orbit order starting at its minimum."""
    if math.gcd(n, q) != 1:
        raise GcdViolation(f"gcd({n}, {q}) != 1")
    seen = [False] * n
    out = []
    for s in range(n):
        if seen[s]:
            continue
        orbit = []
        x = s
        while not seen[x]:
            seen[x] = True
            orbit.append(x)
            x = (x * q) % n
        out.append(orbit)
    return out


def _poly_sort_key(f: Poly):
    # degree, then coefficients from the leading end down
    return (f.degree, tuple(reversed(f.coeffs)))


def _rot_index(n: int) -> np.ndarray:
    """(n, n) table with row i, column k holding (k - i) mod n."""
    idx = _rot_cache.get(n)
    if idx is None:
        k = np.arange(n)
        idx = (k[None, :] - k[:, None]) % n
        _rot_cache[n] = idx
    return idx


def _convolve(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of coefficient vectors a, b in GF(q)[x]/(x^n - 1): a times the
    circulant of b.

    GF(p^m) skips the m x m expansion of `ExtField.matmul`, which is slower on
    a single row: it gathers the products from the mul table and adds the rows
    pairwise through the add table, about log2(n) lookups.
    """
    circulant = b[_rot_index(len(a))]
    if field.m == 1:
        return field.matmul(a[None], circulant)[0]
    t = field.tables()
    rows = t.mul[a[:, None], circulant]
    k = len(rows)
    while k > 1:
        h = k // 2
        rows[:h] = t.add[rows[:h], rows[k - h : k]]
        k -= h
    return rows[0]


def _power(field: Field, a: np.ndarray, e: int, one: np.ndarray) -> np.ndarray:
    """one * a^e for e >= 1, by square-and-multiply convolutions."""
    result = one
    while True:
        if e & 1:
            result = _convolve(field, result, a)
        e >>= 1
        if not e:
            return result
        a = _convolve(field, a, a)


def _split_by(field: Field, e: np.ndarray, b: np.ndarray, bound: int) -> list[np.ndarray]:
    """Split the idempotent e by the values of b in the fixed subalgebra B.

    b e lies in eB, a product of copies of GF(q) with identity e, so its
    minimal polynomial there has distinct roots in GF(q) (at most `bound` of
    them): the values b takes on the components of e.  The idempotent of the
    components where b takes the value lam is e - e (b e - lam e)^(q-1).
    """
    from . import linalg  # linalg imports this module

    t = field.tables()
    be = _convolve(field, b, e)
    powers = [e, be]
    for _ in range(bound - 1):
        powers.append(_convolve(field, powers[-1], be))
    # columns e, be, (be)^2, ...: the first dependent column k gives the
    # minimal polynomial X^k - sum_i R[i, k] X^i
    R, piv = linalg.rref(field, np.array(powers).T)
    k = len(piv)
    assert k <= bound, "b e has more values than components"
    mu = np.append(t.neg[R[:, k]], field.one)
    values = np.zeros(field.q, dtype=np.int64)
    xs = np.arange(field.q)
    for c in mu[::-1]:
        values = t.add[t.mul[values, xs], c]
    roots = np.flatnonzero(values == 0)
    assert len(roots) == k, "minimal polynomial does not split into distinct roots"
    if k == 1:
        return [e]
    parts = []
    for lam in roots:
        shifted = t.add[be, t.mul[t.neg[lam], e]]  # b e - lam e
        parts.append(t.add[e, t.neg[_power(field, shifted, field.q - 1, e)]])
    return parts


def factor_xn_minus_1_with_cosets(n: int, field: Field) -> list[tuple[Poly, np.ndarray]]:
    """Irreducible factors of x^n - 1 with their primitive idempotents, as
    (factor, idempotent) pairs.  The name is pinned, as perfbench traces the
    factoring under it; the cosets it names are the ones the splitting sums
    over, and they are not returned.

    The factor x - 1 comes first; the rest follow the canonical polynomial
    order.  No extension field is built.  The coset sums span the fixed
    subalgebra B = {a : a(x^q) = a(x)} of FH = GF(q)[x]/(x^n - 1), which is a
    product of r = #cosets copies of GF(q); refining 1 by the values of each
    coset sum (Berlekamp 1967) yields the r primitive idempotents e, and each
    factor is gcd(x^n - 1, e - 1).  r distinct factors whose product is
    x^n - 1 are irreducible, and that is asserted.  The idempotent of f is
    the int64 coefficient vector of e, the e with e = 1 mod f and e = 0
    modulo every other factor.

    n > MAX_N raises Overflow.
    """
    q = field.q
    if n < 1 or n % 2 == 0:
        raise GcdViolation(f"n must be a positive odd integer, got {n}")
    if math.gcd(n, q) != 1:
        raise GcdViolation(f"gcd({n}, {q}) != 1")
    if n > MAX_N:
        raise Overflow(f"n = {n} exceeds the supported length {MAX_N}")
    x_minus_1 = Poly(field, (field.neg(field.one), field.one))
    if n == 1:
        return [(x_minus_1, np.array([field.one], dtype=np.int64))]
    t = field.tables()
    cosets = cyclotomic_cosets(n, q)
    r = len(cosets)
    one = np.zeros(n, dtype=np.int64)
    one[0] = field.one
    idems = [one]
    for coset in cosets[1:]:
        if len(idems) == r:
            break
        b = np.zeros(n, dtype=np.int64)
        b[coset] = field.one
        bound = min(q, r - len(idems) + 1)
        idems = [part for e in idems for part in _split_by(field, e, b, bound)]
    assert len(idems) == r, "coset sums did not split B into r components"

    xn1 = Poly.x_pow_n_minus_1(field, n)
    pairs = [(xn1.gcd(Poly(field, t.add[e, t.neg[one]].tolist())), e) for e in idems]
    prod = Poly.one(field)
    for f, _ in pairs:
        prod = prod * f
    assert prod == xn1 and len({f for f, _ in pairs}) == r, "factors are not the r irreducible factors"
    pairs.sort(key=lambda fe: (fe[0] != x_minus_1, _poly_sort_key(fe[0])))
    return pairs


def sqrt_minus_one(field: Field) -> Optional[int]:
    """First r (by code) with r^2 = -1, or None when q = 3 mod 4."""
    t = field.tables()
    roots = np.flatnonzero(t.mul.diagonal() == t.neg[field.one])
    return int(roots[0]) if roots.size else None
