"""Exact arithmetic in GF(p^m), polynomials over it, and x^n - 1 machinery.

Field elements are encoded as integers in [0, q).  For GF(p^m) with modulus
basis 1, X, ..., X^(m-1), the element with coordinates (c_0, ..., c_{m-1})
has code c_0 + c_1*p + ... + c_{m-1}*p^(m-1).  All "first element
satisfying P" choices scan codes in ascending order, so every construction
here is deterministic.

The lookup tables (`Tables`) are the one definition of the arithmetic: they
are built vectorised, addition from the base-p digits and multiplication,
inversion and negation from one log/antilog pair, so fields are limited to
q <= MAX_TABLE_SIZE, which `prime_power` enforces.  Vectors and polynomials
are added and scaled by table gathers, and multiplied by `_convolve` alone;
products of matrices go through `Field.matmul`: integers mod p for prime
fields, and for GF(p^m) the m x m multiplication matrices over GF(p), again
one integer product mod p.

x^n - 1 is factored over GF(q) itself, without a splitting field: for each
divisor d of n, one primitive idempotent of the roots of order d is split
out of the fixed subalgebra of GF(q)[x]/(x^d - 1) with length-d
convolutions (Berlekamp's method), the multipliers x -> x^s give the rest
of its orbit, and each factor is a gcd with x^d - 1.  The idempotents are
returned with their factors and certified in O(n^2), so nothing downstream
rebuilds or re-checks them.

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

# x^n - 1 is factored for n up to this bound.  It keeps the int64 sums of
# `_convolve` over GF(p) exact, n (p - 1)^2 < 2^63, and its per-call
# len(a) x n gather over GF(p^m) within 128 MiB.
MAX_N = 4096

_unit_indices: dict = {}  # (n, s) -> _unit_index(n, s), each of length n


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
    build is O(q^2) numpy work; field_from_order bounds q by MAX_TABLE_SIZE.
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
        a, b = sorted((self.coeffs, other.coeffs), key=len)
        # the shorter factor times the longer, zero-padded so that nothing folds
        padded = np.zeros(len(a) + len(b) - 1, dtype=np.int64)
        padded[: len(b)] = b
        return Poly(F, _convolve(F, np.array(a, dtype=np.int64), padded).tolist())

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


# Canonical fields by q, held weakly: while anything holds a field every
# lookup returns that object, and once nothing does its tables are freed.
_fields: "weakref.WeakValueDictionary[int, Field]" = weakref.WeakValueDictionary()


def prime_power(q: int) -> tuple[int, int]:
    """(p, m) with q = p^m; NotPrime when q is not a prime power.  A q above
    MAX_TABLE_SIZE, of which no field is built, raises Overflow unfactored."""
    if q > MAX_TABLE_SIZE:
        raise Overflow(f"field of size {q} too large for lookup tables")
    primes = prime_factors(q)  # [] for q < 2
    if len(primes) != 1:
        raise NotPrime(f"{q} is not a prime power")
    p = primes[0]
    m = 1
    while p**m < q:
        m += 1
    return p, m


def field_from_order(q: int) -> Field:
    """The cached GF(q) with the canonical modulus (smallest_irreducible).  A
    q above MAX_TABLE_SIZE is refused by prime_power, before it is factored."""
    field = _fields.get(q)
    if field is None:
        p, m = prime_power(q)
        field = PrimeField(p)
        if m > 1:
            field = ExtField(field, smallest_irreducible(field, m))
        _fields[q] = field
    return field


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


def _unit_index(n: int, s: int) -> np.ndarray:
    """a[_unit_index(n, s)] is a(x^s) mod x^n - 1 for a unit s: s = -1 is bar, s = q Frobenius."""
    if (n, s) not in _unit_indices:
        _unit_indices[n, s] = np.arange(n) * pow(s, -1, n) % n
    return _unit_indices[n, s]


def _convolve(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of coefficient vectors a, b in GF(q)[x]/(x^n - 1), the one
    product of polynomials and of FH elements in the package (`Poly.__mul__`
    zero-pads so that nothing folds).  Prime fields fold `np.convolve(a, b)`
    mod x^n - 1 and reduce mod p; its int64 sums are exact, as n (p - 1)^2
    <= MAX_N (MAX_TABLE_SIZE - 1)^2 < 2^63.  GF(p^m), where the m x m
    expansion of `ExtField.matmul` is slower on one row, gathers the products
    a_i b[(j - i) mod n] from the mul table, one row per i, and adds the rows
    pairwise through the add table, about log2(n) lookups.  The rotations of
    b are a strided view into b concatenated with itself, row r starting at
    n - len(a) + 1 + r and so holding b rotated by i = len(a) - 1 - r: nothing
    n x n is indexed, and the len(a) x n products do not outlive the call.
    n is len(b); a may be shorter, as if zero-padded, and then costs len(a) n."""
    n = len(b)
    if field.m == 1:
        c = np.convolve(a, b)
        c[: len(c) - n] += c[n:]
        return c[:n] % field.p
    t = field.tables()
    c = np.concatenate((b, b))
    rotations = np.ndarray((len(a), n), c.dtype, c, (n - len(a) + 1) * c.itemsize, (c.itemsize, c.itemsize))
    rows = t.mul[a[::-1, None], rotations]
    k = len(rows)
    while k > 1:
        h = k // 2
        rows[:h] = t.add[rows[:h], rows[k - h : k]]
        k -= h
    return rows[0]


def _power(field: Field, a: np.ndarray, e: int) -> np.ndarray:
    """a^e for e >= 1 in GF(q)[x]/(x^n - 1), by Horner over the base-b digits
    d of e: r <- r^b a^d.  When e >= q and gcd(n, q) = 1, b = q and r^q =
    r(x^q) is the free gather `_unit_index(n, q)` (Itoh and Tsujii 1988),
    each distinct a^d built once; otherwise b = 2, square-and-multiply."""
    frobenius = e >= field.q and math.gcd(len(a), field.q) == 1
    b = field.q if frobenius else 2
    digits = []
    while e:
        e, d = divmod(e, b)
        digits.append(d)
    powers = {d: _power(field, a, d) if d > 1 else a for d in set(digits) - {0}}
    result = powers[digits.pop()]
    for d in reversed(digits):
        result = result[_unit_index(len(a), b)] if frobenius else _convolve(field, result, result)
        if d:
            result = _convolve(field, result, powers[d])
    return result


def _mobius(k: int) -> int:
    primes = prime_factors(k)
    return 0 if any(k % (p * p) == 0 for p in primes) else (-1) ** len(primes)


def _order_idempotent(field: Field, d: int) -> np.ndarray:
    """E_d in GF(q)[x]/(x^d - 1): 1 at the roots of order exactly d, 0 at the
    others.  For k | d, I_k = k^-1 (1 + x^(d/k) + ... + x^((k-1) d/k)) is 1 at
    the roots z with z^(d/k) = 1 and 0 at the others (there it sums the k-th
    roots of unity z^(d/k)), so E_d = sum over k | d of mobius(k) I_k.  Its
    coefficients lie in GF(p), whose codes are 0..p-1."""
    p = field.p
    e = np.zeros(d, dtype=np.int64)
    for k in range(1, d + 1):
        mobius = _mobius(k) if d % k == 0 else 0
        if mobius:
            e[:: d // k] += mobius * pow(k, -1, p)
    return e % p


def _multiplier_images(e: np.ndarray, units: Sequence[int]) -> np.ndarray:
    """Row i is e(x^s) mod x^d - 1 (d = len(e)) for the unit s = units[i] mod d.
    The multiplier a(x) -> a(x^s) moves coefficient j to j s, so row i gathers
    e at j s^-1 mod d."""
    d = len(e)
    inverses = np.array([pow(s, -1, d) for s in units], dtype=np.int64)
    return e[inverses[:, None] * np.arange(d) % d]


def _split_one_branch(field: Field, e: np.ndarray, cosets: list[list[int]], count: int) -> np.ndarray:
    """A primitive idempotent under the idempotent e, which has at most count
    components, split out by the sums b of the given cosets.

    eB is a product of copies of GF(q) with identity e, where B is the fixed
    subalgebra, spanned by the coset sums.  A b with b e = lam e (one
    convolution) is skipped.  Otherwise the minimal polynomial of b e in eB
    has distinct roots lam_1, ..., lam_k in GF(q), the values b takes on the
    components of e, and e becomes the part where b takes lam_1: L(b e) for
    the Lagrange polynomial L(X) = prod over j > 1 of (X - lam_j) / (lam_1 -
    lam_j), one row times the powers e, b e, ..., (b e)^(k-1) the minimal
    polynomial was read from.  That part has at most count - (k - 1)
    components.  Once the count reaches 1, or every coset sum is a scalar on
    e, e is primitive.
    """
    from . import linalg  # linalg imports this module

    t = field.tables()
    xs = np.arange(field.q)
    for coset in cosets:
        if count == 1:
            break
        b = np.zeros(len(e), dtype=np.int64)
        b[coset] = field.one
        be = _convolve(field, b, e)
        lead = np.flatnonzero(e)[0]
        if np.array_equal(be, t.mul[t.mul[be[lead], t.inv[e[lead]]], e]):
            continue
        bound = min(field.q, count)
        powers = [e, be]
        for _ in range(bound - 1):
            powers.append(_convolve(field, powers[-1], be))
        # columns e, be, (be)^2, ...: the first dependent column k gives the
        # minimal polynomial X^k - sum_i R[i, k] X^i
        R, piv = linalg.rref(field, np.array(powers).T)
        k = len(piv)
        assert k <= bound, "b e has more values than components"
        values = np.zeros(field.q, dtype=np.int64)
        for c in np.append(t.neg[R[:, k]], field.one)[::-1]:
            values = t.add[t.mul[values, xs], c]
        lam, *others = np.flatnonzero(values == 0).tolist()
        assert len(others) == k - 1, "minimal polynomial does not split into distinct roots"
        lagrange, denom = Poly.one(field), field.one
        for other in others:
            lagrange = lagrange * Poly(field, (int(t.neg[other]), field.one))
            denom = t.mul[denom, t.add[lam, t.neg[other]]]
        row = lagrange.scale(t.inv[denom]).coeffs
        e = field.matmul(np.array([row], dtype=np.int64), np.array(powers[:k]))[0]
        count -= k - 1
    return e


def factor_xn_minus_1_with_cosets(n: int, field: Field) -> list[tuple[Poly, np.ndarray]]:
    """Irreducible factors of x^n - 1 with their primitive idempotents, as
    (factor, idempotent) pairs.  The name is pinned, as perfbench traces the
    factoring under it; the cosets it names are the ones the splitting sums
    over, and they are not returned.

    The factor x - 1 comes first; the rest follow the canonical polynomial
    order.  No extension field is built.  The idempotent of f is the int64
    coefficient vector of the e with e = 1 mod f and e = 0 modulo every
    other factor.  One primitive idempotent per divisor d of n is split out,
    and the multipliers give the others:

    * For gcd(s, n) = 1 the multiplier mu_s: a(x) -> a(x^s) is a ring
      automorphism of FH = GF(q)[x]/(x^n - 1), as a substitution that
      permutes 1, x, ..., x^(n-1).  So it permutes the primitive
      idempotents: mu_s(e) is 1 at the roots z with z^s a root of e.  mu_q
      is the Frobenius a -> a^q, which fixes each of them.
    * The primitive idempotents are the q-cyclotomic cosets of Z_n: e is 1
      at the roots w^j, j in its coset, w a primitive n-th root of unity.
      Those of order exactly d have gcd(j, n) = n/d, and the units s act
      transitively on them (s j reaches every such j), so the m_d
      idempotents of order d are the images of any one of them, one per
      unit coset of Z_d.
    * With I_d = (n/d)^-1 (1 + x^d + ... + x^(n-d)), the idempotent of the
      roots of order dividing d, FH I_d is isomorphic to GF(q)[x]/(x^d - 1)
      by a -> a I_d, which tiles a (of degree below d) n/d times and scales
      it by (n/d)^-1.  So each order d is handled in GF(q)[x]/(x^d - 1):
      E_d (`_order_idempotent`) is split along one branch by the coset sums
      of Z_d (`_split_one_branch`), its orbit is one gather per unit coset
      (`_multiplier_images`), and the orbit is tiled.

    Each factor is f = gcd(x^d - 1, e - 1) in GF(q)[x]/(x^d - 1), which
    equals gcd(x^n - 1, e - 1) for the tiled e, for one idempotent of each
    conjugate pair; its partner bar(e) = mu_-1(e) is 1 at the inverse roots,
    so its factor is the monic reciprocal of f.  `_check_primitive_idempotents`
    certifies the pairs.

    n > MAX_N raises Overflow.
    """
    q = field.q
    if n < 1 or n % 2 == 0:
        raise GcdViolation(f"n must be a positive odd integer, got {n}")
    if math.gcd(n, q) != 1:
        raise GcdViolation(f"gcd({n}, {q}) != 1")
    if n > MAX_N:
        raise Overflow(f"n = {n} exceeds the supported length {MAX_N}")
    t = field.tables()
    pairs = []
    for d in (d for d in range(1, n + 1) if n % d == 0):
        cosets = cyclotomic_cosets(d, q)
        units = [c for c in cosets if math.gcd(c[0], d) == 1]
        e = _split_one_branch(field, _order_idempotent(field, d), cosets[1:], len(units))
        images = _multiplier_images(e, [c[0] for c in units])
        coset_of = {j: i for i, c in enumerate(units) for j in c}
        xd1 = Poly.x_pow_n_minus_1(field, d)
        factors: list[Optional[Poly]] = [None] * len(units)
        for i, c in enumerate(units):
            if factors[i] is None:
                e_minus_1 = images[i].copy()
                e_minus_1[0] = t.add[e_minus_1[0], t.neg[field.one]]
                factors[i] = xd1.gcd(Poly(field, e_minus_1.tolist()))
                # bar(mu_s(e)) = mu_-s(e), the image on the coset of -s
                factors[coset_of[-c[0] % d]] = Poly(field, factors[i].coeffs[::-1]).monic()
        # into FH by a -> a I_d: tiled n/d times and scaled by (n/d)^-1
        pairs += zip(factors, t.mul[pow(n // d, -1, field.p), np.tile(images, n // d)])

    x_minus_1 = Poly(field, (field.neg(field.one), field.one))
    pairs.sort(key=lambda fe: (fe[0] != x_minus_1, _poly_sort_key(fe[0])))
    _check_primitive_idempotents(n, field, pairs)
    return pairs


def _check_primitive_idempotents(n: int, field: Field, pairs: Sequence[tuple[Poly, np.ndarray]]):
    """Certify the (f_j, E_j) pairs as the irreducible factors of x^n - 1 and
    their primitive idempotents: (1) the f_j are r = #cyclotomic cosets
    distinct monic polynomials of degree >= 1 with product x^n - 1; (2) the
    E_j sum to 1; (3) f_j E_j = 0 in FH = GF(q)[x]/(x^n - 1) for every j.

    That is complete.  x^n - 1 is squarefree (gcd(n, q) = 1) with r
    irreducible factors, and by (1) r non-constant f_j share them out, so
    each f_j is one of them, each once (a factor 1 with E = 0 would pass the
    rest).  By (3) each f_i, i != j, divides f_j E_j but not f_j, so it
    divides E_j, and then (2) gives E_j = 1 mod f_j: by the CRT, E_j is the
    primitive idempotent of f_j.  Each product in (3) is one `_convolve` of
    deg f_j + 1 coefficients by n, (n + r) n <= 2 n^2 in all.
    """
    t = field.tables()
    prod = Poly.one(field)
    for f, _ in pairs:
        assert f.degree >= 1 and f.coeffs[-1] == field.one, f"{f} is not monic of degree >= 1"
        prod = prod * f
    r = len(cyclotomic_cosets(n, field.q))
    assert prod == Poly.x_pow_n_minus_1(field, n) and len({f for f, _ in pairs}) == r, "not the r factors"
    total = np.zeros(n, dtype=np.int64)
    for f, e in pairs:
        total = t.add[total, e]
        # a factor of degree n is x^n - 1 itself (n = 1), which is 0 in FH
        assert f.degree == n or not _convolve(field, np.array(f.coeffs, dtype=np.int64), e).any(), f"{f} E != 0"
    assert total[0] == field.one and not total[1:].any(), "idempotents do not sum to 1"


def _minimal_ideal_rref(field: Field, f: Poly, n: int) -> np.ndarray:
    """The RREF basis, pivots 0..k-1, of the minimal ideal of FH =
    GF(q)[x]/(x^n - 1) that belongs to the irreducible factor f of degree k,
    read off f with no elimination.

    c lies in that ideal iff f c = 0 in FH (x^n - 1 is squarefree), i.e. iff
    sum_i f_i c_(j-i mod n) = 0 for every j: c obeys, cyclically, the order-k
    linear recurrence whose characteristic polynomial is f*, the monic
    reciprocal of f (f(0) != 0).  So c_0, ..., c_(k-1) fix c, and c_s =
    sum_i c_i [x^i](x^s mod f*).  Row i is the c with c_j = [i = j] for j < k,
    so column s holds the coefficients of x^s mod f*, and the k x k window at
    column j is C^j, C the companion matrix of f*.  Once M columns are known,
    C^(M-k) = R[:, M-k:M] times columns k, ..., M - 1 gives the next M - k,
    so the columns past k double with each `Field.matmul`: about
    log2(n - k) of them, and no elimination.
    """
    k = f.degree
    t = field.tables()
    R = np.zeros((k, n), dtype=np.int64)
    R[:, :k] = np.eye(k, dtype=np.int64) * field.one
    if k < n:  # x^k = -(f*_0 + ... + f*_(k-1) x^(k-1)), f*_i = f_(k-i) / f_0
        R[:, k] = t.mul[t.neg[t.inv[f.coeffs[0]]], list(f.coeffs[:0:-1])]
    M = k + 1
    while M < n:
        w = min(M - k, n - M)
        # numpy's int64 product is over twice as fast at large k with the
        # right factor's columns contiguous
        R[:, M : M + w] = field.matmul(R[:, M - k : M], np.asfortranarray(R[:, k : k + w]))
        M += w
    return R


def sqrt_minus_one(field: Field) -> Optional[int]:
    """First r (by code) with r^2 = -1, or None when q = 3 mod 4."""
    t = field.tables()
    roots = np.flatnonzero(t.mul.diagonal() == t.neg[field.one])
    return int(roots[0]) if roots.size else None
