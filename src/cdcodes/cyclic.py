"""The commutative group algebra of a cyclic group of odd order n.

Elements are length-n coefficient vectors over GF(q) with multiplication by
convolution mod x^n - 1; an element holds one read-only int64 vector of
element codes, which goes straight to the field's lookup tables.  When
gcd(n, q) = 1 the algebra is semisimple.
`field.factor_xn_minus_1_with_cosets` splits the primitive idempotents out
of the algebra and derives the irreducible factors of x^n - 1 from them;
this module takes the (factor, idempotent) pairs as they come, in the
canonical factor order, and asserts that the idempotents sum to 1.  The CRT
definition (e_i = 1 mod f_i and e_i = 0 mod f_j for j != i) is checked by
the tests, not rebuilt here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, DomainError, GcdViolation
from .field import (
    Field,
    Poly,
    _convolve,
    _power,
    cyclotomic_cosets,
    factor_xn_minus_1_with_cosets,
    mult_order,
    prime_factors,
)


class CyclicElem:
    """Element of F[u]/(u^n - 1); immutable, with a read-only int64 vector of
    coefficient codes (a copy of what it was built from)."""

    __slots__ = ("field", "n", "coeffs")

    def __init__(self, field: Field, coeffs: Sequence[int] | np.ndarray):
        self.field = field
        self.coeffs = np.array(coeffs, dtype=np.int64)
        self.coeffs.setflags(write=False)
        self.n = len(self.coeffs)

    @classmethod
    def zero(cls, field: Field, n: int) -> "CyclicElem":
        return cls(field, np.zeros(n, dtype=np.int64))

    @classmethod
    def one(cls, field: Field, n: int) -> "CyclicElem":
        return cls.u_power(field, n, 0)

    @classmethod
    def u_power(cls, field: Field, n: int, k: int) -> "CyclicElem":
        c = np.zeros(n, dtype=np.int64)
        c[k % n] = field.one
        return cls(field, c)

    def _check(self, other: "CyclicElem"):
        if self.field is not other.field or self.n != other.n:
            raise DimensionMismatch("cyclic elements from different algebras")

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def __add__(self, other):
        self._check(other)
        return CyclicElem(self.field, self.field.tables().add[self.coeffs, other.coeffs])

    def __neg__(self):
        return CyclicElem(self.field, self.field.tables().neg[self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return CyclicElem(self.field, _convolve(self.field, self.coeffs, other.coeffs))

    def scale(self, c: int) -> "CyclicElem":
        return CyclicElem(self.field, self.field.tables().mul[c, self.coeffs])

    def shift(self, k: int) -> "CyclicElem":
        """Multiplication by u^k."""
        return CyclicElem(self.field, np.roll(self.coeffs, k))

    def bar(self) -> "CyclicElem":
        """The map u^i -> u^(n-i); an involutive algebra automorphism."""
        return CyclicElem(self.field, np.roll(self.coeffs[::-1], 1))

    def pow(self, e: int) -> "CyclicElem":
        """self^e for e >= 0; self^0 is the algebra's one."""
        if e < 0:
            raise DomainError(f"exponent {e} is negative")
        one = CyclicElem.one(self.field, self.n)
        return CyclicElem(self.field, _power(self.field, self.coeffs, e, one.coeffs)) if e else one

    def __eq__(self, other):
        return (
            isinstance(other, CyclicElem)
            and self.field is other.field
            and self.coeffs.tobytes() == other.coeffs.tobytes()
        )

    def __hash__(self):
        return hash((id(self.field), self.coeffs.tobytes()))

    def __repr__(self):
        return f"Cyc{self.coeffs.tolist()}"


@dataclass(frozen=True)
class IdempotentSet:
    """All primitive idempotents of FH in canonical factor order."""

    field: Field
    n: int
    idems: tuple[CyclicElem, ...]
    factors: tuple[Poly, ...]

    def __len__(self):
        return len(self.idems)


def primitive_idempotents(n: int, field: Field) -> IdempotentSet:
    """One idempotent per irreducible factor of x^n - 1, e_0 first, as the
    factoring splits them out."""
    pairs = factor_xn_minus_1_with_cosets(n, field)
    idems = tuple(CyclicElem(field, e) for _, e in pairs)
    total = idems[0]
    for e in idems[1:]:
        total = total + e
    assert total == CyclicElem.one(field, n), "idempotents do not sum to 1"
    return IdempotentSet(field=field, n=n, idems=idems, factors=tuple(f for f, _ in pairs))


def conj_pairing(idem_set: IdempotentSet) -> tuple[int, ...]:
    """For each index i, the index j with bar(e_i) = e_j.

    Consistency with the classical criteria is asserted: all idempotents are
    self-conjugate iff -1 lies in <q> mod n, and no nontrivial idempotent is
    self-conjugate iff ord_n(q) is odd.
    """
    idems = idem_set.idems
    pairing = []
    for i, e in enumerate(idems):
        eb = e.bar()
        for j, f in enumerate(idems):
            if f == eb:
                pairing.append(j)
                break
        else:
            raise AssertionError("bar image is not a primitive idempotent")
    assert pairing[0] == 0
    n, q = idem_set.n, idem_set.field.q
    if n > 1:
        minus_one_in_q = any(pow(q, k, n) == n - 1 for k in range(1, mult_order(q, n) + 1))
        all_selfconj = all(pairing[i] == i for i in range(len(idems)))
        assert all_selfconj == minus_one_in_q, "Kronecker criterion violated"
        none_selfconj = all(pairing[i] != i for i in range(1, len(idems)))
        assert none_selfconj == (mult_order(q, n) % 2 == 1), "odd-order criterion violated"
    return tuple(pairing)


def lambda_n(n: int, q: int) -> int:
    """min over prime divisors p of n of ord_p(q); equals the least
    dimension of a nontrivial simple component of FH (cross-checked)."""
    if n <= 1 or n % 2 == 0:
        raise GcdViolation(f"n must be odd and > 1, got {n}")
    if math.gcd(n, q) != 1:
        raise GcdViolation(f"gcd({n}, {q}) != 1")
    lam = min(mult_order(q, p) for p in prime_factors(n))
    sizes = [len(c) for c in cyclotomic_cosets(n, q)[1:]]
    assert lam == min(sizes), "lambda mismatch against coset sizes"
    return lam
