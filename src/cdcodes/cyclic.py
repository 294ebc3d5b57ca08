"""The commutative group algebra of a cyclic group of odd order n.

Elements are length-n coefficient vectors over GF(q) with multiplication by
convolution mod x^n - 1.  When gcd(n, q) = 1 the algebra is semisimple.
`field.factor_xn_minus_1_with_cosets` finds the irreducible factors of
x^n - 1 from the primitive idempotents; this module rebuilds one idempotent
per factor by CRT, in the canonical factor order, and asserts that they sum
to 1, which cross-checks the factoring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, GcdViolation
from .field import (
    Field,
    Poly,
    _convolve,
    cyclotomic_cosets,
    factor_xn_minus_1_with_cosets,
    mult_order,
    prime_factors,
)


class CyclicElem:
    """Element of F[u]/(u^n - 1); immutable coefficient tuple."""

    __slots__ = ("field", "n", "coeffs")

    def __init__(self, field: Field, coeffs: Sequence[int]):
        self.field = field
        self.n = len(coeffs)
        self.coeffs = tuple(int(c) for c in coeffs)

    @classmethod
    def zero(cls, field: Field, n: int) -> "CyclicElem":
        return cls(field, (0,) * n)

    @classmethod
    def one(cls, field: Field, n: int) -> "CyclicElem":
        return cls(field, (field.one,) + (0,) * (n - 1))

    @classmethod
    def u_power(cls, field: Field, n: int, k: int) -> "CyclicElem":
        c = [0] * n
        c[k % n] = field.one
        return cls(field, c)

    @classmethod
    def from_poly(cls, poly: Poly, n: int) -> "CyclicElem":
        c = list(poly.coeffs) + [0] * (n - len(poly.coeffs))
        return cls(poly.field, c[:n])

    def _check(self, other: "CyclicElem"):
        if self.field is not other.field or self.n != other.n:
            raise DimensionMismatch("cyclic elements from different algebras")

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other):
        self._check(other)
        return CyclicElem(self.field, self.field.tables().add[self.coeffs, other.coeffs].tolist())

    def __neg__(self):
        return CyclicElem(self.field, self.field.tables().neg[list(self.coeffs)].tolist())

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        a = np.asarray(self.coeffs, dtype=np.int64)
        b = np.asarray(other.coeffs, dtype=np.int64)
        return CyclicElem(self.field, _convolve(self.field, a, b).tolist())

    def scale(self, c: int) -> "CyclicElem":
        return CyclicElem(self.field, self.field.tables().mul[c, list(self.coeffs)].tolist())

    def shift(self, k: int) -> "CyclicElem":
        """Multiplication by u^k."""
        k %= self.n
        return CyclicElem(self.field, self.coeffs[-k:] + self.coeffs[:-k] if k else self.coeffs)

    def bar(self) -> "CyclicElem":
        """The map u^i -> u^(n-i); an involutive algebra automorphism."""
        c = self.coeffs
        return CyclicElem(self.field, (c[0],) + tuple(reversed(c[1:])))

    def pow(self, e: int) -> "CyclicElem":
        result = CyclicElem.one(self.field, self.n)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, CyclicElem)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __repr__(self):
        return f"Cyc{list(self.coeffs)}"


@dataclass(frozen=True)
class IdempotentSet:
    """All primitive idempotents of FH in canonical factor order."""

    field: Field
    n: int
    idems: tuple[CyclicElem, ...]
    dims: tuple[int, ...]
    cosets: tuple[tuple[int, ...], ...]  # labels under factor_xn_minus_1_with_cosets' zeta
    factors: tuple[Poly, ...]

    def __len__(self):
        return len(self.idems)

    def to_json_dict(self) -> dict:
        pairing = conj_pairing(self)
        return {
            "q": self.field.q,
            "n": self.n,
            "idempotents": [list(e.coeffs) for e in self.idems],
            "dims": list(self.dims),
            "cosets": [list(c) for c in self.cosets],
            "pairing": [
                {"index": i, "kind": "self_conjugate"}
                if j == i
                else {"index": i, "kind": "paired", "partner": j}
                for i, j in enumerate(pairing)
            ],
        }


def primitive_idempotents(n: int, field: Field) -> IdempotentSet:
    """One idempotent per irreducible factor of x^n - 1, e_0 first.

    e_i is the CRT solution of e = 1 mod f_i, e = 0 mod (x^n-1)/f_i.
    """
    pairs = factor_xn_minus_1_with_cosets(n, field)
    xn1 = Poly.x_pow_n_minus_1(field, n)
    idems = []
    for f, _coset in pairs:
        m_i = xn1 // f
        g, s, t = f.ext_gcd(m_i)
        assert g.degree == 0 and g.coeffs == (field.one,), "factors not coprime"
        e = (t * m_i) % xn1
        idems.append(CyclicElem.from_poly(e, n))
    total = idems[0]
    for e in idems[1:]:
        total = total + e
    assert total == CyclicElem.one(field, n), "idempotents do not sum to 1"
    return IdempotentSet(
        field=field,
        n=n,
        idems=tuple(idems),
        dims=tuple(f.degree for f, _ in pairs),
        cosets=tuple(tuple(c) for _, c in pairs),
        factors=tuple(f for f, _ in pairs),
    )


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
