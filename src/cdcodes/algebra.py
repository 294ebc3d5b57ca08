"""Twisted dihedral group algebras and their block decomposition.

One implementation covers both algebras of interest, parameterized by the
sign tw of v^2: tw = -1 gives the consta-dihedral algebra (relations
u^n = 1, v^2 = -1, v u = u^-1 v), tw = +1 the ordinary dihedral group
algebra.  The bar anti-automorphism sends v to tw * v, and in characteristic
2 the two algebras coincide.

An element a + b*v is its word, one read-only int64 vector of 2n codes (a's
coefficients, then b's).  group_action gives the word of h*x, for each of
the 2n group elements h, as a signed permutation of x's word, so a product
is one gather and one matrix product: word(x*y) = word(x) . L(y), row h of
L(y) being word(h*y).  The decomposition splits the algebra into the
2-dimensional block on the trivial idempotent e_0 plus one 4k-dimensional
block per conjugate idempotent pair (matrix algebra over F_t = FHe) or per
self-conjugate idempotent (matrix algebra over the bar-fixed index-2
subfield of FHe).  Block elements stay words: the isomorphisms to 2x2
matrices over F_t are test oracles (tests/oracles.py), and the library
reads only their closed forms (`dihedral.f_ab`, `codes.KtField`).

Canonical element order inside a subfield of FH: coordinates over the RREF
basis of the subfield, encoded as sum(code_i * q^i) with basis vector 0 least
significant.  Every "first element such that ..." scan below uses this order.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .cyclic import CyclicElem, IdempotentSet, conj_pairing, lambda_n, primitive_idempotents
from .errors import DegenerateG, DimensionMismatch, DomainError, GcdViolation
from .field import Field, _minimal_ideal_rref, _unit_index, sqrt_minus_one

TRIVIAL_FIELD = "trivial_field"
TRIVIAL_SPLIT = "trivial_split"
PAIRED = "paired"
SELF_CONJ = "self_conj"


class AlgElem:
    """a + b*v as its word, entry d + n*j the coefficient of u^d v^j; immutable."""

    __slots__ = ("alg", "word")

    def __init__(self, alg: "TwistedDihedralAlgebra", word: Sequence[int] | np.ndarray):
        self.alg = alg
        self.word = np.array(word, dtype=np.int64)
        self.word.setflags(write=False)

    def _check(self, other: "AlgElem"):
        if self.alg is not other.alg:
            raise DimensionMismatch("elements of different algebras")

    def __add__(self, other):
        self._check(other)
        return AlgElem(self.alg, self.alg.field.tables().add[self.word, other.word])

    def __neg__(self):
        return AlgElem(self.alg, self.alg.field.tables().neg[self.word])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        # word(x y) = word(x) . L(y), where row h of L(y) is word(h y)
        self._check(other)
        alg = self.alg
        return AlgElem(alg, alg.field.matmul(self.word[None], alg.translates(other.word[None]))[0])

    def bar(self) -> "AlgElem":
        """u^d -> u^-d on the first half, tw times the second half."""
        n = self.alg.n
        b = self.alg.field.tables().mul[self.alg.tw_code, self.word[n:]]
        return AlgElem(self.alg, np.concatenate((self.word[_unit_index(n, -1)], b)))

    def inner(self, other: "AlgElem") -> int:
        self._check(other)
        return int(linalg.matmul(self.alg.field, self.word, other.word[:, None])[0, 0])

    def to_word(self) -> tuple[int, ...]:
        return tuple(self.word.tolist())

    def is_zero(self) -> bool:
        return not self.word.any()

    def __eq__(self, other):
        return (
            isinstance(other, AlgElem)
            and self.alg is other.alg
            and self.word.tobytes() == other.word.tobytes()
        )

    def __hash__(self):
        return hash((id(self.alg), self.word.tobytes()))

    def __repr__(self):
        n = self.alg.n
        return f"AlgElem(a={self.word[:n].tolist()}, b={self.word[n:].tolist()})"


class SubfieldView:
    """A subfield of FH given by an identity idempotent and an RREF basis.

    Elements are CyclicElems; the view supplies identity-aware inversion,
    membership, and the canonical integer encoding of coordinates.  rows is
    the basis already reduced, one (dim, n) RREF array, and pivots its pivot
    columns: `Component` reads FHe's off its factor and reduces F_t's.
    """

    def __init__(
        self, field: Field, n: int, identity: CyclicElem, rows: np.ndarray, pivots: tuple[int, ...], label: str = ""
    ):
        self.field = field
        self.n = n
        self.identity = identity
        rows.setflags(write=False)
        self.rows = rows
        self._pivots = pivots
        self.dim = len(rows)
        self.order = field.q**self.dim
        self.label = label
        self._lead = int(np.flatnonzero(identity.coeffs)[0])  # y = c e has c = y[lead] / e[lead]

    @property
    def zero(self) -> CyclicElem:
        return CyclicElem.zero(self.field, self.n)

    def contains(self, y: CyclicElem) -> bool:
        return not linalg.residual(self.field, self.rows, self._pivots, y.coeffs).any()

    def code_of(self, y: CyclicElem) -> int:
        """Coordinate encoding of y, assumed in the subfield."""
        coords = self.coords(y.coeffs).tolist()
        code = 0
        for c in reversed(coords):
            code = code * self.field.q + c
        return code

    def coords(self, words: np.ndarray) -> np.ndarray:
        """Coordinates of each row of words (assumed in the subfield): the
        entries at the basis pivots, i.e. the base-q digits of code_of."""
        return words[..., list(self._pivots)]

    def element(self, code: int) -> CyclicElem:
        """The element whose coordinates are the base-q digits of code."""
        q = self.field.q
        digits = [code // q**i % q for i in range(self.dim)]
        return CyclicElem(self.field, linalg.matmul(self.field, digits, self.rows)[0])

    def _scalar(self, y: CyclicElem) -> Optional[int]:
        """The c in GF(q) with y = c e, e the identity, or None if there is none."""
        t = self.field.tables()
        c = t.mul[y.coeffs[self._lead], t.inv[self.identity.coeffs[self._lead]]]
        return int(c) if np.array_equal(t.mul[c, self.identity.coeffs], y.coeffs) else None

    def inv(self, y: CyclicElem) -> CyclicElem:
        """c^-1 e for a scalar y = c e, else y^(order - 2)."""
        if y.is_zero():
            raise ZeroDivisionError("inverse of 0")
        c = self._scalar(y)
        return y.pow(self.order - 2) if c is None else self.identity.scale(self.field.tables().inv[c])

    def __repr__(self):
        return f"SubfieldView({self.label or 'dim %d' % self.dim}, |F|={self.order})"


def sqrt_min(ft: SubfieldView, a: CyclicElem) -> Optional[CyclicElem]:
    """Smallest square root of a in the subfield, or None for non-squares.

    A scalar a = c e (c in GF(q), e the identity) is answered from the
    field's tables where it can be: its root is r e when r^2 = c in GF(q),
    and otherwise, in odd order, a is a square iff the subfield's dimension
    is even (c^((order - 1)/2) is the Legendre symbol of c to the power 1 +
    q + ... + q^(dim - 1), whose parity is dim's).  Else: even order takes
    the Frobenius inverse a^(order/2); order = 3 mod 4 takes t =
    a^((order+1)/4), a root iff t^2 = a; order = 1 mod 4 takes the Euler
    test and Tonelli-Shanks, with the non-residue chosen as the first one in
    canonical order, except that -e (a non-square in GF(q), so q = 3 mod 4)
    takes t = z^((order-1)/4) for the first z with t^2 = -e.  Of the two
    roots +-t the one with the smaller code is returned, which equals the
    first root an ascending scan would find.
    """
    if a.is_zero():
        return ft.zero
    e = ft.identity
    order = ft.order
    scalar = ft._scalar(a)
    base_roots = [] if scalar is None else np.flatnonzero(ft.field.tables().mul.diagonal() == scalar)
    if len(base_roots):
        t = e.scale(int(base_roots[0]))
    elif scalar is not None and ft.dim % 2:
        return None  # a non-square of GF(q), in odd order (even q has every root)
    elif order % 2 == 0:
        return a.pow(order // 2)
    elif order % 4 == 3:
        t = a.pow((order + 1) // 4)
        if t * t != a:
            return None
    elif scalar == ft.field.tables().neg[ft.field.one]:
        roots_of_minus_one = (ft.element(code).pow((order - 1) // 4) for code in range(1, order))
        t = next(t for t in roots_of_minus_one if t * t == a)
    else:
        if scalar is None and a.pow((order - 1) // 2) != e:
            return None
        Q, S = order - 1, 0
        while Q % 2 == 0:
            Q //= 2
            S += 1
        z = None
        for code in range(1, order):
            cand = ft.element(code)
            if cand.pow((order - 1) // 2) == -e:
                z = cand
                break
        assert z is not None
        M, c, t_val, r = S, z.pow(Q), a.pow(Q), a.pow((Q + 1) // 2)
        while t_val != e:
            i, t2 = 0, t_val
            while t2 != e:
                t2 = t2 * t2
                i += 1
            b = c
            for _ in range(M - i - 1):
                b = b * b
            M, c, t_val, r = i, b * b, t_val * (b * b), r * b
        t = r
    mt = -t
    return t if ft.code_of(t) <= ft.code_of(mt) else mt


def solve_norm_equation(
    ft: SubfieldView, g: CyclicElem, rhs: Optional[CyclicElem] = None
) -> tuple[CyclicElem, CyclicElem]:
    """First (s, s') in scan order with s^2 + g s s' + s'^2 = rhs in ft.

    rhs defaults to -1.  Candidates with s' = 0 are preferred; for rhs = -1
    such a solution exists iff the subfield has even order or order = 1 mod 4.
    Afterwards s' is scanned in canonical order; completing the square turns
    each s' into a root extraction, so the returned s is the smaller of the
    two admissible values, exactly as an ascending scan would produce.
    """
    e = ft.identity
    two = e + e
    if g == two or g == -two:
        raise DegenerateG("g = +-2 makes X^2 + gX + 1 split")
    if rhs is None:
        rhs = -e
    t0 = sqrt_min(ft, rhs)
    if t0 is not None:
        return t0, ft.zero
    # characteristic 2 always admits s' = 0 (squaring is bijective)
    assert ft.field.p != 2
    inv2 = ft.inv(two)
    b = e - g * g * (inv2 * inv2)
    half_g = g * inv2
    for code in range(1, ft.order):
        sp = ft.element(code)
        t = sqrt_min(ft, rhs - b * (sp * sp))
        if t is not None:
            cand = [t - half_g * sp, -t - half_g * sp]
            cand.sort(key=ft.code_of)
            return cand[0], sp
    raise AssertionError("norm equation has no solution (impossible)")


class Component:
    """One block A_t of the decomposition.

    Built eagerly: e, identity, k, dim, and on matrix blocks fhe, ft, ue and
    uinv_e, with ebar on paired blocks and g, s, s_prime on self-conjugate
    ones.  Built on first use and cached: the generator of the chosen ideal,
    C_t (`codes.build_Ct`) or on the trivial block C_0 (`codes.build_C0`),
    in _ct; and the block's K_t (`codes.kt_fields`, in _kt).

    No elimination builds FHe: its RREF basis is read off the certified
    factor f of e (`field._minimal_ideal_rref`), and one 1 x deg f product
    checks that e = e[:deg f] . R lies in its span.  F_t on a self-conjugate
    block is the rref of the traces of that basis.
    """

    def __init__(self, alg: "TwistedDihedralAlgebra", index: int, kind: str, idem_indices: tuple[int, ...]):
        self.alg = alg
        self.index = index
        self.kind = kind
        self.idem_indices = idem_indices
        idems = alg.idempotents().idems
        F = alg.field
        n = alg.n
        self.r: Optional[int] = None
        self.g = self.s = self.s_prime = None
        self.ft: Optional[SubfieldView] = None
        self.ebar: Optional[CyclicElem] = None
        self._ct: Optional[AlgElem] = None  # codes.build_Ct(self) or build_C0(self), on first use
        self._kt = None  # the block's codes.KtField, by codes.kt_fields on first use

        if kind in (TRIVIAL_FIELD, TRIVIAL_SPLIT):
            self.e = idems[0]
            self.k = None
            self.dim = 2
            self.identity = alg.embed_fh(self.e)
            if kind == TRIVIAL_SPLIT:
                r = alg.sqrt_of_v_sq()
                assert r is not None
                self.r = r
            return

        i = idem_indices[0]
        self.e = idems[i]
        ue = self.e.shift(1)
        # FHe is the minimal ideal of the factor f of e, so its RREF, pivots
        # 0..deg f - 1, is read off f; e must lie in its span
        f = alg.idempotents().factors[i]
        R = _minimal_ideal_rref(F, f, n)
        assert np.array_equal(F.matmul(self.e.coeffs[None, : f.degree], R)[0], self.e.coeffs), "e is not in FHe"
        self.fhe = SubfieldView(F, n, self.e, R, tuple(range(f.degree)), label=f"FHe[{i}]")
        self.ue = ue
        self.uinv_e = self.e.shift(-1)

        if kind == PAIRED:
            j = idem_indices[1]
            self.ebar = idems[j]
            self.k = self.fhe.dim
            self.dim = 4 * self.k
            self.ft = self.fhe
            self.identity = alg.embed_fh(self.e + self.ebar)
            return

        # self-conjugate: F_t = bar-fixed subfield of FHe, spanned by the
        # traces y + bar(y) of a basis of FHe (the trace onto F_t is onto in
        # every characteristic)
        assert kind == SELF_CONJ
        assert self.e.bar() == self.e
        Y = self.fhe.rows
        traces = F.tables().add[Y, Y[:, _unit_index(n, -1)]]
        ftv = SubfieldView(F, n, self.e, *linalg.rref(F, traces), label=f"Fix(FHe[{i}])")
        self.ft = ftv
        self.k = ftv.dim
        self.dim = 4 * self.k
        assert self.fhe.dim == 2 * self.k
        self.identity = alg.embed_fh(self.e)
        # g from the minimal polynomial X^2 + gX + 1 of ue over F_t.
        # (ve)^2 = tw e, so nu must satisfy nu^2 = tw eps, which pins the
        # norm-equation right-hand side to tw (i.e. -1 consta, +1 dihedral).
        self.g = -(ue + self.uinv_e)
        assert ftv.contains(self.g)
        self.s, self.s_prime = solve_norm_equation(ftv, self.g, rhs=self.e.scale(alg.tw_code))

    def __repr__(self):
        return f"Component(t={self.index}, {self.kind}, k={self.k})"


class TwistedDihedralAlgebra:
    """F-algebra on u, v with u^n = 1, v^2 = tw, v u = u^-1 v."""

    def __init__(self, field: Field, n: int, tw: int):
        if n < 1:
            raise GcdViolation("n must be a positive integer")
        if tw not in (1, -1):
            raise DomainError("tw must be +1 or -1")
        self.field = field
        self.n = n
        self.tw = tw
        self.tw_code = field.one if tw == 1 else field.neg(field.one)
        self._idems: Optional[IdempotentSet] = None
        self._components: Optional[list[Component]] = None
        self._action: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._ideal_rrefs: dict[bytes, np.ndarray] = {}
        self._census_tables: dict = {}  # analysis._class_table's, by A_0's choice

    # -- element constructors -------------------------------------------------

    def elem(self, a: CyclicElem, b: CyclicElem) -> AlgElem:
        return AlgElem(self, np.concatenate((a.coeffs, b.coeffs)))

    def embed_fh(self, a: CyclicElem) -> AlgElem:
        return self.elem(a, CyclicElem.zero(self.field, self.n))

    def zero(self) -> AlgElem:
        return AlgElem(self, np.zeros(2 * self.n, dtype=np.int64))

    def one(self) -> AlgElem:
        return self.u(0)

    def u(self, k: int = 1) -> AlgElem:
        return self.embed_fh(CyclicElem.u_power(self.field, self.n, k))

    def from_word(self, word: Sequence[int] | np.ndarray) -> AlgElem:
        if len(word) != 2 * self.n:
            raise DimensionMismatch(f"word length must be {2 * self.n}")
        return AlgElem(self, word)

    # -- structure -------------------------------------------------------------

    def sqrt_of_v_sq(self) -> Optional[int]:
        """First r with r^2 = v^2 (i.e. r^2 = -1 consta, r^2 = 1 dihedral)."""
        if self.tw == 1:
            return self.field.one
        return sqrt_minus_one(self.field)

    def idempotents(self) -> IdempotentSet:
        if self._idems is None:
            self._check_semisimple()
            self._idems = primitive_idempotents(self.n, self.field)
        return self._idems

    def _check_semisimple(self):
        if self.n <= 1 or self.n % 2 == 0:
            raise GcdViolation(f"decomposition requires odd n > 1, got n={self.n}")
        if math.gcd(self.n, self.field.q) != 1:
            raise GcdViolation(f"gcd(n={self.n}, q={self.field.q}) != 1")

    def lambda_(self) -> int:
        self._check_semisimple()
        return lambda_n(self.n, self.field.q)

    def decompose(self) -> list[Component]:
        """Blocks A_0, A_1, ..., A_m in canonical idempotent order."""
        if self._components is not None:
            return self._components
        idem_set = self.idempotents()
        pairing = conj_pairing(idem_set)
        comps: list[Component] = []
        kind0 = TRIVIAL_SPLIT if self.sqrt_of_v_sq() is not None else TRIVIAL_FIELD
        comps.append(Component(self, 0, kind0, (0,)))
        t = 1
        for i in range(1, len(idem_set)):
            j = pairing[i]
            if j == i:
                comps.append(Component(self, t, SELF_CONJ, (i,)))
                t += 1
            elif j > i:
                comps.append(Component(self, t, PAIRED, (i, j)))
                t += 1
        # Corollary-style accounting: sum of dims = 2n, k-sum = (n-1)/2,
        # every block dimension at least 2*lambda(n)
        assert sum(c.dim for c in comps) == 2 * self.n
        ksum = sum(c.k for c in comps[1:])
        assert 2 * ksum == self.n - 1, "k-sum accounting failed"
        lam = self.lambda_()
        assert all(2 * c.k >= lam for c in comps[1:]), "2k_t >= lambda(n) failed"
        # the identities embed sums of the certified primitive idempotents, so
        # a partition of the indices makes them orthogonal idempotents summing to 1
        indices = sorted(i for c in comps for i in c.idem_indices)
        assert indices == list(range(len(idem_set))), "blocks do not partition the idempotents"
        self._components = comps
        return comps

    def group_action(self) -> tuple[np.ndarray, np.ndarray]:
        """Signed coordinate permutations (perm, sign) of all 2n group elements.

        Row a is u^a and row n + a is u^a v; for every word x,
        (h * x).to_word()[j] == sign[h, j] * x[perm[h, j]].  Coordinate
        (d, j) is index d + n*j, the coefficient of u^d v^j.
        """
        if self._action is None:
            n = self.n
            a = np.arange(n)[:, None]
            d = np.arange(n)[None, :]
            shift = (d - a) % n  # u^a: (d, j) <- (d - a, j)
            refl = (a - d) % n  # u^a v: (d, 1) <- (a - d, 0), (d, 0) <- tw (a - d, 1)
            perm = np.block([[shift, shift + n], [refl + n, refl]]).astype(np.int64)
            sign = np.full((2 * n, 2 * n), self.field.one, dtype=np.int64)
            sign[n:, :n] = self.tw_code
            perm.setflags(write=False)
            sign.setflags(write=False)
            self._action = (perm, sign)
        return self._action

    def translates(self, words: np.ndarray) -> np.ndarray:
        """Rows h * g for each row g of the (r, 2n) int64 array words and each
        h in group_action order: r stacked (2n, 2n) blocks, block i being
        L(g_i) with word(x * g_i) = word(x) . L(g_i) over the field.  Each
        entry is one take from the flat mul table, indexed in place."""
        perm, sign = self.group_action()
        idx = words[:, perm]
        idx += sign * self.field.q  # mul[s, w] sits at s q + w of the flat table
        return self.field.tables().mul.ravel().take(idx, out=idx, mode="clip").reshape(-1, 2 * self.n)

    def left_ideal_rows(self, gens: Sequence[AlgElem | np.ndarray]) -> np.ndarray:
        """Spanning rows h * g for each g in gens and h in group_action order.

        A generator is an AlgElem or its 2n-long word.
        """
        words = [g.word if isinstance(g, AlgElem) else g for g in gens]
        return self.translates(np.array(words, dtype=np.int64).reshape(-1, 2 * self.n))

    def ideal_rref(self, gens: Sequence[AlgElem]) -> np.ndarray:
        """Read-only RREF of left_ideal_rows(gens), cached by the generator words."""
        words = np.array([g.word for g in gens], dtype=np.int64)
        key = words.tobytes()
        if key not in self._ideal_rrefs:
            R, _ = linalg.rref(self.field, self.left_ideal_rows(words))
            R.setflags(write=False)
            self._ideal_rrefs[key] = R
        return self._ideal_rrefs[key]

    def decomposition_report(self) -> dict:
        comps = self.decompose()
        blocks = []
        for c in comps:
            entry: dict = {
                "t": c.index,
                "kind": c.kind,
                "dim": c.dim,
                "identity": c.identity.word.tolist(),
            }
            if c.kind == TRIVIAL_SPLIT:
                entry["r"] = c.r
            if c.k is not None:
                entry["k"] = c.k
                entry["idempotent_indices"] = list(c.idem_indices)
            if c.kind == SELF_CONJ:
                entry["g"] = c.g.coeffs.tolist()
                entry["s"] = c.s.coeffs.tolist()
                entry["s_prime"] = c.s_prime.coeffs.tolist()
            blocks.append(entry)
        return {
            "q": self.field.q,
            "n": self.n,
            "v_squared": self.tw,
            "lambda": self.lambda_(),
            "blocks": blocks,
        }

    def __repr__(self):
        sign = "-1" if self.tw == -1 else "+1"
        return f"TwistedDihedralAlgebra(q={self.field.q}, n={self.n}, v^2={sign})"
