"""Reference implementations that the tests compare the library against.

Each one computes by a route the library does not take: the simple left
ideals of M_2(GF(q)) by exhaustive search, the census order of K* one index
at a time, the M_2(F_t) isomorphisms of the matrix blocks (with the 2 x 2
matrices over F_t, Mat2, and the F_t split one element at a time), the
element of a K_t code and the bar map through them, a twist as one unit of
the algebra (for twisting one product g * beta at a time), the K_t tables
one element product at a time, the dual code by row-reducing the kernel
basis, the weight distribution from every word of the span, cyclic
products by an explicit circulant or one shifted row at a time, powers
in FH by plain square-and-multiply, x^n - 1 factored by splitting every
idempotent by every coset sum, and square roots in a subfield of FH by an
ascending scan.  None of them is on a path the library runs.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator, Sequence

import numpy as np

from cdcodes import linalg
from cdcodes.algebra import PAIRED, SELF_CONJ, AlgElem, Component, SubfieldView, TwistedDihedralAlgebra
from cdcodes.codes import BetaVector, KtField, LinearCode, k_star_size, unit_words
from cdcodes.cyclic import CyclicElem
from cdcodes.errors import InvalidBeta, NotInComponent, NotPaired
from cdcodes.field import Field, Poly, _convolve, _power, cyclotomic_cosets


# -- simple left ideals of M_2(GF(q)) --------------------------------------------


def _matrix_units() -> list[np.ndarray]:
    """E_00, E_01, E_10, E_11: the 2 x 2 matrices with a single entry 1."""
    return [np.eye(1, 4, k, dtype=np.int64).reshape(2, 2) for k in range(4)]


def mat2_simple_left_ideals(field: Field) -> list[bytes]:
    """All simple left ideals of M_2(GF(q)), enumerated exhaustively.

    Every 2-dimensional subspace of the 4-dimensional matrix space is tested
    for closure under left multiplication by the matrix units; in the
    semisimple algebra M_2 these 2-dimensional left ideals are exactly the
    simple ones.  Returns canonical RREF keys; the count must be q + 1.
    """
    q = field.q
    gens = _matrix_units()

    def act(E, v):  # left multiplication on vec(row-major)
        M = v.reshape(2, 2)
        return linalg.matmul(field, E, M).reshape(4)

    found = set()
    # 2-dim subspaces via RREF canonical forms: pivots (c0, c1), free entries
    for c0, c1 in itertools.combinations(range(4), 2):
        free = [c for c in range(4) if c not in (c0, c1) and c > c0]
        free1 = [c for c in free if c > c1]
        free0 = [c for c in free if c < c1]
        for vals in itertools.product(range(q), repeat=len(free0) + 2 * len(free1)):
            b0 = np.zeros(4, dtype=np.int64)
            b1 = np.zeros(4, dtype=np.int64)
            b0[c0] = 1
            b1[c1] = 1
            it = iter(vals)
            for c in free0:
                b0[c] = next(it)
            for c in free1:
                b0[c] = next(it)
                b1[c] = next(it)
            basis = np.vstack([b0, b1])
            R, piv = linalg.rref(field, basis)
            if R.shape[0] != 2 or piv != (c0, c1):
                continue  # not the canonical form of this pivot pair
            images = np.array([act(E, row) for E in gens for row in R])
            if not linalg.residual(field, R, piv, images).any():
                found.add(R.tobytes())
    return sorted(found)


def mat2_generator_ideals(field: Field) -> list[bytes]:
    """The q+1 ideals from the generator list (a 1; 0 0), a in F, and (1 0; 0 0)."""
    keys = []
    for a in list(range(field.q)) + [None]:
        if a is None:
            f = np.array([[1, 0], [0, 0]], dtype=np.int64)
        else:
            f = np.array([[a, 1], [0, 0]], dtype=np.int64)
        rows = [linalg.matmul(field, E, f).reshape(4) for E in _matrix_units()]
        R, _ = linalg.rref(field, np.array(rows))
        keys.append(R.tobytes())
    assert len(set(keys)) == len(keys)
    return sorted(keys)


# -- the census order of K* --------------------------------------------------------


def beta_at(kts: Sequence[KtField], index: int) -> BetaVector:
    """The twist at index in the census order of K*.

    The index is read in mixed radix |K_t| - 1 with block 1 fastest, each
    code running 1 .. |K_t| - 1.  An index outside [0, |K*|) raises
    InvalidBeta.
    """
    if not 0 <= index < k_star_size(kts):
        raise InvalidBeta(f"index {index} outside [0, |K*|)")
    codes = []
    for kt in kts:
        index, c = divmod(index, kt.order - 1)
        codes.append(1 + c)
    return BetaVector(kts, codes)


def enumerate_beta(kts: Sequence[KtField]) -> Iterator[BetaVector]:
    """All of K* once each, in the census order of beta_at."""
    return (beta_at(kts, i) for i in range(k_star_size(kts)))


# -- the M_2(F_t) isomorphisms of the matrix blocks ---------------------------------


class Mat2:
    """2x2 matrix with entries constrained to a SubfieldView of FH."""

    __slots__ = ("ft", "entries")

    def __init__(self, ft: SubfieldView, entries):
        self.ft = ft
        (a, b), (c, d) = entries
        self.entries = ((a, b), (c, d))

    @classmethod
    def identity(cls, ft: SubfieldView):
        z = ft.zero
        return cls(ft, ((ft.identity, z), (z, ft.identity)))

    def __add__(self, other):
        (a, b), (c, d) = self.entries
        (e, f), (g, h) = other.entries
        return Mat2(self.ft, ((a + e, b + f), (c + g, d + h)))

    def __neg__(self):
        (a, b), (c, d) = self.entries
        return Mat2(self.ft, ((-a, -b), (-c, -d)))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        (a, b), (c, d) = self.entries
        (e, f), (g, h) = other.entries
        return Mat2(
            self.ft,
            (
                (a * e + b * g, a * f + b * h),
                (c * e + d * g, c * f + d * h),
            ),
        )

    def scaled(self, s: CyclicElem) -> "Mat2":
        (a, b), (c, d) = self.entries
        return Mat2(self.ft, ((s * a, s * b), (s * c, s * d)))

    def __eq__(self, other):
        return isinstance(other, Mat2) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def is_zero(self) -> bool:
        (a, b), (c, d) = self.entries
        return a.is_zero() and b.is_zero() and c.is_zero() and d.is_zero()

    def vec(self):
        (a, b), (c, d) = self.entries
        return [a, b, c, d]

    def __repr__(self):
        return f"Mat2({self.entries!r})"


def _ft_mat_inv(ft: SubfieldView, rows: list[list[CyclicElem]]) -> list[list[CyclicElem]]:
    """Gauss-Jordan inverse of a small matrix with entries in a subfield."""
    k = len(rows)
    aug = [list(r) + [ft.identity if i == j else ft.zero for j in range(k)] for i, r in enumerate(rows)]
    for c in range(k):
        piv = next(i for i in range(c, k) if not aug[i][c].is_zero())
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = ft.inv(aug[c][c])
        aug[c] = [inv * x for x in aug[c]]
        for i in range(k):
            if i != c and not aug[i][c].is_zero():
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [r[k:] for r in aug]


def _require(comp: Component, kinds):
    if comp.kind not in kinds:
        if kinds == (PAIRED,):
            raise NotPaired(f"block {comp.index} is {comp.kind}")
        raise NotInComponent(f"block {comp.index} is {comp.kind}")


def contains(comp: Component, x: AlgElem) -> bool:
    """Whether x lies in the block: 1_t x = x."""
    return comp.identity * x == x


def ft_split(comp: Component, y: CyclicElem) -> tuple[CyclicElem, CyclicElem]:
    """y in FHe of a self-conjugate block as alpha + beta ue, alpha and beta in
    F_t, one element at a time: beta = (y - bar(y)) / (ue - u^-1 e) and
    alpha = y - beta ue."""
    beta = (y - y.bar()) * comp.fhe.inv(comp.ue - comp.uinv_e)
    return y - beta * comp.ue, beta


@functools.cache
def matrix_basis(comp: Component) -> tuple:
    """(epsilon, eta, nu, eta_nu, b_inv) of a self-conjugate block: the
    matrices of e, ue, ev and ue v, and the inverse of the 4x4 matrix whose
    columns are their entries; cached per block."""
    _require(comp, (SELF_CONJ,))
    ftv, e = comp.ft, comp.e
    eta = Mat2(ftv, ((-comp.g, e), (-e, ftv.zero)))
    nu = Mat2(ftv, ((comp.s, comp.s_prime), (comp.s * comp.g + comp.s_prime, -comp.s)))
    basis = (Mat2.identity(ftv), eta, nu, eta * nu)
    cols = [m.vec() for m in basis]
    b_inv = _ft_mat_inv(ftv, [[cols[j][i] for j in range(4)] for i in range(4)])
    return basis + (b_inv,)


def halves(x: AlgElem) -> tuple[CyclicElem, CyclicElem]:
    """The halves (a, b) of x = a + b v, as CyclicElems."""
    n = x.alg.n
    return CyclicElem(x.alg.field, x.word[:n]), CyclicElem(x.alg.field, x.word[n:])


def subfield_basis(ft: SubfieldView) -> tuple[CyclicElem, ...]:
    """The RREF basis of a subfield of FH, one CyclicElem a row of ft.rows."""
    return tuple(CyclicElem(ft.field, row) for row in ft.rows)


def iso_to_mat2(comp: Component, x: AlgElem) -> Mat2:
    """The matrix of x, an element of a matrix block."""
    _require(comp, (PAIRED, SELF_CONJ))
    if not contains(comp, x):
        raise NotInComponent("element not in this block")
    x_a, x_b = halves(x)
    if comp.kind == PAIRED:
        # matrix (a11 a12; a21 a22) <-> a11 e + sign a12 e v + bar(a21) ebar v + bar(a22) ebar
        sign = comp.alg.tw_code
        e = comp.e
        a11 = x_a * e
        a22 = x_a.bar() * e
        a12 = (x_b * e).scale(sign)
        a21 = x_b.bar() * e
        return Mat2(comp.ft, ((a11, a12), (a21, a22)))
    epsilon, eta, nu, eta_nu, _ = matrix_basis(comp)
    (a, b), (c, d) = ft_split(comp, x_a), ft_split(comp, x_b)
    return epsilon.scaled(a) + eta.scaled(b) + nu.scaled(c) + eta_nu.scaled(d)


def iso_from_mat2(comp: Component, M: Mat2) -> AlgElem:
    """The element of a matrix block whose matrix is M."""
    _require(comp, (PAIRED, SELF_CONJ))
    if comp.kind == PAIRED:
        sign = comp.alg.tw_code
        (a11, a12), (a21, a22) = M.entries
        part_a = a11 + a22.bar()
        part_b = a12.scale(sign) + a21.bar()
        return comp.alg.elem(part_a, part_b)
    v = M.vec()
    coeffs = []
    for row in matrix_basis(comp)[4]:
        acc = comp.ft.zero
        for r, x in zip(row, v):
            acc = acc + r * x
        coeffs.append(acc)
    a, b, c, d = coeffs
    return comp.alg.elem(a + b * comp.ue, c + d * comp.ue)


def bar_via_matrix(comp: Component, M: Mat2) -> Mat2:
    """Matrix form of the bar map on a paired block.

    Consta case: (a11 a12; a21 a22) -> (a22 -a12; -a21 a11); the dihedral
    analogue keeps the off-diagonal signs.
    """
    _require(comp, (PAIRED,))
    sign = comp.alg.tw_code
    (a11, a12), (a21, a22) = M.entries
    return Mat2(comp.ft, ((a22, a12.scale(sign)), (a21.scale(sign), a11)))


# -- elements, bar and duals --------------------------------------------------------


def random_elem(alg: TwistedDihedralAlgebra, rng) -> AlgElem:
    """An element with 2n coefficients drawn from rng."""
    q = alg.field.q
    return alg.from_word([rng.randrange(q) for _ in range(2 * alg.n)])


def kt_element(kt: KtField, code: int) -> AlgElem:
    """The element of K_t with the given code, one at a time.

    Self-conjugate: the FHe element of that code.  Paired: the code
    a + b |F_t| is the companion-matrix combination ((a, -b), (b, a - b g')),
    sent into the block by the matrix isomorphism.
    """
    comp = kt.comp
    if comp.kind == SELF_CONJ:
        return kt.alg.embed_fh(comp.fhe.element(code))
    ft = comp.ft
    a = ft.element(code % ft.order)
    b = ft.element(code // ft.order)
    gp = kt.g_prime
    M = Mat2(ft, ((a, -b), (b, a - b * gp)))
    return iso_from_mat2(comp, M)


def unit(beta: BetaVector) -> AlgElem:
    """beta as one unit of the algebra, e_0 plus every beta_t: its row of
    unit_words.  The blocks are orthogonal two-sided ideals, so
    g * beta = g * beta_t for g in block t."""
    return AlgElem(beta.kts[0].alg, unit_words(beta.kts, [beta.codes])[0])


def v_elem(alg: TwistedDihedralAlgebra) -> AlgElem:
    """The group element v: a = 0, b = 1."""
    return alg.elem(CyclicElem.zero(alg.field, alg.n), CyclicElem.one(alg.field, alg.n))


def scaled(x: AlgElem, c: int) -> AlgElem:
    """The scalar multiple c x, entry by entry."""
    return AlgElem(x.alg, x.alg.field.tables().mul[c, x.word])


# -- K_t tables, one element at a time ------------------------------------------------


def kt_basis_words(kt: KtField) -> np.ndarray:
    """KtField.basis_words with one CyclicElem product a row.  Self-conjugate:
    the FHe basis.  Paired: b_i + bar(b_i), then -bar(b_i g') + (bar(b_i) -
    tw b_i) v, over the RREF basis b_i of F_t."""
    comp, alg = kt.comp, kt.alg
    if comp.kind == SELF_CONJ:
        rows = [alg.embed_fh(b) for b in subfield_basis(comp.fhe)]
    else:
        basis, zero = subfield_basis(comp.ft), comp.ft.zero
        rows = [alg.elem(b + b.bar(), zero) for b in basis]
        rows += [alg.elem(-(b * kt.g_prime).bar(), b.bar() - b.scale(alg.tw_code)) for b in basis]
    return np.array([r.word for r in rows])


def _digit_rows(codes: np.ndarray, q: int, width: int) -> np.ndarray:
    return codes[:, None] // q ** np.arange(width) % q


def ft_mul_table(ft: SubfieldView) -> np.ndarray:
    """The (|F_t|, |F_t|) table of product codes, from the coordinates of
    every basis product b_i b_j, one CyclicElem product each."""
    F, k, Q = ft.field, ft.dim, ft.order
    basis = subfield_basis(ft)
    S = np.array([[ft.coords((bi * bj).coeffs) for bj in basis] for bi in basis])
    D = _digit_rows(np.arange(Q), F.q, k)
    M = F.matmul(D, S.transpose(1, 0, 2).reshape(k, k * k)).reshape(Q, k, k)
    P = F.matmul(D, M.transpose(1, 0, 2).reshape(k, Q * k)).reshape(Q, Q, k)
    return P @ F.q ** np.arange(k)


def kt_class_ids(kt: KtField) -> list[int]:
    """KtField.class_ids from ft_mul_table and, on a self-conjugate block,
    the F_t split y = alpha + beta ue (ft_split) of each FHe basis element."""
    comp, ft, F = kt.comp, kt.comp.ft, kt.alg.field
    k, Q = ft.dim, ft.order
    ab = _digit_rows(np.arange(kt.order), F.q, 2 * k)
    if comp.kind == SELF_CONJ:
        split = [np.concatenate([ft.coords(part.coeffs) for part in ft_split(comp, y)]) for y in subfield_basis(comp.fhe)]
        ab = F.matmul(ab, np.array(split))
    pw = F.q ** np.arange(k)
    a, b = ab[:, :k] @ pw, ab[:, k:] @ pw
    mul = ft_mul_table(ft)
    inv = np.zeros(Q, dtype=np.int64)
    units, inverses = np.nonzero(mul == ft.code_of(ft.identity))
    inv[units] = inverses
    ids = np.where(b == 0, Q, mul[a, inv[b]])
    ids[0] = -1
    return ids.tolist()


def first_irreducible_g(ft: SubfieldView) -> CyclicElem:
    """The first g' in code order for which X^2 + g'X + 1 has no root in ft,
    every x of ft tried: the paired-block g' by a criterion the library's
    trace and Euler tests do not use."""
    elems = [ft.element(c) for c in range(ft.order)]
    shifted_squares = [x * x + ft.identity for x in elems]  # x^2 + 1
    for gp in elems:
        if all(not (s + gp * x).is_zero() for x, s in zip(elems, shifted_squares)):
            return gp
    raise AssertionError("every X^2 + g'X + 1 has a root")


def kt_identity_code(kt: KtField) -> int:
    """The code of the block identity in K_t: e's FHe code on a self-conjugate
    block, and a = e, b = 0 on a paired one, where F_t is FHe."""
    return kt.comp.fhe.code_of(kt.comp.e)


def dual(code: LinearCode) -> LinearCode:
    """C-perp, its generator the kernel basis of G (`linalg.kernel_basis`) row-reduced."""
    basis = linalg.kernel_basis(code.field, code.gen, code.pivots)
    return LinearCode.from_rows(code.field, basis, n_len=code.n_len, origin={"dual_of": code.origin})


def span_weights(field: Field, basis: np.ndarray) -> np.ndarray:
    """The weight distribution read off the fully materialised span."""
    words = linalg.enumerate_span(field, basis)
    return np.bincount(np.count_nonzero(words, axis=1), minlength=basis.shape[1] + 1)


def first_nonzero_weight(counts: np.ndarray) -> int:
    """The minimum weight read off a weight distribution A_0..A_n."""
    return int(np.flatnonzero(counts[1:])[0]) + 1


def circulant_product(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b in GF(q)[x]/(x^n - 1), n = len(b), as `Field.matmul` of a with the
    explicit circulant of b, row i holding b shifted by i; a may be shorter,
    as if zero-padded, and then meets only the first len(a) rows."""
    n = len(b)
    circulant = np.asarray(b, dtype=np.int64)[(np.arange(n) - np.arange(len(a))[:, None]) % n]
    return field.matmul(np.asarray(a, dtype=np.int64)[None, :], circulant)[0]


def _shifted_rows_product(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b in GF(q)[x]/(x^n - 1): the sum over i of a_i times b shifted by i."""
    t = field.tables()
    out = np.zeros(len(a), dtype=np.int64)
    for i, c in enumerate(a.tolist()):
        out = t.add[out, t.mul[c, np.roll(b, i)]]
    return out


def power_by_squaring(a: CyclicElem, e: int) -> CyclicElem:
    """a^e for e >= 0 by binary square-and-multiply from 1, with no Frobenius."""
    result = CyclicElem.one(a.field, a.n).coeffs
    base = a.coeffs
    while e:
        if e & 1:
            result = _shifted_rows_product(a.field, result, base)
        base = _shifted_rows_product(a.field, base, base)
        e >>= 1
    return CyclicElem(a.field, result)


# -- x^n - 1 by splitting every idempotent ------------------------------------------


def _split_by(field: Field, e: np.ndarray, b: np.ndarray, bound: int) -> list[np.ndarray]:
    """Split the idempotent e by the values of b in the fixed subalgebra B.

    b e lies in eB, a product of copies of GF(q) with identity e, so its
    minimal polynomial there has distinct roots in GF(q) (at most `bound` of
    them): the values b takes on the components of e.  The idempotent of the
    components where b takes the value lam is e - (b e - lam e)^(q-1).
    """
    t = field.tables()
    be = _convolve(field, b, e)
    powers = [e, be]
    for _ in range(bound - 1):
        powers.append(_convolve(field, powers[-1], be))
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
        parts.append(t.add[e, t.neg[_power(field, shifted, field.q - 1)]])
    return parts


def factor_all_branches(n: int, field: Field) -> list[tuple[Poly, np.ndarray]]:
    """(factor, idempotent) pairs of x^n - 1 (odd n > 1), sorted as the
    library sorts them, by refining 1 by the values of every coset sum of
    Z_n in turn, every current idempotent split again at length n, and each
    factor gcd(x^n - 1, e - 1)."""
    t = field.tables()
    cosets = cyclotomic_cosets(n, field.q)
    r = len(cosets)
    one = np.zeros(n, dtype=np.int64)
    one[0] = field.one
    idems = [one]
    for coset in cosets[1:]:
        if len(idems) == r:
            break
        b = np.zeros(n, dtype=np.int64)
        b[coset] = field.one
        bound = min(field.q, r - len(idems) + 1)
        idems = [part for e in idems for part in _split_by(field, e, b, bound)]
    assert len(idems) == r
    xn1 = Poly.x_pow_n_minus_1(field, n)
    pairs = [(xn1.gcd(Poly(field, t.add[e, t.neg[one]].tolist())), e) for e in idems]
    x_minus_1 = Poly(field, (field.neg(field.one), field.one))
    return sorted(pairs, key=lambda fe: (fe[0] != x_minus_1, fe[0].degree, fe[0].coeffs[::-1]))


def sqrt_by_scan(ft: SubfieldView) -> dict[bytes, int]:
    """For each square a of the subfield (by its coefficient bytes), the code
    of the first root of a in ascending code order."""
    first: dict[bytes, int] = {}
    for code in range(ft.order):
        y = ft.element(code)
        first.setdefault((y * y).coeffs.tobytes(), code)
    return first
