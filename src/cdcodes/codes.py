"""Construction of (consta-)dihedral codes and their duality verdicts.

The code families built here follow the block decomposition: one simple left
ideal C_t per matrix block (C_t = A_t e on paired blocks, C_t = A_t f with
f = s e - s' u e + v e on self-conjugate blocks), plus a choice on the trivial
block A_0 (nothing, the 1-dimensional ideal C_0 when r^2 = v^2 is solvable,
or all of A_0), and twisted variants C beta for beta in the product K* of
per-block subfield unit groups.  A twist is an ordinary product: beta is one
unit of the algebra, e_0 plus the beta_t, so a code is the left ideal of all
its generators times that unit.  The block identities are central orthogonal
idempotents, so g * beta = g * beta_t for g in block t and x * beta = x for
x in A_0: the twist moves the matrix-block parts and fixes A_0's choice.

Generator matrices are kept in reduced row echelon form, so code equality is
matrix equality.  The hull dimension is always computed by two independent
methods that must agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Iterator, Optional, Sequence

import numpy as np

from . import linalg
from .algebra import (
    PAIRED,
    SELF_CONJ,
    TRIVIAL_SPLIT,
    AlgElem,
    Component,
    SubfieldView,
    TwistedDihedralAlgebra,
)
from .cyclic import CyclicElem
from .errors import (
    BlockCollision,
    DimensionMismatch,
    DomainError,
    HypothesisUnmet,
    InvalidBeta,
    NotInComponent,
)
from .field import Field, _convolve, _unit_index, field_from_order


@dataclass
class LinearCode:
    """A linear code given by a canonical (RREF) generator matrix; its length
    and dimension are the generator's shape."""

    field: Field
    gen: np.ndarray
    origin: dict = dc_field(default_factory=dict)

    @classmethod
    def from_rows(cls, field: Field, rows, n_len: Optional[int] = None, origin: Optional[dict] = None) -> "LinearCode":
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            if n_len is None:
                raise DimensionMismatch("zero code needs an explicit length")
            return cls(field, np.zeros((0, n_len), dtype=np.int64), origin or {})
        if rows.ndim == 1:
            rows = rows.reshape(1, -1)
        R, _ = linalg.rref(field, rows)
        return cls(field, R, origin or {})

    @property
    def n_len(self) -> int:
        return self.gen.shape[1]

    @property
    def k_dim(self) -> int:
        return self.gen.shape[0]

    @property
    def pivots(self) -> tuple[int, ...]:
        """Each row's leading column; gen is RREF, so these are its pivots."""
        return tuple(np.argmax(self.gen != 0, axis=1).tolist())

    def key(self) -> bytes:
        """Canonical identity of the row space."""
        return self.gen.tobytes()

    def __eq__(self, other):
        return (
            isinstance(other, LinearCode)
            and self.field is other.field
            and self.n_len == other.n_len
            and np.array_equal(self.gen, other.gen)
        )

    def __hash__(self):
        return hash((id(self.field), self.n_len, self.key()))

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"{self.field.q} {self.n_len} {self.k_dim}"]
        for row in self.gen:
            lines.append(" ".join(str(int(c)) for c in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "LinearCode":
        """Parse to_text's format: a header line "q n k", then k rows of n
        codes.  The header's q picks the field (field_from_order); it is checked
        before the rest of the file, so GF(6) is refused as not a prime power
        whatever follows it."""
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        try:
            field = field_from_order(int(lines[0].split()[0]))  # its errors pass through
            q, n_len, k_dim = (int(x) for x in lines[0].split())
            rows = [[int(x) for x in ln.split()] for ln in lines[1 : 1 + k_dim]]
        except (IndexError, ValueError):
            raise DimensionMismatch("malformed generator matrix file") from None
        if n_len < 0 or k_dim < 0:
            raise DimensionMismatch(f"malformed generator matrix file: negative size {k_dim} x {n_len}")
        if any(len(r) != n_len for r in rows) or len(lines) != 1 + k_dim:
            raise DimensionMismatch(f"malformed generator matrix file: expected {k_dim} x {n_len} entries")
        if any(not 0 <= c < q for r in rows for c in r):
            raise DimensionMismatch(f"generator matrix entry outside GF({q})")
        code = cls.from_rows(field, rows, n_len=n_len)
        if code.k_dim != k_dim:
            raise DimensionMismatch(f"the {k_dim} generator rows have rank {code.k_dim}")
        return code

    def to_json_dict(self) -> dict:
        return {
            "q": self.field.q,
            "n_len": self.n_len,
            "k_dim": self.k_dim,
            "gen": [[int(c) for c in row] for row in self.gen],
            "origin": self.origin,
        }

    def __repr__(self):
        return f"LinearCode[{self.n_len}, {self.k_dim}]_q={self.field.q}"


class KtField:
    """The field K_t inside a nontrivial block, used for twisting.

    Self-conjugate blocks take K_t = FHe itself; paired blocks take the
    pullback of F_t[X]/(X^2 + g'X + 1) embedded in the matrix algebra via
    the companion matrix, with g' the first element making the quadratic
    irreducible.  Either way dim_F K_t = 2 k_t, nonzero codes are units, and
    a code's element is its base-q digits times the closed-form basis_words.
    """

    def __init__(self, comp: Component):
        if comp.kind not in (PAIRED, SELF_CONJ):
            raise NotInComponent("K_t exists only on matrix blocks")
        self.comp = comp
        self.alg = comp.alg
        self.order = comp.ft.order**2
        self.g_prime = _first_irreducible_quadratic_g(comp.ft) if comp.kind == PAIRED else None
        self._basis_words: Optional[np.ndarray] = None
        self._class_ids: Optional[list[int]] = None

    def basis_words(self) -> np.ndarray:
        """The 2 k_t words whose digit combinations are the K_t elements, one
        read-only array built on the first call.  Self-conjugate: the FHe
        basis.  Paired: the code a + b |F_t| is ((a, -b), (b, a - b g')), which
        the matrix isomorphism of the block sends to
        a + bar(a) - bar(b g') + (bar(b) - tw b) v: row i is b_i + bar(b_i) and
        row k_t + i is -bar(b_i g') + (bar(b_i) - tw b_i) v, b_i the RREF basis
        of F_t and tw the sign of v^2.  The products b_i g' are one
        `field._convolve` per basis row."""
        if self._basis_words is None:
            comp, F, n = self.comp, self.alg.field, self.alg.n
            t = F.tables()
            if comp.kind == SELF_CONJ:
                Y = comp.fhe.rows
                self._basis_words = np.concatenate([Y, np.zeros_like(Y)], axis=1)
            else:
                B = comp.ft.rows
                bar = _unit_index(n, -1)
                Bg = np.array([_convolve(F, b, self.g_prime.coeffs) for b in B])  # rows b_i g'
                a = np.concatenate([t.add[B, B[:, bar]], t.neg[Bg[:, bar]]])
                b = np.concatenate([np.zeros_like(B), t.add[B[:, bar], t.neg[t.mul[self.alg.tw_code, B]]]])
                self._basis_words = np.concatenate([a, b], axis=1)
            self._basis_words.setflags(write=False)
        return self._basis_words

    def class_ids(self) -> list[int]:
        """The twist class of each code: entry c is the id of the orbit
        F_t* . c, one of |F_t| + 1 ids (entry 0, the zero code, is -1).

        K_t = F_t + F_t w, with w the companion matrix (paired) or ue
        (self-conjugate), and lambda in F_t* scales a and b alike.  So the
        orbit of a + b w is the F_t-line [a : b]: for c = a + b |F_t| its id
        is the code of a / b read off _mul_table, or |F_t| when b = 0.  On a
        paired block c is the K_t code itself.  A self-conjugate block numbers
        a + b ue by its FHe digits, which are the digits of c times [B; B u]
        (B the F_t basis, and b ue = b u a rotation for b in FHe) read at
        FHe's pivots, so the ids are scattered to those codes.  Built on
        first use.
        """
        if self._class_ids is None:
            comp, ft, F = self.comp, self.comp.ft, self.alg.field
            Q = ft.order
            codes = np.arange(self.order)
            b, a = np.divmod(codes, Q)
            mul = _mul_table(ft)
            inv = np.zeros(Q, dtype=np.int64)
            units, inverses = np.nonzero(mul == ft.code_of(ft.identity))
            inv[units] = inverses
            ids = np.where(b == 0, Q, mul[a, inv[b]])
            if comp.kind == SELF_CONJ:
                B = ft.rows
                to_fhe = comp.fhe.coords(np.concatenate([B, np.roll(B, 1, axis=1)]))
                fhe_codes = F.matmul(_digits(codes, F.q, 2 * ft.dim), to_fhe) @ F.q ** np.arange(2 * ft.dim)
                relabelled = np.full(self.order, -1)
                relabelled[fhe_codes] = ids  # |K_t| writes: none missed means none repeated
                assert (relabelled >= 0).all(), "a + b ue does not number FHe one to one"
                ids = relabelled
            ids[0] = -1
            self._class_ids = ids.tolist()
        return self._class_ids


def _digits(codes: np.ndarray, q: int, width: int) -> np.ndarray:
    """Base-q digits of each code, least significant first: (len(codes), width).
    Codes in an object array, as Python ints, are split exactly at any size."""
    powers = np.array([q**i for i in range(width)], dtype=codes.dtype)
    return (codes[:, None] // powers % q).astype(np.int64, copy=False)


def _mul_table(ft: SubfieldView) -> np.ndarray:
    """(|F_t|, |F_t|) array of the codes of x * y, indexed by the codes of x and y.

    From the coordinates S[i, j] of b_i b_j, b the basis, one
    `field._convolve` per pair.  Row y of M holds the coordinates of every
    b_i y, and x * y = sum_i x_i (b_i y).
    """
    F, k, Q = ft.field, ft.dim, ft.order
    B = ft.rows
    S = np.array([[ft.coords(_convolve(F, bj, bi)) for bi in B] for bj in B])  # S[j, i] = coords(b_j b_i)
    D = _digits(np.arange(Q), F.q, k)
    M = F.matmul(D, S.reshape(k, k * k)).reshape(Q, k, k)
    P = F.matmul(D, M.transpose(1, 0, 2).reshape(k, Q * k)).reshape(Q, Q, k)
    return P @ F.q ** np.arange(k)


def _first_irreducible_quadratic_g(ft: SubfieldView) -> CyclicElem:
    """First g' in canonical order with X^2 + g'X + 1 irreducible over ft.

    A scan with one trace (characteristic 2) or Euler test per candidate.  It
    stops at the first hit, a few codes in, where reading g' off _mul_table
    would build |F_t|^2 products first: 2^20 at (4, 11), in the hull
    benchmark's set-up, and 2^46 on the paired blocks of (2, 47)."""
    e = ft.identity
    if ft.field.p == 2:
        bits = ft.order.bit_length() - 1
        for code in range(1, ft.order):
            gp = ft.element(code)
            c = ft.inv(gp * gp)
            tr = ft.zero
            x = c
            for _ in range(bits):
                tr = tr + x
                x = x.pow(2)
            if tr == e:  # Y^2 + Y = 1/g'^2 unsolvable -> irreducible
                return gp
    else:
        exp = (ft.order - 1) // 2
        four = (e + e) + (e + e)
        for code in range(ft.order):
            gp = ft.element(code)
            disc = gp * gp - four
            if disc.is_zero():
                continue
            if disc.pow(exp) != e:  # non-square discriminant
                return gp
    raise AssertionError("no irreducible X^2 + g'X + 1 over this subfield")


class BetaVector:
    """One unit per nontrivial block; the trivial block is fixed to e_0."""

    def __init__(self, kts: Sequence[KtField], codes: Sequence[int]):
        if len(kts) != len(codes):
            raise InvalidBeta("one code per nontrivial block required")
        for kt, c in zip(kts, codes):
            if not 1 <= c < kt.order:
                raise InvalidBeta(f"code {c} is not a unit of K_{kt.comp.index}")
        self.kts = tuple(kts)
        self.codes = tuple(map(int, codes))

    @classmethod
    def random(cls, kts: Sequence[KtField], rng) -> "BetaVector":
        return cls(kts, [rng.randrange(1, kt.order) for kt in kts])

    def twist_class(self) -> tuple[int, ...]:
        """Each block's KtField.class_ids entry: C beta = C beta' iff these
        agree on the blocks of C."""
        return tuple([kt.class_ids()[c] for kt, c in zip(self.kts, self.codes)])

    def __repr__(self):
        return f"BetaVector{self.codes}"


def unit_words(kts: Sequence[KtField], codes) -> np.ndarray:
    """Words of the units e_0 + sum_t beta_t(c_t), one row per row
    (c_1, ..., c_m) of the (c, m) array codes: the unit of each beta.

    Each element is linear in its code's base-q digits, whose coefficients
    are KtField.basis_words, so the blocks' digits side by side times their
    basis words stacked sum every block in one Field.matmul.  The codes
    stay Python ints when some |K_t| exceeds int64.
    """
    alg, F = kts[0].alg, kts[0].alg.field
    codes = np.asarray(codes, dtype=np.int64 if max(kt.order for kt in kts) <= 2**63 else object)
    bases = [kt.basis_words() for kt in kts]
    digits = np.concatenate([_digits(codes[:, t], F.q, len(B)) for t, B in enumerate(bases)], axis=1)
    return F.tables().add[alg.decompose()[0].identity.word, F.matmul(digits, np.concatenate(bases))]


def kt_fields(alg: TwistedDihedralAlgebra) -> list[KtField]:
    """The K_t of every nontrivial block, each built on the first call and
    cached on its block, so its tables are built once per block."""
    comps = alg.decompose()[1:]
    for c in comps:
        if c._kt is None:
            c._kt = KtField(c)
    return [c._kt for c in comps]


def k_star_size(kts: Sequence[KtField]) -> int:
    size = 1
    for kt in kts:
        size *= kt.order - 1
    return size


def build_C0(comp: Component) -> Optional[AlgElem]:
    """Generator r e_0 + e_0 v of the 1-dimensional ideal, when r exists; built
    on the first call and cached on the block, like build_Ct."""
    if comp.index != 0:
        raise NotInComponent("C_0 lives on the trivial block")
    if comp.kind != TRIVIAL_SPLIT:
        return None
    if comp._ct is None:
        comp._ct = comp.alg.elem(comp.e.scale(comp.r), comp.e)
    return comp._ct


def build_Ct(comp: Component) -> AlgElem:
    """Generator of the chosen simple left ideal C_t of a matrix block, built on
    the first call and cached on the block: one AlgElem, its word read-only."""
    if comp.kind not in (PAIRED, SELF_CONJ):
        raise NotInComponent("C_t lives on a matrix block")
    if comp._ct is None:
        if comp.kind == PAIRED:
            comp._ct = comp.alg.embed_fh(comp.e)
        else:
            comp._ct = comp.alg.elem(comp.s - comp.s_prime * comp.ue, comp.e)
    return comp._ct


def _generators(alg: TwistedDihedralAlgebra, parts: Sequence[tuple[Component, AlgElem]], a0: Optional[str]):
    """The parts' generators then A_0's choice a0 (None: nothing, "C0": C_0,
    "A0": all of A_0), and the dimension of their left ideal if the sum is
    direct: sum 2 k_t over the parts plus 0, 1 or 2.  Two parts on one block
    raise BlockCollision, and "C0" HypothesisUnmet when r^2 = v^2 has no root."""
    if not parts and a0 is None:
        raise BlockCollision("no parts to assemble")
    seen = set()
    gens, dim = [], 0
    for comp, g in parts:
        if comp.index in seen:
            raise BlockCollision(f"two parts for block {comp.index}")
        seen.add(comp.index)
        gens.append(g)
        dim += 2 * comp.k
    comp0 = alg.decompose()[0]
    if a0 == "C0":
        c0 = build_C0(comp0)
        if c0 is None:
            raise HypothesisUnmet(f"q = {alg.field.q} admits no r with r^2 = v^2; C_0 does not exist")
        gens.append(c0)
        dim += 1
    elif a0 == "A0":
        gens.append(comp0.identity)
        dim += comp0.dim
    elif a0 is not None:
        raise DomainError(f"A_0's choice must be None, 'C0' or 'A0', not {a0!r}")
    return gens, dim


def _twist(alg: TwistedDihedralAlgebra, G: np.ndarray, kts: Sequence[KtField], beta_codes) -> np.ndarray:
    """G . L(beta) for every row of beta codes, shape (c, len(G), 2n): the
    units from one unit_words call, their L(beta) from one translates call
    and all the products from one Field.matmul with [L_1 | ... | L_c]."""
    n2 = 2 * alg.n
    c = len(beta_codes)
    L = alg.translates(unit_words(kts, beta_codes))
    L = L.reshape(c, n2, n2).transpose(1, 0, 2).reshape(n2, c * n2)
    return alg.field.matmul(G, L).reshape(len(G), c, n2).transpose(1, 0, 2)


def assemble_code(
    alg: TwistedDihedralAlgebra,
    parts: Sequence[tuple[Component, AlgElem]],
    a0: Optional[str] = None,
    beta: Optional[BetaVector] = None,
    origin: Optional[dict] = None,
    memo: Optional[dict] = None,
) -> LinearCode:
    """The left ideal of the block parts and A_0's choice a0 (_generators),
    twisted by beta: the RREF of G . L(beta), G the algebra's cached RREF of
    the untwisted ideal (`ideal_rref`) and L(beta) the matrix of x -> x beta
    (_twist, shared with assemble_stack); G itself without a beta.  beta fixes
    A_0, so the rows span the twisted parts plus A_0's choice.  The sum must
    be direct: the dimension is asserted to be _generators' sum.

    memo (with a beta) is only read: the code of each twist class, keyed by
    BetaVector.twist_class, from the class table that the algebra caches for
    census_K_le_delta, for the parts and a0 the table's build checked.  It
    lives as long as the algebra and serves every later census of that a0,
    whatever its delta.  A call with a memo is that lookup alone: a hit
    returns the LinearCode itself and builds no origin, unit, product or
    rref, and a miss raises KeyError.
    """
    if memo is not None:
        return memo[beta.twist_class()]
    gens, dim = _generators(alg, parts, a0)
    origin = dict(origin or {})
    origin.setdefault("q", alg.field.q)
    origin.setdefault("n", alg.n)
    origin.setdefault("v_squared", alg.tw)
    origin.setdefault("blocks", sorted(comp.index for comp, _ in parts))
    origin.setdefault("include_C0", a0 == "C0")
    if beta is not None:
        origin.setdefault("beta", list(beta.codes))
    rows = alg.ideal_rref(gens)
    if beta is not None:
        rows = _twist(alg, rows, beta.kts, [beta.codes])[0]
    code = LinearCode.from_rows(alg.field, rows, n_len=2 * alg.n, origin=origin)
    if code.k_dim != dim:
        raise AssertionError(f"assembled dim {code.k_dim}, expected {dim}")
    return code


def assemble_stack(
    alg: TwistedDihedralAlgebra,
    parts: Sequence[tuple[Component, AlgElem]],
    a0: Optional[str],
    kts: Sequence[KtField],
    beta_codes: np.ndarray,
) -> Iterator[tuple[int, np.ndarray]]:
    """assemble_code's generators for every row of beta codes, as (start, R)
    chunks, R of shape (c, k, 2n): one _twist call a chunk, and the
    linalg.rref of each of its c products.  A chunk holds at most
    SPAN_CHUNK // 2n betas, so its L stack holds at most SPAN_CHUNK 2n
    entries whatever the number of rows.  A unit twist keeps the rank k of
    the untwisted RREF G, which is asserted of every product.
    """
    G = alg.ideal_rref(_generators(alg, parts, a0)[0])
    step = max(1, linalg.SPAN_CHUNK // (2 * alg.n))
    for s in range(0, len(beta_codes), step):
        R = [linalg.rref(alg.field, M)[0] for M in _twist(alg, G, kts, beta_codes[s : s + step])]
        ranks = {len(Ri) for Ri in R}
        assert ranks == {len(G)}, f"twisted ranks {sorted(ranks)}, expected {len(G)}"
        yield s, np.stack(R)


def hull_dimension(code: LinearCode) -> int:
    """dim(C meet C-perp) by two methods, which must agree.

    Intersection: H is the unreduced kernel basis of G (`linalg.kernel_basis`),
    so dim C-perp = n_len - k and the hull has dimension n_len - rank [G; H].
    G is RREF, so G[:, P] = I on its pivots P, and subtracting H[:, P] . G
    from H clears H's pivot columns with row operations by G alone:
    rank [G; H] = k + rank(H - H[:, P] . G), and the hull is n_len - k - the
    rank of that residual (linalg.residual).  Gram: k - rank(G G^T).
    """
    if code.k_dim == 0:
        return 0
    field, G, P = code.field, code.gen, code.pivots
    H = linalg.kernel_basis(field, G, P)
    by_intersection = len(H) - linalg.rank(field, linalg.residual(field, G, P, H))
    gram = linalg.matmul(field, G, G.T)
    by_gram = code.k_dim - linalg.rank(field, gram)
    assert by_intersection == by_gram, "hull methods disagree"
    return by_intersection


def standard_parts(alg: TwistedDihedralAlgebra) -> list[tuple[Component, AlgElem]]:
    return [(c, build_Ct(c)) for c in alg.decompose()[1:]]


def build_plain_code(alg: TwistedDihedralAlgebra, beta: Optional[BetaVector] = None) -> LinearCode:
    """C = C_1 b_1 + ... + C_m b_m (rate 1/2 - 1/2n).

    On the consta algebra this is the self-orthogonal family, for every q and
    every beta: bar acts as the matrix adjugate on every block, so each
    simple-ideal summand is self-orthogonal (q^k_t = 3 mod 4 included) and
    distinct blocks are orthogonal.
    """
    code = assemble_code(alg, standard_parts(alg), beta=beta, origin={"family": "plain"})
    assert code.k_dim == alg.n - 1
    return code


def build_self_dual_code(alg: TwistedDihedralAlgebra, beta: Optional[BetaVector] = None) -> LinearCode:
    """C_0 + C_1 b_1 + ... + C_m b_m: self-dual for every beta when q is even,
    or v^2 = -1 and 4 | q - 1; HypothesisUnmet otherwise.

    The blocks are orthogonal, and on the consta algebra (in characteristic 2
    also the dihedral one) the block part is self-orthogonal
    (build_plain_code).  C_0 is spanned by c = r e_0 + e_0 v, r^2 = v^2, and
    <e_0, e_0> = 1/n, so <c, c> = (r^2 + 1)/n: zero on v^2 = -1, where r
    exists iff q is even or 4 | q - 1, and 2/n != 0 on v^2 = +1 for odd q.
    A self-orthogonal code of dimension n = 2n/2 is self-dual.
    """
    q = alg.field.q
    if q % 2 and alg.tw == 1:
        raise HypothesisUnmet(f"self-dual family on v^2 = +1 needs q even (<C_0, C_0> = 2/n); q = {q}")
    if q % 4 == 3:
        raise HypothesisUnmet(f"self-dual family needs q even or 4 | (q-1); q = {q}")
    code = assemble_code(alg, standard_parts(alg), a0="C0", beta=beta, origin={"family": "self-dual"})
    assert code.k_dim == alg.n
    return code


def build_lcd_code(
    alg: TwistedDihedralAlgebra,
    beta: Optional[BetaVector] = None,
    include_a0: bool = False,
) -> LinearCode:
    """Block family over the qualifying blocks (self-conjugate e, odd k_t).

    Requires q odd with 4 not dividing q - 1.  Despite the family's name the
    block part is self-orthogonal for every beta (hull = its dimension), never
    LCD.  With include_a0 the whole 2-dimensional trivial block A_0, on which
    the inner product is nondegenerate, is adjoined, giving hull = k - 2.
    """
    q = alg.field.q
    if q % 2 == 0:
        raise HypothesisUnmet("LCD family needs odd q")
    if (q - 1) % 4 == 0:
        raise HypothesisUnmet("LCD family needs 4 not dividing q - 1")
    comps = alg.decompose()
    qualifying = [c for c in comps[1:] if c.kind == SELF_CONJ and c.k % 2 == 1]
    if not qualifying:
        reasons = [
            f"block {c.index}: " + ("paired idempotents" if c.kind == PAIRED else f"k = {c.k} even")
            for c in comps[1:]
        ]
        raise HypothesisUnmet("no qualifying block; " + "; ".join(reasons))
    return assemble_code(
        alg,
        [(c, build_Ct(c)) for c in qualifying],
        a0="A0" if include_a0 else None,
        beta=beta,
        origin={"family": "lcd", "include_a0": include_a0},
    )

