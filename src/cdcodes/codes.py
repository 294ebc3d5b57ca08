"""Construction of (consta-)dihedral codes and their duality verdicts.

The code families built here follow the block decomposition: one simple left
ideal C_t per matrix block (C_t = A_t e on paired blocks, C_t = A_t f with
f = s e - s' u e + v e on self-conjugate blocks), the 1-dimensional ideal C_0
on the trivial block when r^2 = v^2 is solvable, and twisted variants C_t
beta_t for beta in the product K* of per-block subfield unit groups.  A
twist is an ordinary product: beta is one unit of the algebra (e_0 plus the
beta_t), and each block generator g becomes g * beta = g * beta_t.

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
    Mat2,
    SubfieldView,
    TwistedDihedralAlgebra,
)
from .cyclic import CyclicElem
from .errors import (
    BlockCollision,
    DimensionMismatch,
    HypothesisUnmet,
    InvalidBeta,
    NotInComponent,
)
from .field import Field


@dataclass
class LinearCode:
    """A linear code given by a canonical (RREF) generator matrix."""

    field: Field
    n_len: int
    k_dim: int
    gen: np.ndarray
    origin: dict = dc_field(default_factory=dict)

    @classmethod
    def from_rows(cls, field: Field, rows, n_len: Optional[int] = None, origin: Optional[dict] = None) -> "LinearCode":
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            if n_len is None:
                raise DimensionMismatch("zero code needs an explicit length")
            gen = np.zeros((0, n_len), dtype=np.int64)
            return cls(field, n_len, 0, gen, origin or {})
        if rows.ndim == 1:
            rows = rows.reshape(1, -1)
        R, _ = linalg.rref(field, rows)
        return cls(field, rows.shape[1], R.shape[0], R, origin or {})

    def __post_init__(self):
        if self.gen.shape != (self.k_dim, self.n_len):
            raise DimensionMismatch("generator shape does not match (k, n)")

    @property
    def pivots(self) -> tuple[int, ...]:
        """Each row's leading column; gen is RREF, so these are its pivots."""
        return tuple(int(c) for c in np.argmax(self.gen != 0, axis=1))

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
    def from_text(cls, field: Field, text: str) -> "LinearCode":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        try:
            q, n_len, k_dim = (int(x) for x in lines[0].split())
            rows = [[int(x) for x in ln.split()] for ln in lines[1 : 1 + k_dim]]
        except (IndexError, ValueError):
            raise DimensionMismatch("malformed generator matrix file") from None
        if q != field.q:
            raise DimensionMismatch(f"file is over GF({q}), expected GF({field.q})")
        if any(len(r) != n_len for r in rows) or len(rows) != k_dim:
            raise DimensionMismatch("malformed generator matrix file")
        if any(not 0 <= c < q for r in rows for c in r):
            raise DimensionMismatch(f"generator matrix entry outside GF({q})")
        return cls.from_rows(field, rows, n_len=n_len)

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
    irreducible.  Either way dim_F K_t = 2 k_t and nonzero codes are units.
    """

    def __init__(self, comp: Component):
        if comp.kind not in (PAIRED, SELF_CONJ):
            raise NotInComponent("K_t exists only on matrix blocks")
        self.comp = comp
        self.alg = comp.alg
        ft = comp.ft
        self.order = ft.order**2 if comp.kind == PAIRED else comp.fhe.order
        if comp.kind == PAIRED:
            self.g_prime = _first_irreducible_quadratic_g(ft)
        else:
            self.g_prime = None
        self._basis_words: Optional[np.ndarray] = None

    def element(self, code: int) -> AlgElem:
        comp = self.comp
        if comp.kind == SELF_CONJ:
            return self.alg.embed_fh(comp.fhe.element(code))
        ft = comp.ft
        a = ft.element(code % ft.order)
        b = ft.element(code // ft.order)
        gp = self.g_prime
        M = Mat2(ft, ((a, -b), (b, a - b * gp)))
        return comp.iso_from_mat2(M)

    @property
    def identity_code(self) -> int:
        comp = self.comp
        if comp.kind == SELF_CONJ:
            return comp.fhe.code_of(comp.e, check=False)
        return comp.ft.code_of(comp.e, check=False)

    def basis(self) -> list[AlgElem]:
        """2 k_t elements whose coordinate digits realize element(code)."""
        comp = self.comp
        if comp.kind == SELF_CONJ:
            return [self.alg.embed_fh(b) for b in comp.fhe.basis]
        ft = comp.ft
        q = ft.field.q
        out = []
        for half in range(2):
            for i in range(ft.dim):
                out.append(self.element(q**i * ft.order**half))
        return out

    def word(self, code: int) -> np.ndarray:
        """Word of element(code), as its base-q digits times the basis words.

        element is linear in those digits; the basis words are built on the
        first call.
        """
        if self._basis_words is None:
            self._basis_words = np.array([b.word for b in self.basis()])
        q = self.alg.field.q
        digits = []
        for _ in range(len(self._basis_words)):
            code, d = divmod(code, q)
            digits.append(d)
        return linalg.matmul(self.alg.field, digits, self._basis_words)[0]


def _first_irreducible_quadratic_g(ft: SubfieldView) -> CyclicElem:
    """First g' in canonical order with X^2 + g'X + 1 irreducible over ft."""
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
                x = x * x
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
        self.codes = tuple(int(c) for c in codes)

    @classmethod
    def identity(cls, kts: Sequence[KtField]) -> "BetaVector":
        return cls(kts, [kt.identity_code for kt in kts])

    @classmethod
    def random(cls, kts: Sequence[KtField], rng) -> "BetaVector":
        return cls(kts, [rng.randrange(1, kt.order) for kt in kts])

    def unit(self) -> AlgElem:
        """beta as one unit of the algebra: e_0 plus every beta_t, each from
        KtField.word.  The blocks are orthogonal two-sided ideals, so
        g * beta = g * beta_t for g in block t."""
        alg = self.kts[0].alg
        add = alg.field.tables().add
        word = alg.decompose()[0].identity.word
        for kt, c in zip(self.kts, self.codes):
            word = add[word, kt.word(c)]
        return AlgElem(alg, word)

    def __repr__(self):
        return f"BetaVector{self.codes}"


def kt_fields(alg: TwistedDihedralAlgebra) -> list[KtField]:
    return [KtField(c) for c in alg.decompose()[1:]]


def k_star_size(kts: Sequence[KtField]) -> int:
    size = 1
    for kt in kts:
        size *= kt.order - 1
    return size


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


def build_C0(comp: Component) -> Optional[AlgElem]:
    """Generator r e_0 + e_0 v of the 1-dimensional ideal, when r exists."""
    if comp.index != 0:
        raise NotInComponent("C_0 lives on the trivial block")
    if comp.kind != TRIVIAL_SPLIT:
        return None
    alg = comp.alg
    return alg.elem(comp.e.scale(comp.r), comp.e)


def build_Ct(comp: Component) -> AlgElem:
    """Generator of the chosen simple left ideal C_t of a matrix block."""
    alg = comp.alg
    if comp.kind == PAIRED:
        return alg.embed_fh(comp.e)
    if comp.kind == SELF_CONJ:
        part_a = comp.s - comp.s_prime * comp.ue
        return alg.elem(part_a, comp.e)
    raise NotInComponent("C_t lives on a matrix block")


def assemble_code(
    alg: TwistedDihedralAlgebra,
    parts: Sequence[tuple[Component, AlgElem]],
    include_C0: bool = False,
    beta: Optional[BetaVector] = None,
    extra_generators: Sequence[AlgElem] = (),
    origin: Optional[dict] = None,
    expected_dim: Optional[int] = None,
) -> LinearCode:
    """Row-reduce the left ideal generated by the given block parts.

    With a beta, each part generator g is replaced by the product
    g * beta (BetaVector.unit) first; extra_generators (e.g. the whole
    block A_0) and C_0 are taken verbatim.  As x -> x * beta is the linear
    map L(beta), the twisted parts span the k rows G . L(beta), G the cached
    RREF of the untwisted parts (`ideal_rref`); one rref of those rows and
    the cached RREF of C_0 and the extras gives the generator matrix.
    """
    if not parts and not include_C0 and not extra_generators:
        raise BlockCollision("no parts to assemble")
    seen = set()
    expected = 0
    for comp, _ in parts:
        if comp.index in seen:
            raise BlockCollision(f"two parts for block {comp.index}")
        seen.add(comp.index)
        expected += 2 * comp.k
    fixed = list(extra_generators)
    if include_C0:
        g0 = build_C0(alg.decompose()[0])
        if g0 is None:
            raise HypothesisUnmet(
                f"q = {alg.field.q} admits no r with r^2 = v^2; C_0 does not exist"
            )
        fixed.append(g0)
        expected += 1
    twisted = alg.ideal_rref([f for _, f in parts])
    if beta is not None:
        twisted = linalg.matmul(alg.field, twisted, alg.translates(beta.unit().word[None]))
    rows = np.vstack([twisted, alg.ideal_rref(fixed)])
    origin = dict(origin or {})
    origin.setdefault("q", alg.field.q)
    origin.setdefault("n", alg.n)
    origin.setdefault("v_squared", alg.tw)
    origin.setdefault("blocks", sorted(seen))
    origin.setdefault("include_C0", include_C0)
    if beta is not None:
        origin.setdefault("beta", list(beta.codes))
    code = LinearCode.from_rows(alg.field, rows, n_len=2 * alg.n, origin=origin)
    if expected_dim is None and not extra_generators:
        expected_dim = expected
    if expected_dim is not None and code.k_dim != expected_dim:
        raise AssertionError(f"assembled dim {code.k_dim}, expected {expected_dim}")
    return code


def dual_code(code: LinearCode) -> LinearCode:
    """C-perp, its generator the nullspace basis, which is already RREF."""
    basis = linalg.nullspace(code.field, code.gen, code.pivots)
    return LinearCode(code.field, code.n_len, len(basis), basis, {"dual_of": code.origin})


def hull_dimension(code: LinearCode) -> int:
    """dim(C meet C-perp), as k + dim C-perp - rank [G; H] (H the dual's
    canonical generator) and as k - rank(G G^T); the two must agree."""
    if code.k_dim == 0:
        return 0
    dual = dual_code(code)
    stacked = linalg.rank(code.field, np.vstack([code.gen, dual.gen]))
    by_intersection = code.k_dim + dual.k_dim - stacked
    gram = linalg.matmul(code.field, code.gen, code.gen.T)
    by_gram = code.k_dim - linalg.rank(code.field, gram)
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
    """C_0 + C_1 b_1 + ... + C_m b_m; self-dual whenever q != 3 mod 4."""
    q = alg.field.q
    if alg.tw == -1 and q % 2 == 1 and (q - 1) % 4 != 0:
        raise HypothesisUnmet(f"self-dual family needs q even or 4 | (q-1); q = {q}")
    code = assemble_code(
        alg, standard_parts(alg), include_C0=True, beta=beta, origin={"family": "self-dual"}
    )
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
    parts = [(c, build_Ct(c)) for c in qualifying]
    extra: list[AlgElem] = []
    if include_a0:
        extra = [comps[0].identity]
    expected = sum(2 * c.k for c in qualifying) + (2 if include_a0 else 0)
    code = assemble_code(
        alg,
        parts,
        beta=beta,
        extra_generators=extra,
        origin={"family": "lcd", "include_a0": include_a0},
        expected_dim=expected,
    )
    return code


def component_of_code(alg: TwistedDihedralAlgebra, code: LinearCode, comp: Component) -> LinearCode:
    """1_At * C (the A_t-component of C): 1_At is central, so each row times L(1_At)."""
    rows = linalg.matmul(alg.field, code.gen, alg.translates(comp.identity.word[None]))
    return LinearCode.from_rows(alg.field, rows, n_len=code.n_len)
