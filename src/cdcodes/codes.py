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
from .field import Field, _rot_index, field_from_order


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
        of F_t and tw the sign of v^2.  The products b_i g' are one matmul of
        the basis with the circulant of g'."""
        if self._basis_words is None:
            comp, F, n = self.comp, self.alg.field, self.alg.n
            t = F.tables()
            if comp.kind == SELF_CONJ:
                Y = comp.fhe.rows
                self._basis_words = np.concatenate([Y, np.zeros_like(Y)], axis=1)
            else:
                B = comp.ft.rows
                bar = -np.arange(n) % n
                Bg = F.matmul(B, self.g_prime.coeffs[_rot_index(n)])  # rows b_i g'
                a = np.concatenate([t.add[B, B[:, bar]], t.neg[Bg[:, bar]]])
                b = np.concatenate([np.zeros_like(B), t.add[B[:, bar], t.neg[t.mul[self.alg.tw_code, B]]]])
                self._basis_words = np.concatenate([a, b], axis=1)
            self._basis_words.setflags(write=False)
        return self._basis_words

    def class_ids(self) -> list[int]:
        """The twist class of each code: entry c is the id of the orbit
        F_t* . c, one of |F_t| + 1 ids (entry 0, the zero code, is -1).

        K_t = F_t + F_t w, with w the companion matrix (paired; the code is
        a + b |F_t|) or ue (self-conjugate; the split matrix, rows
        Component._split_ft of the whole FHe basis at once, takes the digits
        to a's and b's), and lambda in F_t* scales a and b alike.  So the
        orbit of a + b w is the F_t-line [a : b]: its id is the code of a / b
        read off _mul_table, or |F_t| when b = 0.  Built on first use.
        """
        if self._class_ids is None:
            comp, ft, F = self.comp, self.comp.ft, self.alg.field
            k, Q = ft.dim, ft.order
            codes = np.arange(self.order)
            if comp.kind == SELF_CONJ:
                alpha, beta = comp._split_ft(comp.fhe.rows)
                split = np.concatenate([ft.coords(alpha), ft.coords(beta)], axis=1)
                ab = F.matmul(_digits(codes, F.q, 2 * k), split)
                a, b = (ab.reshape(-1, 2, k) @ F.q ** np.arange(k)).T
            else:
                b, a = np.divmod(codes, Q)
            mul = _mul_table(ft)
            inv = np.zeros(Q, dtype=np.int64)
            units, inverses = np.nonzero(mul == ft.code_of(ft.identity))
            inv[units] = inverses
            ids = np.where(b == 0, Q, mul[a, inv[b]])
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

    From the coordinates S[i, j] of b_i b_j, b the basis: the basis times
    the circulant of each row b_i, at the pivot columns only (its
    coordinates), gives them all in one product.  Row y of M holds the
    coordinates of every b_i y, and x * y = sum_i x_i (b_i y).
    """
    F, k, Q, n = ft.field, ft.dim, ft.order, ft.n
    B = ft.rows
    circ = B[:, ft.coords(_rot_index(n))]  # (k, n, k): circ[i] the pivot columns of b_i's circulant
    S = F.matmul(B, circ.transpose(1, 0, 2).reshape(n, k * k)).reshape(k, k, k)  # S[j, i] = coords(b_j b_i)
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
        self.codes = tuple(map(int, codes))

    @classmethod
    def random(cls, kts: Sequence[KtField], rng) -> "BetaVector":
        return cls(kts, [rng.randrange(1, kt.order) for kt in kts])

    def unit(self) -> AlgElem:
        """beta as one unit of the algebra: e_0 plus every beta_t, its word
        from unit_words.  The blocks are orthogonal two-sided ideals, so
        g * beta = g * beta_t for g in block t."""
        return AlgElem(self.kts[0].alg, unit_words(self.kts, [self.codes])[0])

    def twist_class(self) -> tuple[int, ...]:
        """Each block's KtField.class_ids entry: C beta = C beta' iff these
        agree on the blocks of C."""
        return tuple([kt.class_ids()[c] for kt, c in zip(self.kts, self.codes)])

    def __repr__(self):
        return f"BetaVector{self.codes}"


def unit_words(kts: Sequence[KtField], codes) -> np.ndarray:
    """Words of the units e_0 + sum_t beta_t(c_t), one row per row
    (c_1, ..., c_m) of the (c, m) array codes: BetaVector.unit on a stack.

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
    """Generator r e_0 + e_0 v of the 1-dimensional ideal, when r exists."""
    if comp.index != 0:
        raise NotInComponent("C_0 lives on the trivial block")
    if comp.kind != TRIVIAL_SPLIT:
        return None
    alg = comp.alg
    return alg.elem(comp.e.scale(comp.r), comp.e)


def build_Ct(comp: Component) -> AlgElem:
    """Generator of the chosen simple left ideal C_t of a matrix block, built on
    the first call and cached on the block: one AlgElem, its word read-only."""
    if comp._ct is None:
        if comp.kind == PAIRED:
            comp._ct = comp.alg.embed_fh(comp.e)
        elif comp.kind == SELF_CONJ:
            comp._ct = comp.alg.elem(comp.s - comp.s_prime * comp.ue, comp.e)
        else:
            raise NotInComponent("C_t lives on a matrix block")
    return comp._ct


def assemble_code(
    alg: TwistedDihedralAlgebra,
    parts: Sequence[tuple[Component, AlgElem]],
    include_C0: bool = False,
    beta: Optional[BetaVector] = None,
    extra_generators: Sequence[AlgElem] = (),
    origin: Optional[dict] = None,
    memo: Optional[dict] = None,
) -> LinearCode:
    """Row-reduce the left ideal generated by the given block parts.

    With a beta, each part generator g is replaced by the product
    g * beta (BetaVector.unit) first; extra_generators (e.g. the whole
    block A_0) and C_0 are taken verbatim.  As x -> x * beta is the linear
    map L(beta), the twisted parts span the k rows G . L(beta), G the cached
    RREF of the untwisted parts (`ideal_rref`); one rref of those rows and
    the cached RREF of C_0 and the extras gives the generator matrix.  The
    sum must be direct: the dimension is asserted to be sum 2 k_t over the
    parts plus the rank of the ideal of C_0 and the extras.

    memo (used with a beta) is a dict that this call reads and fills, keyed
    by beta's twist class on every block (BetaVector.twist_class).  C beta
    depends only on the class on the parts' blocks, so the full class is a
    finer key that is still correct.  A hit is a lookup: it returns the
    memo's LinearCode itself, origin included, and builds no origin, unit,
    product or rref.  One memo serves calls that differ only in beta;
    census_K_le_delta fills it for every class from one stacked pass
    (assemble_stack), so its per-beta calls all hit.
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
    if include_C0:
        if alg.decompose()[0].kind != TRIVIAL_SPLIT:
            raise HypothesisUnmet(
                f"q = {alg.field.q} admits no r with r^2 = v^2; C_0 does not exist"
            )
    cls = None
    if beta is not None and memo is not None:
        cls = beta.twist_class()
        hit = memo.get(cls)
        if hit is not None:
            return hit
    origin = dict(origin or {})
    origin.setdefault("q", alg.field.q)
    origin.setdefault("n", alg.n)
    origin.setdefault("v_squared", alg.tw)
    origin.setdefault("blocks", sorted(seen))
    origin.setdefault("include_C0", include_C0)
    if beta is not None:
        origin.setdefault("beta", list(beta.codes))
    fixed = list(extra_generators)
    if include_C0:
        fixed.append(build_C0(alg.decompose()[0]))
    twisted = alg.ideal_rref([f for _, f in parts])
    if beta is not None:
        twisted = linalg.matmul(alg.field, twisted, alg.translates(beta.unit().word[None]))
    fixed_rows = alg.ideal_rref(fixed)
    expected += len(fixed_rows)
    rows = np.vstack([twisted, fixed_rows])
    code = LinearCode.from_rows(alg.field, rows, n_len=2 * alg.n, origin=origin)
    if code.k_dim != expected:
        raise AssertionError(f"assembled dim {code.k_dim}, expected {expected}")
    if cls is not None:
        code.gen.setflags(write=False)  # shared by every beta of the class
        memo[cls] = code
    return code


def assemble_stack(
    alg: TwistedDihedralAlgebra,
    parts: Sequence[tuple[Component, AlgElem]],
    include_C0: bool,
    kts: Sequence[KtField],
    beta_codes: np.ndarray,
) -> Iterator[tuple[int, np.ndarray]]:
    """The RREF generators of C beta for every row of beta codes, as
    (start, R) chunks, R of shape (c, k, 2n): assemble_code on a stack.

    Each chunk takes the unit words of its betas from one unit_words call,
    their L(beta) from one translates call and G . L(beta) for all of them
    from one Field.matmul (G the cached RREF of the untwisted parts),
    appends the cached RREF of C_0 and reduces the stack with one
    linalg.rref_stack.  A chunk holds at most SPAN_CHUNK // 2n betas, so its
    L stack holds at most SPAN_CHUNK 2n entries whatever the number of rows.
    """
    F = alg.field
    n2 = 2 * alg.n
    G = alg.ideal_rref([g for _, g in parts])
    fixed = alg.ideal_rref([build_C0(alg.decompose()[0])] if include_C0 else [])
    step = max(1, linalg.SPAN_CHUNK // n2)
    for s in range(0, len(beta_codes), step):
        chunk = beta_codes[s : s + step]
        c = len(chunk)
        L = alg.translates(unit_words(kts, chunk))
        L = L.reshape(c, n2, n2).transpose(1, 0, 2).reshape(n2, c * n2)  # [L_1 | ... | L_c]
        twisted = F.matmul(G, L).reshape(len(G), c, n2).transpose(1, 0, 2)
        stack = np.concatenate([twisted, np.broadcast_to(fixed, (c, *fixed.shape))], axis=1)
        yield s, linalg.rref_stack(F, stack)[0]


def hull_dimension(code: LinearCode) -> int:
    """dim(C meet C-perp) by two methods, which must agree.

    Intersection: H is the unreduced kernel basis of G (`linalg.kernel_basis`),
    so dim C-perp = n_len - k and the hull has dimension n_len - rank [G; H].
    G is RREF, so G[:, P] = I on its pivots P, and subtracting H[:, P] . G
    from H clears H's pivot columns with row operations by G alone:
    rank [G; H] = k + rank(H - H[:, P] . G), and the hull is n_len - k - the
    rank of that residual.  Gram: k - rank(G G^T).
    """
    if code.k_dim == 0:
        return 0
    field, G, P = code.field, code.gen, code.pivots
    t = field.tables()
    H = linalg.kernel_basis(field, G, P)
    residual = t.add[H, t.neg[field.matmul(H[:, list(P)], G)]]
    by_intersection = len(H) - linalg.rank(field, residual)
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
    return assemble_code(
        alg,
        parts,
        beta=beta,
        extra_generators=extra,
        origin={"family": "lcd", "include_a0": include_a0},
    )

