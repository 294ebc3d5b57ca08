"""Reference implementations that the tests compare the library against.

Each one computes by a route the library does not take: the simple left
ideals of M_2(GF(q)) by exhaustive search, the census order of K* one index
at a time, the element of a K_t code and the bar map through the
paired-block matrix isomorphism, the dual code by row-reducing the kernel
basis, the weight distribution from every word of the span.  None of them
is on a path the library runs.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np

from cdcodes import linalg
from cdcodes.algebra import PAIRED, SELF_CONJ, AlgElem, Component, Mat2, TwistedDihedralAlgebra
from cdcodes.codes import BetaVector, KtField, LinearCode, k_star_size
from cdcodes.errors import InvalidBeta, NotPaired
from cdcodes.field import Field


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
            if all(linalg.in_row_space(field, R, piv, act(E, row)) for E in gens for row in R):
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
    return comp.iso_from_mat2(M)


def kt_identity_code(kt: KtField) -> int:
    """The code of the block identity in K_t: e's FHe code on a self-conjugate
    block, and a = e, b = 0 on a paired one, where F_t is FHe."""
    return kt.comp.fhe.code_of(kt.comp.e)


def bar_via_matrix(comp: Component, M: Mat2) -> Mat2:
    """Matrix form of the bar map on a paired block.

    Consta case: (a11 a12; a21 a22) -> (a22 -a12; -a21 a11); the dihedral
    analogue keeps the off-diagonal signs.
    """
    if comp.kind != PAIRED:
        raise NotPaired(f"block {comp.index} is {comp.kind}")
    sign = comp.alg.tw_code
    (a11, a12), (a21, a22) = M.entries
    return Mat2(comp.ft, ((a22, a12.scale(sign)), (a21.scale(sign), a11)))


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
