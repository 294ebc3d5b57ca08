"""Ordinary dihedral group algebra machinery (v^2 = +1).

This module carries the pieces specific to the untwisted algebra: the
counterexample showing that <C, D> = 0 does not imply bar(D) C = 0, the
f_ab generators of the simple left ideals of a paired block (the ideal of
f_ab is self-orthogonal iff 2ab = 0, and LCD otherwise), and the count of
codes A_0 ehat_0 + A_1 f_{a1 b1} + ... built from one simple left ideal per
block: prod(q^k_t + 1) in total, prod(q^k_t - 1) of them LCD.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from .algebra import PAIRED, AlgElem, Component, TwistedDihedralAlgebra
from .codes import assemble_code, hull_dimension
from .cyclic import CyclicElem
from .errors import HypothesisUnmet, NotPaired
from .field import field_from_order, mult_order


# -- the counterexample -------------------------------------------------------


@dataclass
class CounterexampleReport:
    q: int
    n: int
    c_bar_d_zero: bool
    inner_cd_zero: bool
    bar_d_c_nonzero: bool
    witness_word: tuple[int, ...]
    witness_matches_ebar_v: bool

    @property
    def ok(self) -> bool:
        return (
            self.c_bar_d_zero
            and self.inner_cd_zero
            and self.bar_d_c_nonzero
            and self.witness_matches_ebar_v
        )


def counterexample_check() -> CounterexampleReport:
    """<C, D> = 0 with bar(D) C != 0 at q = 7, n = 3, C = D = A_1 e.

    C bar(D) vanishes (hence the inner product does), yet bar(D) C contains
    ebar v != 0, exhibited via ebar (ebar v) e = ebar v.
    """
    F = field_from_order(7)
    alg = TwistedDihedralAlgebra(F, 3, 1)
    comp = alg.decompose()[1]
    e, ebar = comp.e, comp.ebar
    C = alg.ideal_rref([alg.embed_fh(e)])
    assert C.shape[0] == 2 * comp.k

    def elems(R):
        return [alg.from_word(r) for r in R]

    c_elems = elems(C)
    d_bar = [x.bar() for x in c_elems]
    c_bar_d_zero = all((x * y).is_zero() for x in c_elems for y in d_bar)
    inner_cd_zero = all(F.zero == x.inner(y) for x in c_elems for y in c_elems)

    prods = [y * x for y in d_bar for x in c_elems]
    bar_d_c_nonzero = any(not p.is_zero() for p in prods)

    # the paper-style witness: ebar (ebar v) e = ebar v
    ebar_v = alg.elem(CyclicElem.zero(F, 3), ebar)
    witness = (alg.embed_fh(ebar) * ebar_v) * alg.embed_fh(e)
    return CounterexampleReport(
        q=7,
        n=3,
        c_bar_d_zero=c_bar_d_zero,
        inner_cd_zero=inner_cd_zero,
        bar_d_c_nonzero=bar_d_c_nonzero,
        witness_word=witness.to_word(),
        witness_matches_ebar_v=(witness == ebar_v and not witness.is_zero()),
    )


# -- f_ab ideals on paired blocks ----------------------------------------------


def f_ab(comp: Component, a: CyclicElem, b: CyclicElem) -> AlgElem:
    """Element of a paired block corresponding to the matrix (a b; 0 0), a and
    b in F_t = FHe: the isomorphism sends it to a + tw b v, tw the sign of v^2."""
    if comp.kind != PAIRED:
        raise NotPaired("f_ab lives on a paired block")
    return comp.alg.elem(a, b.scale(comp.alg.tw_code))


# -- counting the C_ab codes ---------------------------------------------------


@dataclass
class CountReport:
    q: int
    n: int
    k_list: list[int]
    total_formula: int
    lcd_formula: int
    exhaustive: bool
    total_observed: Optional[int] = None
    lcd_observed: Optional[int] = None
    sampled: int = 0
    sample_agreements: int = 0
    seed: Optional[int] = None

    @property
    def verified(self) -> bool:
        if self.exhaustive:
            return (
                self.total_observed == self.total_formula
                and self.lcd_observed == self.lcd_formula
            )
        return self.sampled > 0 and self.sample_agreements == self.sampled


def _block_generators(comp: Component) -> list[AlgElem]:
    """One generator per simple left ideal of the block, Eq.-(48)-style."""
    ft = comp.ft
    e = ft.identity
    gens = [f_ab(comp, ft.element(code), e) for code in range(ft.order)]
    gens.append(f_ab(comp, e, ft.zero))
    return gens


def count_Cab_codes(
    alg: TwistedDihedralAlgebra,
    exhaust_limit: int = 10_000,
    samples: int = 200,
    seed: int = 0,
) -> CountReport:
    """Count dihedral codes A_0 ehat_0 + sum_t A_t f_(at bt), and the LCD ones.

    ehat_0 = e_0 + e_0 v is the C_0 generator r e_0 + e_0 v at r = 1, which
    v^2 = +1 always admits, so the codes are assembled with A_0's choice C_0.
    Requires odd q and odd ord_n(q) (all nontrivial idempotents paired).
    When the formula total does not exceed exhaust_limit, every code is built
    and classified by hull; otherwise `samples` seeded random (a, b) choices
    are classified and checked against the ab = 0 rule.
    """
    if alg.tw != 1:
        raise HypothesisUnmet("C_ab counting is defined on the dihedral algebra")
    q = alg.field.q
    if q % 2 == 0:
        raise HypothesisUnmet("counting requires odd q")
    if mult_order(q, alg.n) % 2 == 0:
        raise HypothesisUnmet("counting requires odd ord_n(q)")
    comps = alg.decompose()[1:]
    assert all(c.kind == PAIRED for c in comps)
    k_list = [c.k for c in comps]
    total_formula = 1
    lcd_formula = 1
    for k in k_list:
        total_formula *= q**k + 1
        lcd_formula *= q**k - 1

    if total_formula <= exhaust_limit:
        keys = set()
        lcd_count = 0
        for gens in itertools.product(*(_block_generators(c) for c in comps)):
            parts = list(zip(comps, gens))
            code = assemble_code(alg, parts, a0="C0", origin={"family": "C_ab"})
            assert code.k_dim == alg.n
            keys.add(code.key())
            if hull_dimension(code) == 0:
                lcd_count += 1
        assert len(keys) == total_formula, "distinct (a,b) choices collided"
        return CountReport(
            q=q,
            n=alg.n,
            k_list=k_list,
            total_formula=total_formula,
            lcd_formula=lcd_formula,
            exhaustive=True,
            total_observed=len(keys),
            lcd_observed=lcd_count,
        )

    rng = random.Random(seed)
    agreements = 0
    for _ in range(samples):
        parts = []
        expect_lcd = True
        for c in comps:
            ft = c.ft
            while True:
                a = ft.element(rng.randrange(ft.order))
                b = ft.element(rng.randrange(ft.order))
                if not (a.is_zero() and b.is_zero()):
                    break
            if (a * b).is_zero():
                expect_lcd = False
            parts.append((c, f_ab(c, a, b)))
        # any (a, b) != 0 has matrix rank 1, so each block contributes 2k_t
        code = assemble_code(alg, parts, a0="C0", origin={"family": "C_ab"})
        actual_lcd = hull_dimension(code) == 0
        if actual_lcd == expect_lcd:
            agreements += 1
    return CountReport(
        q=q,
        n=alg.n,
        k_list=k_list,
        total_formula=total_formula,
        lcd_formula=lcd_formula,
        exhaustive=False,
        sampled=samples,
        sample_agreements=agreements,
        seed=seed,
    )
