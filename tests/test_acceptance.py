"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 3 and 4 and the closed-form sub-item of criterion 9 cover two
originally stated claims about self-conjugate blocks and assert the
corrected identities in their place (README, "Corrected identities").  On
every matrix block of the v^2 = -1 algebra the bar map corresponds to the
matrix adjugate, so x bar(x) = det(x) 1_At, f bar(f) = 0 for every rank-1
generator f, and every simple-ideal summand C_t beta_t is self-orthogonal
whatever q^k_t mod 4.  The raw structure-constant oracle in
test_bruteforce_oracle.py confirms this independently.  Each of the three
scans the block (q, n, t) = (3, 7, 1), where q^k = 27 = 3 mod 4 and the
stated claims predict the opposite, so a regression to the stated
behaviour fails all three.
"""

import math
import random
import time

import pytest

from conftest import get_algebra
from oracles import (
    enumerate_beta,
    iso_from_mat2,
    iso_to_mat2,
    kt_element,
    mat2_generator_ideals,
    mat2_simple_left_ideals,
    random_elem,
)

from cdcodes import analysis, dihedral, linalg
from cdcodes.algebra import SELF_CONJ
from cdcodes.codes import (
    BetaVector,
    assemble_code,
    build_Ct,
    build_lcd_code,
    build_plain_code,
    build_self_dual_code,
    hull_dimension,
    k_star_size,
    kt_fields,
)
from cdcodes.errors import GcdViolation
from cdcodes.field import field_from_order


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")


# -- criterion 1: the counterexample, exactly ---------------------------------------


def test_criterion_1_counterexample():
    t0 = time.monotonic()
    rep = dihedral.counterexample_check()
    elapsed = time.monotonic() - t0
    idem = get_algebra(7, 3, 1).idempotents()
    exact_idems = [list(e.coeffs) for e in idem.idems] == [[5, 5, 5], [5, 3, 6], [5, 6, 3]]
    ok = rep.ok and exact_idems and elapsed < 1.0
    _report(1, ok, f"counterexample verdicts {rep.ok}, idempotents exact {exact_idems}, {elapsed:.3f}s")
    assert rep.c_bar_d_zero and rep.inner_cd_zero and rep.bar_d_c_nonzero
    assert rep.witness_matches_ebar_v and exact_idems
    assert elapsed < 1.0


# -- criterion 2: self-dual family at desk scale ------------------------------------------


CRITERION2_PAIRS = [(3, 5), (5, 5), (3, 13), (3, 4), (7, 4), (3, 9)]


def test_criterion_2_self_dual_exhaustive():
    t0 = time.monotonic()
    verified = []
    rejected = []
    for n, q in CRITERION2_PAIRS:
        if math.gcd(n, q) != 1:
            # (5,5) and (3,9) violate the standing assumption gcd(n,q) = 1;
            # the decomposition does not exist and the library must refuse
            with pytest.raises(GcdViolation):
                get_algebra(q, n).decompose()
            rejected.append((n, q))
            continue
        A = get_algebra(q, n)
        kts = kt_fields(A)
        size = k_star_size(kts)
        if size <= 100_000:
            betas = enumerate_beta(kts)
            n_checked = size
        else:
            rng = random.Random(1000 + n + q)
            betas = (BetaVector.random(kts, rng) for _ in range(1000))
            n_checked = 1000
        for beta in betas:
            code = build_self_dual_code(A, beta=beta)
            assert code.k_dim == n
            assert hull_dimension(code) == n
        verified.append(((n, q), n_checked))
    elapsed = time.monotonic() - t0
    ok = elapsed < 60
    _report(
        2,
        ok,
        f"self-dual verified exhaustively at {verified}; "
        f"{rejected} rejected (gcd(n,q) != 1, parameters outside the theory), {elapsed:.1f}s",
    )
    assert rejected == [(5, 5), (3, 9)]
    assert elapsed < 60


# -- criterion 3: the block family stated to be LCD --------------------------------------------------


def test_criterion_3_lcd_family_as_stated():
    # Stated: hull 0 for every twist.  Corrected: the block part is
    # self-orthogonal for every twist (hull = its dimension), and the
    # adjoined A_0 block is nondegenerate, so it adds nothing to the hull.
    t0 = time.monotonic()
    results = {}
    for n, q in ((7, 3), (11, 7)):
        flags = analysis.good_n_predicates(q, n)
        assert flags.minus1_in_q and flags.two_exactly_divides_ord
        assert q % 2 == 1 and (q - 1) % 4 != 0
        A = get_algebra(q, n)
        blocks = [c for c in A.decompose()[1:] if c.kind == SELF_CONJ and c.k % 2 == 1]
        # blocks the stated dichotomy calls non-self-orthogonal; (7, 3) holds (3, 7, 1)
        assert blocks and all(q**c.k % 4 == 3 for c in blocks)
        kts = kt_fields(A)
        size = k_star_size(kts)
        if size <= 100_000:
            betas = list(enumerate_beta(kts))
        else:
            rng = random.Random(3000 + n + q)
            betas = [BetaVector.random(kts, rng) for _ in range(1000)]
        hull_zero = 0
        hull_full = 0
        total = 0
        for beta in betas:
            for include_a0 in (False, True):
                code = build_lcd_code(A, beta=beta, include_a0=include_a0)
                h = hull_dimension(code)
                total += 1
                if h == 0:
                    hull_zero += 1
                base_dim = code.k_dim - (2 if include_a0 else 0)
                if h == base_dim:
                    hull_full += 1
        results[(n, q)] = (total, hull_zero, hull_full)
    elapsed = time.monotonic() - t0
    ok = all(hf == t and hz == 0 for t, hz, hf in results.values())
    _report(
        3,
        ok,
        f"hull = dim of the block part for all; observed {results} (total, hull=0,"
        f" hull=dim of the block part) in {elapsed:.1f}s -- every twisted summand is"
        " self-orthogonal, the bar map being the matrix adjugate on these blocks",
    )
    for (n, q), (total, hull_zero, hull_full) in results.items():
        assert hull_full == total, (
            f"(n={n}, q={q}): only {hull_full}/{total} codes have hull = dim of the"
            " block part. Bar acts as the matrix adjugate, so f bar(f) = det(f) = 0"
            " for every rank-1 generator f and each twisted summand is"
            " self-orthogonal; the A_0 block adds nothing to the hull."
        )
        assert hull_zero == 0, f"(n={n}, q={q}): {hull_zero}/{total} codes have hull 0"


# -- criterion 4: the inner product on self-conjugate blocks --------------------------------------------


def _block_self_orthogonal(comp, kt, beta_code) -> bool:
    """<C_t b, C_t b> = 0 via the Gram matrix of spanning rows of A_t f b."""
    alg = comp.alg
    f = build_Ct(comp)
    g = f * kt_element(kt, beta_code)
    rows = alg.left_ideal_rows([g])
    gram = linalg.matmul(alg.field, rows, rows.T)
    return not gram.any()


def test_criterion_4_dichotomy_as_stated():
    # Stated: <C_t b, C_t b> = 0 iff q is even or 4 | q^k - 1.  Corrected: it
    # vanishes for every b on every self-conjugate block.
    t0 = time.monotonic()
    nonzero = []
    stated_nonzero_blocks = []
    blocks_checked = 0
    betas_checked = 0
    for q in (2, 3, 4, 5, 7, 9, 13):
        for n in range(3, 20, 2):
            if math.gcd(n, q) != 1:
                continue
            A = get_algebra(q, n)
            comps = A.decompose()
            kts = {kt.comp.index: kt for kt in kt_fields(A)}
            for comp in comps[1:]:
                if comp.kind != SELF_CONJ or q**comp.k > 81:
                    continue
                blocks_checked += 1
                kt = kts[comp.index]
                if q % 2 == 1 and q**comp.k % 4 == 3:
                    stated_nonzero_blocks.append((q, n, comp.index))
                for beta_code in range(1, kt.order):
                    betas_checked += 1
                    if not _block_self_orthogonal(comp, kt, beta_code):
                        nonzero.append((q, n, comp.index, beta_code))
    elapsed = time.monotonic() - t0
    ok = not nonzero and bool(stated_nonzero_blocks)
    _report(
        4,
        ok,
        f"{blocks_checked} blocks, {betas_checked} twists scanned in {elapsed:.1f}s;"
        f" nonzero Gram matrices: {nonzero[:6]}; blocks with q^k = 3 mod 4, where the"
        f" stated rule predicts nonzero: {stated_nonzero_blocks} -- the inner product"
        " vanishes for every beta on every block",
    )
    assert stated_nonzero_blocks, "the scan must cover a block with q odd and q^k = 3 mod 4"
    assert not nonzero, (
        f"Gram matrix of A_t f beta nonzero at (q, n, t, beta) = {nonzero[:6]};"
        " bar acts as the adjugate, so f bar(f) = 0 and <C_t b, C_t b> = 0 on every"
        " block and for every twist"
    )


# -- criterion 5: dihedral counting --------------------------------------------------------------------


def test_criterion_5_counting():
    r = dihedral.count_Cab_codes(get_algebra(7, 3, 1))
    ok37 = r.exhaustive and (r.total_observed, r.lcd_observed) == (8, 6)
    alg = get_algebra(3, 11, 1)
    rs = dihedral.count_Cab_codes(alg, exhaust_limit=100, samples=200, seed=2024)
    ok113 = (
        (rs.total_formula, rs.lcd_formula) == (244, 242)
        and rs.sampled == 200
        and rs.sample_agreements == 200
    )
    _report(
        5,
        ok37 and ok113,
        f"(3,GF(7)): {r.total_observed}/8 codes, {r.lcd_observed}/6 LCD;"
        f" (11,GF(3)): formulas {rs.total_formula}/{rs.lcd_formula},"
        f" {rs.sample_agreements}/200 seeded samples agree",
    )
    assert ok37 and ok113


# -- criterion 6: q + 1 simple left ideals ------------------------------------------------------------------


def test_criterion_6_mat2_ideal_count():
    counts = {}
    for q in (2, 3, 4, 5, 7):
        F = field_from_order(q)
        exhaustive = mat2_simple_left_ideals(F)
        counts[q] = len(exhaustive)
        assert set(exhaustive) == set(mat2_generator_ideals(F))
    ok = all(counts[q] == q + 1 for q in counts)
    _report(6, ok, f"simple left ideal counts {counts}")
    assert ok


# -- criterion 7: balance -------------------------------------------------------------------------------------


def _constructed_family():
    out = []
    out.append(("plain(3,7)", get_algebra(7, 3), build_plain_code(get_algebra(7, 3))))
    for n, q in ((3, 5), (3, 13), (3, 4), (7, 4)):
        A = get_algebra(q, n)
        out.append((f"self-dual({n},{q})", A, build_self_dual_code(A)))
    A73 = get_algebra(3, 7)
    out.append(("blockfamily(7,3)", A73, build_lcd_code(A73)))
    out.append(("blockfamily+A0(7,3)", A73, build_lcd_code(A73, include_a0=True)))
    out.append(("self-orth(7,2)", get_algebra(2, 7), build_plain_code(get_algebra(2, 7))))
    A117 = get_algebra(7, 11)
    out.append(("blockfamily(11,7)", A117, build_lcd_code(A117)))
    D = get_algebra(7, 3, 1)
    comp = D.decompose()[1]
    cab = assemble_code(
        D,
        [(comp, dihedral.f_ab(comp, comp.ft.identity, comp.ft.identity))],
        a0="C0",
    )
    out.append(("dihedral-C_ab(3,7)", D, cab))
    return out


def test_criterion_7_balance_and_census():
    checked = []
    for name, alg, code in _constructed_family():
        assert alg.n <= 11
        q = alg.field.q
        deltas = (0.1, 0.2, 1 - 1 / q)
        budget = 10**6
        census = q**code.k_dim <= budget  # beyond the budget deltas raise BudgetExceeded
        rep = analysis.balanced_check(alg, code, deltas=deltas if census else (), budget=budget)
        assert rep.balanced, name
        assert rep.multiplicity == code.k_dim
        if census:
            assert len(rep.census_checks) == 3
            assert all(c["ok"] for c in rep.census_checks), name
            checked.append((name, "balance+census"))
        else:
            checked.append((name, "balance"))
    _report(7, True, f"{checked}")


# -- criterion 8: census bounds ------------------------------------------------------------------------------------


CENSUS_GRID = [
    # (q, n, deltas, include_C0)
    (5, 3, (0.1, 0.2, 0.5), True),
    (7, 3, (0.1, 0.2, 0.5), False),
    (13, 3, (0.1, 0.3), True),
    (3, 5, (0.1, 0.2), False),
    (2, 7, (0.1, 0.25), True),
    (2, 9, (0.1, 0.2), True),
    (3, 7, (0.1, 0.2), False),
    (2, 11, (0.1,), True),
    (7, 5, (0.005, 0.1), False),
]


def test_criterion_8_census_bounds():
    hypothesis_instances = 0
    ran = 0
    for q, n, deltas, include_C0 in CENSUS_GRID:
        A = get_algebra(q, n)
        for d in deltas:
            res = analysis.census_K_le_delta(A, delta=d, include_C0=include_C0)
            ran += 1
            assert res.count <= res.k_star_size
            if res.hypothesis_ok:
                hypothesis_instances += 1
                assert res.count <= res.bound + 1e-9
    _report(
        8,
        True,
        f"{ran} censuses exhausted, bound asserted on {hypothesis_instances}"
        " instances with positive margin (the census itself re-asserts internally)",
    )
    assert hypothesis_instances >= 1


# -- criterion 9: algebra property suite ------------------------------------------------------------------------------


def test_criterion_9_property_suite():
    t0 = time.monotonic()
    rng = random.Random(999)
    failures = []

    # bar anti-automorphism + inner/sigma identity, 100 cases per (q, n, tw)
    for q, n, tw in ((7, 3, -1), (3, 5, -1), (4, 7, -1), (7, 3, 1), (3, 11, 1)):
        A = get_algebra(q, n, tw)
        for _ in range(100):
            x, y = random_elem(A, rng), random_elem(A, rng)
            if (x * y).bar() != y.bar() * x.bar() or x.bar().bar() != x:
                failures.append(("bar", q, n, tw))
                break
            if x.inner(y) != (x * y.bar()).word[0]:
                failures.append(("inner", q, n, tw))
                break

    # isomorphism round trips and multiplicativity on all three block shapes
    for q, n, tw in ((7, 3, -1), (3, 5, -1), (7, 3, 1)):
        A = get_algebra(q, n, tw)
        comp = A.decompose()[1]
        for _ in range(100):
            x = comp.identity * random_elem(A, rng)
            y = comp.identity * random_elem(A, rng)
            if iso_from_mat2(comp, iso_to_mat2(comp, x)) != x:
                failures.append(("roundtrip", q, n, tw))
                break
            if iso_to_mat2(comp, x * y) != iso_to_mat2(comp, x) * iso_to_mat2(comp, y):
                failures.append(("multiplicative", q, n, tw))
                break

    # dimension accounting over a grid (asserted inside decompose)
    blocks = 0
    for q in (2, 3, 4, 5, 7, 9, 13):
        for n in range(3, 20, 2):
            if math.gcd(n, q) != 1:
                continue
            blocks += len(get_algebra(q, n).decompose())

    # f bar(f) = 0 on self-conjugate blocks (bar acts as the adjugate); the
    # stated closed form s'(ue - u^{-1}e) v e is nonzero wherever s' != 0
    closed_form_bad = []
    stated_rhs_nonzero = []
    for q, n in ((3, 5), (3, 7), (5, 7), (2, 5)):
        A = get_algebra(q, n)
        for comp in A.decompose()[1:]:
            if comp.kind != SELF_CONJ:
                continue
            f = build_Ct(comp)
            if not (f * f.bar()).is_zero():
                closed_form_bad.append((q, n, comp.index))
            stated_rhs = A.elem(comp.ft.zero, comp.s_prime * (comp.ue - comp.uinv_e))
            if not stated_rhs.is_zero():
                stated_rhs_nonzero.append((q, n, comp.index))

    elapsed = time.monotonic() - t0
    ok = not failures and not closed_form_bad and bool(stated_rhs_nonzero) and elapsed < 30
    _report(
        9,
        ok,
        f"randomized identities clean: {not failures}; {blocks} blocks accounted;"
        f" blocks with f bar(f) != 0: {closed_form_bad}; blocks where the stated"
        f" closed form is nonzero: {stated_rhs_nonzero}; {elapsed:.1f}s",
    )
    assert not failures
    assert elapsed < 30
    assert stated_rhs_nonzero, "no scanned block has s' != 0, where the stated form is nonzero"
    assert not closed_form_bad, (
        f"f bar(f) != 0 on blocks {closed_form_bad}: bar acts as the adjugate, so"
        " f bar(f) = det(f) = 0 for the rank-1 generator f"
    )
