"""Metric-side computations: minimum weight, q-entropy, balance, censuses.

The census machinery enumerates the twist group K* block by block, measures
the relative minimum distance of every twisted code, and compares the count
of bad twists {beta : Delta(C beta) <= delta} against the volume bound
|K*| * q^(-2*lambda(n)*(1/4 - h_q(delta) - log_q(n)/lambda(n))) whenever the
exponent hypothesis holds (a slack of 1e-9 absorbs float rounding).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from . import codes as codes_mod
from . import linalg
from .algebra import TwistedDihedralAlgebra
from .codes import LinearCode, assemble_code, beta_at
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    DomainError,
    GcdViolation,
    NoNonzeroWords,
    NotLeftIdeal,
)
from .field import mult_order, prime_power

FLOAT_SLACK = 1e-9

EXHAUSTIVE = "exhaustive"
PRUNED = "pruned"
MODES = ("auto", EXHAUSTIVE, PRUNED)

# Words min_weight may weigh (at least 1): it bounds time, not memory, which
# stays O(linalg.SPAN_CHUNK n) on both paths (packed words on the exhaustive one).
DEFAULT_WORD_BUDGET = 1 << 20


# -- q-entropy -----------------------------------------------------------------


def entropy_q(q: int, delta: float) -> float:
    """h_q(delta) = delta log_q(q-1) - delta log_q delta - (1-delta) log_q(1-delta)."""
    if q < 2:
        raise DomainError("q must be at least 2")
    delta = float(delta)
    if not 0 <= delta <= 1 - 1 / q + FLOAT_SLACK:  # also rejects NaN
        raise DomainError(f"delta = {delta} outside [0, 1 - 1/q]")
    lq = math.log(q)

    def xlog(x):
        return 0.0 if x <= 0 else x * math.log(x) / lq

    return delta * math.log(q - 1) / lq - xlog(delta) - xlog(1 - delta)


# -- minimum weight --------------------------------------------------------------


@dataclass
class WeightReport:
    min_weight: int
    relative_distance: Fraction
    rate: Fraction
    method: str
    lower: int
    upper: int

    @property
    def exact(self) -> bool:
        return self.lower == self.upper


def min_weight(code: LinearCode, budget: int = DEFAULT_WORD_BUDGET, mode: str = "auto") -> WeightReport:
    """Minimum nonzero weight; exhaustive within budget, bracketed beyond.

    budget (at least 1) caps the words weighed, so it bounds time; memory is
    O(SPAN_CHUNK n) on both paths.  The exhaustive path weighs all q^k words
    by packed XOR and popcount (linalg.weight_distribution); mode "exhaustive"
    raises BudgetExceeded instead of falling back.  The pruned path expands
    every message of weight <= w on an information set while whole weight
    layers fit the budget, giving the bracket [w+1, best]; best starts at the
    lightest generator row.
    """
    if mode not in MODES:
        raise DomainError(f"unknown min_weight mode {mode!r}; expected one of {', '.join(MODES)}")
    _check_budget(budget)
    if code.k_dim == 0:
        raise NoNonzeroWords("the zero code has no nonzero codeword")
    q = code.field.q
    count = q**code.k_dim
    if count <= budget and mode != PRUNED:
        counts = linalg.weight_distribution(code.field, code.gen)
        m = int(np.flatnonzero(counts[1:])[0]) + 1
        return WeightReport(
            min_weight=m,
            relative_distance=Fraction(m, code.n_len),
            rate=Fraction(code.k_dim, code.n_len),
            method=EXHAUSTIVE,
            lower=m,
            upper=m,
        )
    if mode == EXHAUSTIVE:
        raise BudgetExceeded(f"q^k = {count} exceeds the budget {budget}")
    return _pruned_min_weight(code, budget)


def _check_budget(budget: int) -> None:
    if budget < 1:
        raise DomainError(f"the word budget must be at least 1, got {budget}")


def _layer_messages(k: int, q: int, w: int) -> Iterator[np.ndarray]:
    """All messages of Hamming weight w, in blocks of at most SPAN_CHUNK rows.

    A block pairs a run of supports (in combinations order) with a run of
    nonzero value tuples, each tuple read as w digits in base q - 1.
    """
    per_support = (q - 1) ** w
    runs = max(1, linalg.SPAN_CHUNK // per_support)
    powers = (q - 1) ** np.arange(w, dtype=np.int64)
    supports = itertools.combinations(range(k), w)
    while block := list(itertools.islice(supports, runs)):
        sup = np.array(block, dtype=np.int64)
        for start in range(0, per_support, linalg.SPAN_CHUNK):
            idx = np.arange(start, min(per_support, start + linalg.SPAN_CHUNK), dtype=np.int64)
            vals = 1 + idx[:, None] // powers % (q - 1)
            msgs = np.zeros((len(sup), len(vals), k), dtype=np.int64)
            msgs[np.arange(len(sup))[:, None, None], np.arange(len(vals))[:, None], sup[:, None, :]] = vals
            yield msgs.reshape(-1, k)


def _pruned_min_weight(code: LinearCode, budget: int) -> WeightReport:
    """Information-set bracketing: all messages of weight <= w are expanded;
    any unseen codeword then has weight >= w + 1 on the information set."""
    field = code.field
    q = field.q
    R = code.gen
    k, n = R.shape
    best = int(np.count_nonzero(R, axis=1).min())  # every row is a codeword
    spent = 0
    w = 0
    while w < k:
        w += 1
        layer = math.comb(k, w) * (q - 1) ** w
        if spent + layer > budget:
            w -= 1
            break
        for msgs in _layer_messages(k, q, w):
            best = min(best, int(np.count_nonzero(field.matmul(msgs, R), axis=1).min()))
        spent += layer
    lower = min(best, w + 1)
    return WeightReport(
        min_weight=best,
        relative_distance=Fraction(best, n),
        rate=Fraction(k, n),
        method=PRUNED,
        lower=lower,
        upper=best,
    )


# -- balance -----------------------------------------------------------------------


@dataclass
class BalanceReport:
    info_set: tuple[int, ...]
    images_checked: int
    all_images_information_sets: bool
    coverage: tuple[int, ...]
    uniform_coverage: bool
    multiplicity: Optional[int]
    census_checks: list[dict]

    @property
    def balanced(self) -> bool:
        return self.all_images_information_sets and self.uniform_coverage


def is_left_ideal(alg: TwistedDihedralAlgebra, code: LinearCode) -> bool:
    """Whether u * C and v * C lie in C (rows 1 and n of the group action).

    A code whose length is not 2n raises DimensionMismatch.
    """
    if code.n_len != 2 * alg.n:
        raise DimensionMismatch(f"code length {code.n_len} is not 2n = {2 * alg.n}")
    perm, sign = alg.group_action()
    mul = alg.field.tables().mul
    piv = code.pivots
    for h in (1, alg.n):
        for img in mul[sign[h], code.gen[:, perm[h]]]:
            if not linalg.in_row_space(alg.field, code.gen, piv, img):
                return False
    return True


def balanced_check(
    alg: TwistedDihedralAlgebra,
    code: LinearCode,
    deltas: Sequence[float] = (),
    budget: int = DEFAULT_WORD_BUDGET,
) -> BalanceReport:
    """Verify the balance property of a left-ideal code.

    The leftmost pivot columns give one information set; every group
    translate of it must again be an information set, and the translates
    must cover each coordinate equally often.  For each delta the census
    |B^<=delta| <= q^(k h_q(delta)) is checked when q^k fits the budget
    (at least 1).
    """
    _check_budget(budget)
    if not is_left_ideal(alg, code):
        raise NotLeftIdeal("code is not invariant under the algebra action")
    field = alg.field
    q = field.q
    k = code.k_dim
    info = code.pivots
    # the rows of perm carry info to h^-1 info; over the whole group these
    # are the same translates as h info
    perm, _ = alg.group_action()
    images = np.sort(perm[:, list(info)], axis=1)
    coverage = np.bincount(images.ravel(), minlength=2 * alg.n)
    all_info = all(linalg.rank(field, code.gen[:, image]) == k for image in images)
    uniform = bool(np.all(coverage == coverage[0]))
    census = []
    if deltas and q**k <= budget:
        counts = linalg.weight_distribution(field, code.gen)
        for d in deltas:
            h = entropy_q(q, d)
            count = int(counts[: math.floor(d * code.n_len + FLOAT_SLACK) + 1].sum())
            bound_log = k * h
            ok = math.log(count, q) <= bound_log + FLOAT_SLACK if count else True
            census.append({"delta": float(d), "count": count, "bound_log_q": bound_log, "ok": ok})
    return BalanceReport(
        info_set=info,
        images_checked=len(images),
        all_images_information_sets=all_info,
        coverage=tuple(int(c) for c in coverage),
        uniform_coverage=uniform,
        multiplicity=int(coverage[0]) if uniform else None,
        census_checks=census,
    )


# -- the K* census ---------------------------------------------------------------------


@dataclass
class CensusResult:
    """One census of K*: a row per beta, computed from one assembly and one
    exact weight per twist class.

    distinct_codes is the number of classes, prod(|F_t| + 1); the census
    asserts that their generator matrices are pairwise distinct.

    summary_json reports support_bounds_ok as true without a check: decompose
    asserts k_1 + ... + k_m = (n-1)/2, so any word with a nonzero component in
    some matrix block has min k_t <= ell <= (n-1)/2, where ell is the sum of
    k_t over the blocks t in which the word's component is nonzero.
    """

    q: int
    n: int
    delta: float
    include_C0: bool
    k_star_size: int
    count: int
    hypothesis_ok: bool
    exponent: float
    bound: Optional[float]
    rows: list[tuple[int, tuple[int, ...], int, float]]  # (index, beta codes, min weight, Delta)
    distinct_codes: int  # the prod(|F_t| + 1) twist classes, checked to give distinct codes; not exported

    def summary_json(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "delta": self.delta,
            "include_C0": self.include_C0,
            "k_star_size": self.k_star_size,
            "count": self.count,
            "hypothesis_ok": self.hypothesis_ok,
            "exponent": self.exponent,
            "bound": self.bound,
            "support_bounds_ok": True,
        }

    def csv_lines(self) -> list[str]:
        out = ["beta_index,beta_codes,min_weight,delta"]
        for idx, codes, w, d in self.rows:
            out.append(f"{idx},{':'.join(str(c) for c in codes)},{w},{d:.6f}")
        return out


def census_bound(q: int, n: int, lam: int, delta: float, k_star: int, hatted: bool) -> tuple[bool, float, Optional[float]]:
    """Exponent hypothesis and the volume bound for the census."""
    h = entropy_q(q, delta)
    margin = 0.25 - h - math.log(n, q) / lam
    hypothesis = margin > 0
    exponent = -2 * lam * margin
    if hatted:
        exponent += h
    bound = k_star * q**exponent if hypothesis else None
    return hypothesis, exponent, bound


def census_K_le_delta(
    alg: TwistedDihedralAlgebra,
    delta: float,
    include_C0: bool = False,
    k_star_budget: int = 100_000,
    word_budget: int = DEFAULT_WORD_BUDGET,
) -> CensusResult:
    """Exact census of {beta in K* : Delta(C beta) <= delta}.

    Every minimum weight is exact: BudgetExceeded is raised when some code's
    q^k words exceed word_budget.  Asserts count <= |K*| always, and count
    <= the volume bound whenever the exponent hypothesis
    1/4 - h_q(delta) - log_q(n)/lambda(n) > 0 holds.

    C beta depends only on beta modulo the F_t* (BetaVector.twist_class).
    assemble_code is called once per beta with one memo for the census, so
    it row-reduces each class once and serves the other betas from the memo;
    each class's exact weight is computed once too.  Rows come out in beta
    index order.
    """
    q = alg.field.q
    if not 0 < delta <= 1:
        raise DomainError("delta must lie in (0, 1]")
    kts = codes_mod.kt_fields(alg)
    parts = codes_mod.standard_parts(alg)
    size = codes_mod.k_star_size(kts)
    if size > k_star_budget:
        raise BudgetExceeded(f"|K*| = {size} exceeds the census budget {k_star_budget}")
    rows = []
    memo: dict[tuple[int, ...], LinearCode] = {}
    weights: dict[tuple[int, ...], tuple[int, float]] = {}
    for idx in range(size):
        beta = beta_at(kts, idx)
        code = assemble_code(alg, parts, include_C0=include_C0, beta=beta, memo=memo)
        cls = beta.twist_class()
        if cls not in weights:
            rep = min_weight(code, budget=word_budget, mode=EXHAUSTIVE)
            weights[cls] = (rep.min_weight, float(rep.relative_distance))
        rows.append((idx, beta.codes, *weights[cls]))
    # C beta = C beta' iff beta' beta^-1 lies in the product of the F_t*:
    # a class table that merges or splits classes fails here
    classes = math.prod(kt.comp.ft.order + 1 for kt in kts)
    assert len(memo) == classes, f"{len(memo)} twist classes, expected {classes}"
    assert len({code.key() for code in memo.values()}) == classes, "two twist classes gave the same code"
    count = sum(1 for _, _, _, d in rows if d <= delta + FLOAT_SLACK)
    lam = alg.lambda_()
    h_delta_ok = delta <= 1 - 1 / q + FLOAT_SLACK
    if h_delta_ok:
        hypothesis, exponent, bound = census_bound(q, alg.n, lam, delta, size, hatted=include_C0)
    else:
        hypothesis, exponent, bound = False, float("nan"), None
    assert count <= size
    if hypothesis:
        assert count <= bound + FLOAT_SLACK, f"census count {count} exceeds bound {bound}"
    return CensusResult(
        q=q,
        n=alg.n,
        delta=float(delta),
        include_C0=include_C0,
        k_star_size=size,
        count=count,
        hypothesis_ok=hypothesis,
        exponent=exponent,
        bound=bound,
        rows=rows,
        distinct_codes=classes,
    )


# -- good-n predicates ---------------------------------------------------------------------


@dataclass
class GoodNFlags:
    q: int
    n: int
    coprime_odd: bool
    ord_odd: bool
    minus1_in_q: bool
    two_exactly_divides_ord: bool


def good_n_predicates(q: int, n: int) -> GoodNFlags:
    """Number-theoretic flags steering the asymptotic families (NotPrime
    unless q is a prime power)."""
    prime_power(q)
    if math.gcd(n, q) != 1:
        raise GcdViolation(f"gcd({n}, {q}) != 1")
    coprime_odd = n > 1 and n % 2 == 1
    if coprime_odd:
        ordv = mult_order(q, n)
        ord_odd = ordv % 2 == 1
        minus1 = any(pow(q, k, n) == n - 1 for k in range(1, ordv + 1))
        two_exact = ordv % 2 == 0 and ordv % 4 != 0
    else:
        ord_odd = minus1 = two_exact = False
    return GoodNFlags(
        q=q,
        n=n,
        coprime_odd=coprime_odd,
        ord_odd=ord_odd,
        minus1_in_q=minus1,
        two_exactly_divides_ord=two_exact,
    )


PROFILE_SELF_ORTHOGONAL = "SelfOrthogonal"
PROFILE_LCD = "LCD"
PROFILE_SELF_DUAL = "SelfDual"
PROFILES = (PROFILE_SELF_ORTHOGONAL, PROFILE_LCD, PROFILE_SELF_DUAL)


def good_n_sequence(q: int, limit: int, profile: str) -> list[int]:
    """Odd n <= limit, coprime to q, whose flags fit the requested family.

    SelfOrthogonal: every such n; the plain consta family is self-orthogonal
    for every q.  LCD: q = 3 mod 4 and some divisor d > 1 of n has -1 in <q>
    mod d and ord_d(q) = 2 mod 4; then the block of the primitive d-th roots
    of unity is self-conjugate with odd k_t = ord_d(q)/2, which is exactly
    when the `lcd` block family exists at n.  Its computed hull equals its
    dimension: despite the name these codes are self-orthogonal, not LCD.
    SelfDual: every such n when q is even or 4 | q - 1.  A q that is not a
    prime power raises NotPrime, and an unknown profile DomainError.
    """
    prime_power(q)
    if profile not in PROFILES:
        raise DomainError(f"unknown profile {profile!r}; expected one of {', '.join(PROFILES)}")
    out = []
    for n in range(3, limit + 1, 2):
        if math.gcd(n, q) != 1:
            continue
        if profile == PROFILE_SELF_ORTHOGONAL:
            out.append(n)
        elif profile == PROFILE_LCD:
            divisor_flags = (good_n_predicates(q, d) for d in range(3, n + 1, 2) if n % d == 0)
            if q % 4 == 3 and any(f.minus1_in_q and f.two_exactly_divides_ord for f in divisor_flags):
                out.append(n)
        elif q % 2 == 0 or (q - 1) % 4 == 0:  # PROFILE_SELF_DUAL
            out.append(n)
    return out
