"""Metric-side computations: minimum weight, q-entropy, balance, censuses.

min_weight chooses between linalg's two weighings, the exhaustive span walk
and the pruned layer walk, by q^k against its word budget, and reports the
result; this module knows nothing of how words are packed or walked.

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
from .codes import BetaVector, LinearCode, assemble_code
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

# Words min_weight may weigh (at least 1): it bounds time, not memory, which
# linalg bounds on both paths.
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


def min_weight(code: LinearCode, budget: int = DEFAULT_WORD_BUDGET) -> WeightReport:
    """Minimum nonzero weight; exhaustive within budget, bracketed beyond.

    budget (at least 1) caps the words weighed, so it bounds time; memory
    stays bounded on both paths, and both weigh one word of each scalar
    class {a c : a in F_q*}, as its q - 1 words share one weight.  When
    q^k <= budget the exhaustive path weighs about q^k/(q - 1) words and
    keeps their minimum (linalg.min_nonzero_weight).  Otherwise the pruned
    path (linalg.pruned_min_weight) expands every message of weight <= w on
    an information set while whole weight layers fit the budget, giving the
    bracket [w+1, best], exact once w reaches k; best starts at the
    lightest generator row.  The budget counts all the words of a layer,
    not the classes weighed, so its bracket and method do not depend on the
    folding.  A caller that needs an exact weight compares q^k with its
    budget first (census_K_le_delta does).
    """
    _check_budget(budget)
    if code.k_dim == 0:
        raise NoNonzeroWords("the zero code has no nonzero codeword")
    if code.field.q**code.k_dim > budget:
        method = PRUNED
        lower, upper = linalg.pruned_min_weight(code.field, code.gen, code.pivots, budget)
    else:
        method = EXHAUSTIVE
        lower = upper = linalg.min_nonzero_weight(code.field, code.gen)
    return WeightReport(upper, Fraction(upper, code.n_len), Fraction(code.k_dim, code.n_len), method, lower, upper)


def _check_budget(budget: int) -> None:
    if budget < 1:
        raise DomainError(f"the word budget must be at least 1, got {budget}")


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
    """Whether u * C and v * C lie in C (rows 1 and n of the group action):
    the 2k images of the generator rows, reduced modulo C in one call.

    A code whose length is not 2n raises DimensionMismatch.
    """
    if code.n_len != 2 * alg.n:
        raise DimensionMismatch(f"code length {code.n_len} is not 2n = {2 * alg.n}")
    perm, sign = alg.group_action()
    h = [1, alg.n]
    images = alg.field.tables().mul[sign[h][:, None], code.gen[:, perm[h]].transpose(1, 0, 2)]
    return not linalg.residual(alg.field, code.gen, code.pivots, images.reshape(-1, code.n_len)).any()


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
    |B^<=delta| <= q^(k h_q(delta)) is checked over all q^k words; given
    deltas, a q^k above the budget (at least 1) raises BudgetExceeded.
    """
    _check_budget(budget)
    field = alg.field
    q = field.q
    k = code.k_dim
    if deltas and q**k > budget:
        raise BudgetExceeded(
            f"the balance census enumerates q^k = {q}^{k} = {q**k} words, over the budget {budget}"
        )
    if not is_left_ideal(alg, code):
        raise NotLeftIdeal("code is not invariant under the algebra action")
    info = code.pivots
    # the rows of perm carry info to h^-1 info; over the whole group these
    # are the same translates as h info
    perm, _ = alg.group_action()
    images = np.sort(perm[:, list(info)], axis=1)
    coverage = np.bincount(images.ravel(), minlength=2 * alg.n)
    all_info = all(linalg.rank(field, code.gen[:, image]) == k for image in images)
    uniform = bool(np.all(coverage == coverage[0]))
    census = []
    if deltas:
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
    """One census of K*: a row per beta, read off its algebra's cached class
    table (one assembly and one exact weight per twist class).

    distinct_codes is the number of classes, prod(|F_t| + 1); the table was
    checked to give pairwise distinct generator matrices.  rows is the only
    |K*|-long data: the result owns it and the algebra keeps none of it.

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
    exponent: Optional[float]  # None when delta > 1 - 1/q
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

    def csv_lines(self) -> Iterator[str]:
        yield "beta_index,beta_codes,min_weight,delta"
        for idx, codes, w, d in self.rows:
            yield f"{idx},{':'.join(str(c) for c in codes)},{w},{d:.6f}"


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


@dataclass(frozen=True)
class _ClassTable:
    """What a census computes that depends neither on delta nor on any one
    beta, for one algebra and A_0 choice; every entry is block- or
    class-sized.  line_of[t] is the line of each unit code 1 .. |K_t| - 1 of
    block t (_line_ids), k the dimension of every class code, memo the code
    of each twist class keyed by BetaVector.twist_class, and minima[s] the
    minimum weight of class s."""

    line_of: list[np.ndarray]
    k: int
    memo: dict[tuple[int, ...], LinearCode]
    minima: np.ndarray


def _check_word_budget(q: int, k: int) -> None:
    if q**k > DEFAULT_WORD_BUDGET:
        raise BudgetExceeded(f"q^k = {q**k} exceeds the budget {DEFAULT_WORD_BUDGET}")


def _line_ids(kts) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Each block's class_ids()[1:], read-only, checked to put its units on
    exactly the |F_t| + 1 lines 0 .. |F_t|, and the first unit code on each
    line."""
    line_of, first_unit = [], []
    for kt in kts:
        n_lines = kt.comp.ft.order + 1
        ids = np.asarray(kt.class_ids()[1:], dtype=np.int64)
        seen, index = np.unique(ids, return_index=True)
        # C beta = C beta' iff beta' beta^-1 lies in the product of the F_t*:
        # a class table that merges or splits classes fails here
        assert np.array_equal(seen, np.arange(n_lines)), (
            f"K_{kt.comp.index} has {len(seen)} twist classes with ids {seen[0]}..{seen[-1]}, expected 0..{n_lines - 1}"
        )
        ids.setflags(write=False)
        line_of.append(ids)
        first_unit.append(1 + index)
    return line_of, first_unit


def _class_table(alg: TwistedDihedralAlgebra, kts, parts, a0: Optional[str], line_of, first_unit) -> _ClassTable:
    """Build the census's class table for A_0's choice a0 from _line_ids's
    checked lines, and cache it on alg only once every check below has
    passed.

    Class s takes the twist class of its digits in mixed radix |F_t| + 1
    (block 1 fastest), and its representative the first unit on its line in
    every block, the least beta of the class.  The first beta (every code 1)
    is assembled by assemble_code alone, which raises HypothesisUnmet for a
    missing C_0, and its q^k is checked against the word budget before any
    other class is assembled.  Then the representatives are assembled in a
    stacked pass (codes.assemble_stack), whose generator for the first
    beta's class must equal the first code's; the prod(|F_t| + 1) codes
    must be pairwise distinct, and every class's minimum weight comes from
    one linalg.min_nonzero_weight call on their stacked generators (no
    class's weight distribution is computed).
    """
    lines = [kt.comp.ft.order + 1 for kt in kts]
    classes = math.prod(lines)
    first = assemble_code(alg, parts, a0=a0, beta=BetaVector(kts, [1] * len(kts)))
    _check_word_budget(alg.field.q, first.k_dim)
    lines_of_class = np.unravel_index(np.arange(classes), lines, order="F")  # each class's twist_class()
    rep_codes = np.stack([units[c] for units, c in zip(first_unit, lines_of_class)], axis=1)
    gens = np.empty((classes, first.k_dim, first.n_len), dtype=np.int64)
    for s, R in codes_mod.assemble_stack(alg, parts, a0, kts, rep_codes):
        assert R.shape[1] == first.k_dim, f"assembled dim {R.shape[1]}, expected {first.k_dim}"
        gens[s : s + len(R)] = R
    gens.setflags(write=False)  # shared by every beta of a class, in every census
    first_class = np.ravel_multi_index([ids[0] for ids in line_of], lines, order="F")
    assert np.array_equal(gens[first_class], first.gen), "the stacked RREF of the first twist class differs from rref"
    assert len({gen.tobytes() for gen in gens}) == classes, "two twist classes gave the same code"
    keys = zip(*[c.tolist() for c in lines_of_class])
    memo = {key: LinearCode(alg.field, gen) for key, gen in zip(keys, gens)}
    minima = linalg.min_nonzero_weight(alg.field, gens)
    minima.setflags(write=False)
    table = _ClassTable(line_of, first.k_dim, memo, minima)
    alg._census_tables[a0] = table
    return table


def census_K_le_delta(
    alg: TwistedDihedralAlgebra,
    delta: float,
    include_C0: bool = False,
    k_star_budget: int = 100_000,
) -> CensusResult:
    """Exact census of {beta in K* : Delta(C beta) <= delta}.

    Every minimum weight is exact: BudgetExceeded is raised when the codes'
    q^k words exceed DEFAULT_WORD_BUDGET (read at call time); on the first
    census of an A_0 choice the check follows the first code's assembly, so
    a missing C_0 raises HypothesisUnmet first, and no other class is
    assembled.  A k_star_budget below 1 raises DomainError, and one below
    |K*| BudgetExceeded before anything else is looked at.  Asserts count
    <= |K*| always, and count <= the volume bound whenever the exponent
    hypothesis 1/4 - h_q(delta) - log_q(n)/lambda(n) > 0 holds.

    C beta depends only on beta modulo the F_t* (BetaVector.twist_class),
    so all that depends on neither delta nor a single beta is one class
    table per algebra and A_0 choice (_class_table): each block's lines,
    one code and one exact minimum weight per twist class.  The first
    census of a choice builds it with every check, and the algebra keeps it
    beside its ideal_rref cache; later censuses, at any delta, read it.
    Each call still computes the |K*|-long data, which no cache holds: the
    codes of beta index i are its digits in mixed radix |K_t| - 1, plus one
    (block 1 fastest), and its class number is their lines in mixed radix
    |F_t| + 1, both numpy columns; each beta's weight is its class's
    minimum, and the count and bound follow.  A first census makes the
    block-sized lines, then the |K*|-long columns, then the rest of the
    table: the class generators then reuse the memory the digits freed, and
    a single census peaks no higher than before the table was cached (with
    the table built first it peaked 6 MB higher at (2, 21)).

    Every beta still costs one assemble_code call, a lookup in the table's
    memo (a beta whose class the memo lacks raises KeyError there): on the
    call that builds the table the first beta's call is the real assembly,
    so every census makes exactly |K*| calls.  The lookups stay, although
    the weights need none of them, because perfbench pins
    codes.assemble_calls at |K*| per census.
    """
    q = alg.field.q
    if not 0 < delta <= 1:
        raise DomainError("delta must lie in (0, 1]")
    if k_star_budget < 1:
        raise DomainError(f"the census budget must be at least 1, got {k_star_budget}")
    kts = codes_mod.kt_fields(alg)
    parts = codes_mod.standard_parts(alg)
    size = codes_mod.k_star_size(kts)
    if size > k_star_budget:
        raise BudgetExceeded(f"|K*| = {size} exceeds the census budget {k_star_budget}")
    a0 = "C0" if include_C0 else None
    table = alg._census_tables.get(a0)
    builds = table is None  # then this call assembles the first beta itself
    if builds:
        line_of, first_unit = _line_ids(kts)
    else:
        line_of = table.line_of
    lines = [kt.comp.ft.order + 1 for kt in kts]
    digits = np.unravel_index(np.arange(size), [kt.order - 1 for kt in kts], order="F")
    class_of = np.ravel_multi_index([ids[d] for ids, d in zip(line_of, digits)], lines, order="F")
    beta_tuples = list(zip(*[(1 + d).tolist() for d in digits]))
    del digits  # K*-long arrays; the rows hold the codes from here on
    if builds:
        table = _class_table(alg, kts, parts, a0, line_of, first_unit)
    _check_word_budget(q, table.k)
    for codes in itertools.islice(beta_tuples, int(builds), None):
        assemble_code(alg, parts, a0=a0, beta=BetaVector(kts, codes), memo=table.memo)
    weights = table.minima[class_of]
    n_len = 2 * alg.n
    deltas = np.arange(n_len + 1) / n_len
    count = int(np.count_nonzero(deltas[weights] <= delta + FLOAT_SLACK))
    weights, deltas = weights.tolist(), deltas.tolist()  # one float per weight, shared by its rows
    rows = list(zip(range(size), beta_tuples, weights, map(deltas.__getitem__, weights)))
    lam = alg.lambda_()
    h_delta_ok = delta <= 1 - 1 / q + FLOAT_SLACK
    if h_delta_ok:
        hypothesis, exponent, bound = census_bound(q, alg.n, lam, delta, size, hatted=include_C0)
    else:
        hypothesis, exponent, bound = False, None, None  # H_q(delta) is undefined
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
        distinct_codes=len(table.minima),
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
