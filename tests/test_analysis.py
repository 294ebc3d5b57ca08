import itertools
import json
import math
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conftest import get_algebra

from cdcodes import analysis, codes, linalg
from cdcodes.algebra import TRIVIAL_SPLIT
from cdcodes.analysis import (
    balanced_check,
    census_K_le_delta,
    entropy_q,
    good_n_predicates,
    good_n_sequence,
    min_weight,
)
from cdcodes.codes import LinearCode, build_plain_code, build_self_dual_code
from cdcodes.errors import (
    BudgetExceeded,
    DomainError,
    GcdViolation,
    HypothesisUnmet,
    NoNonzeroWords,
    NotLeftIdeal,
    NotPrime,
)
from cdcodes.field import field_from_order, mult_order


# -- entropy ---------------------------------------------------------------------


def test_entropy_examples():
    assert entropy_q(3, 0) == 0.0
    assert abs(entropy_q(2, 0.5) - 1.0) < 1e-12
    for q in (2, 3, 4, 5):
        assert abs(entropy_q(q, 1 - 1 / q) - 1.0) < 1e-12


def test_entropy_domain():
    with pytest.raises(DomainError):
        entropy_q(3, 0.8)  # beyond 1 - 1/3
    with pytest.raises(DomainError):
        entropy_q(3, -0.1)
    with pytest.raises(DomainError):
        entropy_q(3, math.nan)  # every comparison with NaN is false


def test_entropy_monotone():
    for q in (2, 3, 5, 7):
        xs = [i * (1 - 1 / q) / 200 for i in range(201)]
        vals = [entropy_q(q, x) for x in xs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


# -- minimum weight ----------------------------------------------------------------


def test_min_weight_repetition_code():
    F = field_from_order(2)
    code = LinearCode.from_rows(F, np.ones((1, 6), dtype=np.int64))
    rep = min_weight(code)
    assert rep.min_weight == 6 and rep.exact
    assert rep.relative_distance == Fraction(1, 1)


def test_min_weight_matches_pairwise_distance_oracle():
    A = get_algebra(7, 3)
    code = build_plain_code(A)
    rep = min_weight(code)
    # oracle: min over distinct pairs of the Hamming distance
    from cdcodes import linalg

    words = linalg.enumerate_span(code.field, code.gen)
    dmin = min(
        int(np.count_nonzero((words[i] - words[j]) % 7))
        for i in range(len(words))
        for j in range(i + 1, len(words))
    )
    assert rep.min_weight == dmin
    assert rep.method == analysis.EXHAUSTIVE


def test_min_weight_zero_code():
    F = field_from_order(3)
    z = LinearCode.from_rows(F, np.zeros((1, 4), dtype=np.int64), n_len=4)
    with pytest.raises(NoNonzeroWords):
        min_weight(z)


def test_min_weight_budget_and_pruned():
    A = get_algebra(3, 7)
    code = codes.build_lcd_code(A)  # [14, 6] over GF(3)
    with pytest.raises(BudgetExceeded):
        min_weight(code, budget=10, mode="exhaustive")
    exact = min_weight(code).min_weight
    pruned = min_weight(code, budget=2000, mode="pruned")
    assert pruned.lower <= exact <= pruned.upper
    full_pruned = min_weight(code, budget=10**6, mode="pruned")
    assert full_pruned.exact and full_pruned.min_weight == exact


def test_min_weight_rejects_unknown_mode():
    code = build_plain_code(get_algebra(7, 3))
    with pytest.raises(DomainError, match="'exhaustve'.*auto, exhaustive, pruned"):
        min_weight(code, mode="exhaustve")


@pytest.mark.parametrize("budget", [0, -5])
def test_min_weight_rejects_budget_below_one(budget):
    A = get_algebra(2, 7)
    code = build_plain_code(A)
    for mode in analysis.MODES:
        with pytest.raises(DomainError, match="at least 1"):
            min_weight(code, budget=budget, mode=mode)
    with pytest.raises(DomainError, match="at least 1"):
        balanced_check(A, code, deltas=(0.2,), budget=budget)


def test_exhaustive_min_weight_memory_is_bounded():
    # q^k = 2^20 binary words of length 42 (one packed lane): all of them as
    # int64 would take 336 MiB; and 3^12 ternary words of length 70, which
    # fill three lanes of 32 coordinates (284 MiB as int64)
    ternary = np.random.default_rng(0).integers(0, 3, (12, 70))
    for code in (build_plain_code(get_algebra(2, 21)), LinearCode.from_rows(field_from_order(3), ternary)):
        assert code.field.q**code.k_dim >= 3**12
        code.field.tables()
        tracemalloc.start()
        try:
            rep = min_weight(code)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.method == analysis.EXHAUSTIVE and rep.exact
        assert peak <= 16 * 2**20, f"q = {code.field.q}: peak {peak / 2**20:.1f} MiB"


def reference_pruned_bracket(code, budget):
    """(lower, upper) from the per-word information-set loop that the chunked
    pruned path replaced: every message of weight <= w, one word at a time."""
    field = code.field
    q = field.q
    t = field.tables()
    R, piv = linalg.rref(field, code.gen)
    k, n = R.shape
    best = n
    spent = 0
    w = 0
    while w < k:
        w += 1
        layer = math.comb(k, w) * (q - 1) ** w
        if spent + layer > budget:
            w -= 1
            break
        for support in itertools.combinations(range(k), w):
            for vals in itertools.product(range(1, q), repeat=w):
                word = np.zeros(n, dtype=np.int64)
                for i, c in zip(support, vals):
                    word = t.add[word, t.mul[c, R[i]]]
                wt = int(np.count_nonzero(word))
                if 0 < wt < best:
                    best = wt
        spent += layer
    return min(best, w + 1), best


@pytest.mark.parametrize(
    "q, n, family",
    [(2, 9, "plain"), (3, 7, "lcd"), (4, 5, "self_dual"), (5, 7, "plain"), (9, 5, "plain")],
)
def test_pruned_brackets_match_per_word_loop(q, n, family):
    code = getattr(codes, f"build_{family}_code")(get_algebra(q, n))
    k = code.k_dim
    layers = [math.comb(k, w) * (q - 1) ** w for w in range(1, k + 1)]
    # after layer 1, mid-way (half the layers and a word over), every word
    for budget in (layers[0], sum(layers[: k // 2]) + 1, q**k - 1):
        rep = min_weight(code, budget=budget, mode="pruned")
        assert (rep.lower, rep.upper) == reference_pruned_bracket(code, budget), budget
    assert rep.exact and rep.min_weight == min_weight(code, mode="exhaustive").min_weight


@pytest.mark.parametrize("chunk", [8, linalg.SPAN_CHUNK])
@pytest.mark.parametrize("k, q, w", [(5, 2, 2), (4, 3, 3), (4, 13, 4), (6, 4, 1)])
def test_layer_messages_are_the_weight_layer(monkeypatch, chunk, k, q, w):
    # (4, 13, 4) has 12^4 > SPAN_CHUNK value tuples per support
    monkeypatch.setattr(linalg, "SPAN_CHUNK", chunk)
    blocks = list(analysis._layer_messages(k, q, w))
    assert all(len(b) <= chunk for b in blocks)
    got = [tuple(m) for b in blocks for m in b.tolist()]
    want = {m for m in itertools.product(range(q), repeat=k) if sum(1 for c in m if c) == w}
    assert len(got) == len(want) == math.comb(k, w) * (q - 1) ** w
    assert set(got) == want


def test_pruned_upper_starts_at_lightest_row():
    # budget 3 is below layer 1 (k(q-1) = 6 messages): no message is expanded,
    # yet every generator row is a codeword
    code = build_plain_code(get_algebra(2, 7))
    rep = min_weight(code, budget=3)
    lightest = int(np.count_nonzero(code.gen, axis=1).min())
    assert (rep.method, rep.lower, rep.upper) == (analysis.PRUNED, 1, lightest)
    assert lightest < code.n_len


@pytest.mark.parametrize(
    "q, n, builder, bracket, seconds",
    [(5, 13, build_self_dual_code, (5, 8), 1.0), (2, 31, build_plain_code, (7, 8), 6.0)],
    ids=["q5-n13-self-dual", "q2-n31-plain"],
)
def test_pruned_default_budget_brackets(q, n, builder, bracket, seconds):
    code = builder(get_algebra(q, n))
    start = time.perf_counter()
    rep = min_weight(code)
    elapsed = time.perf_counter() - start
    assert (rep.method, rep.lower, rep.upper) == (analysis.PRUNED, *bracket)
    assert elapsed < seconds


# -- balance -------------------------------------------------------------------------------


def test_balanced_plain_code_3_7():
    A = get_algebra(7, 3)
    code = build_plain_code(A)
    rep = balanced_check(A, code, deltas=(0.1, 0.2, 1 - 1 / 7))
    assert rep.balanced
    assert rep.multiplicity == code.k_dim  # regular action covers t = k times
    assert all(c["ok"] for c in rep.census_checks)


def test_balanced_self_dual_3_5():
    A = get_algebra(5, 3)
    rep = balanced_check(A, build_self_dual_code(A), deltas=(0.2,))
    assert rep.balanced


def test_balance_census_counts_match_enumerated_span():
    A = get_algebra(3, 7)
    code = build_plain_code(A)  # [14, 6]
    weights = np.count_nonzero(linalg.enumerate_span(code.field, code.gen), axis=1)
    deltas = (0.1, 3 / 14, 0.5, 2 / 3)
    rep = balanced_check(A, code, deltas=deltas)
    want = [int(np.sum(weights <= d * code.n_len + analysis.FLOAT_SLACK)) for d in deltas]
    assert [c["count"] for c in rep.census_checks] == want


def test_balanced_rejects_non_ideal():
    A = get_algebra(7, 3)
    row = np.zeros((1, 6), dtype=np.int64)
    row[0, 0] = 1
    bad = LinearCode.from_rows(A.field, row)
    with pytest.raises(NotLeftIdeal):
        balanced_check(A, bad)


# -- censuses ---------------------------------------------------------------------------------


def test_census_delta_one_counts_everything():
    A = get_algebra(7, 3)
    res = census_K_le_delta(A, delta=1.0)
    assert res.count == res.k_star_size == 48
    assert len(res.rows) == 48


def test_census_tiny_delta_counts_nothing():
    A = get_algebra(7, 3)
    res = census_K_le_delta(A, delta=0.05)  # below 1/(2n)
    assert res.count == 0


def test_census_rows_and_csv():
    A = get_algebra(5, 3)
    res = census_K_le_delta(A, delta=0.5)
    assert res.k_star_size == 24
    lines = res.csv_lines()
    assert lines[0] == "beta_index,beta_codes,min_weight,delta"
    assert len(lines) == 25
    s = res.summary_json()
    assert s["q"] == 5 and s["n"] == 3 and s["count"] == res.count


def test_census_budget():
    A = get_algebra(7, 11)  # |K*| = 7^10 - 1
    with pytest.raises(BudgetExceeded):
        census_K_le_delta(A, delta=0.3, k_star_budget=1000)


def test_census_hatted_self_dual():
    A = get_algebra(5, 3)
    res = census_K_le_delta(A, delta=1.0, include_C0=True)
    assert res.count == res.k_star_size == 24


def test_census_bound_asserted_under_hypothesis():
    # (n, q) = (5, 7): lambda = 4, log_7 5 / 4 = 0.207; delta small enough
    # that h_7(delta) stays under 1/4 - 0.207
    A = get_algebra(7, 5)
    res = census_K_le_delta(A, delta=0.005)
    assert res.hypothesis_ok
    assert res.bound is not None
    assert res.count <= res.bound + 1e-9


def test_census_weights_are_exact_or_raise():
    # q^k = 49 words exceed a budget of 10: the census must not read the
    # pruned bracket's upper end as the weight
    A = get_algebra(7, 3)
    with pytest.raises(BudgetExceeded):
        census_K_le_delta(A, delta=0.5, word_budget=10)
    res = census_K_le_delta(A, delta=0.5)
    assert res.count == 12
    assert min(w for _, _, w, _ in res.rows) == 3


TWIST_CLASS_GRID = [
    # acceptance criterion 8's (q, n, include_C0), plus q = 4, n = 5
    (5, 3, True), (7, 3, False), (13, 3, True), (3, 5, False), (2, 7, True),
    (2, 9, True), (3, 7, False), (2, 11, True), (7, 5, False), (4, 5, False),
]


@pytest.mark.parametrize("q, n, include_C0", TWIST_CLASS_GRID)
def test_census_distinct_codes_are_twist_classes(q, n, include_C0):
    # K_t^* permutes the |F_t| + 1 simple left ideals of M_2(F_t) with
    # stabiliser F_t^*: prod(|F_t| + 1) codes, each from prod(|F_t| - 1) betas
    A = get_algebra(q, n)
    kts = codes.kt_fields(A)
    f_orders = [q**kt.comp.k for kt in kts]
    res = census_K_le_delta(A, delta=0.5, include_C0=include_C0)
    assert res.distinct_codes == math.prod(f + 1 for f in f_orders)
    parts = codes.standard_parts(A)
    seen = Counter(
        codes.assemble_code(A, parts, include_C0=include_C0, beta=beta).key()
        for beta in codes.enumerate_beta(kts)
    )
    assert len(seen) == res.distinct_codes
    assert set(seen.values()) == {math.prod(f - 1 for f in f_orders)}
    assert "distinct_codes" not in res.summary_json()
    assert res.csv_lines()[0] == "beta_index,beta_codes,min_weight,delta"


def _per_beta_census(A, delta, include_C0):
    """The census without the class memo: every beta's code assembled on its
    own and weighed exhaustively (once per generator matrix, a weight being a
    function of it)."""
    kts = codes.kt_fields(A)
    parts = codes.standard_parts(A)
    weights = {}
    rows = []
    for idx, beta in enumerate(codes.enumerate_beta(kts)):
        code = codes.assemble_code(A, parts, include_C0=include_C0, beta=beta)
        key = code.key()
        if key not in weights:
            weights[key] = min_weight(code, mode=analysis.EXHAUSTIVE).min_weight
        rows.append((idx, beta.codes, weights[key], weights[key] / code.n_len))
    count = sum(1 for *_, d in rows if d <= delta + analysis.FLOAT_SLACK)
    hypothesis, exponent, bound = analysis.census_bound(
        A.field.q, A.n, A.lambda_(), delta, len(rows), hatted=include_C0
    )
    return analysis.CensusResult(
        A.field.q, A.n, delta, include_C0, len(rows), count, hypothesis, exponent, bound, rows, len(weights)
    )


# the criterion-8 grid plus (2, 15) and (4, 7), v^2 = -1 and, for odd q, v^2 = 1
# (in characteristic 2 the two are one algebra)
ORACLE_GRID = [
    (q, n, tw)
    for q, n in [(5, 3), (7, 3), (13, 3), (3, 5), (2, 7), (2, 9), (3, 7), (2, 11), (7, 5), (2, 15), (4, 7)]
    for tw in (-1, 1)
    if tw == -1 or q % 2
]


@pytest.mark.parametrize("q, n, tw", ORACLE_GRID)
def test_census_matches_per_beta_oracle(q, n, tw):
    # C_0 taken wherever it exists
    A = get_algebra(q, n, tw)
    include_C0 = A.decompose()[0].kind == TRIVIAL_SPLIT
    oracle = _per_beta_census(A, 0.2, include_C0)
    res = census_K_le_delta(A, delta=0.2, include_C0=include_C0)
    assert res.csv_lines() == oracle.csv_lines()
    assert json.dumps(res.summary_json()) == json.dumps(oracle.summary_json())
    assert res.distinct_codes == oracle.distinct_codes


@pytest.mark.parametrize("q, n, include_C0", [(3, 7, False), (2, 9, True), (4, 7, False)])
def test_census_calls_assemble_code_per_beta_and_rref_per_class(monkeypatch, q, n, include_C0):
    A = get_algebra(q, n)
    census_K_le_delta(A, delta=0.2, include_C0=include_C0)  # caches the untwisted RREFs
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(analysis, "assemble_code", counting("assemble", analysis.assemble_code))
    monkeypatch.setattr(linalg, "rref", counting("rref", linalg.rref))
    res = census_K_le_delta(A, delta=0.2, include_C0=include_C0)
    assert calls["assemble"] == res.k_star_size
    assert calls["rref"] == res.distinct_codes == math.prod(kt.comp.ft.order + 1 for kt in codes.kt_fields(A))


def test_builders_hull_and_min_weight_build_no_class_table(monkeypatch, rng):
    def no_table(self):
        raise AssertionError("class table built")

    monkeypatch.setattr(codes.KtField, "class_ids", no_table)
    for q, n in ((3, 7), (5, 3), (2, 9), (11, 3)):
        A = get_algebra(q, n)
        beta = codes.BetaVector.random(codes.kt_fields(A), rng)
        built = [build_plain_code(A), build_plain_code(A, beta)]
        if q % 4 == 3:
            built.append(codes.build_lcd_code(A, beta, include_a0=True))
        else:
            built.append(build_self_dual_code(A, beta))
        for code in built:
            assert codes.hull_dimension(code) >= 0
            assert min_weight(code).min_weight >= 1
    with pytest.raises(AssertionError, match="class table built"):
        census_K_le_delta(get_algebra(5, 3), delta=0.4)


@pytest.mark.parametrize("fault", ["merge", "split"])
def test_census_rejects_a_class_table_that_merges_or_splits(monkeypatch, fault):
    # the census checks prod(|F_t| + 1) classes with pairwise distinct codes
    real = codes.KtField.class_ids

    def faulty(self):
        ids = list(real(self))
        if fault == "merge":  # the class of code 1 swallows another
            other = next(i for i in ids[1:] if i != ids[1])
            return [ids[1] if i == other else i for i in ids]
        twin = next(c for c in range(2, len(ids)) if ids[c] == ids[1])
        ids[twin] = max(ids) + 1  # one code of code 1's class gets an id of its own
        return ids

    monkeypatch.setattr(codes.KtField, "class_ids", faulty)
    with pytest.raises(AssertionError, match="twist class"):
        census_K_le_delta(get_algebra(3, 7), delta=0.2)


# -- good betas ---------------------------------------------------------------------------------


@pytest.mark.parametrize("q, n, delta", [(5, 3, 0.05), (3, 7, 0.04)])
def test_census_rows_hold_a_good_beta(q, n, delta):
    # some beta has Delta(C beta) > delta, read off the census's exact weights
    res = census_K_le_delta(get_algebra(q, n), delta)
    good = sum(1 for *_, d in res.rows if d > delta)
    assert good and res.count == res.k_star_size - good


# -- support descriptors ----------------------------------------------------------------------------


def test_support_descriptor_bounds(rng):
    # the bounds the census reports as support_bounds_ok, on the criterion-8
    # algebras: random elements and the twisted generator words of the census
    for q, n in ((5, 3), (7, 3), (13, 3), (3, 5), (2, 7), (2, 9), (3, 7), (2, 11), (7, 5)):
        A = get_algebra(q, n)
        kmin = min(c.k for c in A.decompose()[1:])
        kts = codes.kt_fields(A)
        words = [A.random_elem(rng) for _ in range(20)]
        for _ in range(10):
            beta = codes.BetaVector.random(kts, rng)
            unit = beta.unit()
            words += [f * unit for _, f in codes.standard_parts(A)]
        for x in words:
            # ell: the k-sum over the blocks where x has a nonzero component
            ell = sum(c.k for c in A.decompose()[1:] if not c.project(x).is_zero())
            if ell:
                assert kmin <= ell <= (n - 1) // 2, (q, n, ell)


# -- good-n predicates -------------------------------------------------------------------------------


def test_good_n_examples():
    f = good_n_predicates(3, 7)
    assert f.minus1_in_q and f.two_exactly_divides_ord and not f.ord_odd
    f = good_n_predicates(2, 7)
    assert f.ord_odd and not f.minus1_in_q
    f = good_n_predicates(3, 5)
    assert f.minus1_in_q and not f.two_exactly_divides_ord
    with pytest.raises(GcdViolation):
        good_n_predicates(3, 9)


def test_good_n_sequences():
    lcd3 = good_n_sequence(3, 30, "LCD")
    assert 7 in lcd3 and 5 not in lcd3
    so2 = good_n_sequence(2, 30, "SelfOrthogonal")
    assert so2 == list(range(3, 31, 2))
    sd5 = good_n_sequence(5, 12, "SelfDual")
    assert sd5 == [3, 7, 9, 11]
    with pytest.raises(DomainError):
        good_n_sequence(3, 10, "Nope")


def test_good_n_needs_a_prime_power():
    for q in (6, 1, 0, 12):
        with pytest.raises(NotPrime):
            good_n_predicates(q, 5)
        for profile in analysis.PROFILES:
            with pytest.raises(NotPrime):
                good_n_sequence(q, 15, profile)
    # the profile is checked before the loop, so an empty range raises too
    with pytest.raises(DomainError):
        good_n_sequence(3, 2, "Nope")


def test_self_orthogonal_profile_matches_plain_hull():
    # the profile holds exactly the n at which the plain code has hull == k
    for q in (2, 3):
        members = good_n_sequence(q, 15, "SelfOrthogonal")
        for n in range(3, 16, 2):
            if math.gcd(n, q) != 1:
                continue
            code = build_plain_code(get_algebra(q, n))
            assert (n in members) == (codes.hull_dimension(code) == code.k_dim), (q, n)


def test_lcd_profile_matches_lcd_builder():
    # the profile holds exactly the n at which build_lcd_code finds a
    # qualifying block, including blocks of a proper divisor (q = 3, n = 35)
    for q in (3, 7, 11):
        members = good_n_sequence(q, 45, "LCD")
        for n in range(3, 46, 2):
            if math.gcd(n, q) != 1 or mult_order(q, n) > 12:
                continue
            try:
                codes.build_lcd_code(get_algebra(q, n))
                built = True
            except HypothesisUnmet:
                built = False
            assert (n in members) == built, (q, n)
