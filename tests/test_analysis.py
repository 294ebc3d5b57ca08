import functools
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
from oracles import enumerate_beta, first_nonzero_weight, random_elem, span_weights, unit

from cdcodes import analysis, codes, linalg
from cdcodes.algebra import TRIVIAL_SPLIT, TwistedDihedralAlgebra
from cdcodes.analysis import (
    balanced_check,
    census_K_le_delta,
    entropy_q,
    good_n_predicates,
    good_n_sequence,
    is_left_ideal,
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
    assert rep.min_weight == 6 and rep.lower == rep.upper
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
    code = codes.build_lcd_code(A)  # [14, 6] over GF(3): 3^6 = 729 words
    exact = min_weight(code)
    assert exact.method == analysis.EXHAUSTIVE
    # 200 words cover layers 1 and 2 (12 + 60 messages) but not layer 3
    pruned = min_weight(code, budget=200)
    assert pruned.method == analysis.PRUNED
    assert pruned.lower <= exact.min_weight <= pruned.upper
    # q^k - 1 words cover every nonzero message: the pruned path is exact
    full_pruned = min_weight(code, budget=3**6 - 1)
    assert full_pruned.method == analysis.PRUNED
    assert full_pruned.lower == full_pruned.upper and full_pruned.min_weight == exact.min_weight


@pytest.mark.parametrize("budget", [0, -5])
def test_min_weight_rejects_budget_below_one(budget):
    A = get_algebra(2, 7)
    code = build_plain_code(A)
    with pytest.raises(DomainError, match="at least 1"):
        min_weight(code, budget=budget)
    with pytest.raises(DomainError, match="at least 1"):
        balanced_check(A, code, deltas=(0.2,), budget=budget)


def refuse_distribution(monkeypatch):
    def refuse(*args):
        raise AssertionError("the exhaustive min_weight counted a weight distribution")

    monkeypatch.setattr(linalg, "weight_distribution", refuse)


def test_exhaustive_min_weight_memory_is_bounded(monkeypatch):
    # q^k = 2^20 binary words of length 42 (one packed lane): all of them as
    # int64 would take 336 MiB; and 3^12 ternary words of length 70, which
    # fill three lanes of 32 coordinates (284 MiB as int64).  The weights go
    # straight to their minimum, never through weight_distribution
    ternary = np.random.default_rng(0).integers(0, 3, (12, 70))
    cases = [build_plain_code(get_algebra(2, 21)), LinearCode.from_rows(field_from_order(3), ternary)]
    expected = [first_nonzero_weight(linalg.weight_distribution(c.field, c.gen)) for c in cases]
    refuse_distribution(monkeypatch)
    for code, want in zip(cases, expected):
        assert code.field.q**code.k_dim >= 3**12
        code.field.tables()
        tracemalloc.start()
        try:
            rep = min_weight(code)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.method == analysis.EXHAUSTIVE and rep.lower == rep.upper and rep.min_weight == want
        assert peak <= 16 * 2**20, f"q = {code.field.q}: peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize(
    "q, n, family",
    [(2, 9, "plain"), (3, 7, "lcd"), (4, 5, "self_dual"), (5, 7, "plain"), (9, 5, "plain"), (16, 3, "plain")],
)
def test_exhaustive_min_weight_reads_no_distribution(monkeypatch, q, n, family):
    # the minimum comes from linalg.min_nonzero_weight; the span oracle checks it
    code = getattr(codes, f"build_{family}_code")(get_algebra(q, n))
    want = first_nonzero_weight(span_weights(code.field, code.gen))
    refuse_distribution(monkeypatch)
    rep = min_weight(code)
    assert rep.method == analysis.EXHAUSTIVE
    assert (rep.min_weight, rep.lower, rep.upper) == (want, want, want)
    assert rep.relative_distance == Fraction(want, code.n_len)


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
    return (best if w == k else min(best, w + 1)), best


@pytest.mark.parametrize(
    "q, n, family",
    [
        (2, 9, "plain"),
        (3, 7, "lcd"),
        (4, 5, "self_dual"),
        (5, 7, "plain"),
        (9, 5, "plain"),
        (3, 5, "plain"),
        (8, 5, "plain"),
        (16, 3, "plain"),
    ],
)
def test_pruned_brackets_match_per_word_loop(q, n, family):
    code = getattr(codes, f"build_{family}_code")(get_algebra(q, n))
    k = code.k_dim
    layers = [math.comb(k, w) * (q - 1) ** w for w in range(1, k + 1)]
    # after layer 1, mid-way (half the layers and a word over), every word
    for budget in (layers[0], sum(layers[: k // 2]) + 1, q**k - 1):
        rep = min_weight(code, budget=budget)
        assert rep.method == analysis.PRUNED
        assert (rep.lower, rep.upper) == reference_pruned_bracket(code, budget), budget
    exact = min_weight(code)
    assert exact.method == analysis.EXHAUSTIVE
    assert rep.lower == rep.upper and rep.min_weight == exact.min_weight


def test_pruned_brackets_match_per_word_loop_on_two_lanes():
    # the [42, 20] plain code over GF(8) has 22 non-pivot columns, more than
    # the 21 three-bit fields of a lane, so every packed word takes two lanes;
    # budgets of one and two layers keep the per-word loop short
    code = build_plain_code(get_algebra(8, 21))
    k = code.k_dim
    assert code.n_len - k > 64 // 3
    layers = [math.comb(k, w) * 7**w for w in (1, 2)]
    for budget in (layers[0], sum(layers)):
        rep = min_weight(code, budget=budget)
        assert rep.method == analysis.PRUNED
        assert (rep.lower, rep.upper) == reference_pruned_bracket(code, budget), budget


@pytest.mark.parametrize("chunk", [8, linalg.SPAN_CHUNK])
@pytest.mark.parametrize("k, q, w", [(5, 2, 2), (4, 3, 3), (4, 13, 4), (6, 4, 1)])
def test_layer_messages_are_the_weight_layer(monkeypatch, chunk, k, q, w):
    # the runs of the layer walk stand for one message of each scalar class
    # of the weight-w layer, every support of a run with every value tuple;
    # (4, 13, 4) has 12^3 > chunk value tuples per support at chunk 8
    monkeypatch.setattr(linalg, "SPAN_CHUNK", chunk)
    runs = list(linalg._layer_runs(k, q, w))
    assert all(len(sup) * len(vals) <= chunk for sup, vals in runs)
    got = []
    for sup, vals in runs:
        for support in sup.tolist():
            for values in vals.tolist():
                m = [0] * k
                for i, c in zip(support, values):
                    m[i] = c
                got.append(tuple(m))
    assert all(sum(1 for c in m if c) == w and next(c for c in m if c) == 1 for m in got)
    yielded = set(got)
    assert len(got) == len(yielded) == math.comb(k, w) * (q - 1) ** (w - 1)
    F = field_from_order(q)
    mul = F.tables().mul
    classes = Counter()
    for m in itertools.product(range(q), repeat=k):
        if sum(1 for c in m if c) == w:
            multiples = {tuple(int(mul[a, c]) for c in m) for a in range(1, q)}
            hits = multiples & yielded
            assert len(hits) == 1, m
            classes[hits.pop()] += 1
    assert set(classes) == yielded and set(classes.values()) == {q - 1}


def combinations_table(k, w):
    rows = list(itertools.combinations(range(k), w))
    return np.array(rows, dtype=np.int64).reshape(len(rows), w)


def test_combinations_match_itertools():
    for m in range(15):
        for w in range(m + 1):
            assert np.array_equal(linalg._combinations(m, w), combinations_table(m, w)), (m, w)
    for w in (0, 1, 2, 3, 18, 19, 20, 21):
        assert np.array_equal(linalg._combinations(21, w), combinations_table(21, w)), w


@pytest.mark.parametrize("chunk", [1, 16, linalg.SPAN_CHUNK])
def test_support_blocks_are_combinations_in_blocks(monkeypatch, chunk):
    # every block holds at most chunk supports, and together they are the
    # combinations in order; at chunk 16, C(8, 3) = 56 supports cross block
    # boundaries inside the runs of a first index (C(7, 2) = 21 > 16)
    monkeypatch.setattr(linalg, "SPAN_CHUNK", chunk)
    for k in range(13):
        for w in range(k + 1):
            blocks = list(linalg._support_blocks(0, k, w))
            assert all(0 < len(b) <= chunk for b in blocks), (k, w)
            assert np.array_equal(np.concatenate(blocks), combinations_table(k, w)), (k, w)
    if chunk == 16:
        sizes = [len(b) for b in linalg._support_blocks(0, 8, 3)]
        assert sizes == [6, 5, 4, 3, 2, 1, 15, 10, 6, 3, 1]


def test_pruned_upper_starts_at_lightest_row():
    # budget 3 is below layer 1 (k(q-1) = 6 messages): no message is expanded,
    # yet every generator row is a codeword
    code = build_plain_code(get_algebra(2, 7))
    rep = min_weight(code, budget=3)
    lightest = int(np.count_nonzero(code.gen, axis=1).min())
    assert (rep.method, rep.lower, rep.upper) == (analysis.PRUNED, 1, lightest)
    assert lightest < code.n_len


def test_pruned_min_weight_memory_is_bounded():
    # the default bracket of the [62, 30] binary plain code walks six weight
    # layers, 768,211 words, which would take 363 MiB as int64 words; the
    # layer runs hold at most SPAN_CHUNK words
    code = build_plain_code(get_algebra(2, 31))
    code.field.tables()
    tracemalloc.start()
    try:
        rep = min_weight(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.method, rep.lower, rep.upper) == (analysis.PRUNED, 7, 8)
    assert peak <= 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("q, k", [(2, 12), (3, 8), (4, 6)])
def test_pruned_full_space_has_no_free_columns(q, k):
    # the whole space F_q^k: no non-pivot column, and every layer's words
    # weigh their message's weight alone
    code = LinearCode.from_rows(field_from_order(q), np.eye(k, dtype=np.int64))
    for budget in (5, 100, q**k - 1):
        rep = min_weight(code, budget=budget)
        assert (rep.method, rep.lower, rep.upper) == (analysis.PRUNED, 1, 1)


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


def test_balance_census_over_budget_raises():
    # the plain q = 3, n = 7 code is [14, 6]: its census weighs 3^6 = 729 words
    A = get_algebra(3, 7)
    code = build_plain_code(A)
    with pytest.raises(BudgetExceeded, match=r"q\^k = 3\^6 = 729 words, over the budget 728"):
        balanced_check(A, code, deltas=(0.2,), budget=728)
    assert balanced_check(A, code, budget=728).census_checks == []  # no deltas, no census
    assert len(balanced_check(A, code, deltas=(0.2,), budget=729).census_checks) == 1


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
    lines = list(res.csv_lines())
    assert lines[0] == "beta_index,beta_codes,min_weight,delta"
    assert len(lines) == 25
    s = res.summary_json()
    assert s["q"] == 5 and s["n"] == 3 and s["count"] == res.count


def test_census_budget():
    A = get_algebra(7, 11)  # |K*| = 7^10 - 1
    with pytest.raises(BudgetExceeded):
        census_K_le_delta(A, delta=0.3, k_star_budget=1000)
    for budget in (0, -1):  # invalid input, not a budget that |K*| exceeds
        with pytest.raises(DomainError, match="at least 1"):
            census_K_le_delta(get_algebra(7, 3), delta=0.2, k_star_budget=budget)


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


def test_census_weights_are_exact_or_raise(monkeypatch):
    # q^k = 49 words exceed a budget of 10: the census must not read the
    # pruned bracket's upper end as the weight
    A = get_algebra(7, 3)
    with monkeypatch.context() as m:
        m.setattr(analysis, "DEFAULT_WORD_BUDGET", 10)
        with pytest.raises(BudgetExceeded, match=r"q\^k = 49 exceeds the budget 10"):
            census_K_le_delta(A, delta=0.5)
        # the budget is checked after assembly: a missing C_0 is reported first
        with pytest.raises(HypothesisUnmet):
            census_K_le_delta(A, delta=0.5, include_C0=True)
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
        codes.assemble_code(A, parts, a0="C0" if include_C0 else None, beta=beta).key()
        for beta in enumerate_beta(kts)
    )
    assert len(seen) == res.distinct_codes
    assert set(seen.values()) == {math.prod(f - 1 for f in f_orders)}
    assert "distinct_codes" not in res.summary_json()
    assert next(res.csv_lines()) == "beta_index,beta_codes,min_weight,delta"


def _fresh(q, n, tw=-1):
    """An algebra of its own, so no census of another test has cached its
    class tables."""
    return TwistedDihedralAlgebra(field_from_order(q), n, tw)


@functools.cache
def _per_beta_weights(q, n, tw, include_C0):
    """Every beta's codes and weight, each beta's code assembled on its own
    (no class table) and weighed exhaustively once per generator matrix, a
    weight being a function of it; and the number of distinct matrices.
    Cached by its arguments: the oracle is deterministic, and several tests
    compare with it at several deltas."""
    A = get_algebra(q, n, tw)
    kts = codes.kt_fields(A)
    parts = codes.standard_parts(A)
    weights = {}
    rows = []
    for beta in enumerate_beta(kts):
        code = codes.assemble_code(A, parts, a0="C0" if include_C0 else None, beta=beta)
        key = code.key()
        if key not in weights:
            rep = min_weight(code)
            assert rep.method == analysis.EXHAUSTIVE
            weights[key] = rep.min_weight
        rows.append((beta.codes, weights[key]))
    return tuple(rows), len(weights)


def _per_beta_census(A, delta, include_C0):
    """A's census without the class table, from _per_beta_weights (the
    algebra is determined by q, n and v^2)."""
    weighed, distinct = _per_beta_weights(A.field.q, A.n, A.tw, include_C0)
    n_len = 2 * A.n
    rows = [(idx, beta, w, w / n_len) for idx, (beta, w) in enumerate(weighed)]
    count = sum(1 for *_, d in rows if d <= delta + analysis.FLOAT_SLACK)
    hypothesis, exponent, bound = analysis.census_bound(
        A.field.q, A.n, A.lambda_(), delta, len(rows), hatted=include_C0
    )
    return analysis.CensusResult(
        A.field.q, A.n, delta, include_C0, len(rows), count, hypothesis, exponent, bound, rows, distinct
    )


def _outputs(res):
    """What a census exports: its CSV lines and its JSON summary."""
    return list(res.csv_lines()), json.dumps(res.summary_json())


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
    assert list(res.csv_lines()) == list(oracle.csv_lines())
    assert json.dumps(res.summary_json()) == json.dumps(oracle.summary_json())
    assert res.distinct_codes == oracle.distinct_codes


@pytest.mark.parametrize("q, n, tw", ORACLE_GRID)
def test_census_on_a_used_algebra_equals_a_fresh_one(q, n, tw):
    # the class table one census caches serves the next at another delta and
    # is kept apart per A_0 choice: in either order of the choices, every
    # census equals a fresh algebra's census and the per-beta oracle
    choices = [False, True] if _fresh(q, n, tw).decompose()[0].kind == TRIVIAL_SPLIT else [False]
    deltas = (0.2, 0.4)
    want = {}
    for include_C0 in choices:
        for delta in deltas:
            res = census_K_le_delta(_fresh(q, n, tw), delta, include_C0=include_C0)
            want[include_C0, delta] = _outputs(res)
            assert want[include_C0, delta] == _outputs(_per_beta_census(get_algebra(q, n, tw), delta, include_C0))
    for order in (choices, choices[::-1]):
        A = _fresh(q, n, tw)
        for include_C0 in order:
            for delta in deltas:
                assert _outputs(census_K_le_delta(A, delta, include_C0=include_C0)) == want[include_C0, delta]


def _class_codes(A, a0):
    """The code of every twist class, one per line [a : b] in each block:
    assembled from the first unit code on each line (KtField.class_ids)."""
    kts = codes.kt_fields(A)
    firsts = [1 + np.unique(kt.class_ids()[1:], return_index=True)[1] for kt in kts]
    parts = codes.standard_parts(A)
    return [
        codes.assemble_code(A, parts, a0=a0, beta=codes.BetaVector(kts, rep))
        for rep in itertools.product(*[f.tolist() for f in firsts])
    ]


@pytest.mark.parametrize("q, n", [(5, 3), (5, 7), (9, 5), (13, 3), (13, 5), (17, 3)])
def test_root_of_minus_1_maps_the_dihedral_census_onto_the_consta_census(q, n):
    # i = -r, r^2 = -1 the root of build_C0 on v^2 = -1: w = i v has w^2 = 1
    # and w u = u^-1 w, so a + b v -> a + (i b) v, on words diag(1, i), is an
    # isomorphism of v^2 = +1 onto v^2 = -1 that keeps Hamming weights
    minus, plus = get_algebra(q, n, -1), get_algebra(q, n, 1)
    F = minus.field
    i = F.neg(minus.decompose()[0].r)
    assert F.mul(i, i) == F.neg(1)

    def mapped(words):
        words = np.array(words, dtype=np.int64)
        words[:, n:] = F.tables().mul[i, words[:, n:]]
        return LinearCode.from_rows(F, words)

    c0_plus, c0_minus = (codes.build_C0(A.decompose()[0]) for A in (plus, minus))
    assert mapped([c0_plus.word]) == LinearCode.from_rows(F, c0_minus.word)
    for a0 in (None, "C0"):
        images = [mapped(code.gen) for code in _class_codes(plus, a0)]
        assert all(is_left_ideal(minus, code) for code in images)
        assert {c.key() for c in images} == {c.key() for c in _class_codes(minus, a0)}
        censuses = [census_K_le_delta(A, 0.3, include_C0=a0 == "C0") for A in (plus, minus)]
        assert censuses[0].count == censuses[1].count
        assert Counter(r[2] for r in censuses[0].rows) == Counter(r[2] for r in censuses[1].rows)


@pytest.mark.parametrize("q, n, include_C0", [(3, 7, False), (2, 9, True), (4, 7, False)])
def test_census_calls_assemble_code_per_beta_rref_once_and_rref_stack_per_chunk(monkeypatch, q, n, include_C0):
    # on an algebra with its untwisted RREF cached, the first census
    # assembles the first beta alone (one rref); the other classes come from
    # one rref_stack per chunk of SPAN_CHUNK // 2n classes.  A second census
    # reads the cached class table: no rref and no rref_stack.  Every beta
    # calls assemble_code once in both
    want = census_K_le_delta(_fresh(q, n), delta=0.2, include_C0=include_C0)
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(analysis, "assemble_code", counting("assemble", analysis.assemble_code))
    monkeypatch.setattr(linalg, "rref", counting("rref", linalg.rref))
    monkeypatch.setattr(linalg, "rref_stack", counting("rref_stack", linalg.rref_stack))
    stacks = []
    for chunk in (linalg.SPAN_CHUNK, 64):
        monkeypatch.setattr(linalg, "SPAN_CHUNK", chunk)
        A = _fresh(q, n)
        A.ideal_rref(codes._generators(A, codes.standard_parts(A), "C0" if include_C0 else None)[0])
        classes = math.prod(kt.comp.ft.order + 1 for kt in codes.kt_fields(A))
        for hit in (False, True):
            calls.clear()
            res = census_K_le_delta(A, delta=0.2, include_C0=include_C0)
            assert res.rows == want.rows and res.distinct_codes == classes
            assert calls["assemble"] == res.k_star_size
            assert calls["rref"] == (0 if hit else 1)
            assert calls["rref_stack"] == (0 if hit else -(-classes // (chunk // (2 * n))))
            stacks.append(calls["rref_stack"])
    assert stacks[2] > 1  # the first census at chunk 64 took several


@pytest.mark.parametrize("q, n, include_C0", [(3, 7, False), (2, 9, True)])
def test_census_builds_a_linear_code_per_class_not_per_beta(monkeypatch, q, n, include_C0):
    # the first census builds the first code and one memo entry per class,
    # and the per-beta memo hits return the memo's code itself; a second
    # census builds no code at all
    A = _fresh(q, n)
    classes = math.prod(kt.comp.ft.order + 1 for kt in codes.kt_fields(A))
    built = Counter()
    init = codes.LinearCode.__init__

    def counting(self, *args, **kwargs):
        built["code"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(codes.LinearCode, "__init__", counting)
    res = census_K_le_delta(A, delta=0.2, include_C0=include_C0)
    assert res.k_star_size > classes + 1
    assert 0 < built["code"] <= classes + 1
    built.clear()
    assert census_K_le_delta(A, delta=0.3, include_C0=include_C0).distinct_codes == classes
    assert built["code"] == 0


@pytest.mark.parametrize("q, n, include_C0", TWIST_CLASS_GRID)
def test_census_calls_assemble_code_once_per_beta_on_a_miss_and_on_a_hit(monkeypatch, q, n, include_C0):
    # a census that builds its class table assembles the first beta and
    # looks up the other |K*| - 1; a census that finds it looks up all |K*|
    real = analysis.assemble_code
    calls = []

    def counting(*args, **kwargs):
        calls.append("lookup" if kwargs.get("memo") is not None else "assembly")
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "assemble_code", counting)
    A = _fresh(q, n)
    for delta, assembled in ((0.1, 1), (0.3, 0), (0.1, 0)):
        calls.clear()
        res = census_K_le_delta(A, delta, include_C0=include_C0)
        assert Counter(calls) == Counter({"assembly": assembled, "lookup": res.k_star_size - assembled})
        assert calls[0] == ("assembly" if assembled else "lookup")


def test_census_checks_its_budgets_and_c0_on_a_cache_hit(monkeypatch):
    # (7, 3) on v^2 = -1 has no C_0 and |K*| = 48 codes of q^k = 49 words
    A = _fresh(7, 3)
    first = census_K_le_delta(A, delta=0.5)  # caches the class table without C_0
    with monkeypatch.context() as m:
        m.setattr(analysis, "DEFAULT_WORD_BUDGET", 10)  # read at call time
        with pytest.raises(BudgetExceeded, match=r"q\^k = 49 exceeds the budget 10"):
            census_K_le_delta(A, delta=0.3)
        with pytest.raises(HypothesisUnmet):
            census_K_le_delta(A, delta=0.5, include_C0=True)
        with pytest.raises(BudgetExceeded, match=r"\|K\*\| = 48 exceeds the census budget 47"):
            census_K_le_delta(A, delta=0.5, include_C0=True, k_star_budget=47)
    with pytest.raises(HypothesisUnmet):
        census_K_le_delta(A, delta=0.5, include_C0=True)
    with pytest.raises(BudgetExceeded, match=r"\|K\*\| = 48 exceeds the census budget 47"):
        census_K_le_delta(A, delta=0.5, k_star_budget=47)
    assert _outputs(census_K_le_delta(A, delta=0.5)) == _outputs(first)


def test_census_class_pass_memory_is_bounded():
    # 2000 twists at (2, 21): their L(beta) stack alone would take 27 MiB as
    # int64, and the pass in one chunk peaks near 106 MiB; a chunk of
    # SPAN_CHUNK // 42 = 97 twists peaks near 6 MiB
    A = get_algebra(2, 21)
    kts = codes.kt_fields(A)
    parts = codes.standard_parts(A)
    rng = np.random.default_rng(21)
    beta_codes = np.stack([rng.integers(1, kt.order, 2000) for kt in kts], axis=1)
    for kt in kts:
        kt.basis_words()  # built on the first call
    list(codes.assemble_stack(A, parts, None, kts, beta_codes[:1]))  # caches the untwisted RREF
    tracemalloc.start()
    try:
        sizes = []
        for s, R in codes.assemble_stack(A, parts, None, kts, beta_codes):
            sizes.append(len(R))
            if s == 0:
                first = R[0].copy()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(sizes) == 2000 and max(sizes) == linalg.SPAN_CHUNK // 42
    beta = codes.BetaVector(kts, beta_codes[0])
    assert np.array_equal(first, codes.assemble_code(A, parts, beta=beta).gen)
    assert peak <= 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_builders_hull_and_min_weight_build_no_class_table(monkeypatch, rng):
    def no_table(self):
        raise AssertionError("class table built")

    monkeypatch.setattr(codes.KtField, "class_ids", no_table)
    for q, n in ((3, 7), (5, 3), (2, 9), (11, 3)):
        A = _fresh(q, n)
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
        census_K_le_delta(_fresh(5, 3), delta=0.4)


@pytest.mark.parametrize("fault", ["merge", "split", "shift"])
def test_census_rejects_a_class_table_that_merges_or_splits(monkeypatch, fault):
    # the census checks prod(|F_t| + 1) classes with pairwise distinct codes,
    # and that every class id is a digit of its class number
    real = codes.KtField.class_ids

    def faulty(self):
        ids = list(real(self))
        if fault == "merge":  # the class of code 1 swallows another
            other = next(i for i in ids[1:] if i != ids[1])
            return [ids[1] if i == other else i for i in ids]
        if fault == "shift":  # the same classes, with ids 1 .. |F_t| + 1
            return [i + 1 if i >= 0 else i for i in ids]
        twin = next(c for c in range(2, len(ids)) if ids[c] == ids[1])
        ids[twin] = max(ids) + 1  # one code of code 1's class gets an id of its own
        return ids

    A = _fresh(3, 7)
    with monkeypatch.context() as m:
        m.setattr(codes.KtField, "class_ids", faulty)
        with pytest.raises(AssertionError, match="twist class"):
            census_K_le_delta(A, delta=0.2)
    # the rejected table was not cached: with the real table the same
    # algebra's census is the per-beta oracle's
    assert _outputs(census_K_le_delta(A, delta=0.2)) == _outputs(_per_beta_census(A, 0.2, False))


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
        words = [random_elem(A, rng) for _ in range(20)]
        for _ in range(10):
            beta = codes.BetaVector.random(kts, rng)
            words += [f * unit(beta) for _, f in codes.standard_parts(A)]
        for x in words:
            # ell: the k-sum over the blocks where x has a nonzero component
            ell = sum(c.k for c in A.decompose()[1:] if not (c.identity * x).is_zero())
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
