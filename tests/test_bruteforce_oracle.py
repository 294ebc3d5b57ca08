"""Structure-constant brute force, independent of the library code paths.

Builds the algebra over a prime field directly from the basis {u^i v^j}
and the defining relations, with its own multiplication, bar map, inner
product and row reduction.  Used to check the library's product, bar and
inner product on both algebras (v^2 = +-1), and to certify the corrected
orthogonality facts against an implementation that shares nothing with
cdcodes: every simple left ideal of every matrix block is self-orthogonal,
and the library's block generators multiply to zero with their bar images.
"""

import random

from conftest import get_algebra

from cdcodes.codes import build_Ct


def make_raw_algebra(q, n, v_sq):
    N = 2 * n

    def basis_mul(i, j):
        ei, vi = i % n, i // n
        ej, vj = j % n, j // n
        e = (ei + (ej if vi == 0 else -ej)) % n
        vv = vi + vj
        sign = 1
        if vv >= 2:
            vv -= 2
            sign = v_sq
        return e + n * vv, sign

    table = [[basis_mul(i, j) for j in range(N)] for i in range(N)]

    def mul(x, y):
        z = [0] * N
        for i in range(N):
            if x[i]:
                for j in range(N):
                    if y[j]:
                        k, s = table[i][j]
                        z[k] = (z[k] + s * x[i] * y[j]) % q
        return z

    def bar(x):
        z = [0] * N
        for i in range(n):
            z[(n - i) % n] = x[i]
        for i in range(n):
            z[n + i] = (v_sq * x[n + i]) % q
        return z

    def inner(x, y):
        return sum(a * b for a, b in zip(x, y)) % q

    def rref(rows):
        M = [row[:] for row in rows]
        r = 0
        for c in range(N):
            piv = next((i for i in range(r, len(M)) if M[i][c] % q), None)
            if piv is None:
                continue
            M[r], M[piv] = M[piv], M[r]
            inv = pow(M[r][c], q - 2, q)
            M[r] = [x * inv % q for x in M[r]]
            for i in range(len(M)):
                if i != r and M[i][c] % q:
                    f = M[i][c]
                    M[i] = [(a - f * b) % q for a, b in zip(M[i], M[r])]
            r += 1
        return [row for row in M[:r]]

    def ideal_of(x):
        rows = []
        for i in range(N):
            b = [0] * N
            b[i] = 1
            rows.append(mul(b, x))
        return tuple(tuple(r) for r in rref(rows))

    return mul, bar, inner, ideal_of


def test_raw_relations_match_library():
    # product, bar and inner product on both algebras, prime q, odd n <= 7
    rng = random.Random(5)
    for q in (2, 3, 5, 7):
        for n in (1, 3, 5, 7):
            for v_sq in (-1, 1):
                mul, bar, inner, _ = make_raw_algebra(q, n, v_sq)
                A = get_algebra(q, n, v_sq)
                for _ in range(15):
                    w1 = [rng.randrange(q) for _ in range(2 * n)]
                    w2 = [rng.randrange(q) for _ in range(2 * n)]
                    x, y = A.from_word(w1), A.from_word(w2)
                    assert tuple(mul(w1, w2)) == (x * y).to_word(), (q, n, v_sq)
                    assert tuple(bar(w1)) == x.bar().to_word(), (q, n, v_sq)
                    assert inner(w1, w2) == x.inner(y), (q, n, v_sq)


def test_all_simple_left_ideals_self_orthogonal_raw():
    """At q = 3, n = 7: 27 + 1 simple left ideals in the matrix block, every
    single one self-orthogonal under the plain coordinate inner product."""
    q, n = 3, 7
    mul, bar, inner, ideal_of = make_raw_algebra(q, n, -1)
    N = 2 * n
    # e = 1 - e0; 1/7 = 1 in GF(3)
    e = [((1 if i == 0 else 0) - (1 if i < n else 0)) % q for i in range(N)]
    assert mul(e, e) == e
    assert bar(e) == e
    A1 = ideal_of(e)
    assert len(A1) == 12  # dim M_2(GF(27)) over GF(3)

    rng = random.Random(99)
    ideals = {}
    basis = [list(r) for r in A1]
    for _ in range(4000):
        coeffs = [rng.randrange(q) for _ in basis]
        x = [0] * N
        for c, b in zip(coeffs, basis):
            if c:
                x = [(a + c * bb) % q for a, bb in zip(x, b)]
        ideal = ideal_of(x)
        if len(ideal) == 6:
            ideals[ideal] = True
    assert len(ideals) == 28  # q^k + 1 with q^k = 27
    for ideal in ideals:
        rows = [list(r) for r in ideal]
        assert all(inner(a, b) == 0 for a in rows for b in rows)


def test_library_generator_annihilates_its_bar_raw():
    for q, n in ((3, 7), (7, 3), (3, 5)):
        mul, bar, inner, _ = make_raw_algebra(q, n, -1)
        A = get_algebra(q, n)
        for comp in A.decompose()[1:]:
            f = list(build_Ct(comp).to_word())
            assert all(c == 0 for c in mul(f, bar(f)))
