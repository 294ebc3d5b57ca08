"""The four benchmark workloads: inputs, the timed public call, and checks.

Each workload generates its inputs from the seed, builds what users would
build once (setup), runs one public call per item, turns each output into a
short digest, and checks outputs against recorded references and against
oracles that share no code path with the call being timed.

Why these four (see README.md for the traced layer shares):

* decompose  -- factoring x^n - 1 in the `field` layer dominates; codes,
  linalg enumeration and analysis are idle.
* census     -- factoring is done in setup; `codes.assemble_code` and small
  exhaustive minimum weights dominate.
* hull       -- `linalg` row reduction, nullspace and matmul on the
  two-method hull, with no word enumeration.
* min_weight -- `linalg.enumerate_span` and memory dominate.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

import numpy as np

from cdcodes import algebra, analysis, codes, field

TW = -1  # every workload uses the consta-dihedral algebra (v^2 = -1)


def sha16(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def gen_digest(code) -> str:
    """Digest of the RREF generator: shape and little-endian int64 entries."""
    gen = np.ascontiguousarray(code.gen, dtype="<i8")
    return sha16(repr(gen.shape).encode() + gen.tobytes())


def coset_blocks(q: int, n: int) -> list[tuple[str, int]]:
    """(kind, k_t) of every nontrivial block, from q-cyclotomic cosets alone.

    Independent of the library: a coset C is self-conjugate when -C = C, and
    then k_t = |C| / 2; otherwise C and -C form one paired block, k_t = |C|.
    """
    seen = set()
    out = []
    for s in range(1, n):
        if s in seen:
            continue
        orbit = set()
        x = s
        while x not in orbit:
            orbit.add(x)
            x = x * q % n
        seen |= orbit
        neg = {(-y) % n for y in orbit}
        if neg == orbit:
            out.append(("self_conj", len(orbit) // 2))
        else:
            seen |= neg
            out.append(("paired", len(orbit)))
    return out


def singleton_bound(n_len: int, k: int) -> int:
    return n_len - k + 1


class Workload:
    """Base class; subclasses fill in items, setup, run, digest and oracle."""

    name = ""
    warmup = None  # leading items run once before timing; None means all

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.items: list[tuple] = []
        # calls the trace must see during setup, known without tracing
        self.setup_expect = {"field.factor_calls": 0, "codes.assemble_calls": 0, "codes.hull_calls": 0}

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def key(self, item) -> str:
        raise NotImplementedError

    def digest(self, item, out) -> str:
        raise NotImplementedError

    def oracle(self, item, out, outputs: dict) -> list[str]:
        """Independent checks of one output; returns the list of violations."""
        return []

    def expect(self, item, out) -> dict:
        """Calls the trace must record for this item."""
        return {}


# -- decompose ------------------------------------------------------------------

# (q, n): prime and extension fields, paired and self-conjugate blocks, each
# spending >= 75% of its time factoring x^n - 1, none above ~20% of a pass
# (q=9, n=31 alone would take a third, q=13, n=11 over a quarter; mixed-block
# n such as 15 or 21 are mostly block construction, not factoring).  Item
# times come in steps, so the pooled p50 and p90 are steady only when they fall
# inside one item's samples, not between two items: with 15 items they fall on
# the 8th and 14th slowest.
DECOMPOSE_GRID = [
    (2, 23), (2, 29),
    (3, 19), (3, 23), (3, 31),
    (4, 11), (4, 23),
    (5, 19), (5, 23),
    (7, 13), (7, 17), (7, 29),
    (9, 7), (9, 11),
    (13, 23),
]


class Decompose(Workload):
    """One item: a fresh algebra's decompose() plus decomposition_report()."""

    name = "decompose"

    def __init__(self, seed):
        super().__init__(seed)
        self.items = list(DECOMPOSE_GRID)
        self.rng.shuffle(self.items)

    def setup(self):
        # only field lookup tables may be warm: users pay factoring per algebra
        self.fields = {q: field.field_from_order(q) for q in sorted({q for q, _ in self.items})}
        for F in self.fields.values():
            F.tables()

    def run(self, item):
        q, n = item
        alg = algebra.TwistedDihedralAlgebra(self.fields[q], n, TW)
        alg.decompose()
        report = alg.decomposition_report()
        return report, alg.idempotents().factors

    def key(self, item):
        return "%d/%d" % item

    def digest(self, item, out):
        return sha16(json.dumps(out[0], sort_keys=True).encode())

    def oracle(self, item, out, outputs):
        q, n = item
        report, factors = out
        errs = []
        want = sorted(coset_blocks(q, n))
        got = sorted((b["kind"], b["k"]) for b in report["blocks"][1:])
        if got != want:
            errs.append(f"blocks {got} != cyclotomic cosets {want}")
        if sum(b["dim"] for b in report["blocks"]) != 2 * n:
            errs.append("block dimensions do not sum to 2n")
        if q == field.prime_factors(q)[0]:
            ours = sorted(tuple(f.coeffs) for f in factors)
            if ours != sympy_factors(q, n):
                errs.append("factors of x^n - 1 differ from sympy")
        return errs

    def expect(self, item, out):
        return {"field.factor_calls": 1}


def sympy_factors(p: int, n: int) -> list[tuple[int, ...]]:
    """Monic irreducible factors of x^n - 1 over GF(p), low degree first."""
    import sympy

    x = sympy.symbols("x")
    _, facs = sympy.Poly(x**n - 1, x, modulus=p).factor_list()
    out = []
    for f, mult in facs:
        coeffs = [int(c) % p for c in reversed(f.all_coeffs())]
        inv = pow(coeffs[-1], -1, p)
        out.extend([tuple(c * inv % p for c in coeffs)] * mult)
    return sorted(out)


# -- census ---------------------------------------------------------------------

# acceptance criterion 8: (q, n, deltas, include_C0)
CENSUS_GRID = [
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


class Census(Workload):
    """One item: one census_K_le_delta call on an algebra decomposed in setup.

    A census rebuilds its K_t fields on every call and caches nothing, so
    one warm-up item suffices; a full warm-up pass would double the run.
    """

    name = "census"
    warmup = 1

    def __init__(self, seed):
        super().__init__(seed)
        self.items = [(q, n, d, c0) for q, n, ds, c0 in CENSUS_GRID for d in ds]
        self.rng.shuffle(self.items)

    def setup(self):
        self.algs = {}
        for q, n, _, _ in CENSUS_GRID:
            alg = algebra.TwistedDihedralAlgebra(field.field_from_order(q), n, TW)
            alg.decompose()
            self.algs[q, n] = alg
        self.setup_expect["field.factor_calls"] = len(self.algs)

    def run(self, item):
        q, n, delta, c0 = item
        return analysis.census_K_le_delta(self.algs[q, n], delta, include_C0=c0)

    def key(self, item):
        q, n, delta, c0 = item
        return f"{q}/{n}/{delta}/{'C0' if c0 else '-'}"

    def digest(self, item, out):
        text = "\n".join(out.csv_lines()) + json.dumps(out.summary_json(), sort_keys=True)
        return sha16(text.encode())

    def oracle(self, item, out, outputs):
        q, n, delta, c0 = item
        errs = []
        size = math.prod(q ** (2 * k) - 1 for _, k in coset_blocks(q, n))
        if out.k_star_size != size or len(out.rows) != size:
            errs.append(f"|K*| = {out.k_star_size}, {len(out.rows)} rows; cosets give {size}")
        if [r[0] for r in out.rows] != list(range(len(out.rows))):
            errs.append("row indices are not 0..|K*|-1")
        k = n - 1 + (1 if c0 else 0)
        top = singleton_bound(2 * n, k)
        if any(not 1 <= w <= top or d != w / (2 * n) for _, _, w, d in out.rows):
            errs.append("a minimum weight breaks 1 <= w <= 2n - k + 1 or Delta != w/2n")
        if out.count != sum(1 for r in out.rows if r[3] <= delta + 1e-9):
            errs.append("count disagrees with the rows")
        return errs

    def expect(self, item, out):
        return {"codes.assemble_calls": out.k_star_size}


# -- hull -------------------------------------------------------------------------

# mid-size (q, n) with the families each admits: self-dual where q != 3 mod 4,
# the block family "lcd" where q = 3 mod 4 has an odd-k self-conjugate block
HULL_GRID = [
    (2, 15, ("plain", "self_dual")), (2, 21, ("plain", "self_dual")),
    (3, 7, ("lcd",)), (3, 11, ("plain",)), (3, 13, ("plain",)),
    (4, 9, ("plain", "self_dual")), (4, 11, ("plain", "self_dual")),
    (5, 9, ("plain", "self_dual")), (5, 11, ("plain", "self_dual")),
    (7, 9, ("plain",)), (7, 11, ("plain", "lcd")),
    (9, 7, ("plain", "self_dual")), (13, 7, ("plain", "self_dual")),
]
HULL_TWISTS = 6

# builders are looked up on the module at call time, so traced runs see the wrappers
BUILDERS = {
    "plain": "build_plain_code",
    "self_dual": "build_self_dual_code",
    "lcd": "build_lcd_code",
}


def check_rref(gen) -> bool:
    """Leading entries 1, strictly increasing, alone in their columns."""
    prev = -1
    for i, row in enumerate(gen):
        nz = [j for j, c in enumerate(row) if c]
        if not nz or nz[0] <= prev or row[nz[0]] != 1:
            return False
        prev = nz[0]
        if any(gen[r][prev] for r in range(len(gen)) if r != i):
            return False
    return True


def draw_twist(rng: random.Random, kts) -> tuple[int, ...]:
    return tuple(rng.randrange(1, kt.order) for kt in kts)


class Hull(Workload):
    """One item: a seeded twist, one family builder call and hull_dimension."""

    name = "hull"

    def setup(self):
        self.algs = {}
        self.kts = {}
        for q, n, _ in HULL_GRID:
            alg = algebra.TwistedDihedralAlgebra(field.field_from_order(q), n, TW)
            alg.decompose()
            self.algs[q, n] = alg
            self.kts[q, n] = codes.kt_fields(alg)
        self.setup_expect["field.factor_calls"] = len(self.algs)
        for q, n, fams in HULL_GRID:
            for fam in fams:
                for _ in range(HULL_TWISTS):
                    self.items.append((q, n, fam, draw_twist(self.rng, self.kts[q, n])))
        self.rng.shuffle(self.items)

    def run(self, item):
        q, n, fam, twist = item
        beta = codes.BetaVector(self.kts[q, n], twist)
        code = getattr(codes, BUILDERS[fam])(self.algs[q, n], beta)
        return code, codes.hull_dimension(code)

    def key(self, item):
        q, n, fam, twist = item
        return f"{q}/{n}/{fam}/{'.'.join(map(str, twist))}"

    def digest(self, item, out):
        code, hull = out
        return f"{gen_digest(code)}:{hull}"

    def oracle(self, item, out, outputs):
        q, n, fam, _ = item
        code, hull = out
        errs = []
        # corrected identities: every simple-ideal summand is self-orthogonal,
        # so plain and the block family have hull = k, self-dual hull = n
        want_k = {"plain": n - 1, "self_dual": n}.get(fam, code.k_dim)
        if code.k_dim != want_k or hull != code.k_dim:
            errs.append(f"{fam}: k = {code.k_dim}, hull = {hull}; expected k = hull = {want_k}")
        if not check_rref(code.gen.tolist()):
            errs.append("generator is not in reduced row echelon form")
        return errs

    def expect(self, item, out):
        return {"codes.assemble_calls": 1, "codes.hull_calls": 1}


# -- min_weight ---------------------------------------------------------------------

# (q, n, family, budget or None for the default 2^20); q^k from ~10^3 to 2^20.
# The last entry re-runs the q=2, n=15 plain code past a small explicit
# budget, so the pruned path runs in bounded time and its bracket can be
# checked against the exhaustive value of the same code.  Item times range
# over three decades in steps, so the pooled p50 and p90 are steady only when
# they fall inside one item's samples, not between two items: with 25 items
# they fall on the 13th and 23rd slowest.
MIN_WEIGHT_CODES = [
    (2, 11, "plain", None), (2, 11, "self_dual", None), (2, 13, "plain", None),
    (2, 13, "self_dual", None), (2, 15, "plain", None), (2, 17, "plain", None),
    (2, 17, "self_dual", None), (2, 19, "plain", None), (2, 21, "plain", None),
    (3, 11, "plain", None), (3, 13, "plain", None),
    (4, 5, "self_dual", None), (4, 7, "plain", None), (4, 7, "self_dual", None),
    (4, 9, "plain", None),
    (5, 7, "plain", None), (5, 7, "self_dual", None), (5, 9, "plain", None),
    (7, 5, "plain", None), (9, 5, "plain", None), (9, 5, "self_dual", None),
    (11, 5, "plain", None), (13, 5, "plain", None), (13, 5, "self_dual", None),
    (2, 15, "plain", 5000),
]


class MinWeight(Workload):
    """One item: one analysis.min_weight call on a twisted code built in setup."""

    name = "min_weight"

    def setup(self):
        algs = {}
        self.codes = {}
        for q, n, fam, budget in MIN_WEIGHT_CODES:
            if (q, n) not in algs:
                alg = algebra.TwistedDihedralAlgebra(field.field_from_order(q), n, TW)
                algs[q, n] = (alg, codes.kt_fields(alg))
            if (q, n, fam) not in self.codes:
                alg, kts = algs[q, n]
                twist = draw_twist(self.rng, kts)
                beta = codes.BetaVector(kts, twist)
                self.codes[q, n, fam] = (twist, getattr(codes, BUILDERS[fam])(alg, beta))
            self.items.append((q, n, fam, budget))
        self.setup_expect["field.factor_calls"] = len(algs)
        self.setup_expect["codes.assemble_calls"] = len(self.codes)
        self.rng.shuffle(self.items)

    def run(self, item):
        code = self.codes[item[:3]][1]
        if item[3] is None:
            return analysis.min_weight(code)
        return analysis.min_weight(code, budget=item[3])

    def key(self, item):
        q, n, fam, budget = item
        twist = self.codes[q, n, fam][0]
        return f"{q}/{n}/{fam}/{'.'.join(map(str, twist))}/{budget or 'default'}"

    def digest(self, item, out):
        code = self.codes[item[:3]][1]
        return f"{gen_digest(code)}:{out.method}:{out.min_weight}:{out.lower}:{out.upper}"

    def oracle(self, item, out, outputs):
        q, n, fam, budget = item
        code = self.codes[item[:3]][1]
        errs = []
        rows_min = min(sum(1 for c in row if c) for row in code.gen.tolist())
        if out.method == analysis.EXHAUSTIVE:
            if not (out.lower == out.min_weight == out.upper and 1 <= out.min_weight <= rows_min):
                errs.append(f"exhaustive weight {out.min_weight} not in [1, {rows_min}] or bracket open")
            if out.min_weight > singleton_bound(code.n_len, code.k_dim):
                errs.append("exhaustive weight exceeds the Singleton bound")
        else:
            exact = outputs.get((q, n, fam, None))
            if exact is None or not out.lower <= exact.min_weight <= out.upper:
                got = None if exact is None else exact.min_weight
                errs.append(f"pruned bracket [{out.lower}, {out.upper}] misses exhaustive {got}")
        return errs


WORKLOADS = {w.name: w for w in (Decompose, Census, Hull, MinWeight)}
