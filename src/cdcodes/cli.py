"""Command-line interface: decompose, construct, analyze, verify-paper.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 hypothesis unmet, 4 budget exceeded.  All randomized paths require an
explicit --seed; identical configurations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import analysis, codes, dihedral
from .algebra import SELF_CONJ, TwistedDihedralAlgebra
from .codes import BetaVector, LinearCode
from .errors import (
    BudgetExceeded,
    CdcodesError,
    DimensionMismatch,
    DomainError,
    GcdViolation,
    HypothesisUnmet,
)
from .field import field_from_order

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INVALID = 2
EXIT_HYPOTHESIS = 3
EXIT_BUDGET = 4


FAMILIES = {
    "self-dual": codes.build_self_dual_code,
    "lcd": codes.build_lcd_code,
    "plain": codes.build_plain_code,
}

ANALYZE_CHECKS = ("min-weight", "hull", "balance")

# the q grid of verify-paper's small-grid checks
PAPER_QS = (2, 3, 4, 5, 7, 9, 13)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cdcodes", description=__doc__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--q", type=int, required=True, help="field size as a prime power")
        sp.add_argument("--n", type=int, required=True, help="odd cyclic order n")
        sp.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
        sp.add_argument("--out", help="output path (default stdout)")

    d = sub.add_parser("decompose", help="block decomposition of the algebra")
    common(d)
    d.add_argument("--dihedral", action="store_true", help="use v^2 = +1")
    d.set_defaults(func=cmd_decompose)

    c = sub.add_parser("construct", help="construct a code family member")
    common(c)
    c.add_argument("--family", choices=tuple(FAMILIES), default="plain")
    c.add_argument("--beta", default="identity", help="identity | random | comma-separated codes")
    c.add_argument("--seed", type=int)
    c.add_argument("--include-a0", action="store_true", help="adjoin the whole trivial block (lcd family)")
    c.set_defaults(func=cmd_construct)

    a = sub.add_parser("analyze", help="analyze a generator matrix file")
    a.add_argument("infile", help="generator matrix in the text format")
    a.add_argument("--checks", default=",".join(ANALYZE_CHECKS))
    a.add_argument("--delta", type=float, default=None)
    a.add_argument("--budget", type=int, default=analysis.DEFAULT_WORD_BUDGET)
    a.add_argument("--v-squared", dest="v_squared", type=int, choices=(-1, 1), default=-1)
    a.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    a.add_argument("--out", help="output path (default stdout)")
    a.set_defaults(func=cmd_analyze)

    v = sub.add_parser("verify-paper", help="run the fixed verification suite")
    v.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    v.add_argument("--out", help="output path (default stdout)")
    v.set_defaults(func=cmd_verify_paper)
    return ap


def _emit(out: Optional[str], text: str):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_beta(alg: TwistedDihedralAlgebra, spec: str, seed: Optional[int]) -> Optional[BetaVector]:
    kts = codes.kt_fields(alg)
    if spec == "identity":
        return None
    if spec == "random":
        if seed is None:
            raise DomainError("--beta random requires --seed")
        import random as _random

        return BetaVector.random(kts, _random.Random(seed))
    try:
        vals = [int(x) for x in spec.split(",")]
    except ValueError:
        raise DomainError(f"unparseable beta spec {spec!r}")
    return BetaVector(kts, vals)


def cmd_decompose(ns: argparse.Namespace) -> int:
    alg = TwistedDihedralAlgebra(field_from_order(ns.q), ns.n, 1 if ns.dihedral else -1)
    report = alg.decomposition_report()
    ksum = sum(b.get("k", 0) for b in report["blocks"])
    report["k_sum"] = ksum
    report["k_sum_matches_(n-1)/2"] = 2 * ksum == ns.n - 1
    report["all_2k_at_least_lambda"] = all(
        2 * b["k"] >= report["lambda"] for b in report["blocks"] if "k" in b
    )
    if ns.fmt == "json":
        _emit(ns.out, json.dumps(report, indent=2) + "\n")
    else:
        lines = [f"q={report['q']} n={report['n']} v^2={report['v_squared']} lambda={report['lambda']}"]
        for b in report["blocks"]:
            extra = f" k={b['k']}" if "k" in b else ""
            if "r" in b:
                extra += f" r={b['r']}"
            lines.append(f"  A_{b['t']}: {b['kind']} dim={b['dim']}{extra}")
        lines.append(
            f"  sum k_t = {ksum} ({'OK' if report['k_sum_matches_(n-1)/2'] else 'MISMATCH'}),"
            f" 2k_t >= lambda: {'OK' if report['all_2k_at_least_lambda'] else 'VIOLATED'}"
        )
        _emit(ns.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_construct(ns: argparse.Namespace) -> int:
    options = {}
    if ns.include_a0:
        if ns.family != "lcd":
            raise DomainError("--include-a0 applies only to --family lcd")
        options["include_a0"] = True
    if ns.seed is not None and ns.beta != "random":
        raise DomainError("--seed applies only to --beta random")
    alg = TwistedDihedralAlgebra(field_from_order(ns.q), ns.n, -1)
    beta = _parse_beta(alg, ns.beta, ns.seed)
    code = FAMILIES[ns.family](alg, beta=beta, **options)
    hull = codes.hull_dimension(code)
    if hull == code.k_dim:
        verdict = "self-dual" if 2 * code.k_dim == code.n_len else "self-orthogonal"
    else:
        verdict = "lcd" if hull == 0 else "mixed"
    stamp = {
        "family": ns.family,
        "n_len": code.n_len,
        "k_dim": code.k_dim,
        "hull": hull,
        "verdict": verdict,
        "beta": ns.beta,
        "seed": ns.seed,
    }
    if ns.fmt == "json":
        payload = code.to_json_dict()
        payload["stamp"] = stamp
        _emit(ns.out, json.dumps(payload, indent=2) + "\n")
    else:
        _emit(ns.out, code.to_text())
        sys.stderr.write("stamp: " + json.dumps(stamp) + "\n")
    return EXIT_OK


def cmd_analyze(ns: argparse.Namespace) -> int:
    checks = [c.strip() for c in ns.checks.split(",") if c.strip()]
    unknown = [c for c in checks if c not in ANALYZE_CHECKS]
    if unknown or not checks:
        named = f"unknown check(s) {', '.join(unknown)}" if unknown else "no check named"
        raise DomainError(f"{named}; valid names: {', '.join(ANALYZE_CHECKS)}")
    if ns.delta is not None and "balance" not in checks:
        raise DomainError("--delta applies only to --checks balance")
    try:
        with open(ns.infile) as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise DimensionMismatch("malformed generator matrix file") from None
    code = LinearCode.from_text(text)
    n = code.n_len // 2
    if ns.budget < 1:
        raise DomainError(f"--budget must be at least 1, got {ns.budget}")
    report: dict = {"q": code.field.q, "n_len": code.n_len, "k_dim": code.k_dim}
    if "min-weight" in checks:
        rep = analysis.min_weight(code, budget=ns.budget)
        report["min_weight"] = {
            "value": rep.min_weight,
            "lower": rep.lower,
            "upper": rep.upper,
            "method": rep.method,
            "relative_distance": float(rep.relative_distance),
            "rate": float(rep.rate),
        }
    if "hull" in checks:
        hull = codes.hull_dimension(code)
        report["hull"] = hull
        report["lcd"] = hull == 0
        report["self_orthogonal"] = hull == code.k_dim
        report["self_dual"] = hull == code.k_dim and 2 * code.k_dim == code.n_len
    if "balance" in checks:
        alg = TwistedDihedralAlgebra(code.field, n, ns.v_squared)
        deltas = (ns.delta,) if ns.delta is not None else ()
        bal = analysis.balanced_check(alg, code, deltas=deltas, budget=ns.budget)
        report["balance"] = {
            "balanced": bal.balanced,
            "multiplicity": bal.multiplicity,
            "census": bal.census_checks,
        }
    if ns.fmt == "json":
        _emit(ns.out, json.dumps(report, indent=2) + "\n")
    else:
        _emit(ns.out, "\n".join(f"{k}: {v}" for k, v in report.items()) + "\n")
    return EXIT_OK


def _paper_checks() -> list[tuple[str, bool, str]]:
    """The fixed verification suite; returns (name, passed, detail) triples."""
    results = []

    rep = dihedral.counterexample_check()
    results.append(
        (
            "counterexample(q=7,n=3)",
            rep.ok,
            f"C barD = 0: {rep.c_bar_d_zero}, <C,D> = 0: {rep.inner_cd_zero}, "
            f"barD C != 0: {rep.bar_d_c_nonzero}",
        )
    )

    alg37 = TwistedDihedralAlgebra(field_from_order(7), 3, 1)
    count = dihedral.count_Cab_codes(alg37)
    results.append(
        (
            "counting(q=7,n=3)",
            count.verified and count.total_observed == 8 and count.lcd_observed == 6,
            f"total {count.total_observed}/8, lcd {count.lcd_observed}/6",
        )
    )

    # the inner-product dichotomy on self-conjugate blocks, as stated:
    # <C_t b, C_t b> = 0 iff q even or 4 | (q^k - 1); decompose() runs
    # conj_pairing, which asserts both conjugation criteria on the same grid
    dichotomy_ok = True
    dichotomy_notes = []
    conj_ok = True
    for q in PAPER_QS:
        for n in range(3, 16, 2):
            try:
                alg = TwistedDihedralAlgebra(field_from_order(q), n, -1)
                comps = alg.decompose()
            except GcdViolation:
                continue
            except AssertionError:
                conj_ok = False
                continue
            for comp in comps[1:]:
                if comp.kind != SELF_CONJ or q**comp.k > 81:
                    continue
                code = codes.assemble_code(alg, [(comp, codes.build_Ct(comp))])
                so = codes.hull_dimension(code) == code.k_dim
                expected = q % 2 == 0 or (q**comp.k - 1) % 4 == 0
                if so != expected:
                    dichotomy_ok = False
                    dichotomy_notes.append(
                        f"(q={q},n={n},t={comp.index}): self-orthogonal={so}, stated={expected}"
                    )
    results.append(
        (
            "selfconj-block-dichotomy",
            dichotomy_ok,
            "; ".join(dichotomy_notes[:4]) or "all blocks match the stated rule",
        )
    )

    # the f bar(f) closed form on self-conjugate blocks, as stated
    eq_ok = True
    eq_notes = []
    for q, n in ((3, 5), (3, 7), (5, 7), (2, 5)):
        alg = TwistedDihedralAlgebra(field_from_order(q), n, -1)
        for comp in alg.decompose()[1:]:
            if comp.kind != SELF_CONJ:
                continue
            f = codes.build_Ct(comp)
            lhs = f * f.bar()
            rhs_cyc = comp.s_prime * (comp.ue - comp.uinv_e)
            rhs = alg.elem(comp.ft.zero, rhs_cyc)
            if lhs != rhs:
                eq_ok = False
                eq_notes.append(
                    f"(q={q},n={n},t={comp.index}): f bar f "
                    f"{'=0' if lhs.is_zero() else '!=0'}, stated rhs nonzero={not rhs.is_zero()}"
                )
    results.append(
        (
            "f-barf-closed-form",
            eq_ok,
            "; ".join(eq_notes[:4]) or "closed form matches on all tested blocks",
        )
    )

    results.append(("conjugation-criteria", conj_ok, "Kronecker and odd-order checks"))

    return results


def cmd_verify_paper(ns: argparse.Namespace) -> int:
    results = _paper_checks()
    lines = []
    for name, ok, detail in results:
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    ok_all = all(ok for _, ok, _ in results)
    lines.append(f"{'ALL CHECKS PASSED' if ok_all else 'SOME CHECKS FAILED'}")
    if ns.fmt == "json":
        _emit(
            ns.out,
            json.dumps(
                {
                    "checks": [
                        {"name": n, "passed": p, "detail": d} for n, p, d in results
                    ],
                    "all_passed": ok_all,
                },
                indent=2,
            )
            + "\n",
        )
    else:
        _emit(ns.out, "\n".join(lines) + "\n")
    return EXIT_OK if ok_all else EXIT_VERIFY_FAIL


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = _build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as ex:
        return EXIT_INVALID if ex.code not in (0, None) else EXIT_OK
    try:
        return ns.func(ns)
    except HypothesisUnmet as ex:
        sys.stderr.write(f"hypothesis unmet: {ex}\n")
        return EXIT_HYPOTHESIS
    except BudgetExceeded as ex:
        sys.stderr.write(f"budget exceeded: {ex}\n")
        return EXIT_BUDGET
    except (CdcodesError, OSError) as ex:
        sys.stderr.write(f"error: {ex}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
