#!/usr/bin/env python3
"""Exhaust the twist group K* of a code family and census bad twists.

Writes one CSV row per twist (integer-encoded beta, minimum weight, relative
distance) plus a JSON summary comparing the bad-twist count against the
volume bound when the exponent margin is positive.  Exit codes follow the
cdcodes CLI: 2 invalid input (including an --out path that cannot be
written and a --k-star-budget below 1), 3 hypothesis unmet, 4 budget
exceeded (|K*| over --k-star-budget), each with an "error:" line on stderr.

Example:
    python scripts/census_experiment.py --q 7 --n 3 --delta 0.2 --out census_7_3
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cdcodes.algebra import TwistedDihedralAlgebra
from cdcodes.analysis import census_K_le_delta
from cdcodes.cli import EXIT_BUDGET, EXIT_HYPOTHESIS, EXIT_INVALID
from cdcodes.errors import BudgetExceeded, CdcodesError, HypothesisUnmet
from cdcodes.field import field_from_order


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=int, required=True)
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--delta", type=float, required=True)
    ap.add_argument("--include-c0", action="store_true", help="census the self-dual family")
    ap.add_argument("--k-star-budget", type=int, default=100_000)
    ap.add_argument("--out", default="census", help="output prefix (.csv / .json)")
    args = ap.parse_args()

    csv_path = Path(f"{args.out}.csv")
    json_path = Path(f"{args.out}.json")
    try:
        alg = TwistedDihedralAlgebra(field_from_order(args.q), args.n, -1)
        res = census_K_le_delta(
            alg,
            delta=args.delta,
            include_C0=args.include_c0,
            k_star_budget=args.k_star_budget,
        )
        with csv_path.open("w") as csv_file:
            try:
                csv_file.writelines(line + "\n" for line in res.csv_lines())
                json_path.write_text(json.dumps(res.summary_json(), indent=2) + "\n")
            except OSError:
                csv_path.unlink()  # no CSV without its summary
                raise
    except (CdcodesError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        if isinstance(ex, BudgetExceeded):
            return EXIT_BUDGET
        return EXIT_HYPOTHESIS if isinstance(ex, HypothesisUnmet) else EXIT_INVALID
    print(f"|K*| = {res.k_star_size}, bad twists (Delta <= {args.delta}): {res.count}")
    if res.hypothesis_ok:
        print(f"volume bound {res.bound:.3f} holds (margin positive)")
    else:
        print("exponent margin non-positive; only count <= |K*| is asserted")
    print(f"wrote {csv_path} and {json_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
