#!/usr/bin/env python3
"""Scan cyclic orders n for a given q and tabulate the family predicates.

For each odd n coprime to q the table lists ord_n(q), lambda(n), the ratio
log_q(n)/lambda(n) that drives the census exponent, and which family
profiles (SelfOrthogonal / LCD / SelfDual) the order qualifies for.
SelfOrthogonal tags every n: the plain family is self-orthogonal for every q.
LCD tags n at which the `lcd` block family exists, i.e. q = 3 mod 4 and the
block of the primitive d-th roots of unity is self-conjugate with odd k_t
for some divisor d > 1 of n; its computed hull equals its dimension, so
those codes are self-orthogonal, not LCD (see analysis.good_n_sequence).
A q that is not a prime power prints an "error:" line on stderr and exits 2,
as the cdcodes CLI does for invalid input.

Example:
    python scripts/good_n_scan.py --q 3 --limit 60
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cdcodes.analysis import PROFILES, good_n_sequence
from cdcodes.cli import EXIT_INVALID
from cdcodes.cyclic import lambda_n
from cdcodes.errors import CdcodesError
from cdcodes.field import mult_order


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=int, required=True)
    ap.add_argument("--limit", type=int, default=60)
    args = ap.parse_args()
    q = args.q

    try:
        profiles = {name: set(good_n_sequence(q, args.limit, name)) for name in PROFILES}
    except CdcodesError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_INVALID
    print(f"q = {q}")
    print(f"{'n':>4} {'ord':>5} {'lambda':>7} {'log_q(n)/lambda':>16}  profiles")
    for n in range(3, args.limit + 1, 2):
        if math.gcd(n, q) != 1:
            continue
        lam = lambda_n(n, q)
        ratio = math.log(n, q) / lam
        tags = ",".join(name for name, members in profiles.items() if n in members) or "-"
        print(f"{n:>4} {mult_order(q, n):>5} {lam:>7} {ratio:>16.4f}  {tags}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
