"""Record reference digests of every workload's outputs into refs.json.

    PYTHONPATH=src python3 perfbench/record.py

Decompose and census inputs do not depend on the seed, so one seed covers
them; hull and min_weight draw seeded twists, recorded for RECORD_SEEDS.
A run with another seed checks those two by oracles only and says so.
Outputs that fail an oracle are reported and not recorded.
"""

import json
import sys
from pathlib import Path

from workloads import WORKLOADS

RECORD_SEEDS = range(32)
SEEDED = ("hull", "min_weight")


def main():
    refs = {}
    bad = 0
    for name, cls in sorted(WORKLOADS.items()):
        table = refs.setdefault(name, {})
        for seed in RECORD_SEEDS if name in SEEDED else (0,):
            wl = cls(seed)
            wl.setup()
            outs = {item: wl.run(item) for item in wl.items}
            for item, out in outs.items():
                errs = wl.oracle(item, out, outs)
                if errs:
                    bad += 1
                    print(f"{name} {wl.key(item)}: {errs}", file=sys.stderr)
                else:
                    table[wl.key(item)] = wl.digest(item, out)
        print(f"{name}: {len(table)} references", file=sys.stderr)
    path = Path(__file__).resolve().parent / "refs.json"
    path.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
