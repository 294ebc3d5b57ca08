"""One benchmark workload in one fresh interpreter; started by run.py.

Phases: import and setup (timed as set-up), a warm-up over the input set,
timed passes until --seconds have elapsed, then output checks.  With
--trace 1 every plain pass is followed by a pass that records spans and
counts; the median difference of the two is the tracing overhead.  The last
line of stdout is one JSON object.
"""

import time

T0 = time.perf_counter()  # set-up time starts before numpy and cdcodes load

import argparse
import json
import resource
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from tracer import LAYERS, Tracer
from workloads import WORKLOADS  # imports cdcodes

# p90 needs at least ten samples beyond it
MIN_TIMED_ITEMS = 100
# The host's speed moves by up to 2x in phases lasting seconds to tens of
# seconds, and process CPU time moves with it, so raw timings of the same code
# spread past any useful bound.  Every reported time is therefore scaled by
# CAL_REF_S / (time of a fixed calibration block measured next to it): it reads
# as time on this host at its reference speed, and a slower or faster program
# still moves it in proportion.  CAL_REF_S is a fixed constant near the block's
# time on a 2-vCPU Xeon VM; comparisons between runs depend only on the ratio.
CAL_REF_S = 0.0012
# calibration blocks on each side of an item whose median scales that item
CAL_WINDOW = 3
SETUP_CAL_BLOCKS = 25
# per-layer call counts that are span counts: metric -> span name
SPAN_CALLS = {
    "field.factor_calls": "field.factor_xn_minus_1_with_cosets",
    "algebra.left_ideal_rows_calls": "algebra.TwistedDihedralAlgebra.left_ideal_rows",
    "codes.assemble_calls": "codes.assemble_code",
    "codes.hull_calls": "codes.hull_dimension",
    "linalg.rref_calls": "linalg.rref",
}
# per-layer counts the tracer keeps under the metric's own name
COUNTERS = (
    "field.ext_ops", "cyclic.elems_created", "cyclic.mul_calls", "algebra.elem_mul_calls",
    "linalg.rref_rows_in", "linalg.words_enumerated", "linalg.span_bytes_computed",
    "analysis.exhaustive_calls", "analysis.pruned_calls", "analysis.pruned_words",
    "analysis.census_betas",
)
# trace completeness: calls every traced run must see, known without the trace
CHECKED_CALLS = ("field.factor_calls", "codes.assemble_calls", "codes.hull_calls")


_CAL_MAT = np.arange(64, dtype=np.int64).reshape(8, 8)


def calibrate():
    """Time of a fixed block of pure-Python arithmetic and small numpy calls.

    The library spends its time in both kinds of work; the block never calls
    into cdcodes, so a change to the library cannot move it.
    """
    t = time.perf_counter()
    s = 0
    for i in range(8000):
        s += i * i
    for _ in range(100):
        b = (_CAL_MAT @ _CAL_MAT) % 7
        b[b > 3] = 0
    return time.perf_counter() - t


@dataclass
class Pass:
    """One run over a list of items: latencies, output digests and errors."""

    items: list
    lat: list = field(default_factory=list)
    scaled: list = field(default_factory=list)  # lat at the reference speed, see CAL_REF_S
    digests: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)
    expect: Counter = field(default_factory=Counter)  # calls the trace must have seen
    outputs: dict = field(default_factory=dict)  # full outputs, kept for the oracles


def run_pass(wl, items, tracer=None, first_id=0, keep=False):
    p = Pass(list(items))
    cal = [calibrate()]  # cal[i] just before item i, cal[i + 1] just after
    for i, item in enumerate(items):
        t1 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run(item)
            else:
                with tracer.root(first_id + i):
                    out = wl.run(item)
        except Exception as exc:  # a raising item is a failed item, not a crashed run
            p.lat.append(time.perf_counter() - t1)
            p.digests.append(None)
            p.errors[item] = repr(exc)
        else:
            p.lat.append(time.perf_counter() - t1)
            p.digests.append(wl.digest(item, out))
            if keep:
                p.outputs[item] = out
            if tracer is not None:
                p.expect.update(wl.expect(item, out))
        cal.append(calibrate())
    for i, x in enumerate(p.lat):
        near = cal[max(0, i + 1 - CAL_WINDOW): i + 1 + CAL_WINDOW]
        p.scaled.append(x * CAL_REF_S / statistics.median(near))
    return p


def timed_passes(wl, seconds, min_items=1, tracer=None):
    """Whole passes until `seconds` have elapsed and `min_items` were timed.

    With a tracer, each plain pass is followed by a traced one, so both see
    the same machine conditions; returns (plain passes, traced passes).
    """
    plain, traced = [], []
    start = time.perf_counter()
    while len(plain) * len(wl.items) < min_items or time.perf_counter() - start < seconds:
        plain.append(run_pass(wl, wl.items, keep=not plain))
        if tracer is not None:
            tracer.install()
            traced.append(run_pass(wl, wl.items, tracer, first_id=len(traced) * len(wl.items)))
            tracer.uninstall()
    return plain, traced


def nearest_rank(sorted_vals, pct):
    k = max(1, -(-len(sorted_vals) * pct // 100))
    return sorted_vals[k - 1]


def check(wl, first, passes, refs):
    """Failed outputs among all passes; the first timed pass meets the oracles.

    Every item's output in the first timed pass must pass the workload's
    oracles and match the recorded reference where one exists; every other
    output of that item (warm-up and later passes) must have the same digest.
    """
    ok, notes = {}, []
    referenced = 0
    for item, d0 in zip(wl.items, first.digests):
        if item in first.errors:
            ok[item] = None
            notes.append(f"{wl.key(item)}: raised {first.errors[item]}")
            continue
        errs = wl.oracle(item, first.outputs[item], first.outputs)
        ref = refs.get(wl.key(item))
        if ref is not None:
            referenced += 1
            if ref != d0:
                errs.append(f"digest {d0} != recorded {ref}")
        notes.extend(f"{wl.key(item)}: {e}" for e in errs)
        ok[item] = None if errs else d0
    failed = 0
    for p in passes:
        for item, d in zip(p.items, p.digests):
            if ok[item] is None or d != ok[item]:
                failed += 1
                if ok[item] is not None:
                    notes.append(f"{wl.key(item)}: {p.errors.get(item) or 'output changed between passes'}")
    for note in notes[:20]:
        print("check failed:", note, file=sys.stderr)
    return failed, referenced


def layer_metrics(tracer, setup_counts, n_items, passes, overhead):
    setup_ids = {"setup"}
    timed_ids = set(range(n_items))
    incl = (tracer.inclusive_times(setup_ids), tracer.inclusive_times(timed_ids))
    self_ = (tracer.self_times(setup_ids), tracer.self_times(timed_ids))
    counts = (setup_counts, tracer.counts - setup_counts)

    def per_pass(pair, name):
        # one set-up plus one pass over the input set
        return pair[0].get(name, 0) + pair[1].get(name, 0) / passes

    spans = {
        "field.factor_s": (incl, "field.factor_xn_minus_1_with_cosets"),
        "field.tables_s": (incl, "field.Tables.__init__"),
        "cyclic.idempotents_self_s": (self_, "cyclic.primitive_idempotents"),
        "cyclic.conj_pairing_s": (incl, "cyclic.conj_pairing"),
        "algebra.decompose_self_s": (self_, "algebra.TwistedDihedralAlgebra.decompose"),
        "algebra.left_ideal_rows_s": (incl, "algebra.TwistedDihedralAlgebra.left_ideal_rows"),
        "codes.assemble_s": (incl, "codes.assemble_code"),
        "codes.beta_build_s": (incl, "codes.BetaVector.__init__"),
        "codes.hull_s": (incl, "codes.hull_dimension"),
        "codes.dual_s": (incl, "codes.dual_code"),
        "linalg.rref_s": (incl, "linalg.rref"),
        "linalg.nullspace_s": (incl, "linalg.nullspace"),
        "linalg.matmul_s": (incl, "linalg.matmul"),
        "linalg.enumerate_span_s": (incl, "linalg.enumerate_span"),
        "analysis.min_weight_s": (incl, "analysis.min_weight"),
        "analysis.census_self_s": (self_, "analysis.census_K_le_delta"),
    }
    tallies = dict(SPAN_CALLS, **{c: c for c in COUNTERS})
    m = {}
    for metric, (pair, span) in spans.items():
        m[metric] = {"value": per_pass(pair, span), "unit": "s"}
    for metric, counter in tallies.items():
        unit = "B" if metric.endswith("_bytes_computed") else "count"
        m[metric] = {"value": per_pass(counts, counter), "unit": unit}
    items_total = incl[1].get("bench.item", 0.0)
    for layer in LAYERS:
        own = sum(v for k, v in self_[1].items() if k.startswith(layer + "."))
        m[f"{layer}.self_share"] = {"value": 100 * own / items_total, "unit": "%"}
    m["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    wl = WORKLOADS[args.workload](args.seed)
    wl.setup()
    setup_raw_s = time.perf_counter() - T0
    setup_s = setup_raw_s * CAL_REF_S / statistics.median(calibrate() for _ in range(SETUP_CAL_BLOCKS))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if tracer is not None:
        tracer.uninstall()
        setup_counts = Counter(tracer.counts)

    # warm-up: lazy set-up and pages a user's later calls would find ready
    warm = run_pass(wl, wl.items[: wl.warmup])

    passes, traced = timed_passes(wl, args.seconds, MIN_TIMED_ITEMS if tracer is None else 1, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    refs = json.loads((Path(__file__).resolve().parent / "refs.json").read_text()).get(wl.name, {})
    runs = [warm] + passes + traced
    failed, referenced = check(wl, passes[0], runs, refs)
    attempted = sum(len(p.items) for p in runs)
    correct = failed == 0

    walls = [sum(p.scaled) for p in passes]
    lat = sorted(x for p in passes for x in p.scaled)
    beyond = len(lat) - -(-len(lat) * 90 // 100)
    raw_wall = statistics.median(sum(p.lat) for p in passes)
    print(
        f"{wl.name} seed {args.seed}: {len(lat)} items timed in {len(passes)} passes"
        f" (+{len(warm.lat)} warm-up), {beyond} beyond p90; fail_share {failed}/{attempted}"
        f" = {failed / attempted:g}; {referenced}/{len(wl.items)} distinct items checked against"
        f" recorded references, {len(wl.items) - referenced} by oracles only;"
        f" unscaled: setup {setup_raw_s:.4f} s, wall {raw_wall:.4f} s"
        f" ({raw_wall / statistics.median(walls):.3f}x the reference speed's time)"
    )

    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "item_p50_ms": {"value": 1000 * statistics.median(lat), "unit": "ms"},
            "item_p90_ms": {"value": 1000 * nearest_rank(lat, 90), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        overhead = statistics.median(sum(t.lat) - sum(p.lat) for p, t in zip(passes, traced))
        n_traced = sum(len(p.lat) for p in traced)
        metrics = layer_metrics(tracer, setup_counts, n_traced, len(traced), overhead)
        expect = Counter(wl.setup_expect)
        for p in traced:
            expect.update(p.expect)
        for name in CHECKED_CALLS:
            seen = tracer.counts[SPAN_CALLS[name]]
            if seen != expect[name]:
                correct = False
                print(f"trace check failed: {name} = {seen}, expected {expect[name]}", file=sys.stderr)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
