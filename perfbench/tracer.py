"""Spans and counts recorded from outside the library.

`Tracer.install()` replaces every public function of the traced cdcodes
modules, at every module that binds it (the package `__init__` and any
`from .x import f` site), plus a few methods on their classes, with wrappers
that record a span: name, start, end, the span that was open when it started
and the benchmark item it belongs to.  Hot element operations only bump a
counter.  `uninstall()` restores the originals, so one process can time the
same items with and without tracing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter

LAYERS = ("field", "cyclic", "algebra", "codes", "linalg", "analysis")

# (module, class, method) wrapped in a span under the name "<module>.<Class>.<method>"
SPAN_METHODS = [
    ("field", "Tables", "__init__"),
    ("algebra", "TwistedDihedralAlgebra", "decompose"),
    ("algebra", "TwistedDihedralAlgebra", "idempotents"),
    ("algebra", "TwistedDihedralAlgebra", "left_ideal_rows"),
    ("algebra", "TwistedDihedralAlgebra", "decomposition_report"),
    ("codes", "BetaVector", "__init__"),
]

# (module, class, method) -> counter name; element arithmetic is too hot for spans
COUNT_METHODS = [
    ("field", "ExtField", "add", "field.ext_ops"),
    ("field", "ExtField", "mul", "field.ext_ops"),
    ("field", "ExtField", "neg", "field.ext_ops"),
    ("cyclic", "CyclicElem", "__init__", "cyclic.elems_created"),
    ("cyclic", "CyclicElem", "__mul__", "cyclic.mul_calls"),
    ("algebra", "AlgElem", "__mul__", "algebra.elem_mul_calls"),
]


def _pruned_words(k: int, q: int, budget: int) -> int:
    """Words analysis._pruned_min_weight walks: whole weight layers within budget."""
    spent = 0
    for w in range(1, k + 1):
        layer = math.comb(k, w) * (q - 1) ** w
        if spent + layer > budget:
            break
        spent += layer
    return spent


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end, item]
        self.counts: Counter = Counter()
        self.item = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []  # (owner, attr, original)
        self._hooks = {
            "linalg.rref": self._on_rref,
            "linalg.enumerate_span": self._on_enumerate_span,
            "analysis.min_weight": self._on_min_weight,
            "analysis.census_K_le_delta": self._on_census,
        }

    # -- wrappers ------------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = self._hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, self.item]
            spans.append(rec)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            counts[name] += 1
            if hook is not None:
                hook(fn, args, kwargs, out)
            return out

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def root(self, item):
        """A root span for one benchmark item; spans opened inside carry its id."""
        rec = ["bench.item", -1, time.perf_counter(), 0.0, item]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        self.item = item
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()
            self.item = "setup"

    # -- hooks: counts read from arguments and results at the boundary ----------------

    def _on_rref(self, fn, args, kwargs, out):
        mat = args[1] if len(args) > 1 else kwargs["mat"]
        self.counts["linalg.rref_rows_in"] += len(mat) if getattr(mat, "ndim", 2) > 1 else 1

    def _on_enumerate_span(self, fn, args, kwargs, out):
        self.counts["linalg.words_enumerated"] += out.shape[0]
        self.counts["linalg.span_bytes_computed"] += out.nbytes

    def _on_min_weight(self, fn, args, kwargs, out):
        if out.method == "pruned":
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            code = bound.arguments["code"]
            self.counts["analysis.pruned_calls"] += 1
            self.counts["analysis.pruned_words"] += _pruned_words(code.k_dim, code.field.q, bound.arguments["budget"])
        else:
            self.counts["analysis.exhaustive_calls"] += 1

    def _on_census(self, fn, args, kwargs, out):
        self.counts["analysis.census_betas"] += len(out.rows)

    # -- patching -------------------------------------------------------------------------

    def install(self):
        mods = {name: importlib.import_module(f"cdcodes.{name}") for name in LAYERS}
        binders = [m for name, m in sys.modules.items() if name == "cdcodes" or name.startswith("cdcodes.")]
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrapper = self._span(f"{layer}.{attr}", obj)
                for binder in binders:
                    for battr, bobj in list(vars(binder).items()):
                        if bobj is obj:
                            self._patch(binder, battr, obj, wrapper)
        for layer, cls, meth in SPAN_METHODS:
            owner = getattr(mods[layer], cls)
            orig = vars(owner)[meth]
            self._patch(owner, meth, orig, self._span(f"{layer}.{cls}.{meth}", orig))
        for layer, cls, meth, counter in COUNT_METHODS:
            owner = getattr(mods[layer], cls)
            orig = vars(owner)[meth]
            self._patch(owner, meth, orig, self._counter(counter, orig))

    def _patch(self, owner, attr, orig, wrapper):
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results ----------------------------------------------------------------------------

    def self_times(self, items=None) -> dict[str, float]:
        """Per span name, duration minus the time its direct child spans cover."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, start, end, item in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, parent, start, end, item) in enumerate(spans):
            if items is None or item in items:
                out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def inclusive_times(self, items=None) -> dict[str, float]:
        """Per span name, total duration, not counting a span nested in one of the same name."""
        spans = self.spans
        out: dict[str, float] = {}
        for name, parent, start, end, item in spans:
            if items is not None and item not in items:
                continue
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][1]
            if p < 0:
                out[name] = out.get(name, 0.0) + end - start
        return out
