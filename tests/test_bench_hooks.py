"""Guard the names the benchmark harness in perfbench/ imports and traces.

The benchmark patches library functions by name; a refactor that renames or
removes one of them should fail here rather than in a traced benchmark run.
The decompose workload's reports are also checked against the digests the
benchmark recorded, so a change to their bytes fails here first, and one
traced pass of every workload runs in a worker process, so a changed digest
or pinned call count fails here rather than in a benchmark run.
"""

import ast
import functools
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cdcodes
from cdcodes import algebra, codes, field

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = ("field", "cyclic", "algebra", "codes", "linalg", "analysis")


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
        import worker

        yield tracer, worker
    finally:
        sys.path.remove(str(PERFBENCH))


def _resolve(dotted: str):
    layer, *attrs = dotted.split(".")
    return functools.reduce(getattr, attrs, importlib.import_module(f"cdcodes.{layer}"))


def _bindings():
    """Every public attribute of every loaded cdcodes module."""
    mods = [m for name, m in sys.modules.items() if name == "cdcodes" or name.startswith("cdcodes.")]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items() if not k.startswith("_")}


def test_traced_names_resolve(bench):
    tracer, worker = bench
    for dotted in list(worker.SPAN_CALLS.values()) + list(tracer.Tracer()._hooks):
        assert callable(_resolve(dotted)), dotted
    for layer, cls, meth in tracer.SPAN_METHODS:
        assert meth in vars(_resolve(f"{layer}.{cls}")), (layer, cls, meth)
    for layer, cls, meth, _ in tracer.COUNT_METHODS:
        assert meth in vars(_resolve(f"{layer}.{cls}")), (layer, cls, meth)


def test_workload_attributes_exist(bench):
    # every `<layer>.<name>` attribute read in the workloads, plus the family
    # builders they look up by name
    import workloads

    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in LAYERS
    }
    used |= {("codes", name) for name in workloads.BUILDERS.values()}
    assert ("codes", "build_plain_code") in used
    for layer, name in sorted(used):
        assert hasattr(importlib.import_module(f"cdcodes.{layer}"), name), f"{layer}.{name}"


def test_tracer_install_records_and_uninstall_restores(bench):
    tracer, worker = bench
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        assert codes.assemble_code is not before[("cdcodes.codes", "assemble_code")]
        alg = algebra.TwistedDihedralAlgebra(field.field_from_order(7), 3, -1)
        codes.hull_dimension(codes.build_plain_code(alg))
    finally:
        t.uninstall()
    for span in worker.SPAN_CALLS.values():
        assert t.counts[span] > 0, span
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert cdcodes.assemble_code is codes.assemble_code


def test_decompose_reports_match_recorded_digests(bench):
    # the g, s, s' and identity bytes of every decomposition report on the
    # benchmark's grid, against the digests the benchmark recorded
    import workloads

    refs = json.loads((PERFBENCH / "refs.json").read_text())["decompose"]
    w = workloads.Decompose(seed=0)
    w.setup()
    assert sorted(w.items) == sorted(workloads.DECOMPOSE_GRID)
    for item in workloads.DECOMPOSE_GRID:
        out = w.run(item)
        assert w.digest(item, out) == refs[w.key(item)], item
        assert w.oracle(item, out, {}) == [], item


@pytest.mark.parametrize("workload", ["census", "decompose", "hull", "min_weight"])
def test_traced_benchmark_pass_is_correct(workload):
    # one traced pass of each workload: its recorded digests, oracles and
    # pinned call counts (census: one assemble_code call per beta) all hold
    env = dict(os.environ, PYTHONPATH=str(PERFBENCH.parent / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    args = ["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
