import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cdcodes.algebra import TwistedDihedralAlgebra
from cdcodes.field import field_from_order


_ALG_CACHE: dict[tuple[int, int, int], TwistedDihedralAlgebra] = {}


def get_algebra(q: int, n: int, tw: int = -1) -> TwistedDihedralAlgebra:
    """Shared algebra instances so cached decompositions are reused."""
    key = (q, n, tw)
    if key not in _ALG_CACHE:
        _ALG_CACHE[key] = TwistedDihedralAlgebra(field_from_order(q), n, tw)
    return _ALG_CACHE[key]


@pytest.fixture
def rng():
    return random.Random(0xC0DE5)


def odd_coprime_grid(q: int, n_max: int):
    return [n for n in range(3, n_max + 1, 2) if math.gcd(n, q) == 1]


def run_python(code: str, timeout: float) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports cdcodes from this checkout;
    a call that never returns fails the test by timeout instead of hanging it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=timeout, env=env)
