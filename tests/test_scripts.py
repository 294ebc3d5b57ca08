import json
import subprocess
import sys
from pathlib import Path

import pytest

CENSUS_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "census_experiment.py"


def run_census(tmp_path, *args):
    proc = subprocess.run(
        [sys.executable, str(CENSUS_SCRIPT), "--out", str(tmp_path / "census"), *args],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_census_script_writes_csv_and_summary(tmp_path):
    code, out, err = run_census(tmp_path, "--q", "7", "--n", "3", "--delta", "0.5")
    assert code == 0, err
    assert "|K*| = 48, bad twists (Delta <= 0.5): 12" in out
    lines = (tmp_path / "census.csv").read_text().splitlines()
    assert lines[0] == "beta_index,beta_codes,min_weight,delta" and len(lines) == 49
    assert json.loads((tmp_path / "census.json").read_text())["count"] == 12


@pytest.mark.parametrize(
    "args, exit_code",
    [
        (("--q", "7", "--n", "3", "--delta", "0.2", "--k-star-budget", "10"), 4),
        (("--q", "7", "--n", "3", "--delta", "0.2", "--include-c0"), 3),
        (("--q", "7", "--n", "3", "--delta", "0.2", "--jobs", "0"), 2),
        (("--q", "6", "--n", "3", "--delta", "0.2"), 2),
        (("--q", "7", "--n", "4", "--delta", "0.2"), 2),
        (("--q", "7", "--n", "3", "--delta", "1.5"), 2),
        (("--q", "7", "--n", "3", "--delta", "0.2", "--out", "missing/census"), 2),
    ],
)
def test_census_script_exit_codes(tmp_path, args, exit_code):
    code, out, err = run_census(tmp_path, *args)
    assert code == exit_code
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "census.csv").exists()
