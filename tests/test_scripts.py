import json
import subprocess
import sys
from pathlib import Path

import pytest

CENSUS_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "census_experiment.py"
GOOD_N_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "good_n_scan.py"


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
        (("--q", "7", "--n", "3", "--delta", "0"), 2),
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


def test_census_script_refuses_jobs(tmp_path):
    # the census is serial; an old command line must fail, not change meaning
    code, out, err = run_census(tmp_path, "--q", "7", "--n", "3", "--delta", "0.2", "--jobs", "2")
    assert code == 2
    assert "unrecognized arguments: --jobs" in err
    assert not (tmp_path / "census.csv").exists()


def test_census_script_unwritable_out_exits_2(tmp_path):
    (tmp_path / "census.csv").mkdir()
    code, out, err = run_census(tmp_path, "--q", "7", "--n", "3", "--delta", "0.2")
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "census.json").exists()


def run_good_n_scan(*args):
    proc = subprocess.run(
        [sys.executable, str(GOOD_N_SCRIPT), *args], capture_output=True, text=True, timeout=120
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_good_n_scan_prints_the_table():
    code, out, err = run_good_n_scan("--q", "3", "--limit", "9")
    assert code == 0, err
    assert out.splitlines()[0] == "q = 3"
    assert [ln.split()[0] for ln in out.splitlines()[2:]] == ["5", "7"]


@pytest.mark.parametrize("q", ["6", "1"])
def test_good_n_scan_rejects_a_non_prime_power(q):
    code, out, err = run_good_n_scan("--q", q, "--limit", "15")
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""
