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
        (("--q", "7", "--n", "3", "--delta", "0.2", "--k-star-budget", "-1"), 2),
        (("--q", "7", "--n", "3", "--delta", "0.2", "--out", "taken/census"), 2),
    ],
)
def test_census_script_exit_codes(tmp_path, args, exit_code):
    (tmp_path / "taken" / "census.json").mkdir(parents=True)  # a summary path that cannot be written
    code, out, err = run_census(tmp_path, *args)
    assert code == exit_code
    assert err.startswith("error: ") and "Traceback" not in err
    assert not list(tmp_path.rglob("*.csv"))


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


def test_census_script_refuses_a_huge_q_at_once(tmp_path):
    # q is bounded before it is factored; trial division of this prime would not end
    q = 1000000000000000003
    args = ["--q", str(q), "--n", "7", "--delta", "0.2", "--out", str(tmp_path / "census")]
    proc = subprocess.run([sys.executable, str(CENSUS_SCRIPT), *args], capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: field of size {q} too large for lookup tables\n"


def test_census_summary_is_json_when_entropy_is_undefined(tmp_path):
    # delta = 0.9 > 1 - 1/2 leaves H_q(delta), and so the exponent, undefined:
    # null, not the NaN that RFC 8259 parsers reject
    code, out, err = run_census(tmp_path, "--q", "2", "--n", "7", "--delta", "0.9")
    assert code == 0, err

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    summary = json.loads((tmp_path / "census.json").read_text(), parse_constant=refuse)
    assert (summary["hypothesis_ok"], summary["exponent"], summary["bound"]) == (False, None, None)


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


def test_good_n_scan_refuses_a_huge_q_at_once():
    # q is bounded before it is factored; trial division of this prime would
    # not end, so a child process fails this test by timeout instead of hanging
    q = 1000000000000000003
    proc = subprocess.run(
        [sys.executable, str(GOOD_N_SCRIPT), "--q", str(q)], capture_output=True, text=True, timeout=30
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: field of size {q} too large for lookup tables\n"


@pytest.mark.parametrize("q", ["6", "1"])
def test_good_n_scan_rejects_a_non_prime_power(q):
    code, out, err = run_good_n_scan("--q", q, "--limit", "15")
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


def test_good_n_scan_stops_quietly_when_the_reader_closes_the_pipe():
    # like `| head -3`: the table (about 120 kB) outgrows the pipe, so the
    # script is still writing when the reader goes away
    proc = subprocess.Popen(
        [sys.executable, str(GOOD_N_SCRIPT), "--q", "2", "--limit", "4001"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        lines = [proc.stdout.readline() for _ in range(3)]
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
    finally:
        proc.kill()
        proc.stderr.close()
    assert lines[0] == "q = 2\n" and lines[2].split()[0] == "3"
    assert err == ""
