import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import run_python

from cdcodes import cli
from cdcodes.cli import main


def run(capsys, *args):
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- decompose -------------------------------------------------------------------


def test_decompose_7_3(capsys):
    rc, out, _ = run(capsys, "decompose", "--q", "7", "--n", "3")
    assert rc == 0
    assert "A_0: trivial_field" in out
    assert "A_1: paired dim=4 k=1" in out


def test_decompose_3_5_json(capsys):
    rc, out, _ = run(capsys, "decompose", "--q", "3", "--n", "5", "--format", "json")
    assert rc == 0
    rep = json.loads(out)
    assert rep["blocks"][1]["kind"] == "self_conj"
    assert rep["blocks"][1]["k"] == 2
    assert rep["k_sum_matches_(n-1)/2"]


def test_decompose_even_n_exit2(capsys):
    rc, _, err = run(capsys, "decompose", "--q", "2", "--n", "4")
    assert rc == 2
    assert "odd" in err


@pytest.mark.parametrize(
    "field_args",
    [("--q", "3", "--p", "2"), ("--q", "3", "--m", "1"), ("--q", "9", "--p", "3", "--m", "2")],
    ids=["q-p", "q-m", "q-p-m"],
)
@pytest.mark.parametrize("subcommand", ["decompose", "construct"])
def test_q_with_p_or_m_exit2(capsys, subcommand, field_args):
    # --q is the only field option: --p and --m are unknown to the parser
    rc, out, err = run(capsys, subcommand, *field_args, "--n", "5")
    assert (rc, out) == (2, "")
    assert err.endswith(f": error: unrecognized arguments: {' '.join(field_args[2:])}\n")


def test_m_without_p_or_q_exit2(capsys):
    rc, out, err = run(capsys, "decompose", "--m", "2", "--n", "5")
    assert (rc, out) == (2, "")
    assert err.endswith(": error: the following arguments are required: --q\n")


@pytest.mark.parametrize("q", [8192, 6561], ids=["q8192", "p3m8"])
def test_decompose_field_above_table_bound_exit2(capsys, q):
    rc, out, err = run(capsys, "decompose", "--q", str(q), "--n", "3")
    assert (rc, out) == (2, "")
    assert err == f"error: field of size {q} too large for lookup tables\n"


HUGE_PRIME = 1000000000000000003  # trial division up to its square root would not end


@pytest.mark.parametrize("subcommand", ["decompose", "construct", "analyze"])
def test_huge_q_is_refused_before_factoring(tmp_path, subcommand):
    # a child interpreter, so a q that is factored before it is bounded fails
    # this test by timeout instead of hanging the session
    if subcommand == "analyze":
        path = tmp_path / "huge.txt"
        path.write_text(f"{HUGE_PRIME} 4 1\n1 0 0 0\n")
        argv = ["analyze", str(path)]
    else:
        argv = [subcommand, "--q", str(HUGE_PRIME), "--n", "3"]
    proc = run_python(f"import sys; from cdcodes.cli import main; sys.exit(main({argv!r}))", timeout=30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: field of size {HUGE_PRIME} too large for lookup tables\n"


def test_decompose_at_table_bound():
    # a fresh interpreter: GF(4096)'s tables take 256 MiB, and the field cache
    # would hold them for the rest of the session
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "cdcodes.cli", "decompose", "--q", "4096", "--n", "3"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("q=4096 n=3 ")


def test_decompose_at_length_2047_in_bounded_memory():
    # a fresh interpreter, so ru_maxrss (KiB on Linux) is this decompose's own peak
    code = (
        "import resource, sys\n"
        "from cdcodes.cli import main\n"
        "rc = main(['decompose', '--q', '2', '--n', '2047'])\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
        "sys.exit(rc)\n"
    )
    proc = run_python(code, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("q=2 n=2047 ")
    assert int(proc.stderr) < 300 * 1024


# -- construct --------------------------------------------------------------------------


def test_construct_self_dual_5_3(capsys, tmp_path):
    out_path = tmp_path / "code.txt"
    rc, _, err = run(
        capsys, "construct", "--q", "5", "--n", "3", "--family", "self-dual", "--out", str(out_path)
    )
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "5 6 3"
    assert len(lines) == 4
    assert '"verdict": "self-dual"' in err


def test_construct_self_dual_q7_exit3(capsys):
    rc, _, err = run(capsys, "construct", "--q", "7", "--n", "3", "--family", "self-dual")
    assert rc == 3
    assert "hypothesis" in err


def test_construct_lcd_7_3_stamp_reports_reality(capsys):
    # the family builds, and the stamp carries the honestly computed hull
    rc, out, err = run(capsys, "construct", "--q", "3", "--n", "7", "--family", "lcd")
    assert rc == 0
    assert out.splitlines()[0] == "3 14 6"
    stamp = json.loads(err.split("stamp: ", 1)[1])
    assert stamp["hull"] == 6
    assert stamp["verdict"] == "self-orthogonal"


def test_construct_random_beta_requires_seed(capsys):
    rc, _, err = run(capsys, "construct", "--q", "5", "--n", "3", "--beta", "random")
    assert rc == 2
    assert "seed" in err


def test_construct_reproducible(capsys, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for path in (a, b):
        rc, _, _ = run(
            capsys,
            "construct", "--q", "5", "--n", "3",
            "--family", "self-dual", "--beta", "random", "--seed", "13",
            "--out", str(path),
        )
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_construct_explicit_beta(capsys):
    rc, out, _ = run(capsys, "construct", "--q", "5", "--n", "3", "--beta", "7", "--family", "plain")
    assert rc == 0
    assert out.splitlines()[0] == "5 6 2"


def test_construct_json_format(capsys):
    rc, out, _ = run(
        capsys, "construct", "--q", "13", "--n", "3", "--family", "self-dual", "--format", "json"
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["k_dim"] == 3
    assert payload["stamp"]["verdict"] == "self-dual"


def test_construct_include_a0_only_for_lcd(capsys):
    for family in ("plain", "self-dual"):
        rc, out, err = run(capsys, "construct", "--q", "5", "--n", "3", "--family", family, "--include-a0")
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and "--include-a0" in err


@pytest.mark.parametrize("beta", [(), ("--beta", "identity"), ("--beta", "1")], ids=["default", "identity", "explicit"])
def test_construct_seed_without_random_beta_exit2(capsys, beta):
    # only --beta random reads the seed; an unread one is refused, not stamped
    rc, out, err = run(capsys, "construct", "--q", "3", "--n", "7", *beta, "--seed", "5")
    assert (rc, out) == (2, "")
    assert err == "error: --seed applies only to --beta random\n"


def test_removed_options_rejected(capsys):
    assert run(capsys, "decompose", "--q", "5", "--n", "3", "--jobs", "2")[0] == 2
    assert run(capsys, "construct", "--q", "2", "--n", "7", "--family", "self-orthogonal")[0] == 2


# each subcommand's option strings (without -h/--help): a new knob shows up here
OPTION_INVENTORY = {
    "decompose": ["--q", "--n", "--format", "--out", "--dihedral"],
    "construct": ["--q", "--n", "--format", "--out", "--family", "--beta", "--seed", "--include-a0"],
    "analyze": ["--checks", "--delta", "--budget", "--v-squared", "--format", "--out"],
    "verify-paper": ["--format", "--out"],
}


def test_cli_option_inventory():
    ap = cli._build_parser()
    (sub,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    got = {
        name: [s for a in sp._actions for s in a.option_strings if s not in ("-h", "--help")]
        for name, sp in sub.choices.items()
    }
    assert got == OPTION_INVENTORY
    assert sum(map(len, got.values())) == 21


# -- analyze ------------------------------------------------------------------------------------


def test_analyze_roundtrip(capsys, tmp_path):
    path = tmp_path / "code.txt"
    rc, _, _ = run(
        capsys, "construct", "--q", "5", "--n", "3", "--family", "self-dual", "--out", str(path)
    )
    assert rc == 0
    rc, out, _ = run(capsys, "analyze", str(path), "--format", "json", "--delta", "0.2")
    assert rc == 0
    rep = json.loads(out)
    assert rep["self_dual"] is True
    assert rep["hull"] == 3
    assert rep["min_weight"]["method"] == "exhaustive"
    assert rep["balance"]["balanced"] is True


def test_analyze_missing_file(capsys):
    rc, _, err = run(capsys, "analyze", "/nonexistent/code.txt")
    assert rc == 2


def test_analyze_directory_exit2(capsys, tmp_path):
    rc, out, err = run(capsys, "analyze", str(tmp_path))
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and "Is a directory" in err


def test_construct_out_directory_exit2(capsys, tmp_path):
    rc, out, err = run(capsys, "construct", "--q", "5", "--n", "3", "--out", f"{tmp_path}/")
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and "Is a directory" in err


def test_analyze_non_utf8_file_exit2(capsys, tmp_path):
    path = tmp_path / "code.bin"
    path.write_bytes(b"5 6 1\n1 0 4 2 0 \xff\n")
    rc, out, err = run(capsys, "analyze", str(path))
    assert (rc, out) == (2, "")
    assert err == "error: malformed generator matrix file\n"


@pytest.mark.parametrize(
    "text",
    ["5 6 2\n1 0 4\n", "5 5 1\n1 0 4 2 0\n", "x y z\n", "5 6 1\n1 0 7 2 0 -1\n", "2 -1 0\n"],
    ids=["short-row", "odd-length", "non-integer-header", "entry-outside-field", "negative-length"],
)
def test_analyze_malformed_file_exit2(capsys, tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    rc, _, err = run(capsys, "analyze", str(path))
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "text", ["3 4 2\n1 0 1 2\n2 0 2 1\n", "3 4 1\n1 0 1 2\n9 9 9 9\n"], ids=["dependent-rows", "extra-line"]
)
def test_analyze_file_declaring_another_code_exit2(capsys, tmp_path, text):
    # without the header check both files load as the [4, 1] code and exit 0
    path = tmp_path / "bad.txt"
    path.write_text(text)
    rc, out, err = run(capsys, "analyze", str(path), "--checks", "min-weight,hull")
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_analyze_unknown_checks_exit2(capsys, tmp_path):
    path = tmp_path / "code.txt"
    assert run(capsys, "construct", "--q", "3", "--n", "7", "--out", str(path))[0] == 0
    rc, out, err = run(capsys, "analyze", str(path), "--checks", "min-weigth,hul")
    assert rc == 2
    assert out == ""
    assert "min-weigth" in err and "hul" in err
    assert all(name in err for name in ("min-weight", "hull", "balance"))


def test_analyze_balance_census_over_budget_exit4(capsys, tmp_path):
    # the plain q = 3, n = 7 code has k = 6, so its census needs 3^6 = 729 words
    path = tmp_path / "code.txt"
    assert run(capsys, "construct", "--q", "3", "--n", "7", "--out", str(path))[0] == 0
    rc, out, err = run(capsys, "analyze", str(path), "--checks", "balance", "--delta", "0.2", "--budget", "10")
    assert rc == 4
    assert out == ""
    assert err.startswith("budget exceeded:")
    assert "729" in err and "10" in err
    # without --delta there is no census to skip
    rc, out, _ = run(capsys, "analyze", str(path), "--checks", "balance", "--budget", "10")
    assert rc == 0
    assert "balance:" in out


@pytest.mark.parametrize(
    "args",
    [
        ("--checks", "min-weight", "--budget", "0"),
        ("--checks", "min-weight", "--budget", "-5"),
        ("--checks", "balance", "--delta", "0.2", "--budget", "-1"),
    ],
    ids=["min-weight-0", "min-weight-minus-5", "balance-census-minus-1"],
)
def test_analyze_budget_below_one_exit2(capsys, tmp_path, args):
    path = tmp_path / "code.txt"
    assert run(capsys, "construct", "--q", "2", "--n", "7", "--out", str(path))[0] == 0
    rc, out, err = run(capsys, "analyze", str(path), *args)
    assert (rc, out) == (2, "")
    assert err == f"error: --budget must be at least 1, got {args[-1]}\n"


def test_analyze_delta_nan_exit2(capsys, tmp_path):
    path = tmp_path / "code.txt"
    assert run(capsys, "construct", "--q", "3", "--n", "7", "--out", str(path))[0] == 0
    rc, out, err = run(capsys, "analyze", str(path), "--delta", "nan")
    assert (rc, out) == (2, "")
    assert err == "error: delta = nan outside [0, 1 - 1/q]\n"


@pytest.mark.parametrize("checks", ["min-weight", "hull,min-weight"])
def test_analyze_delta_without_balance_exit2(capsys, tmp_path, checks):
    # only the balance check reads --delta, so without it an out-of-range
    # delta would pass unchecked
    path = tmp_path / "code.txt"
    assert run(capsys, "construct", "--q", "3", "--n", "7", "--out", str(path))[0] == 0
    for delta in ("1.5", "0.2"):
        rc, out, err = run(capsys, "analyze", str(path), "--checks", checks, "--delta", delta)
        assert (rc, out) == (2, "")
        assert err == "error: --delta applies only to --checks balance\n"


def test_analyze_balance_odd_length_exit2(capsys, tmp_path):
    # 7 columns: n = 3 gives a 6-column group action
    path = tmp_path / "code.txt"
    path.write_text("3 7 1\n1 1 1 1 1 1 1\n")
    rc, out, err = run(capsys, "analyze", str(path), "--checks", "balance")
    assert (rc, out) == (2, "")
    assert err == "error: code length 7 is not 2n = 6\n"


def test_analyze_pruned_upper_below_layer_one(capsys, tmp_path):
    # the plain q = 2, n = 7 code is [14, 6] with rows of weight 4; budget 3
    # expands no message, so the bracket is [1, lightest row]
    path = tmp_path / "code.txt"
    assert run(capsys, "construct", "--q", "2", "--n", "7", "--out", str(path))[0] == 0
    rc, out, _ = run(capsys, "analyze", str(path), "--checks", "min-weight", "--budget", "3", "--format", "json")
    assert rc == 0
    rep = json.loads(out)["min_weight"]
    assert (rep["method"], rep["lower"], rep["upper"], rep["value"]) == ("pruned", 1, 4, 4)


# -- verify-paper ----------------------------------------------------------------------------------


def test_verify_paper_reports_known_defects(capsys):
    # three checks pass; the two statements corrected in this implementation
    # (the self-conjugate-block inner-product dichotomy and the f bar f
    # closed form) fail, so the command exits 1
    rc, out, _ = run(capsys, "verify-paper")
    assert rc == 1
    lines = out.splitlines()
    assert any(l.startswith("PASS counterexample") for l in lines)
    assert any(l.startswith("PASS counting") for l in lines)
    assert any(l.startswith("FAIL selfconj-block-dichotomy") for l in lines)
    assert any(l.startswith("FAIL f-barf-closed-form") for l in lines)
    assert any(l.startswith("PASS conjugation-criteria") for l in lines)


def test_verify_paper_json(capsys):
    rc, out, _ = run(capsys, "verify-paper", "--format", "json")
    assert rc == 1
    rep = json.loads(out)
    names = {c["name"]: c["passed"] for c in rep["checks"]}
    assert names["counterexample(q=7,n=3)"] is True
    assert rep["all_passed"] is False


@pytest.mark.parametrize(
    "qs", ["3,x", "", "3,,5", "7"], ids=["letter", "empty", "empty-entry", "valid-grid"]
)
def test_verify_paper_bad_q_grid_exit2(capsys, qs):
    # the q grid is fixed (cli.PAPER_QS): any --qs is an unknown argument
    rc, out, err = run(capsys, "verify-paper", "--qs", qs)
    assert (rc, out) == (2, "")
    assert err.endswith(f": error: unrecognized arguments: --qs {qs}\n")


@pytest.mark.parametrize("qs", ["3,8192", "3,6"], ids=["above-table-bound", "not-prime-power"])
def test_verify_paper_rejects_q_before_any_check(capsys, monkeypatch, qs):
    def no_checks():
        raise AssertionError("a check ran although the arguments were rejected")

    monkeypatch.setattr(cli, "_paper_checks", no_checks)
    rc, out, err = run(capsys, "verify-paper", "--qs", qs)
    assert (rc, out) == (2, "")
    assert err.endswith(f": error: unrecognized arguments: --qs {qs}\n")
