"""Byte-identity of the CLI: sha256 digests of stdout, stderr and exit code.

Each command runs through `cli.main` in-process; its exit code, stdout and
stderr are hashed together and compared with the digest recorded when the
output was last meant to change.  A refactor that keeps every output keeps
this test green; one that changes any byte fails it with the command named.
An `analyze` command reads a code file, so its entry first runs the
`construct` that writes it: the two are joined by ` && `, and only the
analyze output is hashed.
The digests live in `cli_golden.json` next to this file; to re-record after
an intended change, dump `{c: run_digest(c) for c in COMMANDS}` there.
"""

import hashlib
import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from cdcodes.cli import main

DECOMPOSE_QS = (2, 3, 4, 5, 7, 9, 13)
DECOMPOSE_NS = (3, 5, 7, 9, 11, 13, 15, 21)
CONSTRUCT_QN = (
    (2, 7), (2, 9), (3, 5), (3, 7), (3, 11), (4, 5), (4, 9), (5, 3), (5, 7),
    (7, 3), (7, 5), (9, 5), (9, 7), (13, 3), (13, 5),
)
# the (q, n) of each analyzed code and the family analyzed there besides plain
ANALYZE_CODES = (
    (2, 7, "self-dual"), (3, 7, "lcd"), (4, 5, "self-dual"), (5, 7, "self-dual"), (9, 7, "self-dual"),
)
# the analyze arguments pinned on each of those codes
ANALYZE_ARGS = (
    (),
    ("--format", "json"),
    ("--checks", "min-weight", "--budget", "50"),  # a pruned bracket
    ("--checks", "balance", "--delta", "0.2"),
)
CODE_FILE = "code.txt"  # stands for a file in a scratch directory


def _commands() -> list[tuple[str, ...]]:
    cmds = []
    for q in DECOMPOSE_QS:
        for n in DECOMPOSE_NS:
            base = ("decompose", "--q", str(q), "--n", str(n))
            cmds += [base, base + ("--format", "json"), base + ("--format", "json", "--dihedral")]
    for q, n in CONSTRUCT_QN:
        assert math.gcd(q, n) == 1
        for fam in ("plain", "self-dual", "lcd"):
            base = ("construct", "--q", str(q), "--n", str(n), "--family", fam)
            for beta in (("--beta", "identity"), ("--beta", "random", "--seed", "7")):
                for fmt in ("text", "json"):
                    cmds.append(base + beta + ("--format", fmt))
        cmds.append(("construct", "--q", str(q), "--n", str(n), "--family", "lcd", "--include-a0"))
    for q, n, family in ANALYZE_CODES:
        for fam in ("plain", family):
            for beta in (("--beta", "identity"), ("--beta", "random", "--seed", "7")):
                build = ("construct", "--q", str(q), "--n", str(n), "--family", fam, *beta)
                build += ("--out", CODE_FILE)
                cmds += [build + ("&&", "analyze", CODE_FILE) + args for args in ANALYZE_ARGS]
    cmds += [("verify-paper",), ("verify-paper", "--format", "json")]
    return cmds


COMMANDS = [" ".join(c) for c in _commands()]


def run_digest(command: str) -> str:
    *setup, last = command.split(" && ")
    with tempfile.TemporaryDirectory() as tmp:

        def argv(cmd):
            return [str(Path(tmp) / a) if a == CODE_FILE else a for a in cmd.split()]

        for cmd in setup:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                assert main(argv(cmd)) == 0, cmd
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv(last))
    blob = f"{rc}\0{out.getvalue()}\0{err.getvalue()}".encode()
    return hashlib.sha256(blob).hexdigest()


GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("subcommand", ["decompose", "construct", "analyze", "verify-paper"])
def test_cli_output_digests(subcommand):
    cmds = [c for c in COMMANDS if c.split(" && ")[-1].split()[0] == subcommand]
    assert cmds and set(cmds) <= set(GOLDEN)
    changed = [c for c in cmds if run_digest(c) != GOLDEN[c]]
    assert not changed, f"{len(changed)} of {len(cmds)} outputs changed, e.g. {changed[:3]}"
