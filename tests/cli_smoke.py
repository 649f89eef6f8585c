"""Smoke checks of the CLI run as `python -O -m canonform.cli`, standard
library only (pytest does not collect this file).

    python tests/cli_smoke.py lines VERB ARGS... -- LINES...
        runs the verb, prints its output, and fails unless it exits 0 and
        prints each of LINES as a whole line.
    python tests/cli_smoke.py verified VERB ARGS...
        runs the verb with --verify --json and fails unless the report
        says "verified": true.
    python tests/cli_smoke.py json VERB ARGS... -- KEY=JSON...
        runs the verb with --json and fails unless, for each KEY=JSON, the
        report's value at KEY (a dotted path, such as transforms.S) equals
        the JSON value.
    python tests/cli_smoke.py replay VERB FILE [TARGET]
        runs the verb with --json, writes the report beside FILE with the
        suffix .json, and fails unless the report says "verified": true
        and its S replays in Fractions: A S = S form for the matrix A of
        FILE (for `similar` the form is TARGET), and S is nonsingular.

The exit status is 0 when every check holds and 1 with a message when one
fails.
"""
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(args: list) -> str:
    """The stdout of the CLI under -O; a nonzero exit fails the check."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-O", "-m", "canonform.cli", *args],
                          env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode:
        sys.exit(f"canonform {' '.join(args)} exited {done.returncode}")
    return done.stdout


def lines(args: list) -> None:
    cut = args.index("--")
    text = run_cli(args[:cut])
    print(text, end="")
    printed = text.splitlines()
    for line in args[cut + 1:]:
        if line not in printed:
            sys.exit(f"canonform {' '.join(args[:cut])} did not print the line {line!r}")


def verified(args: list) -> None:
    report = json.loads(run_cli([*args, "--verify", "--json"]))
    if report.get("verified") is not True:
        sys.exit(f"canonform {' '.join(args)}: the report is not verified: {report}")
    print(" ".join(args[:1]), "verified")


def keys(args: list) -> None:
    cut = args.index("--")
    report = json.loads(run_cli([*args[:cut], "--json"]))
    for pair in args[cut + 1:]:
        key, want = pair.split("=", 1)
        got = report
        for part in key.split("."):
            if not isinstance(got, dict) or part not in got:
                sys.exit(f"canonform {' '.join(args[:cut])}: the report has no {key}: {report}")
            got = got[part]
        # compared as JSON text, so that true is not 1
        if json.dumps(got) != json.dumps(json.loads(want)):
            sys.exit(f"canonform {' '.join(args[:cut])}: {key} is {json.dumps(got)}, not {want}")
    print(" ".join(args[:cut]), "reports", *args[cut + 1:])


def _fractions(rows) -> list:
    return [[Fraction(v) for v in row] for row in rows]


def replay(verb: str, *files: str) -> None:
    """A S = S form and det S != 0 in Fractions, apart from the CLI's own
    replay, and "verified": true in the report."""
    text = run_cli([verb, *files, "--json"])
    Path(files[0]).with_suffix(".json").write_text(text)
    report = json.loads(text)
    if report.get("verified") is not True:
        sys.exit(f"{verb} {files[0]}: the report is not verified: {report}")
    body = Path(files[0]).read_text().split("\n")[3:]
    a = _fractions(line.split() for line in body if line.strip())
    s, t = _fractions(report["transforms"]["S"]), _fractions(report["form"])
    mul = lambda x, y: [[sum(u * v for u, v in zip(row, col)) for col in zip(*y)] for row in x]
    if mul(a, s) != mul(s, t):
        sys.exit(f"{verb} {files[0]}: A S != S form")
    w = [row[:] for row in s]
    for j in range(len(w)):
        p = next((i for i in range(j, len(w)) if w[i][j]), None)
        if p is None:
            sys.exit(f"{verb} {files[0]}: S is singular")
        w[j], w[p] = w[p], w[j]
        for i in range(j + 1, len(w)):
            c = w[i][j] / w[j][j]
            w[i] = [x - c * y for x, y in zip(w[i], w[j])]
    print(verb, Path(files[0]).stem, "S replays in Fractions")


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "lines":
        lines(rest)
    elif mode == "verified":
        verified(rest)
    elif mode == "json":
        keys(rest)
    elif mode == "replay":
        replay(*rest)
    else:
        sys.exit(f"unknown mode {mode!r}: expected lines, verified, json or replay")
