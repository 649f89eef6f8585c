"""Command-line front end: parse matrix files, dispatch to the library,
emit human-readable or JSON reports with optional verification replay.

Exit codes: 0 success, 1 domain errors, 2 parse errors.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import perm
from .determinant import det as compute_det
from .determinant import is_unimodular
from .domain import brief, format_raw, format_scalar
from .errors import Error, ParseError
from .hermite import hermite_canonical, hermite_form, solve
from .invariants import elementary_divisor_values, invariant_report
from .matrix import Matrix, parse_matrix_file
from .similarity import char_poly, jordan, minimal_poly, rcf, similar
from .smith import smith


def _matrix_strings(a: Matrix) -> list[list[str]]:
    return [[format_raw(a.ring, v) for v in row] for row in a.raw_rows()]


def _envelope(verb: str, *, form=None, rank=None, diag=None,
              transforms=None, verified=None, **extra) -> dict:
    report = {
        "verb": verb,
        "form": form,
        "rank": rank,
        "diag": diag,
        "transforms": transforms,
        "verified": verified,
    }
    report.update(extra)
    return report


def _emit(report: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _emit_verified(report: dict, as_json: bool, lines: list[str]) -> int:
    """Print a report whose "verified" is a replay verdict, or None when
    no replay was asked for, with the verdict's text line; return the exit
    code, 1 when the replay failed."""
    verified = report["verified"]
    if verified is not None:
        lines.append(f"verified {str(verified).lower()}")
    _emit(report, as_json, lines)
    return 0 if verified in (None, True) else 1


def _write_transforms(path: str | None, payload: dict) -> None:
    """Write the transforms JSON to path; nothing when path is None.  A
    path that cannot be written raises ParseError."""
    if path is None:
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from None


def _cmd_scalar(args) -> int:
    """det, minpoly and charpoly: one scalar of one matrix file."""
    compute = {"det": compute_det, "minpoly": minimal_poly,
               "charpoly": char_poly}[args.verb]
    value = format_scalar(compute(parse_matrix_file(args.file)))
    _emit(_envelope(args.verb, form=value), args.json, [value])
    return 0


def _cmd_hermite(args) -> int:
    a = parse_matrix_file(args.file)
    res = hermite_canonical(a) if args.canonical else hermite_form(a)
    verified = None
    if args.verify:
        verified = res.q @ a == res.h and is_unimodular(res.q)
    h = _matrix_strings(res.h)
    transforms = {
        "Q": _matrix_strings(res.q),
        "H": h,
        "rank": res.rank,
        "primary_cols": list(res.primary_cols),
    }
    _write_transforms(args.transforms, transforms)
    report = _envelope(
        "hermite", form=h, rank=res.rank,
        transforms=transforms, verified=verified,
        primary_cols=list(res.primary_cols),
    )
    lines = [f"rank {res.rank}",
             "primary_cols " + (",".join(map(str, res.primary_cols)) or "(empty)")]
    lines += [" ".join(row) for row in h]
    return _emit_verified(report, args.json, lines)


def _cmd_smith(args) -> int:
    a = parse_matrix_file(args.file)
    res = smith(a)
    verified = None
    if args.verify:
        verified = (
            res.p @ a @ res.q == res.d
            and is_unimodular(res.p)
            and is_unimodular(res.q)
        )
    diag, d = [format_scalar(v) for v in res.diag], _matrix_strings(res.d)
    transforms = {
        "P": _matrix_strings(res.p),
        "Q": _matrix_strings(res.q),
        "D": d,
        "diag": diag,
        "rank": res.rank,
    }
    _write_transforms(args.transforms, transforms)
    report = _envelope("smith", form=d, rank=res.rank,
                       diag=diag, transforms=transforms, verified=verified)
    lines = [" ".join(diag) if diag else "(empty)", f"rank {res.rank}"]
    return _emit_verified(report, args.json, lines)


def _cmd_invariants(args) -> int:
    a = parse_matrix_file(args.file)
    rep = invariant_report(a)
    fs = [format_scalar(f) for f in rep.det_divisors]
    qs = [format_scalar(q) for q in rep.invariant_factors]
    eds = [format_scalar(v) for v in elementary_divisor_values(rep.elementary_divisors)]
    report = _envelope("invariants", rank=rep.rank, diag=qs, det_divisors=fs,
                       invariant_factors=qs, elementary_divisors=eds)
    lines = [
        f"rank {rep.rank}",
        "det_divisors " + " ".join(fs),
        "invariant_factors " + (" ".join(qs) or "(empty)"),
        "elementary_divisors " + (" ".join(eds) or "(empty)"),
    ]
    _emit(report, args.json, lines)
    return 0


def _similarity_report(args) -> int:
    """rcf, jordan and similar: a similarity certificate, replayed."""
    if args.verb == "similar":
        a = parse_matrix_file(args.file_a)
        cert = similar(a, parse_matrix_file(args.file_b))
        if cert is None:
            report = _envelope("similar", verified=False, similar=False)
            _emit(report, args.json, ["not similar"])
            return 0
        extra = {"similar": True}
    else:
        a = parse_matrix_file(args.file)
        cert, _ = {"rcf": rcf, "jordan": jordan}[args.verb](a)
        extra = {}
    form, s = _matrix_strings(cert.target), _matrix_strings(cert.s)
    report = _envelope(args.verb, form=form, transforms={"S": s},
                       verified=cert.verify(a), **extra)
    # similar prints its conjugator S, rcf and jordan their form
    lines = [" ".join(row) for row in (s if extra else form)]
    if extra:
        lines.insert(0, "similar")
    return _emit_verified(report, args.json, lines)


def _cmd_solve(args) -> int:
    a = parse_matrix_file(args.matrix)
    y = parse_matrix_file(args.vector)
    out = solve(a, y)
    if out is None:
        report = _envelope("solve", solvable=False)
        _emit(report, args.json, ["inconsistent"])
        return 0
    particular, basis = _matrix_strings(out[0]), [_matrix_strings(v) for v in out[1]]
    report = _envelope(
        "solve", form=particular,
        rank=a.n - len(basis), solvable=True,
        nullity=len(basis),
        nullbasis=basis,
    )
    lines = ["particular " + " ".join(r[0] for r in particular),
             f"nullity {len(basis)}"]
    lines += ["null " + " ".join(r[0] for r in v) for v in basis]
    _emit(report, args.json, lines)
    return 0


def _cmd_perm(args) -> int:
    try:
        images = tuple(int(tok) for tok in args.oneline.split(","))
        f = perm.Permutation(images)
    except ValueError as exc:
        raise ParseError(
            f"bad one-line permutation {brief(args.oneline)}: {exc}") from None
    cyc_str = "".join("(" + ",".join(map(str, c)) + ")" for c in perm.cycles(f))
    index, inversions, sign = perm.index(f), perm.inversion_count(f), perm.sign(f)
    inverse = ",".join(map(str, perm.inverse(f).images))
    report = _envelope(
        "perm", form=",".join(map(str, f.images)), cycles=cyc_str,
        index=index, inversions=inversions, sign=sign, inverse=inverse,
    )
    lines = [
        f"cycles {cyc_str}",
        f"index {index}",
        f"inversions {inversions}",
        f"sign {sign:+d}",
        f"inverse {inverse}",
    ]
    _emit(report, args.json, lines)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after."""
    parser = argparse.ArgumentParser(
        prog="canonform",
        description="Exact matrix canonical forms over Z, Q and Q[x].",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, *positional, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="structured report")
        for arg in positional:
            p.add_argument(arg)
        return p

    add("det", _cmd_scalar, "file", help="determinant of a matrix file")
    p = add("hermite", _cmd_hermite, "file", help="row Hermite form QA = H")
    p.add_argument("--canonical", action="store_true",
                   help="normalize pivots and residues to the canonical SDRs")
    p.add_argument("--transforms", metavar="PATH", help="write Q/H JSON")
    p.add_argument("--verify", action="store_true", help="replay QA = H")
    p = add("smith", _cmd_smith, "file", help="Smith form PAQ = D")
    p.add_argument("--transforms", metavar="PATH", help="write P/Q/D JSON")
    p.add_argument("--verify", action="store_true", help="replay PAQ = D")
    add("invariants", _cmd_invariants, "file",
        help="rank, determinantal divisors, invariant factors, elementary divisors")
    add("rcf", _similarity_report, "file", help="rational (Frobenius) canonical form")
    add("jordan", _similarity_report, "file", help="Jordan canonical form")
    add("similar", _similarity_report, "file_a", "file_b",
        help="decide similarity of two matrices")
    add("solve", _cmd_solve, "matrix", "vector", help="solve A x = y exactly")
    add("minpoly", _cmd_scalar, "file", help="minimal polynomial")
    add("charpoly", _cmd_scalar, "file", help="characteristic polynomial")
    p = add("perm", _cmd_perm, help="analyze a permutation in one-line notation")
    p.add_argument("oneline", help="comma-separated images, e.g. 4,2,1,3")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except Error as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
