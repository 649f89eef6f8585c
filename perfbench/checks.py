"""Checks every benchmark output against its planted answer and by replay.

Results arrive as plain values (see plain.py); the replays use plain.py's
own multiply and determinant, never canonform's.  Smith and Hermite
canonical forms are unique, so a replayed certificate plus the canonical
shape pins the whole answer down.
"""
from __future__ import annotations

import json
from fractions import Fraction

try:
    from . import plain
except ImportError:  # run as a script
    import plain


class CheckFailed(AssertionError):
    pass


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


def check_unimodular(ring, u, name):
    require(len(u) == len(u[0]), f"{name} is not square")
    require(ring.is_unit(plain.det(ring, u)), f"{name} is not unimodular")


def check_smith_shape(ring, d, rank):
    """D diagonal with canonical d_1 | d_2 | ... | d_r and zeros after."""
    for i, row in enumerate(d):
        for j, v in enumerate(row):
            require(i == j or ring.is_zero(v), f"D[{i}][{j}] off the diagonal is nonzero")
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    nonzero = [v for v in diag if not ring.is_zero(v)]
    require(diag[:len(nonzero)] == nonzero, "zero diagonal entry before a nonzero one")
    require(len(nonzero) == rank, "rank differs from the diagonal")
    for v in nonzero:
        require(ring.is_canonical(v), f"diagonal entry {v} is not canonical")
    for a, b in zip(nonzero, nonzero[1:]):
        require(ring.divides(a, b), "divisibility chain broken")
    return nonzero


def check_hermite_shape(ring, h):
    """Row echelon with canonical pivots and canonical residues above them;
    returns the rank."""
    pivots = []
    for i, row in enumerate(h):
        lead = next((j for j, v in enumerate(row) if not ring.is_zero(v)), None)
        if lead is None:
            require(all(not any(not ring.is_zero(v) for v in r) for r in h[i:]),
                    "nonzero row below a zero row")
            break
        require(not pivots or lead > pivots[-1], "pivots not strictly to the right")
        pivots.append(lead)
    for t, j in enumerate(pivots):
        pivot = h[t][j]
        require(ring.is_canonical(pivot), f"pivot {pivot} is not canonical")
        for i in range(t):
            require(ring.is_residue(h[i][j], pivot), f"H[{i}][{j}] is not a reduced residue")
    return len(pivots)


def check_smith(op, res):
    ring, a, want = plain.RINGS[op["ring"]], op["args"][0], op["planted"]
    p, q, d = res["p"], res["q"], res["d"]
    require(plain.matmul(ring, plain.matmul(ring, p, a), q) == d, "P A Q != D")
    check_unimodular(ring, p, "P")
    check_unimodular(ring, q, "Q")
    diag = check_smith_shape(ring, d, res["rank"])
    require(list(res["diag"]) == diag, "diag differs from D")
    require(res["rank"] == want["rank"], "rank differs from the planted rank")
    require(diag == list(want["invariant_factors"]), "invariant factors differ from the planted ones")


def check_hermite(op, res):
    ring, a, want = plain.RINGS[op["ring"]], op["args"][0], op["planted"]
    require(plain.matmul(ring, res["q"], a) == res["h"], "Q A != H")
    check_unimodular(ring, res["q"], "Q")
    rank = check_hermite_shape(ring, res["h"])
    require(rank == res["rank"] == want["rank"], "rank differs from the planted rank")


def check_invariants(op, res, eds_as_values=False):
    """eds_as_values: the report lists the prime powers themselves, as the
    CLI does, rather than (prime, exponent) pairs."""
    ring, want = plain.RINGS[op["ring"]], op["planted"]
    facs = list(want["invariant_factors"])
    require(res["rank"] == want["rank"], "rank differs from the planted rank")
    require(list(res["invariant_factors"]) == facs, "invariant factors differ")
    fs = [ring.one]
    for f in facs:
        fs.append(ring.mul(fs[-1], f))
    require(list(res["det_divisors"]) == fs, "determinantal divisors differ")
    eds = [tuple(pe) for pe in want["elementary_divisors"]]
    if eds_as_values:
        eds = [p ** e for p, e in eds]
    require([v if eds_as_values else tuple(v) for v in res["elementary_divisors"]] == eds,
            "elementary divisors differ")


def check_det(op, value):
    want = op["planted"]["det"]
    require(value == want, f"det {value} differs from the planted {want}")


def check_conjugator(a, s, form):
    """S^-1 A S = F, replayed as A S = S F with det S != 0."""
    require(plain.det(plain.Q, s) != 0, "S is singular")
    require(plain.matmul(plain.Q, a, s) == plain.matmul(plain.Q, s, form), "S^-1 A S != F")


def _blocks(form):
    """Split a block-diagonal matrix at the superdiagonal zeros; each block
    must have every entry outside it zero."""
    n, out, start = len(form), [], 0
    for i in range(n):
        if i + 1 < n and form[i][i + 1] != 0:
            continue
        for r in range(start, i + 1):
            for c in range(n):
                require(start <= c <= i or form[r][c] == 0, "form is not block diagonal")
        out.append([row[start:i + 1] for row in form[start:i + 1]])
        start = i + 1
    return out


def jordan_blocks(form):
    out = []
    for blk in _blocks(form):
        k, lam = len(blk), blk[0][0]
        require(blk == plain.jordan_block(lam, k), "a block is not a Jordan block")
        out.append((lam, k))
    return sorted(out)


def companion_polys(form):
    """Companion blocks in canonform's convention (ones on the
    superdiagonal, bottom row a_j with p = x^k - sum a_j x^j)."""
    out, n, start = [], len(form), 0
    while start < n:
        end = start
        while end + 1 < n and form[end][end + 1] == 1 and all(
                form[end][c] == 0 for c in range(n) if c != end + 1):
            end += 1
        blk = [row[start:end + 1] for row in form[start:end + 1]]
        poly = plain.ptrim([-c for c in blk[-1]] + [1])
        require(blk == plain.companion(poly), "a block is not a companion block")
        for r in range(start, end + 1):
            for c in range(n):
                require(start <= c <= end or form[r][c] == 0, "form is not block diagonal")
        out.append(poly)
        start = end + 1
    return sorted(out, key=lambda q: (len(q), q))


def check_jordan(op, res):
    check_conjugator(op["args"][0], res["s"], res["form"])
    require(jordan_blocks(res["form"]) == op["planted"]["jordan_blocks"],
            "Jordan blocks differ from the planted ones")


def check_rcf(op, res):
    check_conjugator(op["args"][0], res["s"], res["form"])
    require(companion_polys(res["form"]) == list(op["planted"]["companion_polys"]),
            "companion blocks differ from the planted ones")


def check_similar(op, res):
    a, b = op["args"]
    if not op["planted"]["similar"]:
        require(res is None, "non-similar pair reported similar")
        return
    require(res is not None, "similar pair reported not similar")
    require(res["target"] == b, "certificate target is not B")
    check_conjugator(a, res["s"], b)


def check_poly(op, value, key):
    require(tuple(value) == tuple(op["planted"][key]), f"{key} differs from the planted one")


# ---------------------------------------------------------------------------
# CLI reports: scalars arrive as text

def parse_scalar(ring, text):
    v = Fraction(text)
    if ring.name == "Z":
        require(v.denominator == 1, f"{text!r} is not an integer")
        return int(v)
    return v


def _grid(ring, rows):
    return [[parse_scalar(ring, t) for t in row] for row in rows]


def check_cli(op, res):
    code, out = res
    require(code == 0, f"canonform exited {code}")
    report = json.loads(out)
    ring = plain.RINGS[op["ring"]]
    kind = op["kind"].removesuffix("_q")
    if kind == "cli_smith":
        t = report["transforms"]
        require(report["verified"] is True, "--verify did not report verified")
        check_smith(op, {"p": _grid(ring, t["P"]), "q": _grid(ring, t["Q"]),
                         "d": _grid(ring, t["D"]), "rank": report["rank"],
                         "diag": [parse_scalar(ring, s) for s in report["diag"]]})
    elif kind == "cli_hermite":
        t = report["transforms"]
        require(report["verified"] is True, "--verify did not report verified")
        require(t["H"] == report["form"], "form differs from the transforms' H")
        check_hermite(op, {"q": _grid(ring, t["Q"]), "h": _grid(ring, t["H"]),
                           "rank": report["rank"]})
    else:
        check_invariants(op, {
            key: [parse_scalar(ring, s) for s in report[key]]
            for key in ("invariant_factors", "det_divisors", "elementary_divisors")
        } | {"rank": report["rank"]}, eds_as_values=True)


CHECKS = {
    "smith": check_smith,
    "hermite": check_hermite,
    "invariants": check_invariants,
    "det": check_det,
    "jordan": check_jordan,
    "rcf": check_rcf,
    "similar": check_similar,
    "not_similar": check_similar,
    "minimal_poly": lambda op, v: check_poly(op, v, "minimal_poly"),
    "char_poly": lambda op, v: check_poly(op, v, "char_poly"),
}


def check(op, result):
    """Raise CheckFailed unless the plain result of op is right."""
    kind = op["kind"]
    (check_cli if kind.startswith("cli_") else CHECKS[kind])(op, result)
