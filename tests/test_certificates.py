"""Certificate replays are explicit checks: they raise CertificateFailed,
also under `python -O`, and the CLI maps that to exit code 1."""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from canonform.cli import main
from canonform.errors import CertificateFailed
from canonform.hermite import hermite_canonical
from canonform.matrix import Matrix, format_matrix, mat_q, mat_qx, mat_z
from canonform.similarity import SimilarityCertificate

SRC = Path(__file__).resolve().parents[1] / "src"

# Corrupts smith_2x2's associate and its Euclid cofactor s, the rows of P
# that the alternation leaves (P negated) and one term of the raw product
# replaying P A Q = D in smith on Z, one coefficient of P shifted (by x,
# then by 1/7) after the reduction of a Q[x] smith, whose replay runs on
# values packed at x = 2^k, the columns of Q that similar and jordan
# read their bases off, twice, rcf's prime powers twice, and five parts of
# the certificate of the Smith form of xI - A that `_char_smith` checks in
# place of a P (xI - A) Q = D replay, in a process started with -O; exits
# 0 only when every corruption raises CertificateFailed (a zero S_B must
# not surface as NotAUnit), the smith_2x2, P, P A Q = D, zeroed Q, prime
# power and xI - A corruptions from their own checks.  The columns of Q
# are swapped between blocks of unequal invariant factors: any column c
# with q | (xI - A) c that generates its summand, such as a nonzero
# multiple of the true one, still gives a valid conjugator, so scaling is
# no corruption.  Zeroed, the columns give a zero basis, and S_B is
# singular.  rcf's prime powers, each raised one degree where similarity
# reads `_prime_powers`, must be
# caught by `_basis`'s check that a block's power divides its invariant
# factor; the exponents that invariants reads off each d_i, each raised
# by one, by `_prime_powers`'s check that the prime powers multiply back
# to d_i.  The xI - A corruptions run through
# minimal_poly, which has no S replay behind it.  Four act on what
# `_smith_rows` returns for the block Y of nonunit pivots, on the
# nonsingular Jordan matrix whose Hermite form has no unit pivot, so Y is
# all of it: the last d_i times x + 5 breaks the degree sum, the last two
# d_i swapped the divisibility chain, Q_Y's first column added to its last
# the divisibility of (xI - A) Q by D, and Q_Y's first column zeroed,
# which divides by anything, leaves Q(0) singular.  Q_Y arrives
# transposed in the qt argument of `_smith_rows`: its rows are the
# columns of Q_Y.  The fifth adds one to the entry H_13 of the Hermite
# form of xI - A that `_krylov_hermite` reads off the Krylov relations of
# a cyclic A, a unit pivot's row and the nonunit pivot's column, so one
# entry -H_tj of Q is wrong, and the divisibility of (xI - A) Q by D must
# catch it.
CORRUPTED_STEPS = textwrap.dedent("""\
    import dataclasses, importlib, sys
    from fractions import Fraction
    from canonform.domain import Ring, polynomial
    from canonform.errors import CertificateFailed
    from canonform.matrix import Matrix, mat_q, mat_z

    if __debug__:
        sys.exit("expected to run under python -O")
    sm = importlib.import_module("canonform.smith")
    sim = importlib.import_module("canonform.similarity")
    inv = importlib.import_module("canonform.invariants")

    orig_euclid = sm.RAW_EUCLID
    zdivmod, neg, assoc = orig_euclid[Ring.Z]
    def doubled(x):
        u, c = assoc(x)
        return u, c + c
    sm.RAW_EUCLID = {**orig_euclid, Ring.Z: (zdivmod, neg, doubled)}
    try:
        sm.smith(mat_z([[6, 0], [0, 4]]))
        sys.exit("corrupted smith_2x2 was not caught")
    except CertificateFailed as exc:
        if "smith_2x2 certificate failed" not in str(exc):
            sys.exit(f"the 2x2 replay did not catch the associate: {exc}")
    sm.RAW_EUCLID = orig_euclid

    orig_egcd = sm.raw_egcd
    def shifted_s(ring, a, b):
        d, s, t = orig_egcd(ring, a, b)
        return d, s + 1, t
    sm.raw_egcd = shifted_s
    try:
        sm.smith(mat_z([[6, 0], [0, 4]]))
        sys.exit("corrupted egcd in smith_2x2 was not caught")
    except CertificateFailed as exc:
        if "smith_2x2 certificate failed" not in str(exc):
            sys.exit(f"the 2x2 replay did not catch it: {exc}")
    sm.raw_egcd = orig_egcd

    orig_product = sm.raw_multiply
    def dropped_term(ring, arows, brows):
        out = orig_product(ring, arows, brows)
        out[0][0] -= arows[0][0] * brows[0][0]  # Z: entry (1,1) loses k = 1
        return out
    sm.raw_multiply = dropped_term
    try:
        sm.smith(mat_z([[2, 4], [6, 8]]))
        sys.exit("a dropped term in the P A Q replay was not caught")
    except CertificateFailed as exc:
        if "P A Q = D" not in str(exc):
            sys.exit(f"the P A Q replay did not catch it: {exc}")
    sm.raw_multiply = orig_product

    qx_add = sm.RAW_OPS[Ring.QX][0]
    orig_smith_rows = sm._smith_rows
    for shift in (polynomial([0, 1]).raw, polynomial([Fraction(1, 7)]).raw):
        def shifted_p(ring, rows, p, qt, shift=shift):
            diag = orig_smith_rows(ring, rows, p, qt)
            p[0][0] = qx_add(p[0][0], shift)
            return diag
        sm._smith_rows = shifted_p
        try:
            sm.smith(Matrix.from_rows(Ring.QX, [[[0, 1], [1]], [[0, 0, 1], [2, 1]]]))
            sys.exit("a shifted coefficient of P on Q[x] was not caught")
        except CertificateFailed as exc:
            if str(exc) != "Smith certificate P A Q = D failed":
                sys.exit(f"the packed P A Q replay did not catch it: {exc}")
    sm._smith_rows = orig_smith_rows

    orig_alternate = sm._alternate
    def negated_p(ring, d, p, qt):
        out = orig_alternate(ring, d, p, qt)
        p[:] = [[-v for v in row] for row in p]
        return out
    sm._alternate = negated_p
    try:
        sm.smith(mat_z([[2, 4], [6, 8]]))
        sys.exit("a corrupted P from the alternation was not caught")
    except CertificateFailed as exc:
        if "P A Q = D" not in str(exc):
            sys.exit(f"the P A Q replay did not catch the corrupted P: {exc}")
    sm._alternate = orig_alternate

    add, zero = sm.RAW_OPS[Ring.QX][0], sm.RAW_OPS[Ring.QX][2]
    derogatory = mat_q([[3, 1, -1], [-1, 1, 1], [0, 0, 2]])  # x - 2, (x - 2)^2
    jordan_form = mat_q([[2, 1, 0], [0, 2, 0], [0, 0, 2]])
    two_primes = mat_q([[-4, -1, -5], [3, 3, 2], [3, 1, 4]])  # (x - 2)^2 (x + 1)

    orig_char_smith = sim._char_smith
    def q_reversed(a):
        res = orig_char_smith(a)
        return dataclasses.replace(res, q=res.q[::-1])
    sim._char_smith = q_reversed
    for name, call in (("similar", lambda: sim.similar(derogatory, jordan_form)),
                       ("jordan", lambda: sim.jordan(derogatory))):
        try:
            call()
            sys.exit(f"corrupted {name} was not caught")
        except CertificateFailed:
            pass

    def q_zeroed(a):
        res = orig_char_smith(a)
        return dataclasses.replace(res, q=[[zero] * len(col) for col in res.q])
    sim._char_smith = q_zeroed
    try:
        sim.similar(mat_q([[1, 1], [0, 1]]), mat_q([[1, 0], [1, 1]]))
        sys.exit("zeroed columns of Q were not caught")
    except CertificateFailed as exc:
        if "the Frobenius basis of B is singular" not in str(exc):
            sys.exit(f"the inverse of S_B did not catch it: {exc}")
    sim._char_smith = orig_char_smith

    orig_blocks = sim._prime_powers
    sim._prime_powers = lambda chain: [(i, p, e + 1) for i, p, e in orig_blocks(chain)]
    try:
        sim.rcf(two_primes)
        sys.exit("a block power not dividing its invariant factor was not caught")
    except CertificateFailed as exc:
        if "x^3-6*x^2+12*x-8 does not divide the invariant factor x^3-3*x^2+4" not in str(exc):
            sys.exit(f"the divisibility of the invariant factor did not catch it: {exc}")
    sim._prime_powers = orig_blocks

    orig_multiplicity = inv._multiplicity
    inv._multiplicity = lambda p, d: (e := orig_multiplicity(p, d)) and e + 1
    try:
        sim.rcf(two_primes)
        sys.exit("a wrong exponent of a prime in an invariant factor was not caught")
    except CertificateFailed as exc:
        if ("the prime powers of the invariant factor x^3-3*x^2+4 do not multiply back"
                not in str(exc)):
            sys.exit(f"the product of the prime powers did not catch it: {exc}")
    inv._multiplicity = orig_multiplicity

    def last_factor_times_x_plus_5(diag, q_columns):
        diag[-1] = diag[-1] * polynomial([5, 1])
    def last_two_factors_swapped(diag, q_columns):
        diag[-2:] = diag[:-3:-1]
    def q_last_column_plus_first(diag, q_columns):
        q_columns[-1] = [add(u, v) for u, v in zip(q_columns[-1], q_columns[0])]
    def q_first_column_zeroed(diag, q_columns):
        q_columns[0] = [zero] * len(q_columns[0])

    orig_rows = sim._smith_rows
    for corrupt, check in (
            (last_factor_times_x_plus_5, "degrees of the invariant factors sum to 4, not 3"),
            (last_two_factors_swapped, "x^2-4*x+4 does not divide x-2"),
            (q_last_column_plus_first, "column 3 of (xI - A) Q is not divisible by x^2-4*x+4"),
            (q_first_column_zeroed, "Q(0) is singular")):
        def corrupted(ring, rows, p, qt, corrupt=corrupt):
            diag = orig_rows(ring, rows, p, qt)
            corrupt(diag, qt)
            return diag
        sim._smith_rows = corrupted
        try:
            sim.minimal_poly(jordan_form)
            sys.exit(f"{corrupt.__name__} was not caught")
        except CertificateFailed as exc:
            if check not in str(exc):
                sys.exit(f"{corrupt.__name__} was not caught by its own check: {exc}")
    sim._smith_rows = orig_rows

    orig_hermite, one = sim._krylov_hermite, polynomial([1]).raw
    def h_entry_plus_one(aints, adens):
        h = orig_hermite(aints, adens)
        if h[0][0] != one or h[2][2] == one:
            sys.exit("H_11 is not a unit pivot or H_33 not a nonunit one")
        h[0][2] = add(h[0][2], one)
        return h
    sim._krylov_hermite = h_entry_plus_one
    try:
        sim.minimal_poly(two_primes)
        sys.exit("a corrupted entry -H_13 of Q was not caught")
    except CertificateFailed as exc:
        if "column 3 of (xI - A) Q is not divisible by x^3-3*x^2+4" not in str(exc):
            sys.exit(f"the divisibility of (xI - A) Q did not catch it: {exc}")
    sim._krylov_hermite = orig_hermite
    print("caught")
""")


def test_corrupted_certificates_raise_under_dash_o():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-O", "-c", CORRUPTED_STEPS],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "caught"


# A Pollard-Brent split that is not a divisor, and prime powers that do not
# multiply back to the input, on Z and (a squarefree split that drops its
# last factor) on Q[x], each raise CertificateFailed under -O, each from
# its own replay.
CORRUPTED_FACTOR = textwrap.dedent("""\
    import importlib, sys
    from canonform.errors import CertificateFailed

    if __debug__:
        sys.exit("expected to run under python -O")
    dom = importlib.import_module("canonform.domain")

    orig_brent = dom._brent
    dom._brent = lambda n, c, limit, walk=None: (3, 1)
    try:
        dom.factor(dom.integer(1000000007 * 998244353))
        sys.exit("a non-divisor split was not caught")
    except CertificateFailed as exc:
        if "does not divide" not in str(exc):
            sys.exit(f"the split replay did not catch it: {exc}")
    dom._brent = orig_brent

    orig_factor_int = dom._factor_int
    dom._factor_int = lambda n: {**orig_factor_int(n), 2: 1}
    try:
        dom.factor(dom.integer(45))
        sys.exit("a wrong product was not caught")
    except CertificateFailed as exc:
        if "multiply back" not in str(exc):
            sys.exit(f"the product replay did not catch it: {exc}")
    dom._factor_int = orig_factor_int

    orig_split = dom._split_squarefree
    dom._split_squarefree = lambda p: orig_split(p)[:-1]
    try:
        dom.factor(dom.polynomial([2, -3, 1]))
        sys.exit("a dropped Q[x] factor was not caught")
    except CertificateFailed as exc:
        if "multiply back" not in str(exc):
            sys.exit(f"the Q[x] product replay did not catch it: {exc}")
    print("caught")
""")


def test_corrupted_factor_raises_under_dash_o():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-O", "-c", CORRUPTED_FACTOR],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "caught"


# A corrupted Euclidean step on Q[x] and on Z, each in smith,
# hermite_canonical and `canonform smith --verify`, which must stop with
# CertificateFailed under -O (so from an explicit check), not a bare Python
# exception or a wrong answer: the divmod that hermite reads off RAW_EUCLID
# returns a quotient one too large, and column clearing checks each updated
# entry against the remainder.
CORRUPTED_EUCLID = textwrap.dedent("""\
    import contextlib, importlib, io, sys, tempfile
    from pathlib import Path
    from canonform.domain import Ring
    from canonform.errors import CertificateFailed
    from canonform.matrix import format_matrix, mat_qx, mat_z

    if __debug__:
        sys.exit("expected to run under python -O")
    herm = importlib.import_module("canonform.hermite")
    sm = importlib.import_module("canonform.smith")
    cli = importlib.import_module("canonform.cli")

    def check(what, a):
        for call in (sm.smith, herm.hermite_canonical):
            try:
                call(a)
                sys.exit(f"corrupted {what} in {call.__name__} was not caught")
            except CertificateFailed:
                pass
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "a.mtx"
            path.write_text(format_matrix(a))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["smith", str(path), "--verify"])
        if code != 1 or not err.getvalue().startswith("error: CertificateFailed"):
            sys.exit(f"corrupted {what} in the CLI gave exit {code}: {err.getvalue()!r}")

    euclid = herm.RAW_EUCLID
    for ring, a in ((Ring.QX, mat_qx([["x", "1"], ["x+1", "x"]])),
                    (Ring.Z, mat_z([[2, 4], [6, 8]]))):
        divmod_, neg, assoc = euclid[ring]
        add, one = herm.RAW_OPS[ring][0], herm.Elem.one(ring).raw
        def overshot(a, b, divmod_=divmod_, add=add, one=one):
            c, r = divmod_(a, b)
            return add(c, one), r
        herm.RAW_EUCLID = {**euclid, ring: (overshot, neg, assoc)}
        check(f"{ring} divmod", a)
    herm.RAW_EUCLID = euclid
    print("caught")
""")


def test_corrupted_euclid_raises_under_dash_o():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-O", "-c", CORRUPTED_EUCLID],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "caught"


def test_diagonalize_cap_is_a_named_error(monkeypatch, tmp_path, capsys):
    import importlib
    sm = importlib.import_module("canonform.smith")
    monkeypatch.setattr(sm, "_ALTERNATION_CAP", 0)
    with pytest.raises(CertificateFailed, match="within 0 passes"):
        sm.diagonalize(mat_z([[2, 4], [6, 8]]))
    path = tmp_path / "a.mtx"
    path.write_text(format_matrix(mat_z([[2, 4], [6, 8]])))
    assert main(["smith", str(path)]) == 1
    assert "CertificateFailed" in capsys.readouterr().err


@pytest.mark.parametrize("a,after_one_pass,size", [
    (mat_z([[-5, 5], [3, -5]]), mat_z([[1, 2], [0, 10]]), "4 bits"),
    (mat_qx([["3*x-1", "0"], ["3", "-2*x+2"]]),
     mat_qx([["1", "x-1"], ["0", "x^2-4/3*x+1/3"]]), "degree 2 with 3-bit coefficients"),
], ids=["Z", "Q[x]"])
def test_diagonalize_cap_names_passes_and_largest_entry(monkeypatch, a, after_one_pass, size):
    """Both inputs need a second pass.  After the first (a column and a
    row canonicalization) the largest working entry is 10, of 4 bits, on
    Z, and (3x^2 - 4x + 1)/3 on Q[x]: degree 2, numerators and common
    denominator of at most 3 bits."""
    import importlib
    sm = importlib.import_module("canonform.smith")
    assert hermite_canonical(
        hermite_canonical(a.transpose()).h.transpose()).h == after_one_pass
    monkeypatch.setattr(sm, "_ALTERNATION_CAP", 1)
    with pytest.raises(CertificateFailed,
                       match=f"within 1 passes; the largest working entry has {size}$"):
        sm.diagonalize(a)
    monkeypatch.setattr(sm, "_ALTERNATION_CAP", 2)
    sm.diagonalize(a)


@pytest.mark.parametrize("call", ["similar", "rcf", "jordan"])
def test_similarity_path_never_reaches_canonical_presentation(call, monkeypatch):
    """`_basis` reads each basis off the coefficient layers of Q's columns
    and evaluates nothing at A; canonical_presentation, left_eval and
    right_eval stay public for callers and tests only."""
    import importlib
    sim = importlib.import_module("canonform.similarity")

    for name in ("canonical_presentation", "left_eval", "right_eval"):
        def forbidden(*args, name=name):
            raise AssertionError(f"{name} reached")

        monkeypatch.setattr(sim, name, forbidden)
    a = mat_q([[-4, -1, -5], [3, 3, 2], [3, 1, 4]])
    out = sim.similar(a, a) if call == "similar" else getattr(sim, call)(a)
    cert = out if call == "similar" else out[0]
    assert cert.verify(a)


def test_verify_returns_false_on_shape_mismatch():
    a = mat_q([[1, 2], [3, 4]])
    cert = SimilarityCertificate(Matrix.identity(a.ring, 3), a)
    assert cert.verify(a) is False
