import json
import random
import time
from fractions import Fraction

import pytest

from canonform.cli import main
from canonform.domain import Ring
from canonform.matrix import format_matrix, mat_q, mat_qx, mat_z, parse_matrix

from conftest import random_matrix

# 46 digits, above the Miller-Rabin bound, and its smaller prime factor
# 2^61 - 1 is far beyond the Pollard-Brent budget
UNSPLITTABLE = (2**61 - 1) * (2**89 - 1)

DIRSUM_TEXT = """\
ring Z
rows 4
cols 4
1 2 0 0
2 3 0 0
0 0 3 4
0 0 4 1
"""

ROT90_TEXT = """\
ring Q
rows 2
cols 2
0 -1
1 0
"""


@pytest.fixture
def dirsum(tmp_path):
    path = tmp_path / "dirsum.mtx"
    path.write_text(DIRSUM_TEXT)
    return str(path)


@pytest.fixture
def rot90(tmp_path):
    path = tmp_path / "rot90.mtx"
    path.write_text(ROT90_TEXT)
    return str(path)


def write(tmp_path, name, matrix):
    path = tmp_path / name
    path.write_text(format_matrix(matrix))
    return str(path)


ENVELOPE_KEYS = {"form", "rank", "diag", "transforms", "verified"}


def run_json(capsys, argv):
    code = main(argv)
    report = json.loads(capsys.readouterr().out)
    assert ENVELOPE_KEYS <= set(report)
    return code, report


class TestDet:
    def test_direct_sum_prints_13(self, dirsum, capsys):
        assert main(["det", dirsum]) == 0
        assert capsys.readouterr().out.strip() == "13"

    def test_json_envelope(self, dirsum, capsys):
        code, report = run_json(capsys, ["det", dirsum, "--json"])
        assert code == 0 and report["form"] == "13"


class TestHermite:
    def test_transforms_file(self, dirsum, tmp_path, capsys):
        out = tmp_path / "t.json"
        code = main(["hermite", dirsum, "--canonical", "--verify",
                     "--transforms", str(out)])
        assert code == 0
        assert "verified true" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert set(payload) == {"Q", "H", "rank", "primary_cols"}
        assert payload["rank"] == 4

    def test_replay_matches_library(self, tmp_path, capsys):
        rng = random.Random(317)
        a = random_matrix(rng, Ring.Z, 3, 4)
        path = write(tmp_path, "a.mtx", a)
        code, report = run_json(capsys, ["hermite", path, "--canonical",
                                         "--verify", "--json"])
        assert code == 0 and report["verified"] is True
        q = parse_matrix("ring Z\nrows 3\ncols 3\n" + "\n".join(
            " ".join(row) for row in report["transforms"]["Q"]) + "\n")
        h = parse_matrix("ring Z\nrows 3\ncols 4\n" + "\n".join(
            " ".join(row) for row in report["transforms"]["H"]) + "\n")
        assert q @ a == h


    def test_zero_matrix_prints_empty_primary_cols(self, tmp_path, capsys):
        path = write(tmp_path, "zero.mtx", mat_z([[0, 0], [0, 0]]))
        assert main(["hermite", path]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "rank 0", "primary_cols (empty)", "0 0", "0 0"]
        code, report = run_json(capsys, ["hermite", path, "--json"])
        assert code == 0 and report["primary_cols"] == []


class TestSmith:
    def test_zero_matrix(self, tmp_path, capsys):
        path = write(tmp_path, "zero.mtx", mat_z([[0, 0], [0, 0]]))
        code, report = run_json(capsys, ["smith", path, "--json"])
        assert code == 0
        assert report["rank"] == 0 and report["diag"] == []

    def test_prints_chain_and_rank(self, dirsum, capsys):
        assert main(["smith", dirsum, "--verify"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "1 1 1 13"
        assert "rank 4" in out and "verified true" in out

    def test_transforms_replay(self, tmp_path, capsys):
        rng = random.Random(331)
        a = random_matrix(rng, Ring.Z, 3, 3)
        path = write(tmp_path, "a.mtx", a)
        out = tmp_path / "pq.json"
        assert main(["smith", path, "--transforms", str(out), "--verify"]) == 0
        payload = json.loads(out.read_text())

        def reparse(rows):
            m, n = len(rows), len(rows[0])
            body = "\n".join(" ".join(r) for r in rows)
            return parse_matrix(f"ring Z\nrows {m}\ncols {n}\n{body}\n")

        p, q, d = (reparse(payload[k]) for k in ("P", "Q", "D"))
        assert p @ a @ q == d


class TestInvariants:
    def test_report_lines(self, dirsum, capsys):
        assert main(["invariants", dirsum]) == 0
        out = capsys.readouterr().out
        assert "rank 4" in out
        assert "det_divisors 1 1 1 1 13" in out
        assert "invariant_factors 1 1 1 13" in out
        assert "elementary_divisors 13" in out

    def test_rootless_cubic_with_semiprime_constant(self, tmp_path, capsys):
        # the root candidates divide 1000000007 * 998244353: none is a root
        path = write(tmp_path, "cubic.mtx", mat_qx([["x^3-998244359987710471"]]))
        assert main(["invariants", str(path)]) == 0
        out = capsys.readouterr().out
        assert "elementary_divisors x^3-998244359987710471" in out

    def test_chain_whose_first_factor_does_not_factor(self, tmp_path, capsys):
        # (x^2 + 1)(x^2 + 2) | (x^2 + 1)(x^2 + 2)^2: only the last is factored
        path = write(tmp_path, "chain.mtx", mat_qx([["x^4+3*x^2+2", "0"],
                                                     ["0", "x^6+5*x^4+8*x^2+4"]]))
        assert main(["invariants", path]) == 0
        assert "elementary_divisors x^2+1 x^2+1 x^2+2 x^4+4*x^2+4" in (
            capsys.readouterr().out.splitlines())


class TestSimilarityVerbs:
    def test_jordan_rejects_rotation_naming_the_prime(self, rot90, capsys):
        assert main(["jordan", rot90]) == 1
        assert "x^2+1" in capsys.readouterr().err

    def test_jordan_emits_certificate(self, tmp_path, capsys):
        path = write(tmp_path, "n.mtx", mat_q([[0, 1], [0, 0]]))
        code, report = run_json(capsys, ["jordan", path, "--json"])
        assert code == 0 and report["verified"] is True
        assert report["form"] == [["0", "1"], ["0", "0"]]

    def test_rcf(self, rot90, capsys):
        code, report = run_json(capsys, ["rcf", rot90, "--json"])
        assert code == 0 and report["verified"] is True
        assert report["form"] == [["0", "1"], ["-1", "0"]]

    def test_similar_pair(self, tmp_path, capsys):
        a = write(tmp_path, "a.mtx", mat_q([[1, 1], [0, 1]]))
        b = write(tmp_path, "b.mtx", mat_q([[1, 0], [1, 1]]))
        code, report = run_json(capsys, ["similar", a, b, "--json"])
        assert code == 0 and report["similar"] is True and report["verified"] is True

    def test_not_similar(self, tmp_path, capsys):
        a = write(tmp_path, "a.mtx", mat_q([[1, 0], [0, 1]]))
        b = write(tmp_path, "b.mtx", mat_q([[1, 1], [0, 1]]))
        assert main(["similar", a, b]) == 0
        assert "not similar" in capsys.readouterr().out

    def test_minpoly_charpoly(self, tmp_path, capsys):
        path = write(tmp_path, "j.mtx", mat_q([[1, 1], [0, 1]]))
        assert main(["minpoly", path]) == 0
        assert capsys.readouterr().out.strip() == "x^2-2*x+1"
        assert main(["charpoly", path]) == 0
        assert capsys.readouterr().out.strip() == "x^2-2*x+1"


class TestSolve:
    def test_solve_reports_solution(self, tmp_path, capsys):
        a = write(tmp_path, "a.mtx", mat_q([[1, 1], [0, 1]]))
        y = write(tmp_path, "y.mtx", mat_q([[3], [1]]))
        code, report = run_json(capsys, ["solve", a, y, "--json"])
        assert code == 0
        assert report["form"] == [["2"], ["1"]]
        assert report["nullity"] == 0

    def test_inconsistent(self, tmp_path, capsys):
        a = write(tmp_path, "a.mtx", mat_z([[1], [1]]))
        y = write(tmp_path, "y.mtx", mat_z([[1], [2]]))
        assert main(["solve", a, y]) == 0
        assert "inconsistent" in capsys.readouterr().out

    def test_text_with_null_space(self, tmp_path, capsys):
        a = write(tmp_path, "a.mtx", mat_q([[1, 2, 0], [0, 0, 1]]))
        y = write(tmp_path, "y.mtx", mat_q([[3], [4]]))
        assert main(["solve", a, y]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "particular 3 0 4", "nullity 1", "null -2 1 0"]


class TestPerm:
    def test_analysis(self, capsys):
        assert main(["perm", "4,2,1,3"]) == 0
        out = capsys.readouterr().out
        assert "cycles (1,4,3)(2)" in out
        assert "index 2" in out
        assert "sign +1" in out

    def test_bad_input_is_parse_error(self, capsys):
        assert main(["perm", "1,1,2"]) == 2


# The usage line of every parser, so that a change to how the parser is
# built cannot drop, rename or reorder an argument unnoticed.
USAGE = {
    None: "usage: canonform [-h] {det,hermite,smith,invariants,rcf,jordan,"
          "similar,solve,minpoly,charpoly,perm} ...",
    "det": "usage: canonform det [-h] [--json] file",
    "hermite": "usage: canonform hermite [-h] [--json] [--canonical] "
               "[--transforms PATH] [--verify] file",
    "smith": "usage: canonform smith [-h] [--json] [--transforms PATH] [--verify] file",
    "invariants": "usage: canonform invariants [-h] [--json] file",
    "rcf": "usage: canonform rcf [-h] [--json] file",
    "jordan": "usage: canonform jordan [-h] [--json] file",
    "similar": "usage: canonform similar [-h] [--json] file_a file_b",
    "solve": "usage: canonform solve [-h] [--json] matrix vector",
    "minpoly": "usage: canonform minpoly [-h] [--json] file",
    "charpoly": "usage: canonform charpoly [-h] [--json] file",
    "perm": "usage: canonform perm [-h] [--json] oneline",
}


@pytest.mark.parametrize("verb", USAGE, ids=lambda v: v or "top")
def test_help_usage_line(verb, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one usage line, no wrapping
    with pytest.raises(SystemExit) as exc:
        main([verb, "--help"] if verb else ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.splitlines()[0] == USAGE[verb]


class TestExitCodes:
    def test_parse_error_is_2(self, tmp_path, capsys):
        path = tmp_path / "bad.mtx"
        path.write_text("ring Z\nrows 0\ncols 1\n")
        assert main(["det", str(path)]) == 2

    def test_missing_file_is_2(self, capsys):
        assert main(["det", "/nonexistent/file.mtx"]) == 2

    def test_domain_error_is_1(self, tmp_path, capsys):
        path = write(tmp_path, "wide.mtx", mat_z([[1, 2]]))
        assert main(["det", str(path)]) == 1  # NotSquare

    def test_huge_degree_is_2_quickly(self, tmp_path, capsys):
        path = tmp_path / "huge.mtx"
        path.write_text("ring Q[x]\nrows 1\ncols 1\nx^100000000\n")
        start = time.perf_counter()
        assert main(["det", str(path)]) == 2
        assert time.perf_counter() - start < 2.0
        err = capsys.readouterr().err
        assert "degree 100000000" in err and "limit 10000" in err

    @pytest.mark.parametrize("ring,text", [("Z", "1" * 5000), ("Q", "-" + "7" * 5000 + "/3")],
                             ids=["Z", "Q"])
    def test_overlong_numeral_is_2(self, tmp_path, capsys, ring, text):
        path = tmp_path / "long.mtx"
        path.write_text(f"ring {ring}\nrows 1\ncols 1\n{text}\n")
        assert main(["det", str(path)]) == 2
        assert "5000-digit number is too long" in capsys.readouterr().err

    def test_unfactorable_semiprime_is_1_quickly(self, tmp_path, capsys):
        path = write(tmp_path, "semi.mtx", mat_z([[UNSPLITTABLE]]))
        start = time.perf_counter()
        assert main(["invariants", str(path)]) == 1
        assert time.perf_counter() - start < 5.0
        assert "FactorizationIncomplete" in capsys.readouterr().err

    def test_rootless_cubic_with_unsplittable_constant_is_0_quickly(self, tmp_path, capsys):
        # the rational roots are found without factoring the semiprime constant
        path = write(tmp_path, "cubic.mtx", mat_qx([[f"x^3-{UNSPLITTABLE}"]]))
        start = time.perf_counter()
        assert main(["invariants", str(path)]) == 0
        assert time.perf_counter() - start < 5.0
        assert f"elementary_divisors x^3-{UNSPLITTABLE}" in capsys.readouterr().out

    def test_factorization_incomplete_is_1(self, tmp_path, capsys):
        # companion of x^4 + 1: a rootless quartic is beyond the factorizer
        from canonform.domain import polynomial
        from canonform.similarity import companion
        path = write(tmp_path, "c.mtx", companion(polynomial([1, 0, 0, 0, 1])))
        assert main(["rcf", str(path)]) == 1

    def test_rcf_of_irreducible_cubic_is_0(self, tmp_path, capsys):
        # companion of x^3 - 2: one irreducible cubic elementary divisor
        from canonform.domain import polynomial
        from canonform.similarity import companion
        path = write(tmp_path, "c.mtx", companion(polynomial([-2, 0, 0, 1])))
        assert main(["rcf", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "0 1 0", "0 0 1", "2 0 0", "verified true"]


# Exact P/Q/D and Q/H of the JSON transforms, pinned so that a refactor of
# the elimination code cannot change them unnoticed.
GOLDEN = {
    # diag(6, 4): one chain step on slots (1, 2)
    "six_four": (
        mat_z([[6, 0], [0, 4]]),
        {"P": [["1", "1"], ["2", "3"]],
         "Q": [["1", "-2"], ["-1", "3"]],
         "D": [["2", "0"], ["0", "12"]],
         "diag": ["2", "12"], "rank": 2},
        {"Q": [["1", "0"], ["0", "1"]],
         "H": [["6", "0"], ["0", "4"]],
         "primary_cols": [1, 2], "rank": 2},
    ),
    # 3x4 over Z: chain steps on the non-adjacent slots (1, 3), then (2, 3); the
    # last column of Q spans the kernel, so its sign follows the clearing order
    "wide": (
        mat_z([[0, -2, 6, 2], [-4, -6, -6, 2], [-1, 0, -9, 0]]),
        {"P": [["1", "0", "1"], ["-2", "1", "0"], ["1", "-1", "0"]],
         "Q": [["-1", "-2", "-4", "-9"], ["1", "2", "5", "6"],
               ["0", "0", "0", "1"], ["1", "1", "3", "3"]],
         "D": [["1", "0", "0", "0"], ["0", "2", "0", "0"], ["0", "0", "4", "0"]],
         "diag": ["1", "2", "4"], "rank": 3},
        {"Q": [["0", "0", "-1"], ["-4", "1", "-4"], ["-3", "1", "-4"]],
         "H": [["1", "0", "9", "0"], ["0", "2", "6", "-6"], ["0", "0", "12", "-4"]],
         "primary_cols": [1, 2, 3], "rank": 3},
    ),
    # 3x3 over Q[x]: one chain step on slots (2, 3)
    "qx": (
        mat_qx([["x", "1/2", "0"], ["0", "x", "0"], ["0", "0", "x-2"]]),
        {"P": [["1", "0", "0"], ["-2*x", "1", "1"],
               ["-1/2*x^3+2*x", "1/4*x^2-1", "1/4*x^2"]],
         "Q": [["0", "-1/8", "1/2*x-1"], ["2", "1/4*x", "-x^2+2*x"],
               ["0", "-1/4*x-1/2", "x^2"]],
         "D": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "x^3-2*x^2"]],
         "diag": ["1", "1", "x^3-2*x^2"], "rank": 3},
        {"Q": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
         "H": [["x", "1/2", "0"], ["0", "x", "0"], ["0", "0", "x-2"]],
         "primary_cols": [1, 2, 3], "rank": 3},
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
class TestGoldenTransforms:
    def test_smith(self, name, tmp_path, capsys):
        a, smith_golden, _ = GOLDEN[name]
        code, report = run_json(capsys, ["smith", write(tmp_path, "a.mtx", a), "--json"])
        assert code == 0
        assert report["transforms"] == smith_golden
        assert report["diag"] == smith_golden["diag"]

    def test_hermite_canonical(self, name, tmp_path, capsys):
        a, _, hermite_golden = GOLDEN[name]
        code, report = run_json(capsys, ["hermite", write(tmp_path, "a.mtx", a),
                                         "--canonical", "--json"])
        assert code == 0
        assert report["transforms"] == hermite_golden


# Exact S and form of each similarity verb (the key), pinned so that a change to the
# Smith, basis or inverse code under the similarity layer cannot move them unnoticed.
GOLDEN_CONJUGATORS = {
    # U^-1 (J_2(2) + J_1(-1)) U: one Jordan 2-block
    "jordan": (
        [mat_q([[-4, -1, -5], [3, 3, 2], [3, 1, 4]])],
        [["2", "1", "0"], ["0", "2", "0"], ["0", "0", "-1"]],
        [["-1", "0", "-2"], ["1", "1", "1"], ["1", "0", "1"]],
    ),
    # U^-1 (rotation + J_2(3)) U: an x^2+1 companion block
    "rcf": (
        [mat_q([["7/3", "-2/3", "4/3", "2/3"], ["-7/3", "-1/3", "-10/3", "-2/3"],
                ["5/3", "2/3", "5/3", "1/3"], ["2/3", "2/3", "-4/3", "7/3"]])],
        [["0", "1", "0", "0"], ["-9", "6", "0", "0"],
         ["0", "0", "0", "1"], ["0", "0", "-1", "0"]],
        [["7/2", "-3/2", "-1", "0"], ["-7/2", "3/2", "-1/2", "3/2"],
         ["7/4", "-3/4", "1", "0"], ["1", "0", "1", "0"]],
    ),
    "similar": (
        [mat_q([[2, 1, 0], [0, 2, 0], [0, 0, 1]]),
         mat_q([[1, 0, 0], [1, 2, 0], [3, 1, 2]])],
        [["1", "0", "0"], ["1", "2", "0"], ["3", "1", "2"]],
        [["-3", "-1", "-1"], ["-1", "-1", "0"], ["-2", "0", "0"]],
    ),
}


def _fraction_rank(rows) -> int:
    """The rank of a matrix of Fractions, by Gaussian elimination."""
    rows, rank = [list(row) for row in rows], 0
    for j in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            c = rows[i][j] / rows[rank][j]
            rows[i] = [x - c * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _fraction_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@pytest.mark.parametrize("name", sorted(GOLDEN_CONJUGATORS))
def test_golden_conjugator(name, tmp_path, capsys):
    """The pinned S replays in Fractions, apart from the library's verify:
    A S = S form with S invertible, A the first input."""
    mats, form, s = GOLDEN_CONJUGATORS[name]
    a = [[e.value for e in row] for row in mats[0].rows()]
    fs, fform = ([[Fraction(v) for v in row] for row in rows] for rows in (s, form))
    assert _fraction_rank(fs) == len(fs)
    assert _fraction_product(a, fs) == _fraction_product(fs, fform)
    paths = [write(tmp_path, f"m{i}.mtx", m) for i, m in enumerate(mats)]
    code, report = run_json(capsys, [name, *paths, "--json"])
    assert code == 0 and report["verified"] is True
    assert report["form"] == form
    assert report["transforms"] == {"S": s}


def test_perm_of_a_long_reversal_is_fast(capsys):
    n = 20_000
    start = time.perf_counter()
    assert main(["perm", ",".join(map(str, range(n, 0, -1)))]) == 0
    assert time.perf_counter() - start < 2.0
    assert f"inversions {n * (n - 1) // 2}" in capsys.readouterr().out.splitlines()


BAD_FILES = {
    "non-utf8.mtx": b"ring Z\nrows 1\ncols 1\n\xff\n",
    "rows0.mtx": b"ring Z\nrows 0\ncols 1\n",
    "huge-degree.mtx": b"ring Q[x]\nrows 1\ncols 1\nx^100000000\n",
    "long-numeral.mtx": b"ring Z\nrows 1\ncols 1\n" + b"1" * 5000 + b"\n",
    "wide.mtx": b"ring Z\nrows 1\ncols 2\n1 2\n",
    "semiprime.mtx": b"ring Z\nrows 1\ncols 1\n%d\n" % UNSPLITTABLE,
    "digits8001.mtx": b"ring Z\nrows 2\ncols 2\n1" + b"0" * 4000 + b" 0\n0 1" + b"0" * 4000 + b"\n",
    "ok.mtx": b"ring Z\nrows 2\ncols 2\n1 2\n3 4\n",
}

# (argv with {dir} for the file directory, exit code, stderr prefix)
FAILING_COMMANDS = [
    (["det", "{dir}/non-utf8.mtx"], 2, "parse error: cannot read"),
    (["smith", "{dir}/non-utf8.mtx", "--json"], 2, "parse error: cannot read"),
    (["similar", "{dir}/ok.mtx", "{dir}/non-utf8.mtx"], 2, "parse error: cannot read"),
    (["smith", "{dir}/ok.mtx", "--transforms", "{dir}/missing/t.json"], 2,
     "parse error: cannot write"),
    (["hermite", "{dir}/ok.mtx", "--transforms", "{dir}"], 2, "parse error: cannot write"),
    (["det", "{dir}/digits8001.mtx"], 1, "error: OutputTooLarge: a 8001-digit number"),
    (["det", "{dir}/digits8001.mtx", "--json"], 1, "error: OutputTooLarge"),
    (["det", "{dir}/rows0.mtx"], 2, "parse error:"),
    (["det", "{dir}/absent.mtx"], 2, "parse error: cannot read"),
    (["det", "{dir}/huge-degree.mtx"], 2, "parse error:"),
    (["smith", "{dir}/long-numeral.mtx"], 2, "parse error:"),
    (["det", "{dir}/wide.mtx"], 1, "error: NotSquare"),
    (["invariants", "{dir}/semiprime.mtx"], 1, "error: FactorizationIncomplete"),
    (["perm", "1,1,2"], 2, "parse error:"),
]


@pytest.mark.parametrize("argv,code,prefix", FAILING_COMMANDS,
                         ids=[" ".join(argv).replace("{dir}/", "") for argv, _, _ in FAILING_COMMANDS])
def test_failures_are_one_stderr_line(argv, code, prefix, tmp_path, capsys):
    for name, data in BAD_FILES.items():
        (tmp_path / name).write_bytes(data)
    assert main([a.format(dir=tmp_path) for a in argv]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(prefix), err
