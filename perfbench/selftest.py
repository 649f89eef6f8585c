"""Tests of the benchmark itself: the planted answers, and the checker's
power to reject wrong results.

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import copy
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402
import plain  # noqa: E402
import run  # noqa: E402

CF = run.load_canonform()


def first(workload, kind, pred=lambda op: True):
    """The first operation of that kind, over rounds 0.., that pred accepts."""
    for k in range(50):
        for op in inputs.round_ops(workload, 7, k):
            if op["kind"] == kind and pred(op):
                return op
    raise LookupError(kind)


def result(op):
    return run.to_plain(op["kind"], run.call(CF, op["kind"], run.build_op(CF, op, None, "")))


class PlantedAnswers(unittest.TestCase):
    def test_det_matches_plain_bareiss(self):
        for workload in ("z_invariants", "qx_smith"):
            for op in inputs.round_ops(workload, 3, 0):
                if op["kind"] == "det":
                    ring = plain.RINGS[op["ring"]]
                    self.assertEqual(op["planted"]["det"], plain.det(ring, op["args"][0]))

    def test_char_poly_matches_det_of_xI_minus_A(self):
        for op in inputs.round_ops("similarity", 3, 0):
            a = op["args"][0]
            n = len(a)
            xa = [[plain.padd((0, 1) if i == j else (), plain.pneg(plain.ptrim((a[i][j],))))
                   for j in range(n)] for i in range(n)]
            self.assertEqual(op["planted"]["char_poly"], plain.det(plain.QX, xa))

    def test_same_seed_same_inputs(self):
        self.assertEqual(inputs.digest("qx_smith", 5, 2), inputs.digest("qx_smith", 5, 2))
        self.assertNotEqual(inputs.digest("qx_smith", 5, 2), inputs.digest("qx_smith", 6, 2))


class CheckerAcceptsCanonform(unittest.TestCase):
    def test_round_zero_of_every_library_workload(self):
        for workload in ("z_invariants", "qx_smith", "similarity"):
            for op in inputs.round_ops(workload, 11, 0):
                checks.check(op, result(op))


class CheckerRejectsCorruption(unittest.TestCase):
    def assertRejected(self, op, res, words):
        with self.assertRaises(checks.CheckFailed) as ctx:
            checks.check(op, res)
        self.assertIn(words, str(ctx.exception))

    def smith_case(self):
        op = first("z_invariants", "smith",
                   lambda op: len(set(op["planted"]["invariant_factors"])) > 1)
        res = result(op)
        checks.check(op, res)
        return op, res

    def test_changed_entry_of_d(self):
        op, res = self.smith_case()
        bad = copy.deepcopy(res)
        bad["d"][0][0] += 1
        self.assertRejected(op, bad, "P A Q != D")

    def test_swapped_diagonal_entries(self):
        # Swap rows of P and columns of Q too, so the certificate replays and
        # only the canonical shape can catch it.
        op, res = self.smith_case()
        diag = res["diag"]
        i, j = 0, next(t for t in range(len(diag)) if diag[t] != diag[0])
        bad = copy.deepcopy(res)
        bad["p"][i], bad["p"][j] = bad["p"][j], bad["p"][i]
        for row in bad["q"]:
            row[i], row[j] = row[j], row[i]
        bad["d"][i][i], bad["d"][j][j] = bad["d"][j][j], bad["d"][i][i]
        bad["diag"][i], bad["diag"][j] = bad["diag"][j], bad["diag"][i]
        self.assertEqual(plain.matmul(plain.Z, plain.matmul(plain.Z, bad["p"], op["args"][0]),
                                      bad["q"]), bad["d"])
        self.assertRejected(op, bad, "divisibility chain broken")

    def test_non_unimodular_p(self):
        # Doubling a row of P and of D keeps P A Q = D.
        op, res = self.smith_case()
        bad = copy.deepcopy(res)
        bad["p"][0] = [2 * v for v in bad["p"][0]]
        bad["d"][0] = [2 * v for v in bad["d"][0]]
        self.assertRejected(op, bad, "P is not unimodular")

    def test_wrong_jordan_block(self):
        op = first("similarity", "jordan")
        res = result(op)
        checks.check(op, res)
        form = res["form"]
        t = next(i for i in range(len(form) - 1) if form[i][i + 1] == 1)
        bad = copy.deepcopy(res)
        bad["form"][t][t + 1] = 0
        self.assertRejected(op, bad, "S^-1 A S != F")
        # A consistent certificate for the wrong structure still fails the plant.
        wrong = copy.deepcopy(op)
        wrong["planted"]["jordan_blocks"] = sorted(
            wrong["planted"]["jordan_blocks"][1:] + [(99, 1)])
        self.assertRejected(wrong, res, "Jordan blocks differ")

    def test_unreduced_hermite_residue(self):
        op = first("z_invariants", "hermite")
        res = result(op)
        checks.check(op, res)
        bad = copy.deepcopy(res)
        # row 0 += row 1 on both Q and H: Q A = H still holds
        bad["q"][0] = [x + y for x, y in zip(bad["q"][0], bad["q"][1])]
        bad["h"][0] = [x + y for x, y in zip(bad["h"][0], bad["h"][1])]
        self.assertRejected(op, bad, "not a reduced residue")


if __name__ == "__main__":
    unittest.main()
