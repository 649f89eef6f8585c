import random
from itertools import permutations as iter_perms

import pytest

from canonform.errors import SizeMismatch
from canonform.perm import (
    Injection,
    Permutation,
    compose,
    cycles,
    decompose_injection,
    index,
    inverse,
    inversion_count,
    inversions,
    sign,
)


def all_perms(n):
    return [Permutation(p) for p in iter_perms(range(1, n + 1))]


class TestCompose:
    def test_worked_product(self):
        f = Permutation.from_cycles(6, (1, 4, 3))
        g = Permutation.from_cycles(6, (1, 5, 6, 2))
        assert compose(f, g) == Permutation.from_cycles(6, (1, 5, 6, 2, 4, 3))
        assert compose(f, g).images == (5, 4, 1, 3, 6, 2)

    def test_identity_law(self):
        f = Permutation((4, 2, 1, 3))
        assert compose(f, Permutation.identity(4)) == f

    def test_inverse_law(self):
        f = Permutation((4, 2, 1, 3))
        assert compose(f, inverse(f)) == Permutation.identity(4)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            compose(Permutation.identity(2), Permutation.identity(3))


class TestInverse:
    def test_worked_inverse(self):
        h = Permutation.from_cycles(6, (1, 5, 6, 2, 4, 3))
        assert inverse(h) == Permutation.from_cycles(6, (3, 4, 2, 6, 5, 1))

    def test_identity(self):
        assert inverse(Permutation.identity(3)) == Permutation.identity(3)

    def test_involution(self):
        f = Permutation((4, 2, 1, 3))
        assert inverse(inverse(f)) == f


class TestCycles:
    def test_worked_four_cycle(self):
        assert cycles(Permutation((4, 2, 1, 3))) == ((1, 4, 3), (2,))

    def test_identity_keeps_fixed_points(self):
        assert cycles(Permutation.identity(3)) == ((1,), (2,), (3,))

    def test_worked_eight_element(self):
        f = Permutation((7, 5, 8, 2, 1, 3, 4, 6))
        assert cycles(f) == ((1, 7, 4, 2, 5), (3, 8, 6))


class TestIndex:
    def test_worked_example(self):
        f = Permutation((7, 5, 8, 2, 1, 3, 4, 6))
        assert index(f) == 6

    def test_identity(self):
        assert index(Permutation.identity(5)) == 0

    def test_four_cycle(self):
        assert index(Permutation.from_cycles(4, (1, 4, 2, 3))) == 3


class TestInversions:
    def test_sixteen_inversions(self):
        f = Permutation((7, 5, 8, 2, 1, 3, 4, 6))
        assert len(inversions(f)) == 16

    def test_identity_empty(self):
        assert inversions(Permutation.identity(4)) == frozenset()

    def test_single_swap(self):
        assert inversions(Permutation((2, 1))) == frozenset({(1, 2)})


class TestSign:
    def test_four_cycle_is_odd(self):
        assert sign(Permutation.from_cycles(4, (1, 4, 2, 3))) == -1

    def test_identity(self):
        assert sign(Permutation.identity(6)) == 1

    def test_transposition(self):
        for n in (2, 4, 7):
            assert sign(Permutation.from_cycles(n, (1, 2))) == -1


class TestDecomposeInjection:
    def test_worked_injection(self):
        h = Injection((4, 1, 3), codomain=5)
        assert h.n == 3
        f, g = decompose_injection(h)
        assert f.images == (1, 3, 4)
        assert g.images == (3, 1, 2)

    def test_increasing_fixed_point(self):
        h = Injection((2, 5, 6), codomain=6)
        f, g = decompose_injection(h)
        assert f == h and g == Permutation.identity(3)

    def test_two_element_case(self):
        h = Injection((2, 1), codomain=2)
        f, g = decompose_injection(h)
        assert f.images == (1, 2) and g.images == (2, 1)

    def test_round_trip_random(self):
        rng = random.Random(37)
        for _ in range(200):
            p = rng.randint(1, 8)
            n = rng.randint(1, p)
            h = Injection(tuple(rng.sample(range(1, p + 1), n)), codomain=p)
            f, g = decompose_injection(h)
            assert all(f(i) < f(i + 1) for i in range(1, n))
            assert tuple(f(g(i)) for i in range(1, n + 1)) == h.images


class TestProperties:
    def test_sign_homomorphism_exhaustive(self):
        for n in range(1, 6):
            for f in all_perms(n):
                for g in all_perms(n):
                    assert sign(compose(f, g)) == sign(f) * sign(g)

    def test_index_inversions_parity_exhaustive(self):
        for n in range(1, 7):
            for f in all_perms(n):
                assert index(f) % 2 == len(inversions(f)) % 2

    def test_transposition_word_parity(self):
        rng = random.Random(41)
        for _ in range(300):
            n = rng.randint(2, 7)
            q = rng.randint(0, 12)
            f = Permutation.identity(n)
            for _ in range(q):
                i, j = rng.sample(range(1, n + 1), 2)
                f = compose(Permutation.from_cycles(n, (i, j)), f)
            assert index(f) % 2 == q % 2

    def test_max_inversions_is_reversal(self):
        for n in range(1, 7):
            best = max(len(inversions(f)) for f in all_perms(n))
            assert best == n * (n - 1) // 2
            reversal = Permutation(tuple(range(n, 0, -1)))
            assert len(inversions(reversal)) == best


def test_bad_one_line_rejected():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Injection((1, 1), codomain=3)
    with pytest.raises(ValueError):
        Injection((4,), codomain=3)


def test_inversion_count_matches_inversions():
    rng = random.Random("inversion-count")
    perms = [Permutation.identity(7), Permutation(tuple(range(9, 0, -1)))]
    for _ in range(200):
        images = list(range(1, rng.randint(0, 60) + 1))
        rng.shuffle(images)
        perms.append(Permutation(tuple(images)))
    for f in perms:
        assert inversion_count(f) == len(inversions(f)), f.images
