"""Differential tests against sympy on seeded inputs: invariant factors of
xI - A over Q[x], characteristic polynomials over Q, Smith diagonals and
Hermite forms over Z, Jordan block sizes, integer factorizations, and
the rational roots of integer polynomials.
sympy computes each answer independently of canonform.  Then derandomized
hypothesis properties: the Smith diagonal and the Hermite form are
invariant under unimodular multipliers, Cayley-Hamilton holds, factor
replays, and the Q[x] det and Smith replay on values packed at x = 2^k
agree with the expansion and the generic product."""
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import QQ, ZZ, Matrix as SMatrix, Poly, factorint, prevprime, symbols
from sympy.polys.matrices import DomainMatrix
from sympy.matrices.normalforms import hermite_normal_form
from sympy.polys.matrices.normalforms import invariant_factors, smith_normal_form

from canonform.determinant import det, det_expansion
from canonform.domain import (Ring, _rational_roots, factor, integer, polynomial, rational,
                              raw_clear_rows, raw_pack, raw_unpack)
from canonform.hermite import _canonicalize, hermite_canonical
from canonform.matrix import Matrix, mat_q, raw_multiply
from canonform.similarity import (
    SimilarityCertificate,
    _char_product,
    _krylov_hermite,
    char_matrix,
    char_poly,
    companion,
    hypercompanion,
    jordan,
    minimal_poly,
    scalar_poly_eval,
    similarity_invariants,
)
from canonform.smith import _replay_qx, smith

from conftest import random_matrix, random_unimodular

X = symbols("x")
QX = QQ[X]


def to_fraction(c) -> Fraction:
    return Fraction(int(c.numerator), int(c.denominator))


def monic(coeffs_high_first) -> tuple:
    """Coefficients lowest degree first, scaled to a monic polynomial."""
    cs = [to_fraction(c) for c in coeffs_high_first]
    return tuple(c / cs[0] for c in reversed(cs))


def rows_of(a: Matrix) -> list[list[Fraction]]:
    return [[e.value for e in a.row(i)] for i in range(1, a.m + 1)]


def random_q_square(rng, n) -> Matrix:
    a = random_matrix(rng, Ring.Q, n, n, bound=5)
    if n > 1 and rng.random() < 0.25:  # singular: last row = first + second
        rows = a.rows()
        rows[-1] = [x + y for x, y in zip(rows[0], rows[1 % (n - 1)])]
        a = Matrix.from_rows(Ring.Q, rows)
    return a


def derogatory(rng, n) -> Matrix:
    """U B U^-1 with B block diagonal over at most two eigenvalues, so that
    xI - A has several nontrivial invariant factors."""
    lams, half = rng.sample(range(-3, 4), 2), (n + 1) // 2
    b = SMatrix.zeros(n, n)
    for i in range(n):
        b[i, i] = lams[0] if i < half else lams[1]
        if i + 1 < n and i + 1 != half and rng.random() < 0.4:  # Jordan link
            b[i, i + 1] = 1
    u = SMatrix.eye(n)
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        u[i, :] = u[i, :] + rng.choice([-1, 1, 2]) * u[j, :]
    a = u * b * u.inv()
    return mat_q([[to_fraction(a[i, j]) for j in range(n)] for i in range(n)])


def sympy_invariants(a: Matrix) -> list[tuple]:
    n = a.m
    entries = rows_of(a)
    char = [[QX.convert(X) * (i == j) - QX.convert(QQ(entries[i][j].numerator,
                                                         entries[i][j].denominator))
             for j in range(n)] for i in range(n)]
    return [monic(f.to_dense()) for f in invariant_factors(DomainMatrix(char, (n, n), QX))]


@pytest.mark.parametrize("make", [random_q_square, derogatory])
def test_invariant_factors_of_char_matrix(make):
    rng = random.Random(f"oracle-invariants/{make.__name__}")
    for k in range(25):
        a = make(rng, rng.randint(1, 6))
        got = [f.value for f in similarity_invariants(a)]
        assert got == sympy_invariants(a), (make.__name__, k, rows_of(a))


def test_char_poly():
    rng = random.Random("oracle-charpoly")
    for k in range(40):
        a = random_q_square(rng, rng.randint(1, 6))
        want = monic(SMatrix(rows_of(a)).charpoly(X).all_coeffs())
        assert char_poly(a).value == want, (k, rows_of(a))


def test_smith_diagonal_z():
    rng = random.Random("oracle-smith")
    for k in range(100):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = random_matrix(rng, Ring.Z, m, n)
        if m > 1 and k % 4 == 3:  # rank-deficient: last row = first + second
            rows = a.rows()
            rows[-1] = [x + y for x, y in zip(rows[0], rows[1 % (m - 1)])]
            a = Matrix.from_rows(Ring.Z, rows)
        dm = DomainMatrix([[ZZ(v) for v in row] for row in rows_of(a)], (m, n), ZZ)
        snf = smith_normal_form(dm).to_Matrix()
        want = [abs(int(snf[i, i])) for i in range(min(m, n)) if snf[i, i] != 0]
        assert [d.value for d in smith(a).diag] == want, (k, rows_of(a))


def test_hermite_form_z():
    """sympy's HNF is column-style with the pivots at the bottom right:
    H = J HNF((J A J)^T)^T J maps it onto canonform's row form, J being
    the exchange matrix."""
    rng = random.Random("oracle-hermite")
    for k in range(120):
        n = rng.randint(1, 6)
        a = random_matrix(rng, Ring.Z, n, n)
        if det(a).is_zero():
            continue
        j = SMatrix(n, n, lambda r, c: int(r + c == n - 1))
        sa = SMatrix(rows_of(a))
        want = (j * hermite_normal_form((j * sa * j).T).T * j).tolist()
        assert rows_of(hermite_canonical(a).h) == want, (k, rows_of(a))


@pytest.mark.parametrize("n", [20, 30])
def test_smith_and_hermite_z_at_scale(n):
    """Random Z matrices of the sizes where egcd cofactors once grew to
    thousands of bits: the Smith diagonal against sympy's invariant
    factors and H against its HNF (mapped as in test_hermite_form_z),
    each transform replayed and unimodular."""
    for seed in range(2):
        a = random_matrix(random.Random(f"oracle-scale/{n}/{seed}"), Ring.Z, n, n)
        rows = rows_of(a)
        dm = DomainMatrix([[ZZ(v) for v in row] for row in rows], (n, n), ZZ)
        s = smith(a)
        assert [d.value for d in s.diag] == [abs(int(f)) for f in invariant_factors(dm)]
        assert s.p @ a @ s.q == s.d
        assert det(s.p).is_unit() and det(s.q).is_unit()
        j = SMatrix(n, n, lambda r, c: int(r + c == n - 1))
        want = (j * hermite_normal_form((j * SMatrix(rows) * j).T).T * j).tolist()
        h = hermite_canonical(a)
        assert rows_of(h.h) == want
        assert h.q @ a == h.h and det(h.q).is_unit()


@pytest.mark.parametrize("ring,n", [(Ring.Q, 6), (Ring.Z, 10), (Ring.QX, 4)])
def test_alternation_stays_far_below_its_cap(ring, n, monkeypatch):
    """The corpus on which plain echelon passes hit the alternation cap:
    smith needs at most two column-and-row pairs of canonical passes on
    each of 20 random inputs, where the cap allows 200 pairs."""
    import importlib
    sm = importlib.import_module("canonform.smith")
    calls = []
    canonicalize = sm._canonicalize

    def counted(*args):
        calls.append(1)
        return canonicalize(*args)

    monkeypatch.setattr(sm, "_canonicalize", counted)
    for k in range(20):
        calls.clear()
        sm.smith(random_matrix(random.Random(f"cap/{ring.name}/{n}/{k}"), ring, n, n))
        assert len(calls) <= 4 < 2 * sm._ALTERNATION_CAP, (k, len(calls))


def conjugated_jordan(rng, n) -> tuple[Matrix, list]:
    """U J U^-1 for a Jordan matrix J of random blocks with rational
    eigenvalues, and J's (eigenvalue, size) blocks."""
    blocks, left = [], n
    while left:
        size = rng.randint(1, left)
        blocks.append((Fraction(rng.choice([-2, -1, 0, 1, 3])) / rng.choice([1, 1, 2]), size))
        left -= size
    j = SMatrix.zeros(n, n)
    i = 0
    for lam, size in blocks:
        for k in range(i, i + size):
            j[k, k] = lam
            if k + 1 < i + size:
                j[k, k + 1] = 1
        i += size
    u = SMatrix(rows_of(random_unimodular(rng, Ring.Z, n)))
    a = u * j * u.inv()
    return mat_q([[to_fraction(a[r, c]) for c in range(n)] for r in range(n)]), blocks


def jordan_blocks(rows) -> list:
    """Sorted (eigenvalue, size) blocks of a Jordan matrix given by rows."""
    out, start, n = [], 0, len(rows)
    for i in range(n):
        if i + 1 == n or rows[i][i + 1] == 0:
            out.append((rows[i][i], i + 1 - start))
            start = i + 1
    return sorted(out)


def test_jordan_block_sizes():
    rng = random.Random("oracle-jordan")
    for k in range(20):
        a, planted = conjugated_jordan(rng, rng.randint(1, 6))
        _, j = SMatrix(rows_of(a)).jordan_form()
        want = jordan_blocks([[to_fraction(j[r, c]) for c in range(a.n)] for r in range(a.m)])
        _, form = jordan(a)
        assert jordan_blocks(rows_of(form)) == want == sorted(planted), (k, rows_of(a))


@pytest.mark.parametrize("ring,size", [(Ring.Z, 5), (Ring.QX, 3)], ids=["Z", "Q[x]"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 5), n=st.integers(1, 5))
def test_smith_diagonal_is_unimodular_invariant(ring, size, seed, m, n):
    rng = random.Random(seed)
    m, n = min(m, size), min(n, size)
    a = random_matrix(rng, ring, m, n, max_deg=1)
    u, v = random_unimodular(rng, ring, m), random_unimodular(rng, ring, n)
    assert smith(u @ a @ v).diag == smith(a).diag


@pytest.mark.parametrize("ring,size", [(Ring.Z, 5), (Ring.Q, 4), (Ring.QX, 3)],
                         ids=["Z", "Q", "Q[x]"])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 5), n=st.integers(1, 5),
       singular=st.booleans())
def test_hermite_form_is_unimodular_invariant(ring, size, seed, m, n, singular):
    rng = random.Random(seed)
    m, n = min(m, size), min(n, size)
    a = random_matrix(rng, ring, m, n, max_deg=1)
    if singular and m > 1:  # rank-deficient: last row = first + second
        rows = a.rows()
        rows[-1] = [x + y for x, y in zip(rows[0], rows[1 % (m - 1)])]
        a = Matrix.from_rows(ring, rows)
    u = random_unimodular(rng, ring, m)
    assert hermite_canonical(u @ a).h == hermite_canonical(a).h


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5))
def test_cayley_hamilton(seed, n):
    a = random_q_square(random.Random(seed), n)
    chi, mu = char_poly(a), minimal_poly(a)
    assert scalar_poly_eval(chi, a).is_zero()
    assert scalar_poly_eval(mu, a).is_zero()
    assert divmod(chi, mu)[1].is_zero()


def krylov_input(kind, rng, n) -> Matrix:
    """An n x n Q matrix: random with denominators, zero, scalar cI (no
    pivot of xI - A is a unit), the nilpotent Jordan block, a companion
    matrix or its transpose (one nonunit pivot), or a derogatory one."""
    c = Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
    if kind == "random":
        return random_matrix(rng, Ring.Q, n, n, bound=rng.choice([3, 9, 97]))
    if kind == "zero":
        return Matrix.zeros(Ring.Q, n, n)
    if kind == "scalar":
        return Matrix.identity(Ring.Q, n).scale(rational(c.numerator, c.denominator))
    if kind == "nilpotent":
        return hypercompanion(0, n)
    if kind in ("companion", "companion-transposed"):
        q = polynomial([Fraction(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(n)]
                       + [1])
        return companion(q) if kind == "companion" else companion(q).transpose()
    return derogatory(rng, n)


KRYLOV_KINDS = ["random", "zero", "scalar", "nilpotent", "companion",
                "companion-transposed", "derogatory"]


@pytest.mark.parametrize("kind", KRYLOV_KINDS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
@example(seed=12, n=12)
@example(seed=14, n=14)
def test_krylov_hermite_is_the_hermite_form_of_char_matrix(kind, seed, n):
    """The H that _char_smith reads off Krylov relations over Q is the one
    the Q[x] elimination gives on xI - A, bit for bit.  The examples at
    n = 12 and 14 give relations on up to 14 Krylov vectors, with D^l
    seeds past the first few slots on the random kind."""
    a = krylov_input(kind, random.Random(seed), n)
    h = [list(row) for row in char_matrix(a).raw_rows()]
    _canonicalize(Ring.QX, h, [[]] * n)
    assert _krylov_hermite(*raw_clear_rows(a.raw_rows())) == h
    nonunit = sum(h[t][t] != polynomial([1]).raw for t in range(n))
    expected = {"zero": n, "scalar": n, "companion-transposed": 1}.get(kind)
    assert expected is None or nonunit == expected


@pytest.mark.parametrize("kind", KRYLOV_KINDS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), w=st.integers(1, 4))
def test_char_product_is_the_q_x_product(kind, seed, n, w):
    """(xI - A) C by coefficient layers on A's integer rows equals the
    generic Q[x] product with xI - A, bit for bit."""
    rng = random.Random(seed)
    a = krylov_input(kind, rng, n)
    c = [[(e * polynomial([Fraction(1, rng.randint(1, 6))])).raw for e in row]
         for row in random_matrix(rng, Ring.QX, n, w, max_deg=3).rows()]
    assert (_char_product(*raw_clear_rows(a.raw_rows()), c)
            == raw_multiply(Ring.QX, char_matrix(a).raw_rows(), c))


# Q[x] entries of degree <= 4 with coefficients up to 2^80 over denominators
# up to 2^20, each of a random bit size; one row is zeroed or repeated, or
# every lead is negated.
SHAPES = ["plain", "zero row", "repeated row", "negative lead"]


def big_qx_square(rng, n, shape) -> Matrix:
    def entry():
        return [Fraction(rng.randint(-2**rng.randint(0, 80), 2**rng.randint(0, 80)),
                         rng.randint(1, 2**rng.randint(0, 20)))
                for _ in range(rng.randint(0, 5))]
    rows = [[entry() for _ in range(n)] for _ in range(n)]
    if shape == "zero row":
        rows[rng.randrange(n)] = [[] for _ in range(n)]
    elif shape == "repeated row" and n > 1:
        i, j = rng.sample(range(n), 2)
        rows[j] = list(rows[i])
    elif shape == "negative lead":
        rows = [[c[:-1] + [-abs(c[-1]) or -1] if c else c for c in row] for row in rows]
    return Matrix.from_rows(Ring.QX, rows)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), shape=st.sampled_from(SHAPES))
@example(seed=1, n=5, shape="plain")
@example(seed=2, n=5, shape="negative lead")
@example(seed=3, n=4, shape="plain")
@example(seed=4, n=4, shape="negative lead")
def test_packed_det_agrees_with_expansion_over_q_x(seed, n, shape):
    a = big_qx_square(random.Random(seed), n, shape)
    assert det(a) == det_expansion(a)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), shape=st.sampled_from(SHAPES),
       shift=st.sampled_from([[0, 1], [Fraction(1, 3)], [0, 0, 0, 0, 0, -1]]))
@example(seed=5, n=5, shape="plain", shift=[Fraction(1, 3)])
@example(seed=6, n=4, shape="negative lead", shift=[0, 1])
def test_packed_replay_agrees_with_the_q_x_product(seed, n, shape, shift):
    """smith's replay of P A Q = D at x = 2^k accepts D = P A Q from the
    generic Q[x] product and rejects D with one entry shifted, as the
    product does."""
    rng = random.Random(seed)
    p, a, q = (big_qx_square(rng, n, shape).raw_rows() for _ in range(3))
    d = raw_multiply(Ring.QX, raw_multiply(Ring.QX, p, a), q)
    qt = [list(col) for col in zip(*q)]
    assert _replay_qx(p, a, qt, d)
    i, j = rng.randrange(n), rng.randrange(n)
    d[i][j] = (polynomial(shift) + Matrix.from_raw(Ring.QX, d).entry(i + 1, j + 1)).raw
    assert raw_multiply(Ring.QX, raw_multiply(Ring.QX, p, a), q) != d
    assert not _replay_qx(p, a, qt, d)


@pytest.mark.parametrize("n", [8, 10])
@pytest.mark.parametrize("seed", [1, 2])
def test_packed_replay_accepts_smiths_own_transforms(seed, n):
    """smith's own P and Q of an n x n Q[x] matrix reach degree 12-19, far
    wider fields than the draws above: the replay accepts P A Q = D and
    rejects D with x added to entry (1, 1)."""
    a = random_matrix(random.Random(seed), Ring.QX, n, n)
    res = smith(a)
    p, qt, d = res.p.raw_rows(), res.q.transpose().raw_rows(), res.d.raw_rows()
    assert _replay_qx(p, a.raw_rows(), qt, d)
    d[0][0] = (polynomial([0, 1]) + res.d.entry(1, 1)).raw
    assert not _replay_qx(p, a.raw_rows(), qt, d)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(p=st.integers(1, 2**40), a=st.integers(-2**40, 2**40), q=st.integers(1, 2**40))
@example(p=127, a=127, q=127)
def test_packed_replay_rejects_d_equal_to_p_a_q_at_a_smaller_power_of_two(p, a, q):
    """For 1x1 constants, the polynomial of the base-2^j digits of paq
    equals paq at x = 2^j and nowhere that k's bound allows."""
    const = lambda v: [[polynomial([v]).raw]]
    c = p * a * q
    assert _replay_qx(const(p), const(a), const(q), const(c))
    sign, mag = (-1 if c < 0 else 1), abs(c)
    for j in range(8, mag.bit_length(), 8):
        digits = [sign * (mag >> s & (2**j - 1)) for s in range(0, mag.bit_length(), j)]
        assert not _replay_qx(const(p), const(a), const(q), [[polynomial(digits).raw]])


def packable(k):
    """(k, c) for lists c of ints below 2^(k-1) in absolute value."""
    top = 2**(k - 1) - 1
    return st.tuples(st.just(k), st.lists(
        st.one_of(st.integers(-top, top), st.sampled_from([0, top, -top])), max_size=12))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(kc=st.sampled_from([8, 16, 24, 64, 136]).flatmap(packable))
@example(kc=(8, [-127, 0, 0, -127]))
@example(kc=(8, [0, 0, 127]))
@example(kc=(136, [2**135 - 1, -(2**135 - 1)]))
@example(kc=(16, [0, -1, 0, 0]))
@example(kc=(8, []))
def test_unpack_inverts_pack(kc):
    """The packed value of c is c(2^k), and unpacking it gives c less its
    trailing zeros."""
    k, c = kc
    (v,), = raw_pack([[c]], k)
    assert v == sum(t << (k * i) for i, t in enumerate(c))
    while c and not c[-1]:
        c = c[:-1]
    assert raw_unpack(v, k) == c


def test_packed_det_of_degree_2000_entries():
    """A 2x2 Q[x] det whose entries pack into thousands of fields, against
    ad - bc."""
    rng = random.Random(2000)
    a, b, c, d = (polynomial([Fraction(rng.randint(-2**80, 2**80), rng.choice((1, 2, 3, 6)))
                              for _ in range(2001)]) for _ in range(4))
    assert det(Matrix.from_rows(Ring.QX, [[a, b], [c, d]])) == a * d - b * c


# (2^61 - 1)(2^89 - 1): a semiprime beyond the Z factorizer.
UNSPLITTABLE = (2**61 - 1) * (2**89 - 1)


def planted_factors(rng) -> dict:
    """Distinct monic irreducibles of Q[x] with exponents: linear x - r,
    r small or UNSPLITTABLE / 7, quadratics x^2 + bx + c with b^2 < 4c,
    cubics (x - s)^3 - k with k not a rational cube.  Rootless factors get
    distinct exponents, so each squarefree part has at most one of them,
    which factor can split off."""
    out = {}
    roots = [Fraction(v, d) for v in range(-3, 4) for d in (1, 2)] + [Fraction(UNSPLITTABLE, 7)]
    for r in rng.sample(roots, rng.randint(0, 3)):
        out[polynomial([-r, 1])] = rng.randint(1, 2)
    rootless = []
    for _ in range(rng.randint(0, 2)):
        b = rng.randint(-2, 2)
        rootless.append(polynomial([b * b // 4 + rng.randint(1, 3), b, 1]))
    for _ in range(rng.randint(0, 1)):
        s, k = rng.randint(-1, 1), rng.choice([2, 3, 5, Fraction(1, 2), Fraction(-7, 3)])
        rootless.append(polynomial([-s ** 3 - k, 3 * s * s, -3 * s, 1]))
    for p, e in zip(rootless, rng.sample([1, 2, 3], len(rootless))):
        out[p] = e
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_factor_replays_planted_products(seed):
    rng = random.Random(seed)
    planted = planted_factors(rng)
    a = polynomial([Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 3))])
    for p, e in planted.items():
        a = a * p ** e
    unit, powers = factor(a)
    replay = unit
    for p, e in powers:
        replay = replay * p ** e
    assert replay == a
    assert dict(powers) == planted


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_rational_roots_agree_with_ground_roots(seed):
    # a squarefree primitive integer polynomial: distinct roots a/b up to
    # 10^12 / 10^6 times at most two rootless quadratics
    rng = random.Random(seed)
    f = Poly(rng.choice([1, -2, 3]), X, domain=ZZ)
    for r in {Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**6))
              for _ in range(rng.randint(0, 5))}:
        f *= Poly(r.denominator * X - r.numerator, X, domain=ZZ)
    for _ in range(rng.randint(0, 2)):
        f *= Poly(X**2 + rng.randint(1, 10**6), X, domain=ZZ)
    f = f.sqf_part().primitive()[1]
    if f.degree() < 1:
        return
    ints = [int(c) for c in reversed(f.all_coeffs())]
    want = {to_fraction(r) for r in f.ground_roots()}
    got = _rational_roots(ints)
    assert len(got) == len(want) and set(got) == want


def certificate_triple(rng, n):
    """(A, S, B): B = S^-1 A S for a random S, or, one time in four each,
    a singular S (last row twice the first, zero when n = 1) or a B with
    one entry moved by one."""
    a = random_matrix(rng, Ring.Q, n, n, bound=5)
    s = random_matrix(rng, Ring.Q, n, n, bound=5)
    roll = rng.random()
    if roll < 1 / 4:
        rows = s.rows()
        rows[-1] = [(2 if n > 1 else 0) * x for x in rows[0]]
        s = Matrix.from_rows(Ring.Q, rows)
    sa, ss = SMatrix(rows_of(a)), SMatrix(rows_of(s))
    b = ss.inv() * sa * ss if ss.det() != 0 else sa
    b = [[to_fraction(b[i, j]) for j in range(n)] for i in range(n)]
    if roll > 3 / 4:
        i, j = rng.randrange(n), rng.randrange(n)
        b[i][j] += 1
    return a, s, mat_q(b)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4))
def test_certificate_verify_agrees_with_sympy(seed, n):
    a, s, b = certificate_triple(random.Random(seed), n)
    sa, ss, sb = (SMatrix(rows_of(m)) for m in (a, s, b))
    want = ss.det() != 0 and ss.inv() * sa * ss == sb
    assert SimilarityCertificate(s, b).verify(a) is want


def integer_corpus(rng, kind) -> list[int]:
    """Nonzero integers for factor: random ones up to 10^18 of either sign,
    semiprimes of two primes in 10^6..10^10, or a planted prime in
    4..9 * 10^9 times small prime powers."""
    if kind == "random":
        return [rng.choice((-1, 1)) * rng.randint(1, 10**18) for _ in range(60)]
    if kind == "semiprime":
        return [prevprime(rng.randint(10**6 + 100, 10**10))
                * prevprime(rng.randint(10**6 + 100, 10**10)) for _ in range(12)]
    out = []
    for _ in range(30):
        n = prevprime(rng.randint(4 * 10**9, 9 * 10**9))
        for p in rng.sample([2, 3, 5, 7, 11, 13, 997, 1009], rng.randint(0, 3)):
            n *= p ** rng.randint(1, 4)
        out.append(rng.choice((-1, 1)) * n)
    return out


def factor_pairs(n: int) -> tuple[int, list[tuple[int, int]]]:
    unit, powers = factor(integer(n))
    return unit.value, [(p.value, e) for p, e in powers]


@pytest.mark.parametrize("kind", ["random", "semiprime", "planted"])
def test_factor_agrees_with_factorint(kind):
    for n in integer_corpus(random.Random(13), kind):
        assert factor_pairs(n) == (1 if n > 0 else -1, sorted(factorint(abs(n)).items())), n


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(-10**18, 10**18).filter(bool))
def test_integer_factor_replays(n):
    unit, powers = factor_pairs(n)
    replay = unit
    for p, e in powers:
        replay *= p ** e
    assert replay == n
    assert powers == sorted(factorint(abs(n)).items())
