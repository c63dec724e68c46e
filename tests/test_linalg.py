import random
from fractions import Fraction

import pytest

from linpres.fields import PrimeField, QQ
from linpres.linalg import LinAlgError, Matrix, det_expansion, pfaffian
from linpres.polynomials import PolyRing

F7 = PrimeField(7)


def rand_matrix(ring, rng, n, m=None, bound=9):
    m = n if m is None else m
    return Matrix.from_ints(ring, [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n)])


def test_identity_and_product():
    I3 = Matrix.identity(QQ, 3)
    assert I3.det() == 1
    rng = random.Random(1)
    A = rand_matrix(QQ, rng, 3)
    assert (A @ I3) == A
    assert (I3 @ A) == A


def test_det_known_values():
    A = Matrix.from_ints(QQ, [[1, 2], [3, 4]])
    assert A.det() == -2
    B = Matrix.from_ints(QQ, [[2, 0, 1], [1, 1, 0], [0, 3, 1]])
    # cofactor expansion by hand: 2*(1) - 0 + 1*(3) = 5
    assert B.det() == 5
    C = Matrix.from_ints(F7, [[1, 2], [3, 4]])
    assert C.det() == F7.of(-2)


def test_det_multiplicative():
    rng = random.Random(2)
    for ring in (QQ, F7):
        for _ in range(25):
            A = rand_matrix(ring, rng, 4)
            B = rand_matrix(ring, rng, 4)
            assert (A @ B).det() == A.det() * B.det()


def test_det_fractions():
    A = Matrix(QQ, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]])
    assert A.det() == Fraction(1, 10) - Fraction(1, 12)


def test_rank():
    rng = random.Random(3)
    assert Matrix.identity(QQ, 3).rank() == 3
    assert Matrix.zeros(QQ, 3, 5).rank() == 0
    u = [rng.randint(-5, 5) for _ in range(4)]
    w = [rng.randint(-5, 5) for _ in range(4)]
    outer = Matrix.from_ints(QQ, [[a * b for b in w] for a in u])
    assert outer.rank() == 1
    assert Matrix.from_ints(F7, [[1, 2, 3], [2, 4, 6], [0, 0, 1]]).rank() == 2


def test_rank_invariant_under_invertible_factors():
    rng = random.Random(4)
    for ring in (QQ, F7):
        for _ in range(10):
            X = rand_matrix(ring, rng, 3, 4)
            P = _rand_invertible(ring, rng, 3)
            Q = _rand_invertible(ring, rng, 4)
            assert (P @ X @ Q).rank() == X.rank()


def _rand_invertible(ring, rng, n):
    while True:
        A = rand_matrix(ring, rng, n, bound=5)
        if A.det() != ring.zero:
            return A


def test_inverse_and_solve():
    rng = random.Random(5)
    for ring in (QQ, F7):
        for _ in range(10):
            A = _rand_invertible(ring, rng, 4)
            assert A @ A.inv() == Matrix.identity(ring, 4)
            b = [ring.of(rng.randint(-9, 9)) for _ in range(4)]
            x = A.solve(b)
            assert A.apply(x) == b
    with pytest.raises(LinAlgError):
        Matrix.from_ints(QQ, [[1, 2], [2, 4]]).inv()


def test_kernel():
    A = Matrix.from_ints(QQ, [[1, 2, 3], [2, 4, 6]])
    basis = A.kernel()
    assert len(basis) == 2
    for v in basis:
        assert A.apply(v) == [QQ.zero] * 2
    B = Matrix.identity(F7, 3)
    assert B.kernel() == []
    rng = random.Random(6)
    for ring in (QQ, F7):
        M = rand_matrix(ring, rng, 3, 5)
        ker = M.kernel()
        assert len(ker) == 5 - M.rank()
        for v in ker:
            assert all(x == ring.zero for x in M.apply(v))


def test_det_expansion_matches_field_det():
    rng = random.Random(7)
    for ring in (QQ, F7):
        for n in (2, 3, 4):
            for _ in range(10):
                A = rand_matrix(ring, rng, n)
                assert det_expansion(ring, A.rows) == A.det()


def test_det_expansion_symbolic():
    ring = PolyRing(QQ, ("a", "b", "c", "d"))
    a, b, c, d = ring.gens()
    rows = [[a, b], [c, d]]
    assert det_expansion(ring, rows) == a * d - b * c


def test_pfaffian_normalization():
    # standard pairing blocks 1<->2, 3<->4: Pf = +1
    J = Matrix.from_ints(QQ, [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    assert pfaffian(QQ, J.rows) == 1


def test_pfaffian_4x4_formula():
    """Pf of the generic 4x4 alternating matrix is x1*x6 - x2*x5 + x3*x4."""
    ring = PolyRing(QQ, ("x1", "x2", "x3", "x4", "x5", "x6"))
    x1, x2, x3, x4, x5, x6 = ring.gens()
    rows = [
        [ring.zero, x1, x2, x3],
        [-x1, ring.zero, x4, x5],
        [-x2, -x4, ring.zero, x6],
        [-x3, -x5, -x6, ring.zero],
    ]
    assert pfaffian(ring, rows) == x1 * x6 - x2 * x5 + x3 * x4


def test_pfaffian_squared_is_det():
    rng = random.Random(8)
    for ring in (QQ, F7):
        for n in (2, 4, 6):
            for _ in range(10):
                entries = [[ring.of(0)] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i + 1, n):
                        v = ring.of(rng.randint(-9, 9))
                        entries[i][j] = v
                        entries[j][i] = -v
                A = Matrix(ring, entries)
                assert pfaffian(ring, A.rows) ** 2 == A.det()


def test_pfaffian_rejects_bad_input():
    with pytest.raises(LinAlgError):
        pfaffian(QQ, Matrix.from_ints(QQ, [[0, 1], [1, 0]]).rows)
    with pytest.raises(LinAlgError):
        pfaffian(QQ, Matrix.from_ints(QQ, [[1]]).rows)
