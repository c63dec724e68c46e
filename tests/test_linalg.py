import random
from fractions import Fraction
from math import gcd

import pytest

from linpres.fields import PrimeField, QQ
from linpres.linalg import COMPILED_DET_MAX, LinAlgError, Matrix, _reduce, canonical, clear_denominators, int_det, ratio, scaled
from linpres.polynomials import PolyRing
from reference import det_expansion, pfaffian

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
    assert Matrix.from_ints(QQ, [[0] * 5] * 3).rank() == 0
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
            assert A.apply(A.inv().apply(b)) == b
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


# Reference eliminations, one per operation: plain elimination on residues
# over F_p and Bareiss on cleared integers over Q for det and rank, and
# Gauss-Jordan on field elements for inv and kernel.  linalg reads all four
# from one row reduction; these pin it value for value.


def _ref_gauss_jordan(ring, aug, n):
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col] != ring.zero), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = ring.inv(aug[col][col])
        aug[col] = [inv * x for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != ring.zero:
                c = aug[i][col]
                aug[i] = [x - c * y for x, y in zip(aug[i], aug[col])]
    return aug


def _ref_bareiss(m):
    m = [list(r) for r in m]
    nr, nc = len(m), len(m[0]) if m else 0
    prev, sign, rank = 1, 1, 0
    for col in range(nc):
        if rank == nr:
            break
        piv = next((i for i in range(rank, nr) if m[i][col]), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        pv = m[rank][col]
        for i in range(rank + 1, nr):
            for j in range(col + 1, nc):
                m[i][j] = (pv * m[i][j] - m[i][col] * m[rank][j]) // prev
            m[i][col] = 0
        prev = pv
        rank += 1
    return (sign * prev if rank == nr and nr == nc else 0), rank


def _ref_cleared(rows):
    den = 1
    for r in rows:
        for x in r:
            den = den * x.denominator // gcd(den, x.denominator)
    return [[x.numerator * (den // x.denominator) for x in r] for r in rows], den


def _ref_det(ring, rows):
    n = len(rows)
    if n == 0:
        return ring.one
    if ring.modulus is None:
        ints, den = _ref_cleared(rows)
        return Fraction(_ref_bareiss(ints)[0], den**n)
    p = ring.modulus
    m = [[x.value for x in r] for r in rows]
    detv = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] % p), None)
        if piv is None:
            return ring.zero
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            detv = -detv
        detv = detv * m[col][col] % p
        inv = pow(m[col][col], p - 2, p)
        for i in range(col + 1, n):
            f = m[i][col] * inv % p
            m[i] = [(a - f * b) % p for a, b in zip(m[i], m[col])]
    return ring.of(detv)


def _ref_rank(ring, rows):
    if not rows:
        return 0
    if ring.modulus is None:
        return _ref_bareiss(_ref_cleared(rows)[0])[1]
    p = ring.modulus
    m = [[x.value for x in r] for r in rows]
    rank = 0
    for col in range(len(m[0])):
        if rank == len(m):
            break
        piv = next((i for i in range(rank, len(m)) if m[i][col] % p), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        for i in range(rank + 1, len(m)):
            f = m[i][col] * inv % p
            m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _ref_inv(ring, rows):
    n = len(rows)
    aug = [list(r) + [ring.one if i == j else ring.zero for j in range(n)] for i, r in enumerate(rows)]
    red = _ref_gauss_jordan(ring, aug, n)
    return None if red is None else [r[n:] for r in red]


def _ref_kernel(ring, rows):
    m, n = len(rows), len(rows[0]) if rows else 0
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(n):
        rank = len(pivots)
        piv = next((i for i in range(rank, m) if rows[i][col] != ring.zero), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = ring.inv(rows[rank][col])
        rows[rank] = [inv * x for x in rows[rank]]
        for i in range(m):
            if i != rank and rows[i][col] != ring.zero:
                c = rows[i][col]
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
        if len(pivots) == m:
            break
    basis = []
    for j in (j for j in range(n) if j not in pivots):
        v = [ring.zero] * n
        v[j] = ring.one
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][j]
        basis.append(v)
    return basis


def _reference_cases(ring, rng, count):
    """Random rank-deficient, rectangular, zero, 1x1 and (over Q) fractional matrices."""

    def scalar():
        if ring.modulus is None and rng.random() < 0.4:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        return ring.of(rng.randint(-9, 9))

    def dense(m, n):
        return [[ring.of(scalar()) for _ in range(n)] for _ in range(m)]

    yield [[ring.zero]]
    yield [[ring.of(3)]]
    yield [[ring.zero] * 3 for _ in range(3)]
    yield [[ring.zero] * 4 for _ in range(2)]
    for _ in range(count):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        kind = rng.randrange(3)
        if kind == 0:
            yield dense(m, m)
        elif kind == 1:
            yield dense(m, n)
        else:
            # rank at most r: an m x r times an r x n product, some rows repeated
            r = rng.randint(0, min(m, n))
            rows = (Matrix(ring, dense(m, r)) @ Matrix(ring, dense(r, n))).rows if r else dense(m, n)
            rows = [list(x) for x in rows]
            if r == 0:
                rows = [[ring.zero] * n for _ in range(m)]
            if m > 1 and rng.random() < 0.5:
                rows[rng.randrange(m)] = list(rows[0])
            yield rows


@pytest.mark.parametrize("ring", [QQ, PrimeField(5), F7, PrimeField(10007)], ids=lambda r: r.descriptor)
def test_elimination_matches_reference(ring):
    rng = random.Random(10 + (ring.modulus or 0))
    singular = 0
    for rows in _reference_cases(ring, rng, 300):
        A = Matrix(ring, rows)
        assert A.rank() == _ref_rank(ring, A.rows)
        assert A.kernel() == _ref_kernel(ring, A.rows)
        if not A.is_square:
            continue
        assert A.det() == _ref_det(ring, A.rows)
        expected = _ref_inv(ring, A.rows)
        if expected is None:
            singular += 1
            with pytest.raises(LinAlgError):
                A.inv()
            continue
        assert A.inv() == Matrix(ring, expected)
    assert singular > 0


ONE_FORM_FIELDS = [QQ, PrimeField(5), F7, PrimeField(10007)]


def _den(ring, rng):
    """A denominator in +-[1, 30], prime to p over F_p."""
    while True:
        den = rng.choice([-1, 1]) * rng.randint(1, 30)
        if ring.modulus is None or den % ring.modulus:
            return den


@pytest.mark.parametrize("ring", ONE_FORM_FIELDS, ids=lambda r: r.descriptor)
def test_exact_matrix_matches_entries_and_clear_denominators(ring):
    rng = random.Random(65 + (ring.modulus or 0))
    for trial in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        ints = [[rng.randint(-30, 30) * (rng.randrange(3) > 0) for _ in range(n)] for _ in range(m)]
        if trial % 10 == 0:
            ints = [[0] * n for _ in range(m)]
        den = _den(ring, rng)
        entries = [[ring.of(Fraction(x, den)) for x in r] for r in ints]
        A, B = Matrix._exact(ring, ints, den), Matrix(ring, entries)
        assert A == B and hash(A) == hash(B)
        rows, big_d = clear_denominators(ring, entries)
        assert A.ints() == B.ints() == (tuple(map(tuple, rows)), big_d)
        assert A.ints() == canonical(ring, ints, den)
        assert A.rows == tuple(map(tuple, entries))
        assert (A.nrows, A.ncols) == (m, n)
        assert A.transpose() == Matrix(ring, list(zip(*entries)))
        assert A.transpose().ints() == Matrix(ring, list(zip(*entries))).ints()


def _plan_cases(rng, n):
    """Random, singular (a repeated or zero row) and rank-deficient (an
    n x r times an r x n product, r < n) integer rows, entries up to 2^40."""

    def big(m, k):
        return [[rng.randint(-(1 << 40), 1 << 40) for _ in range(k)] for _ in range(m)]

    for _ in range(3):
        yield big(n, n)
        rows = big(n, n)
        rows[-1] = list(rows[0]) if n > 1 else [0]
        yield rows
        r = rng.randrange(n)
        basis = big(r, n)
        yield [[sum(rng.randint(-3, 3) * b[j] for b in basis) for j in range(n)] for _ in range(n)]


@pytest.mark.parametrize("p", [2, 7, 10007, None], ids=lambda p: "Q" if p is None else "F%d" % p)
def test_det_plan_matches_the_row_reduction(p):
    # int_det reads the square expansion plan up to COMPILED_DET_MAX and
    # eliminates above it; both must agree with _reduce's determinant (mod p
    # over F_p, on residues, as a Matrix holds them).  Matrix.det
    # divides by D^n for a denominator D != 1.  F_2 is not an admissible
    # field, so there int_det alone is checked.
    rng = random.Random(68 + (p or 0))
    field = None if p == 2 else QQ if p is None else PrimeField(p)
    planned = 0
    for n in range(1, 9):
        for rows in _plan_cases(rng, n):
            residues = [list(r) if p is None else [x % p for x in r] for r in rows]
            got, want = int_det(residues, p), _reduce([list(r) for r in residues], p)[2]
            assert got == want if p is None else (got - want) % p == 0, (n, rows)
            planned += n <= COMPILED_DET_MAX
            if field is None:
                continue
            den = rng.choice([-1, 1]) * rng.choice([d for d in range(2, 40) if p is None or d % p])
            m = Matrix._exact(field, rows, den)
            ints, big_d = m.ints()
            (expect,) = scaled(field, field.one, big_d**n, [_reduce([list(r) for r in ints], p)[2]])
            assert m.det() == expect == _ref_det(field, m.rows), (n, den)
    assert planned == 6 * 9


def _last_pivot(ring, rows):
    red, pivots, _ = _reduce(list(Matrix(ring, rows).ints()[0]), ring.modulus, clear_above=True)
    return red[len(pivots) - 1][pivots[-1]] if pivots else 1


def test_inverse_and_kernel_with_a_negative_last_pivot():
    rng = random.Random(66)
    inverted = kernels = 0
    while inverted < 40 or kernels < 40:
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        rows = [[QQ.of(Fraction(rng.randint(-9, 9), rng.randint(1, 6))) for _ in range(n)] for _ in range(m)]
        if _last_pivot(QQ, rows) >= 0:
            continue
        A = Matrix(QQ, rows)
        assert A.kernel() == _ref_kernel(QQ, rows)
        kernels += 1
        if m == n and A.rank() == n:
            inv = A.inv()
            assert inv == Matrix(QQ, _ref_inv(QQ, rows))
            assert inv.ints()[1] > 0
            inverted += 1


@pytest.mark.parametrize("ring", ONE_FORM_FIELDS, ids=lambda r: r.descriptor)
def test_ratio_round_trips(ring):
    rng = random.Random(67)
    for _ in range(200):
        c = ring.of(Fraction(rng.randint(-40, 40), _den(ring, rng)))
        a, b = ratio(ring, c)
        assert ring.of(a) / ring.of(b) == c
        (x,), d = clear_denominators(ring, [[c]])
        assert canonical(ring, [[a]], b) == ((tuple(x),), d)
        if ring.modulus is None:
            assert b > 0 and gcd(a, b) == 1
        else:
            assert b == 1 and 0 <= a < ring.modulus
