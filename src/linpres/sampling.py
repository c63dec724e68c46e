"""Seeded exact samplers: vectors, invertible matrices, isometry groups.

Every function takes an explicit random.Random; nothing here touches global
randomness.  Over the rationals, matrix samplers favor small integer entries
(transvection words) so downstream exact arithmetic stays cheap.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .fields import PrimeField, RationalField
from .linalg import Matrix, clear_denominators
from .multilinear import RepVector, Space


class SamplingError(RuntimeError):
    """A sampler exhausted its resample budget."""


def rand_vector(space: Space, field, rng, bound=9, nonzero=False) -> RepVector:
    while True:
        v = RepVector(space, field, [field.sample(rng, bound) for _ in range(space.dim)])
        if not nonzero or not v.is_zero():
            return v


def rand_unit(field, rng, bound=9):
    while True:
        x = field.sample(rng, bound)
        if x != field.zero:
            return x


def _int_identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def unimodular_matrix(field, rng, n: int) -> Matrix:
    """Product of 3n elementary transvections; determinant exactly one."""
    rows = _int_identity(n)
    for _ in range(3 * n):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return Matrix(field, [[field.of(x) for x in row] for row in rows])


def invertible_matrix(field, rng, n: int) -> Matrix:
    """Invertible matrix; dense entries over a prime field, a transvection
    word over the rationals."""
    if isinstance(field, PrimeField):
        while True:
            m = Matrix(field, [[field.sample(rng) for _ in range(n)] for _ in range(n)])
            if m.det() != field.zero:
                return m
    m = unimodular_matrix(field, rng, n)
    if rng.randrange(2):
        m = scale_column(m, rng.randrange(n), field.of(-1))
    return m


def scale_column(m: Matrix, j: int, c) -> Matrix:
    rows = [list(r) for r in m.rows]
    for r in rows:
        r[j] = r[j] * c
    return Matrix(m.ring, rows)


def forced_det_matrix(field, rng, n: int, target) -> Matrix:
    """Invertible matrix with the exact requested determinant."""
    if target == field.zero:
        raise SamplingError("determinant target must be nonzero")
    m = invertible_matrix(field, rng, n)
    return scale_column(m, rng.randrange(n), target / m.det())


def _rank_one_update(field, g, den, u, coef, v):
    """g + coef (g u) v^T for g = rows / den, as new (integer rows, den): u and
    v are integer vectors, coef a field element.  Over F_p the rows are
    residues and den stays 1."""
    gu = [sum(map(mul, row, u)) for row in g]
    p = field.modulus
    if p is not None:
        w = [coef.value * x for x in v]
        return [[(a + s * b) % p for a, b in zip(row, w)] for row, s in zip(g, gu)], 1
    w = [coef.numerator * x for x in v]
    cden = coef.denominator
    return [[cden * a + s * b for a, b in zip(row, w)] for row, s in zip(g, gu)], den * cden


def _similitude_times(field, d, g, den):
    """diag(d) (g / den) as a Matrix."""
    if field.modulus is not None:
        return Matrix(field, [[field.of(di.value * x) for x in row] for di, row in zip(d, g)])
    return Matrix(field, [[di * Fraction(x, den) for x in row] for di, row in zip(d, g)])


GSP6_TRANSVECTIONS = 8
ISOTROPIC_TRIES = 512


def gsp6_element(field, rng):
    """(g, mu) with g^t b g = mu b for the standard pairing on k^6.

    Over the rationals mu is one; over a prime field a random unit.  g is a
    product of GSP6_TRANSVECTIONS symplectic transvections
    v -> v + lam b(v, u) u, each applied as the rank-one update
    g + lam (g u)(b u)^T, then a diagonal similitude.
    """
    from .multilinear import standard_symplectic_gram

    b, _ = clear_denominators(field, standard_symplectic_gram(field, 6).rows)
    g, den = _int_identity(6), 1
    for _ in range(GSP6_TRANSVECTIONS):
        u = [rng.randint(-2, 2) for _ in range(6)]
        if all(field.of(x) == field.zero for x in u):
            continue
        lam = field.sample(rng, 2)
        if lam == field.zero:
            continue
        g, den = _rank_one_update(field, g, den, u, lam, [sum(map(mul, row, u)) for row in b])
    mu = field.one if isinstance(field, RationalField) else rand_unit(field, rng)
    d = [mu, field.one, mu, field.one, mu, field.one]
    return _similitude_times(field, d, g, den), mu


def _is_antidiagonal(s: Matrix) -> bool:
    n = s.nrows
    z = s.ring.zero
    return all(s.entry(i, j) == z for i in range(n) for j in range(n) if i + j != n - 1)


def go_element(field, rng, s: Matrix):
    """(g, mu) with g^t s g = mu s, via 2n reflections and, for antidiagonal
    s, a diagonal similitude.  For other s only mu = 1 is produced."""
    n = s.nrows
    reflections = 2 * n
    # s = s_int / D; the reflection in u only needs s_int u and u^T s_int u
    s_int, _ = clear_denominators(field, s.rows)
    g, den = _int_identity(n), 1
    done = 0
    budget = 64 * reflections
    while done < reflections:
        budget -= 1
        if budget < 0:
            raise SamplingError("reflection sampling stalled")
        u = [rng.randint(-3, 3) for _ in range(n)]
        su = [sum(map(mul, row, u)) for row in s_int]
        q = field.of(sum(map(mul, u, su)))
        if q == field.zero:
            continue
        # g (I - 2 u (s u)^T / (u^T s u)) as a rank-one update
        g, den = _rank_one_update(field, g, den, u, -field.of(2) / q, su)
        done += 1
    if not _is_antidiagonal(s):
        return _similitude_times(field, [field.one] * n, g, den), field.one
    if isinstance(field, RationalField):
        mu = field.of(rng.choice([1, -1])) if n % 2 == 0 else field.one
    elif n % 2 == 0:
        mu = rand_unit(field, rng)
    else:
        root = rand_unit(field, rng)
        mu = root * root
    d = [None] * n
    for i in range(n // 2):
        if isinstance(field, RationalField):
            d[i] = field.of(rng.choice([1, -1, 2, Fraction(1, 2)]))
        else:
            d[i] = rand_unit(field, rng)
        d[n - 1 - i] = mu / d[i]
    if n % 2:
        mid = n // 2
        root = solve_power(field, rng, 2, mu)
        if root is None:
            raise SamplingError("similitude factor has no square root")
        d[mid] = root
    return _similitude_times(field, d, g, den), mu


def isotropic_vector(field, rng, s: Matrix):
    """Nonzero v with v^t s v = 0, within ISOTROPIC_TRIES draws; solves one
    coordinate linearly."""
    n = s.nrows
    z = field.zero
    free = [i for i in range(n) if s.entry(i, i) == z]
    for _ in range(ISOTROPIC_TRIES):
        if free:
            last = rng.choice(free)
            v = [field.of(rng.randint(-4, 4)) for _ in range(n)]
            v[last] = z
            sv = s.apply(v)
            lin = sv[last] * field.of(2)
            if lin == z:
                continue
            q = None
            for a, b in zip(v, sv):
                q = a * b if q is None else q + a * b
            v[last] = -q / lin
            if any(x != z for x in v):
                return v
        else:
            v = [field.of(rng.randint(-4, 4)) for _ in range(n)]
            sv = s.apply(v)
            q = None
            for a, b in zip(v, sv):
                q = a * b if q is None else q + a * b
            if q == z and any(x != z for x in v):
                return v
    raise SamplingError("no isotropic vector found")


def _int_kth_root(a: int, k: int):
    """Exact integer k-th root of a >= 0, else None."""
    if a < 0:
        return None
    if a in (0, 1):
        return a
    lo, hi = 0, 1 << ((a.bit_length() + k - 1) // k + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k < a:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**k == a else None


def solve_power(field, rng, k: int, target):
    """Some r with r^k == target, or None if there is none."""
    if target == field.zero:
        return None
    if isinstance(field, PrimeField):
        units = list(field.units())
        rng.shuffle(units)
        for r in units:
            if r**k == target:
                return r
        return None
    t = Fraction(target)
    neg = t < 0
    if neg and k % 2 == 0:
        return None
    num = _int_kth_root(abs(t.numerator), k)
    den = _int_kth_root(t.denominator, k)
    if num is None or den is None:
        return None
    r = Fraction(num, den)
    return field.of(-r if neg else r)
