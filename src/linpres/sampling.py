"""Seeded exact samplers: vectors, invertible matrices, isometry groups.

Every function takes an explicit random.Random; nothing here touches global
randomness.  A single draw reads rng.getrandbits as rng.randrange, choice and
randint read it (fields.below), a vector reads one getrandbits block as
randint reads it (_randints), and n byte draws read it as n rng.randbytes
calls do, in one uniform_bytes call: the values and the rng state are
theirs.  Over the rationals, matrices favor small integer entries
(transvection words).

Each matrix is built once from integer rows, with the determinant its
construction fixes: 1 for a transvection word, c det(m) for m with one column
times c (-1 in invertible_matrix, the target in forced_det_matrix), prod(d)
for diag(d) g with g a word of symplectic transvections (det 1) or of 2n
reflections (det -1 each).  A dense F_p draw's residues are its integer form,
and the int_det that tests them is its det.  Words are built on rows packed as
signed digits, one multiply-add per step (_transvection_rows, word_columns).
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from .fields import PrimeField, below, byte_table
from .linalg import Matrix, int_det, ratio


class SamplingError(RuntimeError):
    """A sampler exhausted its resample budget."""


_SLOT_BYTES = {code: array(code).itemsize for code in "HIQ"}


def slot_code(top: int):
    """Array type code of the narrowest unsigned slot ('H', 'I', 'Q': 16, 32
    or 64 bits) that holds every integer in [0, top], or None above 2^64 - 1."""
    for code, nbytes in _SLOT_BYTES.items():
        if top >> 8 * nbytes == 0:
            return code
    return None


# for each width w, the bytes at or above the largest multiple of w below 256
_REJECTED = [b""] + [bytes(range(256 // w * w, 256)) for w in range(1, 257)]


def uniform_bytes(rng, width: int, size: int, n: int = 1) -> bytes:
    """n draws of size bytes, each exactly uniform on [0, width) (width <= 256),
    joined: n of uniform_ints' draws of that width, in their stream, k bytes
    read as rng.randbytes(k) reads them: rng.getrandbits(8 k).to_bytes(k, "little")."""
    table, delete, bits, out = byte_table(width, 1), _REJECTED[width], rng.getrandbits, []
    for _ in range(n):
        buf = bits(8 * size).to_bytes(size, "little").translate(table, delete)
        while (k := size - len(buf)) > 0:
            buf += bits(8 * k).to_bytes(k, "little").translate(table, delete)
        out.append(buf)
    return b"".join(out)


def uniform_ints(rng, lo: int, hi: int, size: int) -> list:
    """size independent integers, each exactly uniform on [lo, hi).

    A width hi - lo of at most 256 reads bytes (uniform_bytes); a width up
    to 2^64 reads 16-, 32- or 64-bit slots of one rng.getrandbits.  A byte or
    slot at or above the largest multiple of the width below its range is
    rejected and drawn again, so every kept value maps to each residue from
    equally many preimages.  Wider ranges call rng.randrange per value."""
    width = hi - lo
    if width <= 256:
        buf = uniform_bytes(rng, width, size)
        return [b + lo for b in buf] if lo else list(buf)
    code = slot_code(width - 1)
    if code is None:
        return [rng.randrange(lo, hi) for _ in range(size)]
    nbytes = _SLOT_BYTES[code]
    limit = (1 << 8 * nbytes) // width * width
    out: list = []
    while len(out) < size:
        need = size - len(out)
        slots = rng.getrandbits(8 * nbytes * need).to_bytes(nbytes * need, sys.byteorder)
        out += [x % width + lo for x in memoryview(slots).cast(code).tolist() if x < limit]
    return out


def _randints(rng, lo: int, hi: int, n: int) -> list:
    """[rng.randint(lo, hi) for _ in range(n)], and the same rng state after,
    for a width hi - lo + 1 below 2^32: randint keeps the top k bits of each
    32-bit word until they fall below the width, k = width.bit_length(), and
    getrandbits(32 n) holds the next n words, word i at bits 32 i."""
    width = hi - lo + 1
    k = width.bit_length()
    mask = (1 << k) - 1
    block = rng.getrandbits(32 * n)
    out = [x + lo for x in [block >> s & mask for s in range(32 - k, 32 * n, 32)] if x < width]
    return out + [below(rng, width) + lo for _ in range(n - len(out))]


def rand_unit(field, rng, bound=9):
    while True:
        x = field.sample(rng, bound)
        if x != field.zero:
            return x


def _transvection_rows(rng, n: int) -> list:
    """Integer rows of 3n elementary transvections row_i += c row_j (i != j), with
    i, j and c in (-2, -1, 1, 2) drawn as randrange(n), randrange(n) and a 4-way
    choice draw them (fields.below, inline; no c when i == j).  Rows are ints of
    signed digits, as in word_columns; a step at most triples an entry: |x| <= 3^(3n)."""
    w = (3 ** (3 * n)).bit_length() + 1
    rows = [1 << w * i for i in range(n)]
    bits, k = rng.getrandbits, n.bit_length()
    for _ in range(3 * n):
        while (i := bits(k)) >= n:
            pass
        while (j := bits(k)) >= n:
            pass
        if i != j:
            while (c := bits(3)) >= 4:
                pass
            rows[i] += (-2, -1, 1, 2)[c] * rows[j]
    return _unpack(rows, w, n)


def unimodular_matrix(field, rng, n: int) -> Matrix:
    """Product of 3n elementary transvections; determinant exactly one."""
    return Matrix._exact(field, _transvection_rows(rng, n), det=field.one)


def invertible_matrix(field, rng, n: int) -> Matrix:
    """Invertible matrix: dense residues over F_p (the integer form as drawn, det
    their one int_det); over Q a transvection word, a column negated half the time."""
    p = field.modulus
    if p is not None:
        while True:
            entries = uniform_ints(rng, 0, p, n * n)
            rows = tuple([tuple(entries[i : i + n]) for i in range(0, n * n, n)])
            det = int_det(rows, p) % p
            if det:
                return object.__new__(Matrix)._hold(field, (rows, 1), field.of(det))
    rows = _transvection_rows(rng, n)
    if not below(rng, 2):
        return Matrix._exact(field, rows, det=field.one)
    j = below(rng, n)
    for r in rows:
        r[j] = -r[j]
    return Matrix._exact(field, rows, det=-field.one)


def forced_det_matrix(field, rng, n: int, target) -> Matrix:
    """Invertible matrix of determinant target: a column of invertible_matrix times target / its det."""
    if target == field.zero:
        raise SamplingError("determinant target must be nonzero")
    m = invertible_matrix(field, rng, n)
    j = below(rng, n)
    a, b = ratio(field, target / m.det())
    rows, den = m.ints()
    return Matrix._exact(field, [[x * a if k == j else x * b for k, x in enumerate(r)] for r in rows], den * b, target)


def _unpack(rows, w: int, size: int) -> list:
    """The first size signed w-bit digits of each packed row, as integer rows."""
    half, mask = 1 << (w - 1), (1 << w) - 1
    shifts = range(0, w * size, w)
    off = sum(half << t for t in shifts)  # each digit + half lies in [0, 2^w)
    return [[(x >> t & mask) - half for t in shifts] for x in [r + off for r in rows]]


def word_columns(field, word, d, cols):
    """(X, D), X / D the columns cols of diag(d) F_1 ... F_m for factors
    F = I + (a / b) u v^T given as (u, (a, b), v), integer u and v, (a, b) as
    linalg.ratio gives it; over F_p, D = 1 and X is read through canonical.
    M = F_j ... F_m is built from the right, each row one int of signed w-bit
    digits, so b M + a u (v^T M) is one packed sum and one multiply-add per
    row.  Its entries are at most (b + |a| max|u| sum|v|) times M's, and w is
    one bit longer than the product of those factors and max|diag(d)|."""
    n = len(d)
    ratios = [ratio(field, x) for x in d]
    den = lcm(*(b for _, b in ratios))
    scale = [a * (den // b) for a, b in ratios]
    bound = max(map(abs, scale))
    for u, (a, b), v in word:
        bound *= b + abs(a) * max(map(abs, u)) * sum(map(abs, v))
    w = bound.bit_length() + 1
    at = {j: w * t for t, j in enumerate(cols)}
    rows = [1 << at[i] if i in at else 0 for i in range(n)]
    for u, (a, b), v in reversed(word):
        s = a * sum(map(mul, v, rows))
        rows = [b * r + x * s for r, x in zip(rows, u)]
        den *= b
    return _unpack([c * r for c, r in zip(scale, rows)], w, len(cols)), den


def _similitude_times(field, d, word):
    """diag(d) times the product of a word of determinant one, as a Matrix:
    its determinant is prod(d)."""
    rows, den = word_columns(field, word, d, range(len(d)))
    return Matrix._exact(field, rows, den, prod(d, start=field.one))


GSP6_TRANSVECTIONS = 8
ISOTROPIC_TRIES = 512


def gsp6_word(field, rng):
    """(word, d, mu) for gsp6_element: GSP6_TRANSVECTIONS tries of a symplectic
    transvection I + lam u (b u)^T (skipped for u or lam zero), then diag(d),
    with mu one over the rationals and a random unit over a prime field."""
    p = field.modulus
    word = []
    for _ in range(GSP6_TRANSVECTIONS):
        u = _randints(rng, -2, 2, 6)
        if not any(u if p is None else [x % p for x in u]):
            continue
        lam = field.sample(rng, 2)
        if lam == field.zero:
            continue
        # b u for the standard pairing: row i of b holds (-1)^i at column i ^ 1
        word.append((u, ratio(field, lam), [u[1], -u[0], u[3], -u[2], u[5], -u[4]]))
    mu = field.one if p is None else rand_unit(field, rng)
    return word, [mu, field.one, mu, field.one, mu, field.one], mu


def gsp6_element(field, rng):
    """(g, mu) with g^t b g = mu b for the standard pairing on k^6."""
    word, d, mu = gsp6_word(field, rng)
    return _similitude_times(field, d, word), mu


def go_element(field, rng, s: Matrix):
    """(g, mu) with g^t s g = mu s, via 2n reflections and, for antidiagonal
    s, a diagonal similitude.  For other s only mu = 1 is produced."""
    n = s.nrows
    p = field.modulus
    reflections = 2 * n
    # s = s_int / D; the reflection in u only needs s_int u and u^T s_int u
    s_int, _ = s.ints()
    word = []
    budget = 64 * reflections
    while len(word) < reflections:
        budget -= 1
        if budget < 0:
            raise SamplingError("reflection sampling stalled")
        u = _randints(rng, -3, 3, n)
        su = [sum(map(mul, row, u)) for row in s_int]
        q = sum(map(mul, u, su))
        if (q if p is None else q % p) == 0:
            continue
        # the reflection I - 2 u (s u)^T / (u^T s u), -2 / q in lowest terms
        # with a positive denominator (a residue over F_p)
        k = gcd(2, q) if q > 0 else -gcd(2, q)
        word.append((u, (-2 // k, q // k) if p is None else (-2 * pow(q, -1, p) % p, 1), su))
    if any(x for i, row in enumerate(s_int) for j, x in enumerate(row) if i + j != n - 1):
        return _similitude_times(field, [field.one] * n, word), field.one
    root = field.one  # the middle entry for odd n, with root^2 = mu
    if p is None:
        mu = field.of((1, -1)[below(rng, 2)]) if n % 2 == 0 else field.one
    elif n % 2 == 0:
        mu = rand_unit(field, rng)
    else:
        root = rand_unit(field, rng)
        mu = root * root
    d = [None] * n
    for i in range(n // 2):
        d[i] = field.of((1, -1, 2, Fraction(1, 2))[below(rng, 4)]) if p is None else rand_unit(field, rng)
        d[n - 1 - i] = mu / d[i]
    if n % 2:
        d[n // 2] = root
    return _similitude_times(field, d, word), mu


def isotropic_vector(field, rng, s: Matrix):
    """Nonzero v with v^t s v = 0, within ISOTROPIC_TRIES draws; solves one
    coordinate linearly.  The draws are integers read through D s, which has
    the same isotropic vectors; the solved coordinate is the one division."""
    n = s.nrows
    s_int, _ = s.ints()
    free = [i for i in range(n) if not s_int[i][i]]
    for _ in range(ISOTROPIC_TRIES):
        last = free[below(rng, len(free))] if free else None
        v = _randints(rng, -4, 4, n)
        if last is not None:
            v[last] = 0
        sv = [sum(map(mul, row, v)) for row in s_int]
        q = field.of(sum(map(mul, v, sv)))
        w = [field.of(x) for x in v]
        if last is not None:
            lin = field.of(2 * sv[last])
            if lin == field.zero:
                continue
            w[last] = -q / lin
        elif q != field.zero:
            continue
        if any(x != field.zero for x in w):
            return w
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


def _prime_root(u: int, q: int, p: int, rho: int) -> int:
    """A q-th root of the q-th power residue u mod p, for a prime q dividing
    p - 1 and rho a q-th power non-residue (Adleman, Manders and Miller 1977).

    With p - 1 = q^e s, q not dividing s, and d = q^-1 mod s: x = u^d has
    x^q = u w for w = u^(q d - 1) in the order-q^e subgroup, which z = rho^s
    generates.  Then w^-1 = z^L with q | L, by digits of L base q
    (Pohlig-Hellman), and (x z^(L/q))^q = u."""
    e, s = 0, p - 1
    while s % q == 0:
        s //= q
        e += 1
    d = pow(q, -1, s)  # 0 when s = 1
    y = pow(u, -(q * d - 1), p)  # w^-1
    z = pow(rho, s, p)
    z_inv = pow(z, -1, p)
    top = pow(z, q ** (e - 1), p)  # order q
    log = 0
    for i in range(e):
        h = pow(y * pow(z_inv, log, p) % p, q ** (e - 1 - i), p)
        log += next(digit for digit in range(q) if pow(top, digit, p) == h) * q**i
    return pow(u, d, p) * pow(z, log // q, p) % p


def _root_mod_p(t: int, k: int, p: int):
    """(r, omega, g) with r^k = t mod p and omega a primitive g-th root of
    unity, g = gcd(k, p - 1), so that the k-th roots of t are r omega^j for
    0 <= j < g; None when the unit t is no k-th power.  O(polylog p) for
    fixed k.

    With k = g k' and p - 1 = g m', a g-th root r of u = t^a for
    a = k'^-1 mod m' has r^k = t^(a k') = t, as t^m' = 1.  Since g divides
    p - 1, r comes from one prime-order root at a time: each root of a g-th
    power is still a power of the remaining degree."""
    m = p - 1
    g = gcd(k, m)
    if pow(t, m // g, p) != 1:
        return None
    r = pow(t, pow(k // g, -1, m // g), p)
    omega, rest = 1, g
    for q in range(2, g + 1):
        if rest % q:
            continue  # q is prime here: its smaller factors left rest already
        rho = 2  # the least q-th power non-residue
        while pow(rho, m // q, p) == 1:
            rho += 1
        qe = 1
        while rest % q == 0:
            r = _prime_root(r, q, p, rho)
            rest //= q
            qe *= q
        # rho^(m / q^e) has order exactly q^e, for q^e the power of q in g
        omega = omega * pow(rho, m // qe, p) % p
    return r, omega, g


def solve_power(field, rng, k: int, target):
    """Some r with r^k == target, or None if there is none.  Over F_p the
    root is uniform among all k-th roots of target: a fixed root times a
    root of unity drawn with one rng.randrange when there are several.  Known
    roots take no search or draw: target for k = 1, one for a rational one."""
    if target == field.zero:
        return None
    if k == 1:
        return target
    if isinstance(field, PrimeField):
        p = field.modulus
        found = _root_mod_p(target.value, k, p)
        if found is None:
            return None
        r, omega, g = found
        if g > 1:
            r = r * pow(omega, rng.randrange(g), p) % p
        return field.of(r)
    if target == 1:
        return field.one
    neg = target < 0
    if neg and k % 2 == 0:
        return None
    num = _int_kth_root(abs(target.numerator), k)
    den = _int_kth_root(target.denominator, k)
    if num is None or den is None:
        return None
    return Fraction(-num if neg else num, den)
