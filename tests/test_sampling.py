"""Samplers must satisfy their exact postconditions."""

import copy
import random
import sys
from array import array
from collections import Counter
from fractions import Fraction

import pytest

import reference
from linpres import minimality, sampling
from linpres.fields import QQ, PrimeField, Residue, below
from linpres.forms import Mat2n, Quadric, parse_form
from linpres.linalg import Matrix, canonical, clear_denominators, ratio
from linpres.multilinear import standard_symplectic_ints
from linpres.sampling import (
    SamplingError,
    _randints,
    forced_det_matrix,
    go_element,
    gsp6_element,
    invertible_matrix,
    isotropic_vector,
    rand_unit,
    solve_power,
    unimodular_matrix,
    uniform_bytes,
    uniform_ints,
    word_columns,
)
from reference import rand_vector

F7 = PrimeField(7)


def fresh_det(m):
    """The determinant recomputed from the entries alone, not the one a
    sampler set on m."""
    return Matrix(m.ring, m.rows).det()


def test_unimodular_det_one():
    rng = random.Random(0)
    for field in (QQ, F7):
        for n in (2, 4, 6):
            for _ in range(5):
                assert fresh_det(unimodular_matrix(field, rng, n)) == field.one


def test_invertible_and_forced_det():
    rng = random.Random(1)
    for field in (QQ, F7):
        for _ in range(5):
            m = invertible_matrix(field, rng, 3)
            assert fresh_det(m) != field.zero
    for target in (F7.of(3), F7.of(6)):
        assert fresh_det(forced_det_matrix(F7, rng, 4, target)) == target
    for target in (QQ.of(1), QQ.of(-1), QQ.of(Fraction(2, 3))):
        assert fresh_det(forced_det_matrix(QQ, rng, 3, target)) == target


def test_gsp6_similitude_relation():
    rng = random.Random(2)
    for field in (QQ, F7):
        b = Matrix.from_ints(field, standard_symplectic_ints(6))
        for _ in range(4):
            g, mu = gsp6_element(field, rng)
            assert g.transpose() @ b @ g == b.scale(mu)
            assert fresh_det(g) == mu**3


def test_go_similitude_relation():
    rng = random.Random(3)
    s_hyper = Matrix.from_ints(F7, [[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]])
    for field in (QQ, F7):
        s = Quadric(4).gram(field)
        for _ in range(4):
            g, mu = go_element(field, rng, s)
            assert mu != field.zero
            assert g.transpose() @ s @ g == s.scale(mu)
    for _ in range(4):
        g, mu = go_element(F7, rng, s_hyper)
        assert g.transpose() @ s_hyper @ g == s_hyper.scale(mu)


CARRY_FIELDS = [QQ, PrimeField(5), F7, PrimeField(10007)]
CARRY_GRAMS = [Mat2n(4), Mat2n(5), Mat2n(6), Mat2n(5, [[Fraction(x, 3) for x in row] for row in
                                                     [[2, 1, 0, 0, 0], [1, 0, 0, 3, 0], [0, 0, 1, 0, 0],
                                                      [0, 3, 0, 0, 1], [0, 0, 0, 1, -1]]])]


def carried_draws(field, rng, draws=50):
    """(matrix, det or None): draws matrices from each sampler, with the
    determinant its construction fixes where the draw makes it known."""
    for _ in range(draws):
        yield invertible_matrix(field, rng, 4), None
        yield unimodular_matrix(field, rng, 3), field.one
        target = rand_unit(field, rng)
        yield forced_det_matrix(field, rng, 3, target), target
        g, mu = gsp6_element(field, rng)
        yield g, mu**3
        for form in CARRY_GRAMS:
            g, mu = go_element(field, rng, form.gram(field))
            yield g, None


@pytest.mark.parametrize("field", CARRY_FIELDS, ids=lambda f: f.descriptor)
def test_sampled_matrices_carry_their_exact_det_and_integer_rows(field):
    rng = random.Random(8)
    for m, det in carried_draws(field, rng):
        # set by the sampler, and equal to the values the entries give
        assert m._det is not None and m._ints is not None
        assert m.det() == fresh_det(m) != field.zero
        assert det is None or m.det() == det
        rows, den = m.ints()
        assert ([list(r) for r in rows], den) == clear_denominators(field, m.rows)
        t = m.transpose()
        assert t.rows == tuple(zip(*m.rows))
        assert t.det() == m.det() and t.ints() == Matrix(field, t.rows).ints()
        # reading the integer rows leaves them as they were
        before = copy.deepcopy(m.ints())
        assert m.rank() == m.nrows
        assert m.inv() @ m == Matrix.identity(field, m.nrows)
        assert m.kernel() == []
        assert Matrix(field, m.rows).det() == m.det()
        assert m.ints() == before


def test_go_odd_dimension():
    rng = random.Random(4)
    for field in (F7, PrimeField(65537), QQ):
        s = Quadric(5).gram(field)
        for _ in range(4):
            g, mu = go_element(field, rng, s)
            assert g.transpose() @ s @ g == s.scale(mu)


def test_go_non_antidiagonal_keeps_form():
    rng = random.Random(5)
    s = Matrix.from_ints(F7, [[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    g, mu = go_element(F7, rng, s)
    assert mu == F7.one
    assert g.transpose() @ s @ g == s


def test_isotropic_vectors():
    rng = random.Random(6)
    diag = Matrix.from_ints(F7, [[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    for field in (QQ, F7):
        for n in (4, 5):
            s = Quadric(n).gram(field)
            for _ in range(6):
                v = isotropic_vector(field, rng, s)
                sv = s.apply(v)
                q = field.zero
                for a, b in zip(v, sv):
                    q = q + a * b
                assert q == field.zero
                assert any(x != field.zero for x in v)
    v = isotropic_vector(F7, rng, diag)
    sv = diag.apply(v)
    q = F7.zero
    for a, b in zip(v, sv):
        q = q + a * b
    assert q == F7.zero


def test_solve_power():
    rng = random.Random(7)
    assert solve_power(F7, rng, 3, F7.of(6)) ** 3 == F7.of(6)
    assert solve_power(F7, rng, 2, F7.of(3)) is None
    assert solve_power(F7, rng, 4, F7.of(0)) is None
    assert solve_power(QQ, rng, 3, QQ.of(8)) == QQ.of(2)
    assert solve_power(QQ, rng, 3, QQ.of(-8)) == QQ.of(-2)
    assert solve_power(QQ, rng, 2, QQ.of(4)) == QQ.of(2)
    assert solve_power(QQ, rng, 2, QQ.of(-4)) is None
    assert solve_power(QQ, rng, 3, QQ.of(Fraction(8, 27))) == QQ.of(Fraction(2, 3))
    assert solve_power(QQ, rng, 2, QQ.of(2)) is None
    # far beyond any search over the units: 2^61 - 1 and a prime with 2^20 | p - 1
    for p in (2**61 - 1, 7340033):
        field = PrimeField(p)
        for k in (2, 3, 4):
            for _ in range(20):
                t = field.of(rng.randrange(1, p)) ** k
                assert solve_power(field, rng, k, t) ** k == t
    assert solve_power(PrimeField(7340033), rng, 2, PrimeField(7340033).of(3)) is None


class FixedDraw:
    """An rng whose randrange always returns j; records the ranges asked."""

    def __init__(self, j):
        self.j = j
        self.ranges = []

    def randrange(self, n):
        self.ranges.append(n)
        return self.j


@pytest.mark.parametrize("p", [13, 31, 37])
def test_solve_power_draws_every_root_equally_often(p):
    # every k a group sampler asks for: n for symm-det:n, n/2 for skew-pf:n,
    # 4 for cubics, SL6 and Sp6; the one draw picks each root exactly once
    field = PrimeField(p)
    for k in (2, 3, 4):
        for t in range(1, p):
            roots = sorted(r for r in range(1, p) if pow(r, k, p) == t)
            probe = FixedDraw(0)
            first = solve_power(field, probe, k, field.of(t))
            if not roots:
                assert first is None and probe.ranges == [], (p, k, t)
                continue
            assert probe.ranges == ([len(roots)] if len(roots) > 1 else []), (p, k, t)
            got = [solve_power(field, FixedDraw(j), k, field.of(t)).value for j in range(len(roots))]
            assert sorted(got) == roots, (p, k, t)


def test_solve_power_returns_known_roots_without_a_search_or_a_draw():
    # k = 1 has the one root target; a rational 1 has the root 1 for every k
    # (the positive one for even k); neither reads the rng
    no_draws = object()
    for field in (QQ, F7, PrimeField(2**61 - 1)):
        for t in (2, 3, -1, 6):
            target = field.of(t)
            assert solve_power(field, no_draws, 1, target) == target, (field, t)
    assert solve_power(QQ, no_draws, 1, QQ.of(Fraction(-4, 9))) == QQ.of(Fraction(-4, 9))
    for k in range(1, 9):
        assert solve_power(QQ, no_draws, k, QQ.one) == QQ.one, k
    assert solve_power(QQ, no_draws, 1, QQ.zero) is None


def test_below_reads_every_draw_as_randrange_reads_it():
    # the same values as rng.randrange(n), and the same rng state after
    for seed in range(200):
        a, b = random.Random(seed), random.Random(seed)
        assert [below(a, n) for n in range(1, 301)] == [b.randrange(n) for n in range(1, 301)], seed
        assert a.getstate() == b.getstate(), seed


def test_field_samples_read_their_draws_as_randint_and_randrange():
    for seed in range(40):
        a, b = random.Random(seed), random.Random(seed)
        for bound in (1, 2, 3, 9, 100, 2**40):
            assert QQ.sample(a, bound) == Fraction(b.randint(-bound, bound), b.randint(1, bound)), (seed, bound)
        for p in (5, 7, 13, 257, 10007, 2**61 - 1):
            assert PrimeField(p).sample(a) == Residue(b.randrange(p), p), (seed, p)
        assert a.getstate() == b.getstate(), seed


@pytest.mark.parametrize("field", [QQ, F7], ids=lambda f: f.descriptor)
def test_matrix_samplers_equal_list_row_loops(field):
    # the packed transvection rows, the negated column read off in the decode
    # and the dense residues taken as drawn: the integer form, the det and the
    # rng state of the list-row loops drawing through randrange and choice
    def draws(sampler, seed):
        rng = random.Random(seed)
        out = []
        for n in range(1, 9):
            target = field.of(Fraction((-1) ** n * (n % 3 + 1), n % 4 + 1))
            for m in (sampler.unimodular_matrix(field, rng, n), sampler.invertible_matrix(field, rng, n),
                      sampler.forced_det_matrix(field, rng, n, target)):
                out.append((m.ints(), m.det()))
            out.append(rng.getstate())
        return out

    for seed in range(300):
        assert draws(sampling, seed) == draws(reference, seed), seed


def test_seeded_determinism():
    a = unimodular_matrix(QQ, random.Random(42), 4)
    b = unimodular_matrix(QQ, random.Random(42), 4)
    assert a == b
    g1, m1 = gsp6_element(F7, random.Random(9))
    g2, m2 = gsp6_element(F7, random.Random(9))
    assert g1 == g2 and m1 == m2


def test_forced_det_rejects_zero_target():
    with pytest.raises(SamplingError):
        forced_det_matrix(F7, random.Random(0), 3, F7.zero)


def test_rand_vector_nonzero():
    rng = random.Random(8)
    from linpres.multilinear import Space

    sp = Space("cubic")
    for _ in range(20):
        assert not rand_vector(sp, F7, rng, nonzero=True).is_zero()


class ScriptedBits:
    """An rng that hands out a fixed block of bytes first and zero bytes
    after it, and records every request in bits."""

    def __init__(self, block: bytes):
        self.block = block
        self.requests = []

    def _take(self, n):
        out, self.block = self.block[:n], self.block[n:]
        return out + bytes(n - len(out))

    def randbytes(self, n):
        self.requests.append(8 * n)
        return self._take(n)

    def getrandbits(self, k):
        self.requests.append(k)
        return int.from_bytes(self._take(k // 8), sys.byteorder)


@pytest.mark.parametrize("lo,hi,code", [(0, 7, "B"), (-9, 10, "B"), (0, 10007, "H"), (0, 65537, "I")])
def test_uniform_ints_give_every_value_equally_many_preimages(lo, hi, code):
    width = hi - lo
    bits = 8 * array(code).itemsize
    limit = max(range(0, (1 << bits) + 1, width))  # largest multiple of width in range
    if bits <= 16:
        slots = list(range(1 << bits))  # every byte or 16-bit slot value
    else:
        # 2^32 slots are too many to list: both ends, where the rejection starts
        slots = list(range(3 * width)) + list(range(limit - 3 * width, 1 << bits))
    rng = ScriptedBits(array(code, slots).tobytes())
    out = uniform_ints(rng, lo, hi, len(slots))
    kept = [x for x in slots if x < limit]
    assert len(out) == len(slots)
    # the rejected slots are drawn again, once, from the zero block
    assert rng.requests == [bits * len(slots), bits * (len(slots) - len(kept))]
    assert out[len(kept):] == [lo] * (len(slots) - len(kept))
    assert out[: len(kept)] == [x % width + lo for x in kept]
    if bits <= 16:
        assert Counter(out[: len(kept)]) == {v: limit // width for v in range(lo, hi)}


def test_uniform_ints_over_the_rational_sample_set_reject_nothing():
    # Q samples [-2^31, 2^31): every 32-bit slot is kept, as x - 2^31
    slots = list(range(1 << 16)) + list(range((1 << 32) - (1 << 16), 1 << 32))
    rng = ScriptedBits(array("I", slots).tobytes())
    assert uniform_ints(rng, -(1 << 31), 1 << 31, len(slots)) == [x - (1 << 31) for x in slots]
    assert rng.requests == [32 * len(slots)]


def test_uniform_ints_beyond_64_bits_fall_back_to_randrange():
    a, b = random.Random(5), random.Random(5)
    assert uniform_ints(a, -3, 1 << 70, 6) == [b.randrange(-3, 1 << 70) for _ in range(6)]
    assert uniform_ints(a, 0, 7, 0) == [] and a.getstate() == b.getstate()


def reference_bytes(rng, width, size):
    """size bytes uniform on [0, width): each byte of rng.randbytes at or
    above the largest multiple of width below 256 is dropped and the shortfall
    drawn again."""
    limit = 256 // width * width
    out = []
    while len(out) < size:
        out += [b % width for b in rng.randbytes(size - len(out)) if b < limit]
    return out


def test_uniform_bytes_give_uniform_ints_values_and_stream():
    # every width of at most 256, including 129, which rejects the most
    # bytes (127 of 256), and 255, the widest that rejects any; a byte draw
    # and an int draw of the same width read the same bytes and leave the
    # rng in the same state
    for width in range(2, 257):
        a, b, c = (random.Random(width) for _ in range(3))
        for size in range(1, 65):
            want = reference_bytes(c, width, size)
            assert uniform_bytes(a, width, size) == bytes(want), (width, size)
            assert uniform_ints(b, -3, width - 3, size) == [v - 3 for v in want], (width, size)
        assert a.getstate() == b.getstate() == c.getstate(), width


@pytest.mark.parametrize("width", [1, 2, 5, 7, 8, 9, 16, 17, 256, 257])
def test_batched_draws_equal_per_coordinate_randint(width):
    # one getrandbits block read as randint reads it: the same values in the
    # same order, rejected words skipped, and the same rng state after
    lo = -(width // 2)
    hi = lo + width - 1
    for seed in range(12):
        a, b = random.Random(seed), random.Random(seed)
        for n in range(13):
            assert _randints(a, lo, hi, n) == [b.randint(lo, hi) for _ in range(n)], (width, seed, n)
            assert a.getstate() == b.getstate(), (width, seed, n)


WORD_FIELDS = [QQ, PrimeField(5), F7, PrimeField(10007), PrimeField(2**61 - 1)]


def rank_one_reference(field, word, d):
    """diag(d) F_1 ... F_m as field values, by one rank-one update
    g + (a / b) (g u) v^T per factor."""
    n = len(d)
    g = [[field.of(int(i == j)) for j in range(n)] for i in range(n)]
    for u, (a, b), v in word:
        c = field.of(a) / field.of(b)
        gu = [sum((x * field.of(y) for x, y in zip(row, u)), field.zero) for row in g]
        g = [[x + c * t * field.of(y) for x, y in zip(row, v)] for row, t in zip(g, gu)]
    return [[di * x for x in row] for di, row in zip(d, g)]


def reference_columns(field, word, d, cols):
    g = rank_one_reference(field, word, d)
    return clear_denominators(field, [[row[j] for j in cols] for row in g])


def random_word(field, rng, n, length):
    word = []
    while len(word) < length:
        u = [rng.randint(-3, 3) for _ in range(n)]
        if any(u):
            word.append((u, ratio(field, rand_unit(field, rng)), [rng.randint(-3, 3) for _ in range(n)]))
    return word


@pytest.mark.parametrize("field", WORD_FIELDS, ids=lambda f: f.descriptor)
def test_word_kernel_matches_rank_one_updates(field):
    rng = random.Random(21)
    for n in range(1, 7):
        for length in (0, 1, 2, 5, 12):  # 0: the empty word, 1: a single factor
            word = random_word(field, rng, n, length)
            d = [rand_unit(field, rng) for _ in range(n)]
            for cols in (range(n), (0,), tuple(range(n - 1, -1, -2)), ()):
                got = word_columns(field, word, d, cols)
                assert canonical(field, *got) == canonical(field, *reference_columns(field, word, d, cols)), (n, length, cols)


@pytest.mark.parametrize("field", WORD_FIELDS, ids=lambda f: f.descriptor)
def test_word_kernel_digits_hold_an_entry_at_the_bound(field):
    # u all 3 and v = 3 e_0 with a, b > 0: entry (0, 0) of column 0 is the
    # product of b + |a| max|u| sum|v| over the factors, the digit bound itself
    (a, b) = (5, 2) if field.modulus is None else (field.modulus - 1, 1)
    n = 4
    word = [([3] * n, (a, b), [3] + [0] * (n - 1))] * 5
    d = [field.one] * n
    bound = (b + 9 * a) ** 5
    for cols in ((0,), (0, 2), range(n)):
        rows, den = word_columns(field, word, d, cols)
        assert rows[0][0] == bound and max(abs(x) for row in rows for x in row) == bound
        assert canonical(field, rows, den) == canonical(field, *reference_columns(field, word, d, cols))


@pytest.mark.parametrize("field", WORD_FIELDS, ids=lambda f: f.descriptor)
def test_isometry_samplers_equal_per_coordinate_draws_and_rank_one_updates(field, monkeypatch):
    # the same matrices, mu, sp6 minimal vectors and rng state as drawing each
    # coordinate with rng.randint and building the word by rank-one updates
    def draw(seed):
        rng = random.Random(seed)
        out = [gsp6_element(field, rng)]
        out += [go_element(field, rng, Mat2n(n).gram(field)) for n in (4, 5, 6)]
        out.append(minimality.sample_minimal(parse_form("sp6"), field, rng))
        return [(x.ints(), x.det(), mu) for x, mu in out[:4]], out[4].ints(), rng.getstate()

    fast = [draw(seed) for seed in range(8)]
    monkeypatch.setattr(sampling, "_randints", lambda rng, lo, hi, n: [rng.randint(lo, hi) for _ in range(n)])
    monkeypatch.setattr(sampling, "word_columns", reference_columns)
    monkeypatch.setattr(minimality, "word_columns", reference_columns)
    assert [draw(seed) for seed in range(8)] == fast


class CountingRandom(random.Random):
    randint_calls = 0

    def randint(self, a, b):
        self.randint_calls += 1
        return super().randint(a, b)


def test_isometry_samplers_call_no_randint_per_coordinate():
    # no randint is left on either field: gsp6's lam = a / b over Q reads
    # its two draws through fields.below
    rng = CountingRandom(3)
    gsp6_element(F7, rng)
    go_element(F7, rng, Mat2n(6).gram(F7))
    go_element(QQ, rng, Mat2n(6).gram(QQ))
    gsp6_element(QQ, rng)
    assert rng.randint_calls == 0


@pytest.mark.parametrize("field", [QQ, F7], ids=lambda f: f.descriptor)
def test_go_element_gives_up_after_its_budget_with_the_same_stream(field):
    # every u is isotropic for an alternating s: 64 tries per reflection,
    # 2n reflections, n coordinates each, then SamplingError
    n = 4
    s = Matrix.from_ints(field, standard_symplectic_ints(n))
    a, b = random.Random(17), random.Random(17)
    with pytest.raises(SamplingError, match="reflection sampling stalled"):
        go_element(field, a, s)
    for _ in range(64 * 2 * n * n):
        b.randint(-3, 3)
    assert a.getstate() == b.getstate()


CONE_LINES = ["symm-det:3", "skew-pf:6", "square-det:3", "quadric:4", "cubic-disc", "wedge36", "mat2n:5", "hyperdet"]


def _cone_and_direction_draws(seed):
    """The minimal-cone samples of every line (the nonzero integer vectors,
    the isotropic vectors and the cubic root) over F_7 and Q, then root-spread
    directions over Q, each followed by the rng state."""
    from linpres.multilinear import RepVector

    out = []
    for field in (F7, QQ):
        rng = random.Random(seed)
        out += [minimality.sample_minimal(parse_form(line), field, rng).ints() for line in CONE_LINES]
        out += [isotropic_vector(field, rng, Mat2n(6).gram(field)), rng.getstate()]
    cubic = parse_form("cubic-disc")
    for coords in ([1, 3, 3, 1], [0, 1, -1, 0]):
        rng = random.Random(seed)
        v = RepVector(cubic.space, QQ, coords)
        out += [minimality.minimal_by_rrs(cubic, v, policy="randomized", rng=rng, trials=8).to_json_obj(), rng.getstate()]
    return out


def test_cone_and_direction_draws_equal_per_coordinate_randint(monkeypatch):
    # _rand_nonzero_ints, isotropic_vector, the root-spread directions and the
    # cubic root read one getrandbits block per vector: the same values and
    # rng state as one randint per coordinate
    fast = [_cone_and_direction_draws(seed) for seed in range(6)]
    per_coordinate = lambda rng, lo, hi, n: [rng.randint(lo, hi) for _ in range(n)]
    monkeypatch.setattr(sampling, "_randints", per_coordinate)
    monkeypatch.setattr(minimality, "_randints", per_coordinate)
    assert [_cone_and_direction_draws(seed) for seed in range(6)] == fast


def test_cone_and_direction_draws_call_no_randint():
    # over F_7 the cone samplers draw no randint at all; over Q the
    # root-spread directions draw none either
    from linpres.multilinear import RepVector

    rng = CountingRandom(5)
    for line in CONE_LINES:
        minimality.sample_minimal(parse_form(line), F7, rng)
    isotropic_vector(F7, rng, Mat2n(6).gram(F7))
    cubic = parse_form("cubic-disc")
    minimality.minimal_by_rrs(cubic, RepVector(cubic.space, QQ, [1, 3, 3, 1]), policy="randomized", rng=rng, trials=8)
    assert rng.randint_calls == 0
