import json
import random
from fractions import Fraction

import pytest

from linpres.fields import PrimeField, QQ
from linpres.forms import parse_form
from linpres.linalg import Matrix, clear_denominators, int_rank, scaled
from linpres.multilinear import (
    RepVector,
    Space,
    SpaceError,
    bx_int_gram,
    exterior_power_ints,
    full_rows,
    merge_sign,
    standard_symplectic_ints,
    subset_index,
    subsets_colex,
    wedge_ints,
    wedge_map_rows,
    wedge_of_vectors,
    lambda_power_matrix,
)
from reference import sp6_contract, symplectic_pair, wedge_complement_star_matrix

F7 = PrimeField(7)
F10007 = PrimeField(10007)
KERNEL_FIELDS = (QQ, F7, F10007)


class TestSpace:
    def test_dims(self):
        assert Space("symm", n=4).dim == 10
        assert Space("alt", n=4).dim == 6
        assert Space("square", n=3).dim == 9
        assert Space("rect", m=2, n=5).dim == 10
        assert Space("wedge", d=3, n=6).dim == 20
        assert Space("cubic").dim == 4
        assert Space("tritensor").dim == 8
        assert Space("vector", n=6).dim == 6

    def test_validation(self):
        with pytest.raises(SpaceError):
            Space("nope")
        with pytest.raises(SpaceError):
            Space("symm")
        with pytest.raises(SpaceError):
            Space("symm", n=1)
        with pytest.raises(SpaceError):
            Space("wedge", d=7, n=6)
        with pytest.raises(SpaceError):
            Space("cubic", n=2)

    def test_eq_hash(self):
        assert Space("symm", n=3) == Space("symm", n=3)
        assert Space("symm", n=3) != Space("symm", n=4)
        assert hash(Space("rect", m=2, n=4)) == hash(Space("rect", m=2, n=4))


def test_subsets_colex_order():
    subs = subsets_colex(4, 2)
    assert subs == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    idx, _ = subset_index(6, 3)
    assert idx[(0, 1, 2)] == 0
    assert len(idx) == 20


def test_merge_sign():
    assert merge_sign((0,), (1, 2)) == 1
    assert merge_sign((1,), (0, 2)) == -1
    assert merge_sign((2,), (0, 1)) == 1
    assert merge_sign((0, 1), (0, 2)) == 0
    assert merge_sign((0, 1, 2), (3, 4, 5)) == 1


class TestRepVector:
    def test_symm_matrix_roundtrip(self):
        s = Space("symm", n=2)
        v = RepVector(s, QQ, [1, 2, 3])  # [[1,2],[2,3]]
        m = v.to_matrix()
        assert m == Matrix.from_ints(QQ, [[1, 2], [2, 3]])
        assert RepVector.from_matrix(s, QQ, m.rows) == v
        with pytest.raises(SpaceError):
            RepVector.from_matrix(s, QQ, [[1, 2], [3, 4]])

    def test_alt_matrix_roundtrip(self):
        s = Space("alt", n=4)
        v = RepVector(s, QQ, [1, 2, 3, 4, 5, 6])
        m = v.to_matrix()
        assert m.entry(0, 1) == 1
        assert m.entry(2, 3) == 6
        assert m.entry(3, 2) == -6
        assert RepVector.from_matrix(s, QQ, m.rows) == v
        with pytest.raises(SpaceError):
            RepVector.from_matrix(s, QQ, [[1, 0], [0, 1]])

    def test_arithmetic(self):
        s = Space("cubic")
        a = RepVector(s, QQ, [1, 0, 0, 0])
        b = RepVector(s, QQ, [0, 0, 0, 1])
        assert (a + b).coords == (1, 0, 0, 1)
        assert (a - b).scale(2).coords == (2, 0, 0, -2)
        assert (-a).coords == (-1, 0, 0, 0)
        assert RepVector.zero(s, QQ).is_zero()
        assert RepVector.basis(s, QQ, 2).coords == (0, 0, 1, 0)

    def test_mixed_spaces_rejected(self):
        a = RepVector(Space("cubic"), QQ, [1, 0, 0, 0])
        b = RepVector(Space("vector", n=4), QQ, [1, 0, 0, 0])
        with pytest.raises(SpaceError):
            a + b
        c = RepVector(Space("cubic"), F7, [1, 0, 0, 0])
        with pytest.raises(SpaceError):
            a + c

    def test_json_roundtrip_matrix(self):
        s = Space("symm", n=2)
        v = RepVector(s, QQ, [1, Fraction(-2, 3), 5])
        obj = v.to_json_obj()
        assert obj["space"] == "symm"
        assert obj["entries"] == ["1", "-2/3", "-2/3", "5"]
        assert RepVector.from_json_obj(json.loads(v.to_json()), QQ) == v

    def test_json_roundtrip_wedge(self):
        s = Space("wedge", d=3, n=6)
        v = RepVector(s, F7, list(range(20)))
        assert RepVector.from_json_obj(json.loads(v.to_json()), F7) == v

    def test_json_rejects_garbage(self):
        with pytest.raises(SpaceError):
            RepVector.from_json_obj("{not json", QQ)
        with pytest.raises(SpaceError):
            RepVector.from_json_obj({"space": "symm", "params": {"n": 2}, "entries": ["1"]}, QQ)


def test_rep_rank_examples():
    # the rank of a matrix vector, read on its integer coordinates as the
    # structure oracle reads it; rank-2 alternating matrix: E12 - E21
    v = RepVector(Space("alt", n=4), QQ, [1, 0, 0, 0, 0, 0])
    assert int_rank(full_rows(v.space, v.ints()[0], 0), None) == 2
    zero = RepVector.zero(Space("square", n=3), QQ)
    assert int_rank(full_rows(zero.space, zero.ints()[0], 0), None) == 0
    i3 = RepVector.from_matrix(Space("symm", n=3), QQ, Matrix.identity(QQ, 3).rows)
    assert int_rank(full_rows(i3.space, i3.ints()[0], 0), None) == 3


def test_rank_congruence_invariance():
    rng = random.Random(9)
    s = Space("symm", n=3)
    for _ in range(20):
        v = RepVector(s, QQ, [rng.randint(-5, 5) for _ in range(6)])
        while True:
            p = Matrix.from_ints(QQ, [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
            if p.det() != 0:
                break
        m = p @ v.to_matrix() @ p.transpose()
        assert m.rank() == int_rank(full_rows(s, v.ints()[0], 0), None)


def test_standard_grams():
    j = Matrix.from_ints(QQ, standard_symplectic_ints(6))
    assert j.transpose() == -j
    assert j.rank() == 6
    # the split quadric's default S, the antidiagonal
    s = parse_form("quadric:4").gram(QQ)
    assert s == Matrix.from_ints(QQ, [[int(i + j == 3) for j in range(4)] for i in range(4)])
    assert s.transpose() == s
    assert s.rank() == 4


def _top_wedge_pair(x, y):
    # x ^ y = <x, y> e_012345 on wedge^3 of k^6: <x, y> = (star x) . y
    star = wedge_complement_star_matrix(x.field, 6, 3)
    return sum((a * b for a, b in zip(star.apply(x.coords), y.coords)), x.field.zero)


class TestPairings:
    def test_gram_properties(self):
        """The alt(4) pairing is symmetric and nondegenerate; no other space has one."""
        s = Space("alt", n=4)
        for field in (QQ, F7):
            basis = [RepVector.basis(s, field, i) for i in range(6)]
            g = Matrix(field, [[symplectic_pair(s, x, y) for y in basis] for x in basis])
            assert g.rank() == 6 and g.transpose() == g
        for other in (Space("cubic"), Space("wedge", d=3, n=6), Space("rect", m=2, n=4)):
            x = RepVector.zero(other, QQ)
            with pytest.raises(SpaceError):
                symplectic_pair(other, x, x)

    def test_wedge36_normalization(self):
        s = Space("wedge", d=3, n=6)
        idx, _ = subset_index(6, 3)
        x = RepVector.basis(s, QQ, idx[(0, 1, 2)])
        y = RepVector.basis(s, QQ, idx[(3, 4, 5)])
        assert _top_wedge_pair(x, y) == 1
        assert _top_wedge_pair(y, x) == -1
        assert _top_wedge_pair(x, x) == 0

    def test_alt4_pairing_from_pfaffian(self):
        """<x, y> on alt(4) equals the coefficient of t in Pf(x + t y)."""
        from reference import pfaffian
        from linpres.polynomials import PolyRing

        s = Space("alt", n=4)
        # e1^e2 pairs with e3^e4 to 1
        x = RepVector.basis(s, QQ, 0)
        y = RepVector.basis(s, QQ, 5)
        assert symplectic_pair(s, x, y) == 1
        rng = random.Random(10)
        ring = PolyRing(QQ, ("t",))
        (t,) = ring.gens()
        for _ in range(25):
            a = RepVector(s, QQ, [rng.randint(-5, 5) for _ in range(6)])
            b = RepVector(s, QQ, [rng.randint(-5, 5) for _ in range(6)])
            entries = [
                [ring.const(p) + t * ring.const(q) for p, q in zip(ra, rb)]
                for ra, rb in zip(a.to_matrix().rows, b.to_matrix().rows)
            ]
            pf = pfaffian(ring, entries)
            assert pf.coefficient((1,)) == symplectic_pair(s, a, b)

    def test_skew_on_random(self):
        # the top-wedge pairing is skew, the alt(4) pairing symmetric
        rng = random.Random(11)
        s, alt4 = Space("wedge", d=3, n=6), Space("alt", n=4)
        for _ in range(20):
            x = RepVector(s, QQ, [rng.randint(-4, 4) for _ in range(s.dim)])
            assert _top_wedge_pair(x, x) == 0
            a, b = (RepVector(alt4, QQ, [rng.randint(-4, 4) for _ in range(6)]) for _ in range(2))
            assert symplectic_pair(alt4, a, b) == symplectic_pair(alt4, b, a)


class TestWedge:
    def test_wedge_of_vectors_basis(self):
        v = wedge_of_vectors(QQ, 6, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]])
        idx, _ = subset_index(6, 3)
        assert v.coords[idx[(0, 1, 2)]] == 1
        assert sum(1 for c in v.coords if c != 0) == 1

    def test_wedge_antisymmetry(self):
        rng = random.Random(12)
        u = [rng.randint(-4, 4) for _ in range(6)]
        w = [rng.randint(-4, 4) for _ in range(6)]
        z = [rng.randint(-4, 4) for _ in range(6)]
        a = wedge_of_vectors(QQ, 6, [u, w, z])
        b = wedge_of_vectors(QQ, 6, [w, u, z])
        assert a == -b
        assert wedge_of_vectors(QQ, 6, [u, u, z]).is_zero()

    def test_wedge_with_vector_matches_minors(self):
        rng = random.Random(13)
        for _ in range(10):
            u = [rng.randint(-4, 4) for _ in range(6)]
            w = [rng.randint(-4, 4) for _ in range(6)]
            z = [rng.randint(-4, 4) for _ in range(6)]
            uv = wedge_of_vectors(QQ, 6, [w, z])
            u_uv = Matrix(QQ, wedge_map_rows(uv.space, uv.coords, QQ.zero)).apply([QQ.of(c) for c in u])
            assert tuple(u_uv) == wedge_of_vectors(QQ, 6, [u, w, z]).coords

    def test_annihilator_dims(self):
        idx, _ = subset_index(6, 3)
        s = Space("wedge", d=3, n=6)
        dec = RepVector.basis(s, QQ, idx[(0, 1, 2)])
        split = dec + RepVector.basis(s, QQ, idx[(3, 4, 5)])
        # {u : u ^ v = 0} has dimension n minus the rank of u -> u ^ v
        for v, dim in ((dec, 3), (split, 0), (RepVector.zero(s, QQ), 6)):
            assert 6 - int_rank(wedge_map_rows(s, v.ints()[0], 0), None) == dim

    def test_lambda_power_functorial(self):
        rng = random.Random(14)
        for field in (QQ, F7):
            a = Matrix.from_ints(field, [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)])
            b = Matrix.from_ints(field, [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)])
            la = lambda_power_matrix(a, 2)
            lb = lambda_power_matrix(b, 2)
            assert lambda_power_matrix(a @ b, 2) == la @ lb

    def test_lambda_power_on_decomposables(self):
        rng = random.Random(15)
        g = Matrix.from_ints(QQ, [[rng.randint(-3, 3) for _ in range(6)] for _ in range(6)])
        vs = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(3)]
        lhs = Matrix(QQ, [lambda_power_matrix(g, 3).apply(wedge_of_vectors(QQ, 6, vs).coords)])
        rhs = Matrix(QQ, [wedge_of_vectors(QQ, 6, [g.apply(v) for v in vs]).coords])
        assert lhs == rhs

    def test_complement_star_squares_to_minus_one(self):
        st = wedge_complement_star_matrix(QQ, 6, 3)
        assert st @ st == Matrix.identity(QQ, 20).scale(QQ.of(-1))


def unit_vector_images(v):
    """The matrix of u -> u wedge v column by column: e_i wedge v for each
    unit vector e_i, summed term by term in field arithmetic."""
    d, n = v.space.params["d"], v.space.params["n"]
    field = v.field
    idx_up, _ = subset_index(n, d + 1)
    _, subs_d = subset_index(n, d)
    cols = []
    for i in range(n):
        out = [field.zero] * len(idx_up)
        for a, A in enumerate(subs_d):
            if i in A:
                continue
            target = idx_up[tuple(sorted((i,) + A))]
            term = field.one * v.coords[a]
            out[target] = out[target] + term if merge_sign((i,), A) > 0 else out[target] - term
        cols.append(out)
    return Matrix(field, [list(row) for row in zip(*cols)])


def test_wedge_map_matrix_matches_unit_vector_images():
    rng = random.Random(16)
    for field, draw in ((QQ, lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4))), (F7, lambda: F7.of(rng.randrange(7)))):
        for n in (4, 5, 6):
            for d in (1, 2, 3):
                space = Space("wedge", d=d, n=n)
                dense = RepVector(space, field, [draw() for _ in range(space.dim)])
                sparse = RepVector(space, field, [draw() if rng.random() < 0.3 else field.zero for _ in range(space.dim)])
                for v in (dense, sparse, RepVector.zero(space, field)):
                    for _ in range(3):
                        v_basis = RepVector.basis(space, field, rng.randrange(space.dim))
                        for w in (v, v_basis, v - v_basis.scale(field.of(2))):
                            got = Matrix(field, wedge_map_rows(w.space, w.coords, field.zero))
                            assert got == unit_vector_images(w), (field.descriptor, n, d, w.coords)


class TestContraction:
    def test_examples(self):
        b = Matrix.from_ints(QQ, standard_symplectic_ints(6))
        s = Space("wedge", d=3, n=6)
        idx, _ = subset_index(6, 3)
        out = sp6_contract(RepVector.basis(s, QQ, idx[(0, 1, 2)]), b)
        assert out == [0, 0, 1, 0, 0, 0]
        out = sp6_contract(RepVector.basis(s, QQ, idx[(0, 2, 4)]), b)
        assert all(c == 0 for c in out)

    def test_linearity(self):
        rng = random.Random(16)
        b = Matrix.from_ints(QQ, standard_symplectic_ints(6))
        s = Space("wedge", d=3, n=6)
        for _ in range(10):
            x = RepVector(s, QQ, [rng.randint(-4, 4) for _ in range(20)])
            y = RepVector(s, QQ, [rng.randint(-4, 4) for _ in range(20)])
            lhs = sp6_contract(x + y, b)
            rhs = [a + c for a, c in zip(sp6_contract(x, b), sp6_contract(y, b))]
            assert lhs == rhs

    def test_rejects_degenerate(self):
        s = Space("wedge", d=3, n=6)
        v = RepVector.zero(s, QQ)
        with pytest.raises(SpaceError):
            sp6_contract(v, Matrix.from_ints(QQ, [[0] * 6] * 6))


# the integer wedge kernel, checked against per-minor determinants


def _int_rows(rng, m, n):
    # entries in [-3, 3]: negative and zero entries, and some zero rows
    return [[rng.randint(-3, 3) * (rng.randrange(4) > 0) for _ in range(n)] for _ in range(m)]


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=lambda f: f.descriptor)
def test_exterior_power_ints_matches_lambda_power_matrix(field):
    # over F_p the rows come reduced, and must equal the exact rows mod p
    p = field.modulus
    rng = random.Random(61)
    for n in range(1, 8):
        for d in range(1, n + 1):
            for _ in range(2):
                rows = _int_rows(rng, n, n)
                exact = exterior_power_ints(rows, d, None)
                got = exterior_power_ints(rows, d, p)
                assert got == (exact if p is None else [[x % p for x in r] for r in exact]), (n, d)
                expect = lambda_power_matrix(Matrix.from_ints(field, rows), d)
                assert Matrix.from_ints(field, got) == expect, (n, d)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=lambda f: f.descriptor)
def test_wedge_ints_matches_minor_determinants(field):
    rng = random.Random(62)
    for n in range(1, 8):
        for d in range(1, n + 1):
            vs = _int_rows(rng, d, n)
            _, subs = subset_index(n, d)
            got = wedge_ints(n, vs)
            assert len(got) == len(subs)
            for x, cols in zip(got, subs):
                assert field.of(x) == Matrix.from_ints(field, [[v[j] for j in cols] for v in vs]).det(), (n, d, cols)
            w = wedge_of_vectors(field, n, vs)
            assert w.coords == tuple(field.of(x) for x in got)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=lambda f: f.descriptor)
def test_exact_vector_matches_scaled_coordinates_and_clear_denominators(field):
    rng = random.Random(63)
    p = field.modulus
    space = Space("wedge", d=2, n=5)
    for trial in range(200):
        ints = [rng.randint(-12, 12) * (rng.randrange(3) > 0) for _ in range(space.dim)]
        if trial % 10 == 0:
            ints = [0] * space.dim
        s = field.of(Fraction(rng.choice([-6, -1, 1, 4, 9]), rng.choice([1, 2, 3, 8])))
        den = 1 if p is not None else rng.choice([1, 2, 6, 12, 35])
        v = RepVector._exact(space, field, s, den, ints)
        # is_zero and ints() read the integer form before the coordinates exist
        assert v.is_zero() == (not any(scaled(field, s, den, ints)))
        (x,), big_d = clear_denominators(field, [scaled(field, s, den, ints)])
        assert v.ints() == (tuple(x), big_d)
        assert all(type(a) is int for a in v.ints()[0])
        assert v.coords == tuple(scaled(field, s, den, ints))
        plain = RepVector(space, field, scaled(field, s, den, ints))
        assert v == plain and hash(v) == hash(plain)
        assert plain.ints() == v.ints() and plain.is_zero() == v.is_zero()


def test_bx_int_gram_returns_residues_over_prime_fields():
    # linalg.int_rank needs entries strictly between -p and p over F_p
    rng = random.Random(64)
    for line in ("cubic-disc", "hyperdet", "mat2n:4", "wedge36"):
        form = parse_form(line)
        for field in (F7, PrimeField(5), PrimeField(11)):
            p = field.modulus
            for _ in range(3):
                x = RepVector(form.space, field, [rng.randint(-9, 9) for _ in range(form.space.dim)])
                gram, _ = bx_int_gram(form, x)
                assert all(0 <= g < p for row in gram for g in row), (line, p)


@pytest.mark.parametrize("field", (QQ, PrimeField(5), F7, F10007), ids=lambda f: f.descriptor)
def test_vectors_from_coordinates_raw_and_exact_are_one_form(field):
    rng = random.Random(68)
    p = field.modulus
    space = Space("symm", n=3)
    for trial in range(200):
        ints = [rng.randint(-30, 30) * (rng.randrange(3) > 0) for _ in range(space.dim)]
        if trial % 10 == 0:
            ints = [0] * space.dim
        while True:
            den = rng.choice([-1, 1]) * rng.randint(1, 30)
            if p is None or den % p:
                break
        coords = [field.of(Fraction(x, den)) for x in ints]
        vs = [
            RepVector(space, field, coords),
            RepVector._raw(space, field, coords),
            RepVector._exact(space, field, field.one, den, ints),
            RepVector._exact(space, field, field.of(Fraction(1, den)), 1, ints),
        ]
        (x,), big_d = clear_denominators(field, [coords])
        for v in vs:
            assert v == vs[0] and hash(v) == hash(vs[0])
            assert v.ints() == (tuple(x), big_d)
            assert v.coords == tuple(coords)
            assert v.is_zero() == (not any(x))
