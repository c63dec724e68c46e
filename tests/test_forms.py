"""Invariant forms: frozen values, classical identities, scaling laws."""

import itertools
import operator
import random
import threading
from fractions import Fraction

import pytest

from linpres.fields import QQ, PrimeField, byte_table
from linpres.forms import (
    CubicDisc,
    FormError,
    Hyperdet,
    Mat2n,
    Quadric,
    SkewPf,
    Sp6Quartic,
    SquareDet,
    SymmDet,
    Wedge36,
    LATTICE_POINT_LIMIT,
    WALK_DEPTH_MAX,
    byte_kernel,
    form_descriptors,
    parse_form,
    simplex_lattice,
)
from linpres.linalg import Matrix, scaled
from linpres.multilinear import (
    RepVector,
    Space,
    _alt_pairs,
    _signed_sum,
    _straight_line,
    bx_int_gram,
    full_rows,
    lambda_power_matrix,
    merge_sign,
    polarize4,
    standard_symplectic_ints,
    subset_index,
    wedge_of_vectors,
)
from linpres.polynomials import PolyRing
from reference import pfaffian, sp6_contract, symplectic_pair, wedge36_pair_point

F7 = PrimeField(7)
F5 = PrimeField(5)


def from_mat(space, m):
    return RepVector.from_matrix(space, m.ring, m.rows)


def rand_vec(rng, space, field, lo=-9, hi=9):
    return RepVector(space, field, [field.of(rng.randint(lo, hi)) for _ in range(space.dim)])


def rand_invertible(rng, field, n, lo=-4, hi=4):
    while True:
        m = Matrix(field, [[field.of(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)])
        if m.det() != field.zero:
            return m


# parsing


def test_parse_roundtrip():
    for d in ["symm-det:3", "skew-pf:6", "square-det:2", "quadric:4", "mat2n:5"]:
        assert parse_form(d).descriptor() == d
    for d in ["cubic-disc", "wedge36", "sp6", "hyperdet"]:
        assert parse_form(d).descriptor() == d


def test_parse_errors():
    with pytest.raises(FormError):
        parse_form("det")
    with pytest.raises(FormError):
        parse_form("symm-det")
    with pytest.raises(FormError):
        parse_form("hyperdet:2")
    with pytest.raises(FormError):
        parse_form("symm-det:x")
    with pytest.raises(FormError):
        parse_form("skew-pf:5")
    with pytest.raises(FormError):
        parse_form("skew-pf:2")
    with pytest.raises(FormError):
        parse_form("mat2n:3")
    with pytest.raises(FormError):
        parse_form("symm-det:1")


def test_descriptor_list():
    assert "wedge36" in form_descriptors()
    assert len(form_descriptors()) == 9


def test_space_mismatch():
    f = SymmDet(3)
    v = RepVector.zero(Space("alt", n=4), QQ)
    with pytest.raises(FormError):
        f.evaluate(v)


# determinant lines


def test_symm_det_matches_matrix_det():
    rng = random.Random(1)
    for field in (QQ, F7):
        # 7 exceeds the largest compiled expansion and takes Bareiss elimination
        for n in (2, 3, 4, 7):
            f = SymmDet(n)
            for _ in range(10):
                v = rand_vec(rng, f.space, field)
                assert f.evaluate(v) == v.to_matrix().det()


def test_square_det_matches_matrix_det():
    rng = random.Random(2)
    for field in (QQ, F7):
        for n in (2, 3, 6, 7):
            f = SquareDet(n)
            for _ in range(10):
                v = rand_vec(rng, f.space, field)
                assert f.evaluate(v) == v.to_matrix().det()


def test_symm_congruence_scaling():
    rng = random.Random(3)
    for field in (QQ, F7):
        for n in (2, 3):
            f = SymmDet(n)
            for _ in range(8):
                v = rand_vec(rng, f.space, field)
                p = rand_invertible(rng, field, n)
                r = field.of(rng.choice([1, -1, 2, 3]))
                moved = from_mat(f.space, (p @ v.to_matrix() @ p.transpose()).scale(r))
                want = f.scaling_factor({"r": r, "P": p}) * f.evaluate(v)
                assert f.evaluate(moved) == want


def test_square_sandwich_scaling():
    rng = random.Random(4)
    for field in (QQ, F7):
        f = SquareDet(3)
        for _ in range(8):
            v = rand_vec(rng, f.space, field)
            a = rand_invertible(rng, field, 3)
            b = rand_invertible(rng, field, 3)
            moved = from_mat(f.space, a @ v.to_matrix() @ b)
            want = f.scaling_factor({"A": a, "B": b}) * f.evaluate(v)
            assert f.evaluate(moved) == want


# Pfaffian line


def test_pfaffian_of_standard_pairing_is_one():
    for field in (QQ, F7):
        for n in (4, 6, 8):
            f = SkewPf(n)
            j = Matrix.from_ints(field, standard_symplectic_ints(n))
            v = from_mat(f.space, j)
            assert f.evaluate(v) == field.one


def test_pfaffian_symbolic_4x4():
    f = SkewPf(4)
    ring = PolyRing(QQ, ("x1", "x2", "x3", "x4", "x5", "x6"))
    x = ring.gens()
    pf = f.eval_entries(ring, list(x))
    assert pf == x[0] * x[5] - x[1] * x[4] + x[2] * x[3]


def pfaffian_monomial_plan(n):
    """Pfaffian as a signed sum over the perfect matchings of 0 .. n-1,
    expanded along the first index: pairing it with the k-th remaining one
    contributes the sign (-1)^(k+1).  A term lists its coordinates in
    increasing order, since each pair starts above the previous one."""
    coord = {ij: k for k, ij in enumerate(_alt_pairs(n))}

    def matchings(idx):
        if not idx:
            yield 1, ()
        for k in range(1, len(idx)):
            rest = idx[1:k] + idx[k + 1 :]
            for sign, mono in matchings(rest):
                yield (sign if k % 2 else -sign), (coord[idx[0], idx[k]],) + mono

    return sorted(matchings(tuple(range(n))), key=lambda t: t[1])


def lattice_points(dim, d):
    """The points alpha in Z>=0^dim with |alpha| = d, lexicographically."""
    for pt in itertools.combinations_with_replacement(range(dim), d):
        alpha = [0] * dim
        for i in pt:
            alpha[i] += 1
        yield alpha


def test_pfaffian_plan_matches_polynomial_expansion():
    for n in (4, 6, 8, 10):
        f = SkewPf(n)
        ring = PolyRing(QQ, tuple("x%d" % i for i in range(f.space.dim)))
        rows = [[ring.zero] * n for _ in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for x, (i, j) in zip(ring.gens(), pairs):
            rows[i][j], rows[j][i] = x, -x
        want = list(
            (int(c), tuple(i for i, e in enumerate(key) for _ in range(e)))
            for key, c in pfaffian(ring, rows).terms.items()
        )
        want.sort(key=lambda term: term[1])
        assert pfaffian_monomial_plan(n) == want


def test_pfaffian_formula_equals_the_monomial_plan_on_the_simplex_lattice():
    # both sides are forms of degree n/2, so agreement on the degree-n/2
    # simplex lattice (unisolvent) is equality as polynomials
    for n, count in ((4, 21), (6, 680), (8, 31465)):
        f = SkewPf(n)
        plan = _straight_line(f.space.dim, [], _signed_sum(pfaffian_monomial_plan(n)))
        points = 0
        for alpha in lattice_points(f.space.dim, f.degree):
            assert f.formula(alpha) == plan(alpha), alpha
            points += 1
        assert points == count


def test_pfaffian_formula_matches_linalg_pfaffian_at_n_10():
    rng = random.Random(10)
    f = SkewPf(10)
    pairs = _alt_pairs(10)
    for _ in range(200):
        vals = [rng.randint(-30, 30) for _ in pairs]
        rows = [[0] * 10 for _ in range(10)]
        for x, (i, j) in zip(vals, pairs):
            rows[i][j], rows[j][i] = x, -x
        assert f.formula(vals) == pfaffian(QQ, rows)


def test_pfaffian_squared_is_det():
    rng = random.Random(5)
    for field in (QQ, F7):
        for n in (4, 6, 8):
            f = SkewPf(n)
            for _ in range(6):
                v = rand_vec(rng, f.space, field)
                pf = f.evaluate(v)
                assert pf * pf == v.to_matrix().det()


def test_pfaffian_congruence_scaling():
    rng = random.Random(6)
    for field in (QQ, F7):
        f = SkewPf(4)
        for _ in range(8):
            v = rand_vec(rng, f.space, field)
            p = rand_invertible(rng, field, 4)
            r = field.of(rng.choice([1, -1, 2]))
            moved = from_mat(f.space, (p @ v.to_matrix() @ p.transpose()).scale(r))
            want = f.scaling_factor({"r": r, "P": p}) * f.evaluate(v)
            assert f.evaluate(moved) == want


# quadric


def test_quadric_split_formula():
    rng = random.Random(7)
    for field in (QQ, F7):
        for n in (3, 4):
            f = Quadric(n)
            for _ in range(6):
                v = rand_vec(rng, f.space, field)
                want = field.zero
                for i in range(n):
                    want = want + v.coords[i] * v.coords[n - 1 - i]
                assert f.evaluate(v) == want


def test_quadric_rejects_singular_s():
    f = Quadric(3, [[5, 0, 0], [0, 1, 0], [0, 0, 1]])
    v = RepVector(f.space, F5, [F5.one, F5.one, F5.one])
    with pytest.raises(FormError):
        f.evaluate(v)
    assert f.evaluate(RepVector(f.space, QQ, [Fraction(1)] * 3)) == Fraction(7)


def test_quadric_rejects_asymmetric_s():
    with pytest.raises(FormError):
        Quadric(2, [[0, 1], [0, 0]])


def test_quadric_has_no_family():
    with pytest.raises(FormError):
        Quadric(4).scaling_factor({})


# binary cubic discriminant


def test_cubic_disc_frozen_values():
    f = CubicDisc()
    pts = {
        (0, 1, -1, 0): 1,
        (1, 0, 0, 1): -27,
        (0, 1, 1, 0): 1,
        (1, 0, 0, 0): 0,
        (0, 0, 0, 1): 0,
        (1, 3, 3, 1): 0,
    }
    for coords, want in pts.items():
        v = RepVector(f.space, QQ, [Fraction(c) for c in coords])
        assert f.evaluate(v) == Fraction(want)
        w = RepVector(f.space, F7, [F7.of(c) for c in coords])
        assert f.evaluate(w) == F7.of(want)


def test_cubic_disc_detects_repeated_roots():
    # (x - a y)^2 (x - b y) has zero discriminant iff a == b is forced; here
    # expand (x - y)^2 (x + 2 y) = x^3 - 3 x y^2 + 2 y^3 which has a = 1 twice
    f = CubicDisc()
    v = RepVector(f.space, QQ, [Fraction(1), Fraction(0), Fraction(-3), Fraction(2)])
    assert f.evaluate(v) == QQ.zero
    # distinct roots: x (x - y) (x + y) = x^3 - x y^2
    w = RepVector(f.space, QQ, [Fraction(1), Fraction(0), Fraction(-1), Fraction(0)])
    assert f.evaluate(w) != QQ.zero


# wedge36


def wedge36_plan():
    """Entries of the contraction endomorphism K_v: list of (row, col, sign, a, b)
    with K[row][col] = sum sign * v_a * v_b."""
    idx3, subs3 = subset_index(6, 3)
    plan = []
    for i in range(6):
        for A in subs3:
            if i not in A:
                continue
            pos = A.index(i)
            c1 = -1 if pos % 2 else 1
            rest = tuple(x for x in A if x != i)
            for B in subs3:
                if set(B) & set(rest):
                    continue
                s2 = merge_sign(rest, B)
                five = tuple(sorted(rest + B))
                (j,) = tuple(x for x in range(6) if x not in five)
                s3 = merge_sign(five, (j,))
                plan.append((j, i, c1 * s2 * s3, idx3[A], idx3[B]))
    return plan


def trace_k_squared(plan, v):
    """tr(K_v^2), the wedge36 quartic before its constant, from the plan."""
    k = [[0] * 6 for _ in range(6)]
    for row, col, s, a, b in plan:
        k[row][col] += s * v[a] * v[b]
    return sum(k[i][j] * k[j][i] for i in range(6) for j in range(6))


def test_wedge36_plan_size():
    assert len(wedge36_plan()) == 240


def test_wedge36_formula_is_trace_of_k_squared_on_the_simplex_lattice():
    # both sides are quartic forms in 20 variables over Q; a quartic that
    # vanishes at all C(23, 4) = 8855 points alpha in Z>=0^20 with |alpha| = 4
    # is zero, so equality there is equality as polynomials
    plan = wedge36_plan()
    formula = Wedge36().formula
    assert Sp6Quartic().formula is formula
    points = 0
    for pt in itertools.combinations_with_replacement(range(20), 4):
        alpha = [0] * 20
        for i in pt:
            alpha[i] += 1
        assert formula(alpha) == trace_k_squared(plan, alpha), pt
        points += 1
    assert points == 8855


def test_wedge36_reference_value():
    f = Wedge36()
    for field in (QQ, F7):
        x = RepVector(Space("alt", n=4), field, [field.of(c) for c in (1, 0, 0, 0, 0, 1)])
        y = RepVector(Space("alt", n=4), field, [field.of(c) for c in (1, 0, 0, 0, 0, -1)])
        v = wedge36_pair_point(x, y)
        assert f.evaluate(v) == field.of(4)
    assert list(v.coords) == [F7.of(c) for c in Wedge36._reference_coords()]


def test_wedge36_vanishes_on_decomposables():
    rng = random.Random(8)
    f = Wedge36()
    for field in (QQ, F7):
        for _ in range(10):
            vecs = [[field.of(rng.randint(-4, 4)) for _ in range(6)] for _ in range(3)]
            v = wedge_of_vectors(field, 6, vecs)
            assert f.evaluate(v) == field.zero


def test_wedge36_pair_identity():
    rng = random.Random(9)
    f = Wedge36()
    pf = SkewPf(4)
    alt4 = Space("alt", n=4)
    for field in (QQ, F7):
        for _ in range(25):
            x = rand_vec(rng, alt4, field)
            y = rand_vec(rng, alt4, field)
            v = wedge36_pair_point(x, y)
            pair = symplectic_pair(alt4, x, y)
            want = pair * pair - field.of(4) * pf.evaluate(x) * pf.evaluate(y)
            assert f.evaluate(v) == want


def test_wedge36_gl6_scaling():
    rng = random.Random(10)
    f = Wedge36()
    for field in (QQ, F7):
        for _ in range(5):
            v = rand_vec(rng, f.space, field, -3, 3)
            g = rand_invertible(rng, field, 6, -2, 2)
            c = field.of(rng.choice([1, -1, 2]))
            moved = RepVector._raw(
                f.space, field, [c * t for t in lambda_power_matrix(g, 3).apply(v.coords)]
            )
            want = f.scaling_factor({"c": c, "g": g}) * f.evaluate(v)
            assert f.evaluate(moved) == want


# sp6 restriction


def test_sp6_rejects_nonkernel():
    f = Sp6Quartic()
    for field in (QQ, F7):
        v = RepVector.basis(f.space, field, 0)
        with pytest.raises(FormError):
            f.evaluate(v)


def sp6_int_kernel_points(rng, count):
    """Integer ambient coordinates in the contraction kernel over any field."""
    import math

    f = Sp6Quartic()
    basis = f.kernel_basis(QQ)
    cols = [[basis.entry(i, j) for i in range(20)] for j in range(14)]
    scaled = []
    for col in cols:
        den = 1
        for c in col:
            den = den * c.denominator // math.gcd(den, c.denominator)
        scaled.append([int(c * den) for c in col])
    pts = []
    for _ in range(count):
        coeffs = [rng.randint(-3, 3) for _ in range(14)]
        pts.append([sum(a * col[i] for a, col in zip(coeffs, scaled)) for i in range(20)])
    return pts


def test_sp6_kernel_dimension_and_eval():
    f = Sp6Quartic()
    amb = Wedge36()
    rng = random.Random(11)
    for field in (QQ, F7):
        kb = f.kernel_basis(field)
        assert (kb.nrows, kb.ncols) == (20, 14)
    for vals in sp6_int_kernel_points(rng, 6):
        for field in (QQ, F7):
            v = RepVector(f.space, field, [field.of(c) for c in vals])
            b = Matrix.from_ints(field, standard_symplectic_ints(6))
            assert all(c == field.zero for c in sp6_contract(v, b))
            assert f.evaluate(v) == amb.evaluate(v)


def test_sp6_in_kernel_matches_contraction():
    # in_kernel reads the integer contraction matrix; sp6_contract is the reference
    f = Sp6Quartic()
    rng = random.Random(12)
    for field in (QQ, F7):
        vectors = [RepVector.basis(f.space, field, i) for i in range(20)]
        vectors += [RepVector(f.space, field, [field.of(c) for c in vals]) for vals in sp6_int_kernel_points(rng, 3)]
        vectors += [RepVector(f.space, field, [field.sample(rng, 3) for _ in range(20)]) for _ in range(3)]
        b = Matrix.from_ints(field, standard_symplectic_ints(6))
        for v in vectors:
            assert f.in_kernel(v) == all(c == field.zero for c in sp6_contract(v, b))


# mat2n


def test_mat2n_frozen_value():
    f = Mat2n(4)
    for field in (QQ, F7):
        v = RepVector(f.space, field, [field.of(c) for c in (1, 0, 0, 1, 0, 1, 1, 0)])
        assert f.evaluate(v) == field.of(4)


def test_mat2n_rejects_singular_s():
    f = Mat2n(4, [[7 if i == j else 0 for j in range(4)] for i in range(4)])
    v = RepVector(f.space, F7, [F7.one] * 8)
    with pytest.raises(FormError):
        f.evaluate(v)


def test_mat2n_scaling():
    rng = random.Random(12)
    for field in (QQ, F7):
        f = Mat2n(4)
        s = f.gram(field)
        j = Matrix(
            field,
            [[field.one if a + b == 3 else field.zero for b in range(4)] for a in range(4)],
        )
        two_i = Matrix.identity(field, 4).scale(field.of(2))
        for g2, mu in ((Matrix.identity(field, 4), field.one), (j, field.one), (two_i, field.of(4))):
            assert g2.transpose() @ s @ g2 == s.scale(mu)
            for _ in range(5):
                v = rand_vec(rng, f.space, field)
                g1 = rand_invertible(rng, field, 2)
                moved = from_mat(f.space, g1 @ v.to_matrix() @ g2.transpose())
                want = f.scaling_factor({"g1": g1, "g2": g2, "mu": mu}) * f.evaluate(v)
                assert f.evaluate(moved) == want


def test_mat2n_matches_matrix_product_reference():
    rng = random.Random(24)
    s_odd = [[2, 1, 0, 0, 0], [1, 0, 0, 3, 0], [0, 0, 1, 0, 0], [0, 3, 0, 0, 1], [0, 0, 0, 1, -1]]
    s_thirds = [[Fraction(x, 3) for x in row] for row in s_odd]
    for n, s_entries in ((4, None), (6, None), (5, s_odd), (5, s_thirds)):
        f = Mat2n(n, s_entries)
        for field in (QQ, F7):
            split = [[int(i + j == n - 1) for j in range(n)] for i in range(n)]
            s = Matrix.from_ints(field, s_entries or split)
            for _ in range(6):
                x = rand_vec(rng, f.space, field)
                xm = x.to_matrix()
                assert f.evaluate(x) == (xm @ s @ xm.transpose()).det()


def test_polynomial_entries_carry_the_rational_constant():
    rng = random.Random(26)
    s3 = [[Fraction(1, 2), 0, 1], [0, Fraction(1, 3), 0], [1, 0, 0]]
    s4 = [[Fraction(1, 2), 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, Fraction(3, 5)]]
    for f in (Wedge36(), Quadric(3, s3), Mat2n(4, s4)):
        for field in (QQ, F7):
            ring = PolyRing(field, tuple("x%d" % i for i in range(f.space.dim)))
            sym = f.eval_entries(ring, list(ring.gens()))
            for _ in range(3):
                v = rand_vec(rng, f.space, field)
                assert sym.evaluate(list(v.coords)) == f.evaluate(v)


def test_determinant_expands_over_polynomials_beyond_compiled_sizes():
    # n = 7 runs the uncompiled determinant, which must stay division-free
    rng = random.Random(27)
    for f in (SymmDet(7), SquareDet(7)):
        for field in (QQ, F7):
            ring = PolyRing(field, tuple("x%d" % i for i in range(f.space.dim)))
            sym = f.eval_entries(ring, list(ring.gens()))
            for _ in range(3):
                v = rand_vec(rng, f.space, field)
                assert sym.evaluate(list(v.coords)) == f.evaluate(v)


@pytest.mark.parametrize("line", ["symm-det:15", "square-det:15", "skew-pf:20"])
def test_interpreted_expansions_at_the_largest_sizes(line):
    # the largest sizes run the expansion plan interpreted: each value equals
    # Bareiss elimination's determinant, and the Pfaffian the reference
    # recursion and Pf^2 = det, over Q and F_10007
    rng = random.Random(line)
    f = parse_form(line)
    for _ in range(2):
        ints = [rng.randint(-9, 9) for _ in range(f.space.dim)]
        for field in (QQ, PrimeField(10007)):
            v = RepVector(f.space, field, [field.of(x) for x in ints])
            value, det = f.evaluate(v), v.to_matrix().det()
            if not isinstance(f, SkewPf):
                assert value == det
                continue
            assert value * value == det
            if field is QQ:
                assert value == pfaffian(QQ, full_rows(f.space, ints, 0))


def test_pfaffian_expands_over_polynomials_beyond_compiled_sizes():
    # n = 12 runs the interpreted Pfaffian, which must stay division-free;
    # it has one monomial per perfect matching of 12 indices, 11!! = 10395
    rng = random.Random(28)
    f = SkewPf(12)
    for field in (QQ, F7):
        ring = PolyRing(field, tuple("x%d" % i for i in range(f.space.dim)))
        sym = f.eval_entries(ring, list(ring.gens()))
        assert len(sym.terms) == 10395
        for _ in range(3):
            v = rand_vec(rng, f.space, field)
            assert sym.evaluate(list(v.coords)) == f.evaluate(v)


def test_gram_forms_compare_their_s():
    identity = [[int(i == j) for j in range(3)] for i in range(3)]
    assert Quadric(3, identity) != Quadric(3)
    assert Mat2n(4, [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 1]]) != Mat2n(4)
    assert len({Quadric(3), Quadric(3, identity)}) == 2
    antidiagonal = [[int(i + j == 2) for j in range(3)] for i in range(3)]
    for a, b in ((Quadric(3, identity), Quadric(3, identity)), (Quadric(3), Quadric(3, antidiagonal)),
                 (Mat2n(5), parse_form("mat2n:5"))):
        assert a == b and hash(a) == hash(b)


def test_evaluate_builds_its_evaluator_once_per_field(monkeypatch):
    rank_calls = []
    real_rank = Matrix.rank
    monkeypatch.setattr(Matrix, "rank", lambda m: rank_calls.append(m) or real_rank(m))
    rng = random.Random(25)
    for f in (Mat2n(4), Quadric(3)):
        for field in (QQ, F7):
            rank_calls.clear()
            for _ in range(5):
                f.evaluate(rand_vec(rng, f.space, field))
            assert len(rank_calls) == 1
            assert f.int_evaluator(field) is f.int_evaluator(field)


# hyperdeterminant


def tensor_apply(field, g1, g2, g3, coords):
    out = []
    for i in range(2):
        for j in range(2):
            for k in range(2):
                acc = field.zero
                for a in range(2):
                    for b in range(2):
                        for c in range(2):
                            acc = acc + g1.entry(i, a) * g2.entry(j, b) * g3.entry(k, c) * coords[4 * a + 2 * b + c]
                out.append(acc)
    return out


def hyperdet_monomial_sum(t):
    """Cayley's hyperdeterminant as its 12 monomials (40 products)."""
    t000, t001, t010, t011, t100, t101, t110, t111 = t
    sq = (
        t000 * t000 * t111 * t111
        + t001 * t001 * t110 * t110
        + t010 * t010 * t101 * t101
        + t011 * t011 * t100 * t100
    )
    mixed = (
        t000 * t001 * t110 * t111
        + t000 * t010 * t101 * t111
        + t000 * t011 * t100 * t111
        + t001 * t010 * t101 * t110
        + t001 * t011 * t100 * t110
        + t010 * t011 * t100 * t101
    )
    quads = t000 * t011 * t101 * t110 + t001 * t010 * t100 * t111
    return sq - 2 * mixed + 4 * quads


def test_hyperdet_formula_equals_the_monomial_sum_on_the_simplex_lattice():
    # two quartics that agree on the degree-4 simplex lattice are equal
    points = 0
    for alpha in lattice_points(8, 4):
        assert Hyperdet.formula(alpha) == hyperdet_monomial_sum(alpha), alpha
        points += 1
    assert points == 330


def test_hyperdet_diagonal_tensor():
    f = Hyperdet()
    for field in (QQ, F7):
        v = RepVector(f.space, field, [field.of(c) for c in (1, 0, 0, 0, 0, 0, 0, 1)])
        assert f.evaluate(v) == field.one


def test_hyperdet_vanishes_on_rank_one():
    rng = random.Random(13)
    f = Hyperdet()
    for field in (QQ, F7):
        for _ in range(10):
            u = [field.of(rng.randint(-4, 4)) for _ in range(2)]
            v = [field.of(rng.randint(-4, 4)) for _ in range(2)]
            w = [field.of(rng.randint(-4, 4)) for _ in range(2)]
            coords = [u[i] * v[j] * w[k] for i in range(2) for j in range(2) for k in range(2)]
            assert f.evaluate(RepVector(f.space, field, coords)) == field.zero


def test_hyperdet_is_pencil_discriminant():
    rng = random.Random(14)
    f = Hyperdet()
    for field in (QQ, F7):
        for _ in range(15):
            t = [field.of(rng.randint(-5, 5)) for _ in range(8)]
            det_a = t[0] * t[3] - t[1] * t[2]
            det_b = t[4] * t[7] - t[5] * t[6]
            mix = t[0] * t[7] + t[3] * t[4] - t[1] * t[6] - t[2] * t[5]
            assert f.evaluate(RepVector(f.space, field, t)) == mix * mix - field.of(4) * det_a * det_b


def test_hyperdet_factor_permutation_invariance():
    rng = random.Random(15)
    f = Hyperdet()
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    for field in (QQ, F7):
        for _ in range(10):
            t = [field.of(rng.randint(-5, 5)) for _ in range(8)]
            base = f.evaluate(RepVector(f.space, field, t))
            for sigma in perms:
                moved = [field.zero] * 8
                for i in range(2):
                    for j in range(2):
                        for k in range(2):
                            src = (i, j, k)
                            dst = tuple(src[sigma.index(a)] for a in range(3))
                            moved[4 * dst[0] + 2 * dst[1] + dst[2]] = t[4 * i + 2 * j + k]
                assert f.evaluate(RepVector(f.space, field, moved)) == base


def test_hyperdet_triple_scaling():
    rng = random.Random(16)
    f = Hyperdet()
    for field in (QQ, F7):
        for _ in range(6):
            t = [field.of(rng.randint(-4, 4)) for _ in range(8)]
            g1 = rand_invertible(rng, field, 2)
            g2 = rand_invertible(rng, field, 2)
            g3 = rand_invertible(rng, field, 2)
            moved = tensor_apply(field, g1, g2, g3, t)
            want = f.scaling_factor({"g1": g1, "g2": g2, "g3": g3}) * f.evaluate(
                RepVector(f.space, field, t)
            )
            assert f.evaluate(RepVector(f.space, field, moved)) == want


def test_hyperdet_matches_mat2n_with_pinned_s():
    # flattening a 2x2x2 tensor to 2x4 (column index 2j + k), with
    # S = antidiag(1, -1, -1, 1), gives det(X S X^t) = -hyperdet
    rng = random.Random(17)
    f = Hyperdet()
    s_hyper = [[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]]
    g = Mat2n(4, s_hyper)
    for field in (QQ, F7):
        for _ in range(15):
            t = [field.of(rng.randint(-5, 5)) for _ in range(8)]
            x = RepVector(g.space, field, t)
            assert g.evaluate(x) == -f.evaluate(RepVector(f.space, field, t))


# homogeneity, cross-field agreement, evaluator consistency


ALL_FORMS = [
    SymmDet(2),
    SymmDet(3),
    SkewPf(4),
    SkewPf(6),
    SquareDet(3),
    Quadric(4),
    CubicDisc(),
    Wedge36(),
    Mat2n(4),
    Hyperdet(),
]


def test_homogeneity():
    rng = random.Random(18)
    for f in ALL_FORMS:
        for field in (QQ, F7):
            v = rand_vec(rng, f.space, field, -3, 3)
            lam = field.of(3)
            scaled = v.scale(lam)
            assert f.evaluate(scaled) == lam**f.degree * f.evaluate(v)


def test_cross_field_agreement():
    rng = random.Random(19)
    for f in ALL_FORMS:
        for _ in range(4):
            ints = [rng.randint(-9, 9) for _ in range(f.space.dim)]
            over_q = f.evaluate(RepVector(f.space, QQ, [Fraction(c) for c in ints]))
            over_p = f.evaluate(RepVector(f.space, F7, [F7.of(c) for c in ints]))
            assert F7.of(over_q) == over_p


def test_fraction_path_matches_int_path():
    rng = random.Random(20)
    for f in ALL_FORMS:
        ints = [rng.randint(-6, 6) for _ in range(f.space.dim)]
        v_int = RepVector(f.space, QQ, [Fraction(c) for c in ints])
        v_frac = RepVector(f.space, QQ, [Fraction(2 * c, 2) for c in ints])
        direct = f.eval_entries(QQ, list(v_frac.coords))
        assert f.evaluate(v_int) == direct
        half = QQ.of(Fraction(1, 2))
        v_half = v_int.scale(half)
        assert f.evaluate(v_half) == half**f.degree * direct


def test_symbolic_entries_match_numeric():
    rng = random.Random(21)
    for f in [SymmDet(2), SkewPf(4), CubicDisc(), Hyperdet(), Quadric(3)]:
        ring = PolyRing(QQ, tuple("v%d" % i for i in range(f.space.dim)))
        sym = f.eval_entries(ring, list(ring.gens()))
        ints = [Fraction(rng.randint(-5, 5)) for _ in range(f.space.dim)]
        assert sym.evaluate([QQ.of(c) for c in ints]) == f.evaluate(RepVector(f.space, QQ, ints))


# polarization against real quartics


def test_polarize4_diagonal_recovers_f():
    rng = random.Random(22)
    for f in [CubicDisc(), Hyperdet(), Wedge36()]:
        for field in (QQ, F7):
            v = rand_vec(rng, f.space, field, -3, 3)
            assert polarize4(f, v, v, v, v) == f.evaluate(v)


def test_bilinear_bx_matches_polarization():
    rng = random.Random(23)
    # wedge36 carries the constant 1/6, and non-integral x a denominator D > 1
    for f in [CubicDisc(), Hyperdet(), Wedge36(), Mat2n(4)]:
        for field in (QQ, F7):
            x = RepVector(f.space, field, [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(f.space.dim)])
            ints, s = bx_int_gram(f, x)
            gram = Matrix(field, [scaled(field, s, 1, row) for row in ints])
            for _ in range(6):
                i = rng.randrange(f.space.dim)
                j = rng.randrange(f.space.dim)
                ei = RepVector.basis(f.space, field, i)
                ej = RepVector.basis(f.space, field, j)
                assert gram.entry(i, j) == polarize4(f, x, x, ei, ej)


def test_sp6_bx_gram_matches_polarization_on_its_kernel_columns():
    # sp6's Gram is taken on the integer columns E_i of its kernel basis
    # (raw_embedding), where x must lie: G[i][j] s = b_x(E_i, E_j)
    rng = random.Random(29)
    f = Sp6Quartic()
    for field in (QQ, F7):
        emb = f.raw_embedding(field)
        assert emb == f.kernel_basis(field).ints()[0]
        cols = [RepVector(f.space, field, col) for col in zip(*emb)]
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in cols]
        x = RepVector(f.space, field, [sum(map(operator.mul, coeffs, row)) for row in emb])
        ints, s = bx_int_gram(f, x)
        assert len(ints) == len(cols) == 14
        for i, j in [(0, 0), (13, 13), (0, 13)] + [(rng.randrange(14), rng.randrange(14)) for _ in range(5)]:
            assert field.of(ints[i][j]) * s == polarize4(f, x, x, cols[i], cols[j]), (field.descriptor, i, j)


def test_simplex_lattice_order_matches_a_reference_walk():
    rng = random.Random(3)

    def fn(x):
        return sum(a * a * a - 2 * a * b for a, b in zip(x, x[1:] + x[:1])) + len(x)

    for n in (1, 2, 3, 5):
        cols = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(n)]
        for d in range(5):
            want = [
                fn([sum(cols[i][t] for i in pt) for t in range(3)])
                for pt in itertools.combinations_with_replacement(range(n), d)
            ]
            assert simplex_lattice(fn, cols, d, None, FormError) == want, (n, d)


def test_simplex_lattice_walks_degrees_past_the_nesting_limit():
    # Python refuses more than 20 statically nested blocks, so the walk cannot
    # open one loop per index at these degrees; d = 15-30 spans the depth at
    # which it starts from built levels instead
    rng = random.Random(5)

    def fn(x):
        return x[0] * x[0] - 3 * x[1] + x[0] * x[1] * x[1]

    for n in (1, 2):
        cols = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(n)]
        for d in range(15, 31):
            want = [
                fn([sum(cols[i][t] for i in pt) for t in range(2)])
                for pt in itertools.combinations_with_replacement(range(n), d)
            ]
            assert simplex_lattice(fn, cols, d, None, FormError) == want, (n, d)
            modular = simplex_lattice(lambda x: fn(x) % 10007, cols, d, 10007, FormError)
            assert modular == [v % 10007 for v in want], (n, d)


def test_simplex_lattice_bounds_the_levels_it_builds():
    # past WALK_DEPTH_MAX the walk starts from levels holding C(n + D, D)
    # sums, D = d - WALK_DEPTH_MAX: on two columns C(447, 2) = 99,681 at
    # d = 461 and C(448, 2) = 100,128 at d = 462, against 10^5
    assert simplex_lattice(lambda x: x[0], [[1], [2]], 461, None, FormError) == list(range(461, 923))
    with pytest.raises(FormError, match="100128 sums, above the bound of 100000"):
        simplex_lattice(lambda x: x[0], [[1], [2]], 462, None, FormError)


def test_simplex_lattice_refuses_deep_levels_in_bounded_time():
    # d = 99,999 on two columns is a lattice of 10^5 points, within the point
    # bound, whose levels would hold about 5 * 10^9 sums
    raised = []

    def call():
        try:
            simplex_lattice(lambda x: x[0], [[1], [2]], 99_999, None, FormError)
        except FormError as exc:
            raised.append(exc)

    worker = threading.Thread(target=call, daemon=True)
    worker.start()
    worker.join(5)
    assert not worker.is_alive(), "simplex_lattice did not return within 5 s at d = 99,999"
    assert raised


def test_simplex_lattice_scales_each_value():
    rng = random.Random(9)

    def fn(x):
        return sum(a * a * b - 5 * b for a, b in zip(x, x[1:] + x[:1])) - 2

    for n in (1, 2, 3, 5):
        cols = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(n)]
        for d in range(5):
            over_q = simplex_lattice(fn, cols, d, None, FormError)
            over_f7 = simplex_lattice(fn, cols, d, 7, FormError)
            assert over_f7 == [v % 7 for v in over_q], (n, d)
            for a in (2, -3, 6):
                assert simplex_lattice(fn, cols, d, None, FormError, scale=a) == [a * v for v in over_q], (n, d)
                assert simplex_lattice(fn, cols, d, 7, FormError, scale=a) == [a * v % 7 for v in over_f7], (n, d)


def test_simplex_lattice_refuses_just_above_the_point_bound():
    # C(29, 5) = 118,755 points on 25 coordinates: refused before any walk,
    # so a looser bound shows up as a walk that returns instead of an error
    units = [[int(i == j) for j in range(25)] for i in range(25)]
    assert LATTICE_POINT_LIMIT < 118755 < 2 * LATTICE_POINT_LIMIT
    with pytest.raises(FormError, match="118755 points"):
        simplex_lattice(lambda x: 0, units, 5, None, FormError)


# every form of a compiled size that a command walks: the 16 corollary forms,
# then the quadrics and the determinants and Pfaffian at the compiled bounds
_WALKED_FORMS = [
    "symm-det:2", "symm-det:3", "symm-det:4", "skew-pf:6", "skew-pf:8", "skew-pf:4",
    "square-det:2", "square-det:3", "square-det:4", "cubic-disc", "wedge36", "sp6",
    "hyperdet", "mat2n:4", "mat2n:5", "mat2n:6",
    "quadric:3", "quadric:4", "quadric:5", "quadric:6",
    "symm-det:5", "symm-det:6", "square-det:5", "square-det:6", "skew-pf:10",
]


@pytest.mark.parametrize("desc", _WALKED_FORMS)
def test_inlined_walk_equals_the_called_evaluator(desc):
    # the walk runs each form's straight-line source inline; a wrapper that
    # carries no source is called per point, and both must give the same list
    form = parse_form(desc)
    rng = random.Random(desc)
    m = form.space.dim
    for field, lo, hi in ((QQ, -(1 << 40), 1 << 40), (QQ, -9, 9), (F7, 0, 6), (PrimeField(10007), 0, 10006)):
        fn = form.int_evaluator(field)
        assert fn.source[0] == m, (desc, field.descriptor)
        cols = [[rng.randint(lo, hi) for _ in range(m)] for _ in range(3)]
        for scale in (1, -5, 3):
            got = simplex_lattice(fn, cols, form.degree, field.modulus, FormError, scale)
            want = simplex_lattice(lambda x: fn(x), cols, form.degree, field.modulus, FormError, scale)
            assert got == want, (desc, field.descriptor, scale)


def test_inlined_walk_runs_the_source_without_calling_the_evaluator():
    # an evaluator that carries a source is never called: its source runs
    # inline, also past WALK_DEPTH_MAX, where the walk starts from built levels
    fn = parse_form("quadric:3").formula
    rng = random.Random(17)

    def refuse(x):
        raise AssertionError("an evaluator with a source was called")

    refuse.source = fn.source
    cols = [[rng.randint(-(1 << 40), 1 << 40) for _ in range(3)] for _ in range(3)]
    for d in (2, WALK_DEPTH_MAX + 1):
        values = [
            fn([sum(cols[i][t] for i in pt) for t in range(3)])
            for pt in itertools.combinations_with_replacement(range(3), d)
        ]
        for a in (1, -7):
            assert simplex_lattice(refuse, cols, d, None, FormError, a) == [a * v for v in values], d
            assert simplex_lattice(refuse, cols, d, 10007, FormError, a) == [a * v % 10007 for v in values], d


def test_walk_calls_an_evaluator_whose_source_has_another_width():
    # a source on 2 coordinates cannot run on columns of width 3: the walk
    # calls the evaluator on each point instead, and a formula on 4
    # coordinates raises on a 3-coordinate point as a direct call does
    calls = []

    def spy(x):
        calls.append(list(x))
        return sum(x)

    spy.source = _straight_line(2, [], "v0*v1").source
    cols = [[1, 2, 3], [-4, 5, 6]]
    assert simplex_lattice(spy, cols, 2, None, FormError) == [12, 13, 14]
    assert calls == [[2, 4, 6], [-3, 7, 9], [-8, 10, 12]]
    fn = CubicDisc().int_evaluator(QQ)
    with pytest.raises(ValueError, match="not enough values to unpack"):
        fn([1, 2, 3])
    with pytest.raises(ValueError, match="not enough values to unpack"):
        simplex_lattice(fn, cols, 2, None, FormError)


def test_straight_line_names_cannot_clash_with_the_walk():
    # the walk's own names start with "_", and a straight-line name that does
    # is refused; the names the walk used before it took that prefix run
    # inline as ordinary formula names
    for name in ("_p", "_scale", "_push", "_c0", "_s1_0", "_i0"):
        with pytest.raises(ValueError, match="underscore"):
            _straight_line(2, [(name, "v0")], "v1")
    names = ["p", "scale", "out", "push", "fn", "cols", "level", "c0", "c1", "s0_0", "s1_1", "i0", "i1"]
    fn = _straight_line(2, [(x, "v%d + %d" % (k % 2, k)) for k, x in enumerate(names)], " * ".join(names[::3]) + " - c1")
    rng = random.Random(4)
    cols = [[rng.randint(-50, 50) for _ in range(2)] for _ in range(3)]
    for modulus in (None, 7, 10007):
        for a in (1, 3):
            want = simplex_lattice(lambda x: fn(x), cols, 4, modulus, FormError, a)
            assert simplex_lattice(fn, cols, 4, modulus, FormError, a) == want, (modulus, a)


# the fields of the byte-sliced kernel (p * p <= 256), F_3 among them
_BYTE_FIELDS = [PrimeField(3, allow_small=True), F5, F7, PrimeField(11), PrimeField(13)]


@pytest.mark.parametrize("desc", _WALKED_FORMS)
def test_byte_kernel_agrees_with_the_int_evaluator(desc):
    # one point per slot: all coordinates 0, all p - 1, all at the input
    # bound top, and random points, for tops from p - 1 to 255; F_3 sends
    # cubic-disc's 18 and 27 and wedge36's 6 to 0
    form = parse_form(desc)
    rng = random.Random(desc)
    m = form.space.dim
    for field in _BYTE_FIELDS:
        p = field.modulus
        fn = form.int_evaluator(field)
        for top in (p - 1, 2 * (p - 1), form.degree * (p - 1), 255):
            points = [[0] * m, [p - 1] * m, [top] * m] + [[rng.randint(0, top) for _ in range(m)] for _ in range(61)]
            vals = [int.from_bytes(bytes(col), "big") for col in zip(*points)]
            got = byte_kernel(fn, p, m, top)(vals, len(points)).translate(byte_table(p, 1))
            assert list(got) == [fn(x) for x in points], (desc, p, top)


def test_byte_kernel_needs_a_small_field_and_a_source_of_the_width():
    # p * p <= 256, a straight-line source of the input width and input
    # slots of at most one byte; otherwise there is no kernel
    fn = parse_form("hyperdet").int_evaluator(F7)
    assert byte_kernel(fn, 13, 8, 255) is not None
    for p, width, top in ((17, 8, 16), (None, 8, 6), (7, 9, 6), (7, 8, 256)):
        assert byte_kernel(fn, p, width, top) is None, (p, width, top)
    assert byte_kernel(lambda x: fn(x), 7, 8, 6) is None


def test_byte_kernel_runs_constants_in_sums_and_negations():
    # homogeneous forms add no constants, but a straight-line source may:
    # each runs as a slot-wise constant, a negation borrows from no slot
    fn = _straight_line(2, [("a", "-v0 + 3"), ("b", "-(a - 9*v1) - 4")], "a*b + 2 - v0 - 0*b")
    points = [[x, y] for x in range(13) for y in range(13)]
    vals = [int.from_bytes(bytes(col), "big") for col in zip(*points)]
    for p in (3, 5, 13):
        got = byte_kernel(fn, p, 2, 12)(vals, len(points)).translate(byte_table(p, 1))
        assert list(got) == [fn(x) % p for x in points], p


@pytest.mark.parametrize("desc", _WALKED_FORMS)
def test_lattice_kernel_equals_the_called_evaluator(desc):
    # over F_7 and F_13 the lattice runs the byte-sliced kernel on unreduced
    # columns, including a column of zeros and one of p - 1; a wrapper with
    # no source is walked and called, and F_17 (17 * 17 > 256) walks inline
    form = parse_form(desc)
    rng = random.Random(desc + "|bytes")
    m = form.space.dim
    for p in (7, 13, 17):
        fn = form.int_evaluator(PrimeField(p))
        cols = [[0] * m, [p - 1] * m] + [[rng.randint(-50, 50) for _ in range(m)] for _ in range(2)]
        for scale in (1, -5, 3, p):
            got = simplex_lattice(fn, cols, form.degree, p, FormError, scale)
            want = simplex_lattice(lambda x: fn(x), cols, form.degree, p, FormError, scale)
            assert got == want, (desc, p, scale)
