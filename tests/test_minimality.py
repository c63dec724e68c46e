"""Minimality oracles: hand-checked points, pairwise agreement, errors."""

import random
from fractions import Fraction

import pytest

from linpres.fields import QQ, PrimeField
from linpres.forms import (
    CubicDisc,
    Hyperdet,
    Mat2n,
    Quadric,
    SkewPf,
    Sp6Quartic,
    SquareDet,
    SymmDet,
    Wedge36,
)
from linpres.minimality import (
    MinimalityError,
    minimal_by_radical,
    minimal_by_rank,
    minimal_by_rrs,
    sample_minimal,
)
from linpres.multilinear import RepVector, Space

F7 = PrimeField(7)
F5 = PrimeField(5)
F3 = PrimeField(3, allow_small=True)


def vec(space, field, ints):
    return RepVector(space, field, [field.of(c) for c in ints])


# hand-checked cubics

CUBIC = CubicDisc()


def test_cubic_hand_points():
    pts = [
        ((1, 3, 3, 1), True),  # (x + y)^3
        ((1, 0, 0, 0), True),  # x^3
        ((0, 0, 0, 2), True),  # 2 y^3
        ((2, -6, 6, -2), True),  # 2 (x - y)^3
        ((0, 1, -1, 0), False),  # three distinct roots
        ((1, 0, -3, 2), False),  # (x - y)^2 (x + 2y), double root only
        ((0, 0, 0, 0), False),
    ]
    for field in (QQ, F5, F7):
        for ints, want in pts:
            v = vec(CUBIC.space, field, ints)
            assert minimal_by_rank(CUBIC, v).is_minimal is want
            assert minimal_by_rrs(CUBIC, v).is_minimal is want
            assert minimal_by_radical(CUBIC, v).is_minimal is want


def test_cubic_witness_reconstructs():
    for field in (QQ, F5):
        rng = random.Random(0)
        for _ in range(10):
            v = sample_minimal(CUBIC, field, rng)
            verdict = minimal_by_rank(CUBIC, v)
            assert verdict.is_minimal
            c = field.parse(verdict.witness["scale"])
            p = field.parse(verdict.witness["root"][0])
            q = field.parse(verdict.witness["root"][1])
            three = field.of(3)
            cube = [c * p * p * p, c * three * p * p * q, c * three * p * q * q, c * q * q * q]
            assert list(v.coords) == cube


def test_cubic_boundary_disc_zero_not_minimal():
    # discriminant vanishes on the double-root locus, which is strictly
    # larger than the minimal (triple-root) cone
    v = vec(CUBIC.space, QQ, (1, 0, -3, 2))
    assert CUBIC.evaluate(v) == QQ.zero
    assert not minimal_by_rank(CUBIC, v).is_minimal


# structure oracle across lines


def test_zero_never_minimal():
    targets = [SymmDet(3), SkewPf(4), SquareDet(3), Quadric(4), CUBIC, Wedge36(), Mat2n(4), Hyperdet()]
    for t in targets:
        z = RepVector.zero(t.space, F7)
        assert not minimal_by_rank(t, z).is_minimal
    assert not minimal_by_rank(Space("rect", m=2, n=4), RepVector.zero(Space("rect", m=2, n=4), F7)).is_minimal


def test_sampled_minimals_pass_structure():
    rng = random.Random(1)
    targets = [
        SymmDet(2),
        SymmDet(3),
        SymmDet(4),
        SkewPf(4),
        SkewPf(6),
        SkewPf(8),
        SquareDet(2),
        SquareDet(3),
        Quadric(4),
        CUBIC,
        Wedge36(),
        Sp6Quartic(),
        Mat2n(4),
        Hyperdet(),
        Space("rect", m=2, n=4),
    ]
    for t in targets:
        for field in (QQ, F7):
            for _ in range(8):
                v = sample_minimal(t, field, rng)
                assert not v.is_zero()
                assert minimal_by_rank(t, v).is_minimal


def test_tritensor_structure():
    h = Hyperdet()
    diag = vec(h.space, QQ, (1, 0, 0, 0, 0, 0, 0, 1))
    assert not minimal_by_rank(h, diag).is_minimal
    rank1 = vec(h.space, QQ, (1, 2, 3, 6, 4, 8, 12, 24))  # (1,4) x (1,3) x (1,2)
    assert minimal_by_rank(h, rank1).is_minimal


def test_mat2n_isotropy_required():
    f = Mat2n(4)
    # rank one but the row (1,0,0,1) has q = 2 under the split pairing
    bad = vec(f.space, QQ, (1, 0, 0, 1, 2, 0, 0, 2))
    assert not minimal_by_rank(f, bad).is_minimal
    assert not minimal_by_radical(f, bad).is_minimal
    # rank one with isotropic row (1,0,0,0)
    good = vec(f.space, QQ, (1, 0, 0, 0, 3, 0, 0, 0))
    assert minimal_by_rank(f, good).is_minimal
    assert minimal_by_radical(f, good).is_minimal


def test_sp6_rules():
    f = Sp6Quartic()
    rng = random.Random(2)
    for field in (QQ, F7):
        v = sample_minimal(f, field, rng)
        assert minimal_by_rank(f, v).is_minimal
        assert minimal_by_radical(f, v).is_minimal
        # e0 ^ e1 ^ e2 is decomposable but its span pairs e0 with e1
        bad = RepVector.basis(f.space, field, 0)
        with pytest.raises(MinimalityError):
            minimal_by_rank(f, bad)
    # a decomposable vector inside the kernel whose span is not isotropic
    # does not exist; non-decomposable kernel points must fail instead
    emb = f.kernel_basis(F7)
    coeffs = [F7.of(c) for c in (1, 0, 2, 0, 0, 1, 0, 0, 0, 3, 0, 0, 1, 0)]
    w = RepVector(f.space, F7, emb.apply(coeffs))
    assert f.in_kernel(w)
    if not minimal_by_rank(f, w).is_minimal:
        assert not minimal_by_radical(f, w).is_minimal


# pairwise oracle agreement on random vectors


def rand_vec(rng, space, field, lo=-5, hi=5):
    return RepVector(space, field, [field.of(rng.randint(lo, hi)) for _ in range(space.dim)])


def test_structure_vs_rrs_agreement():
    rng = random.Random(3)
    for form in [SymmDet(2), SymmDet(3), SkewPf(4), SquareDet(2), SquareDet(3), Quadric(4), CUBIC]:
        for field in (QQ, F5, F7):
            for _ in range(12):
                v = rand_vec(rng, form.space, field, -3, 3)
                a = minimal_by_rank(form, v).is_minimal
                b = minimal_by_rrs(form, v, policy="exact").is_minimal
                assert a == b, (form.line, field.descriptor, v.coords)
            for _ in range(6):
                v = sample_minimal(form, field, rng)
                assert minimal_by_rrs(form, v, policy="exact").is_minimal


def test_structure_vs_radical_agreement():
    rng = random.Random(4)
    small = [CUBIC, Mat2n(4), Hyperdet()]
    for form in small:
        for field in (QQ, F5, F7):
            for _ in range(12):
                v = rand_vec(rng, form.space, field, -3, 3)
                a = minimal_by_rank(form, v).is_minimal
                b = minimal_by_radical(form, v).is_minimal
                assert a == b, (form.line, field.descriptor, v.coords)
            for _ in range(6):
                v = sample_minimal(form, field, rng)
                assert minimal_by_radical(form, v).is_minimal


def test_wedge36_radical_agreement():
    rng = random.Random(5)
    form = Wedge36()
    for field in (QQ, F7):
        for _ in range(5):
            v = rand_vec(rng, form.space, field, -2, 2)
            a = minimal_by_rank(form, v).is_minimal
            b = minimal_by_radical(form, v).is_minimal
            assert a == b
        for _ in range(4):
            v = sample_minimal(form, field, rng)
            assert minimal_by_rank(form, v).is_minimal
            assert minimal_by_radical(form, v).is_minimal


def test_sp6_radical_agreement():
    rng = random.Random(6)
    form = Sp6Quartic()
    for field in (QQ, F7):
        emb = form.kernel_basis(field)
        for _ in range(5):
            coeffs = [field.of(rng.randint(-2, 2)) for _ in range(14)]
            v = RepVector(form.space, field, emb.apply(coeffs))
            if v.is_zero():
                continue
            a = minimal_by_rank(form, v).is_minimal
            b = minimal_by_radical(form, v).is_minimal
            assert a == b
        for _ in range(4):
            v = sample_minimal(form, field, rng)
            assert minimal_by_radical(form, v).is_minimal


# randomized root-spread policy


def test_rrs_randomized_matches_exact_over_q():
    rng = random.Random(7)
    for form in [SymmDet(3), SkewPf(4), Quadric(4), CUBIC]:
        for _ in range(6):
            v = rand_vec(rng, form.space, QQ, -3, 3)
            a = minimal_by_rrs(form, v, policy="exact").is_minimal
            b = minimal_by_rrs(form, v, policy="randomized", rng=rng, trials=24)
            assert a == b.is_minimal
            if not b.is_minimal:
                assert b.witness is not None and "coefficient" in b.witness
                assert b.trials >= 1
        v = sample_minimal(form, QQ, rng)
        r = minimal_by_rrs(form, v, policy="randomized", rng=rng, trials=24)
        assert r.is_minimal and r.trials == 24


def test_rrs_randomized_rejected_over_finite_field():
    v = sample_minimal(CUBIC, F7, random.Random(8))
    with pytest.raises(MinimalityError):
        minimal_by_rrs(CUBIC, v, policy="randomized", rng=random.Random(8))


def test_rrs_exact_needs_large_enough_p():
    v = vec(CUBIC.space, F3, (1, 0, 0, 0))
    with pytest.raises(MinimalityError):
        minimal_by_rrs(CUBIC, v, policy="exact")


def test_rrs_exact_point_bound():
    # symm-det:7 would walk C(32, 5) = 201,376 points at k = 2
    f = SymmDet(7)
    v = sample_minimal(f, QQ, random.Random(9))
    with pytest.raises(MinimalityError, match="bound"):
        minimal_by_rrs(f, v, policy="exact")
    # dimension alone is no bar: skew-pf:6 and :8 (dimension 15 and 28)
    rng = random.Random(10)
    for n in (6, 8):
        f = SkewPf(n)
        for field in (QQ, F7):
            minimal = sample_minimal(f, field, rng)
            pair = minimal + sample_minimal(f, field, rng)  # rank 4 unless the planes meet
            for v in (minimal, pair):
                exact = minimal_by_rrs(f, v, policy="exact")
                assert exact.is_minimal == minimal_by_rank(f, v).is_minimal
                if field is QQ:
                    assert exact.is_minimal == minimal_by_rrs(f, v, policy="randomized", rng=rng).is_minimal
            assert minimal_by_rrs(f, minimal, policy="exact").is_minimal


def test_oracle_domain_errors():
    rng = random.Random(11)
    with pytest.raises(MinimalityError):
        minimal_by_rrs(Wedge36(), sample_minimal(Wedge36(), QQ, rng))
    with pytest.raises(MinimalityError):
        minimal_by_radical(SymmDet(3), sample_minimal(SymmDet(3), QQ, rng))
    with pytest.raises(MinimalityError):
        minimal_by_rank(SymmDet(3), sample_minimal(SkewPf(4), QQ, rng))
    with pytest.raises(MinimalityError):
        minimal_by_rrs(CUBIC, sample_minimal(CUBIC, QQ, rng), policy="randomized")


def test_verdict_json():
    v = vec(CUBIC.space, QQ, (1, 0, 0, 0))
    obj = minimal_by_rank(CUBIC, v).to_json_obj()
    assert obj["is_minimal"] is True
    assert obj["oracle"] == "structure"
    assert obj["witness"]["root"] == ["1", "0"]
    r = minimal_by_rrs(CUBIC, vec(CUBIC.space, QQ, (0, 1, -1, 0)))
    assert r.to_json_obj()["witness"] == {"coefficient": 3} or r.to_json_obj()["witness"] == {
        "coefficient": 4
    }


def test_quadric_structure_is_isotropy():
    f = Quadric(4)
    rng = random.Random(12)
    for field in (QQ, F7):
        for _ in range(10):
            v = rand_vec(rng, f.space, field, -4, 4)
            want = (not v.is_zero()) and f.evaluate(v) == field.zero
            assert minimal_by_rank(f, v).is_minimal is want


def test_fraction_coordinates_supported():
    v = RepVector(CUBIC.space, QQ, [Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0)])
    assert minimal_by_rank(CUBIC, v).is_minimal
    assert minimal_by_rrs(CUBIC, v).is_minimal
    assert minimal_by_radical(CUBIC, v).is_minimal


# the exact root-spread policy against the expansion it replaced


def _rrs_by_expansion(form, v):
    """(is_minimal, witness) of the exact root-spread oracle computed by
    expanding f(w + t v) over a polynomial ring in w, the coefficient of t^k
    read off by Vandermonde interpolation at t = 0 .. deg."""
    from linpres.linalg import Matrix
    from linpres.minimality import RRS_THRESHOLD
    from linpres.polynomials import PolyRing

    field, deg, dim = v.field, form.degree, form.space.dim
    if v.is_zero():
        return False, None
    ring = PolyRing(field, tuple("w%d" % i for i in range(dim)))
    gens = ring.gens()
    nodes = [field.of(j) for j in range(deg + 1)]
    values = [form.eval_entries(ring, [gens[i] + t * v.coords[i] for i in range(dim)]) for t in nodes]
    vinv = Matrix(field, [[t**k for k in range(deg + 1)] for t in nodes]).inv()
    for k in range(RRS_THRESHOLD[form.line.split(":")[0]] + 1, deg + 1):
        coeff = ring.zero
        for j in range(deg + 1):
            coeff = coeff + values[j] * vinv.entry(k, j)
        if not coeff.is_zero():
            return False, {"coefficient": k}
    return True, None


def _rrs_test_vectors(form, field, rng):
    """Minimal points, sums of two and three of them (higher rank or a
    double root), sparse and dense random points, and over Q a fractional
    rescaling of each."""
    out = []
    for _ in range(3):
        a, b, c = (sample_minimal(form, field, rng) for _ in range(3))
        out += [a, a + b, a + b + c]
        out.append(rand_vec(rng, form.space, field, -3, 3))
        sparse = [field.of(rng.choice([0, 0, 0, 1, -1, 2])) for _ in range(form.space.dim)]
        out.append(RepVector(form.space, field, sparse))
    if field == QQ:
        out += [w.scale(Fraction(rng.randint(1, 9), rng.randint(2, 9))) for w in list(out)]
    return out


def test_rrs_exact_matches_polynomial_expansion():
    rng = random.Random(31)
    half, third = Fraction(1, 2), Fraction(1, 3)
    rational_s = [[0, half, third], [half, 0, 0], [third, 0, -2 * third]]
    forms = [SymmDet(2), SymmDet(3), SymmDet(4), SkewPf(4), SquareDet(2), SquareDet(3),
             Quadric(4), Quadric(3, rational_s), CUBIC]
    seen = set()
    for form in forms:
        for field in (QQ, F5, F7):
            for v in _rrs_test_vectors(form, field, rng):
                got = minimal_by_rrs(form, v, policy="exact")
                want = _rrs_by_expansion(form, v)
                assert (got.is_minimal, got.witness) == want, (form.line, field.descriptor, v.coords)
                seen.add((form.line.split(":")[0], want[1] and want[1]["coefficient"]))
    # every line reaches both verdicts, and the cubic line fails at k = 3
    assert {line for line, _ in seen} == {"symm-det", "skew-pf", "square-det", "quadric", "cubic-disc"}
    assert {k for _, k in seen} == {None, 2, 3}
