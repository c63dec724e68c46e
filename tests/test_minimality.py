"""Minimality oracles: hand-checked points, pairwise agreement, errors."""

import hashlib
import random
from fractions import Fraction

import pytest

from linpres.fields import QQ, PrimeField, parse_field
from linpres.forms import (
    CubicDisc,
    Hyperdet,
    Mat2n,
    Quadric,
    SkewPf,
    Sp6Quartic,
    SquareDet,
    SymmDet,
    FormError,
    Wedge36,
    parse_form,
)
from linpres.linalg import clear_denominators
from linpres.minimality import (
    MinimalityError,
    minimal_by_radical,
    minimal_by_rank,
    minimal_by_rrs,
    sample_minimal,
    structure_rule,
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


def test_sp6_radical_refuses_a_vector_outside_the_kernel():
    # e0 ^ e1 ^ e2 contracts to e2; its Gram on the kernel columns would not
    # describe it
    form = Sp6Quartic()
    for field in (QQ, F7):
        with pytest.raises(MinimalityError, match="nonzero contraction"):
            minimal_by_radical(form, RepVector.basis(form.space, field, 0))


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


# integer structure rules


# sha256 of 10 sample_minimal draws (to_json lines) from random.Random(12),
# then 64 more bits of the stream, so the draws and their count are pinned;
# recorded before the samplers moved to integer coordinates
SAMPLE_MINIMAL_DIGESTS = {
    ("symm-det:3", "Q"): "b7d9f962fd546d94df26818be7a0e72e90790cc51b9183ec28fb1c353d580a65",
    ("symm-det:3", "Fp:7"): "76e66b7c6e9a2077ee24a677b0ca54297b082a8d8226b3ada86df6278fd0438c",
    ("skew-pf:6", "Q"): "4ac9fe63c504f319d08b1cae22c2a71f889750d7127bfdb97b5e3642e539771c",
    ("skew-pf:6", "Fp:7"): "80782f30cba487944b4367679e6606349b624864ad2e9747077b56e13128a159",
    ("square-det:3", "Q"): "6a31ce50fe164e8771d731169eb10eabc5cc96dea9b7e3cd6257f9f5b781b7e0",
    ("square-det:3", "Fp:7"): "fc52717e2b3ee6455c7f7c64254ad5034fd6bfa2561043427e1a9e8ebab295f2",
    ("quadric:4", "Q"): "931105cee86f6a4951baa385472082724544f84064c5c243aa9ca6e9069e6eb3",
    ("quadric:4", "Fp:7"): "31bda1c13de981f402f1b31b227997e7ad1f5e9b245f3373d29c33cc4ab5e1b1",
    ("cubic-disc", "Q"): "1426498b4a283188b7badbdf8b03d7a2bd95e2cad0f3d11545975f50fe459170",
    ("cubic-disc", "Fp:7"): "441063f9d87dfd042de7b6027e5a697457bfba3d1fe9085fa587098a97c4ded7",
    ("wedge36", "Q"): "5c534ed2cc90a33f09b327aaff6b30fba13b761e3e1b6afacdaba43ffc12ae54",
    ("wedge36", "Fp:7"): "f4dba2fdd4a493dcf59b202ccf22b3d00d68e19cfae3e90276c57e45e3afcfd7",
    ("sp6", "Q"): "d7f638ea7da6a846c74e396380859dd1f39c076a4380c272e6d67ec98a549068",
    ("sp6", "Fp:7"): "74e3be26ec7d233cb026a5a24dc14578bdd023f7d11e21e4bc7c156f45835c57",
    ("mat2n:5", "Q"): "7aba2c6280f7521a33d26b6efc3f618a64cc6d9a418297eff1fa239f2512b94d",
    ("mat2n:5", "Fp:7"): "55fb4d80443ac17621607f7263e0b81e635b91af09850171cd4a123c74f25ef3",
    ("hyperdet", "Q"): "493291a0babb2efaa210dfd61c0af84e2e8015289ce1d872a07aa00a31cbdbba",
    ("hyperdet", "Fp:7"): "212d0f9cc164da11f736447182c198a55a1825627cacdddf0b627a4696fad3a8",
    ("rect:2x4", "Q"): "6d9359c654b72b378532918993d70180a864afb49a0b2b60ad323eb9b4acac41",
    ("rect:2x4", "Fp:7"): "e4ea3ca13aae0ac35d3567d22362260d74e2466e50a68c9343105708ba2ef911",
    ("wedge:2x5", "Q"): "d6f320b5b891cfaa1ff5a105e20e4e126500f5e8be6cdc99b91ce96d44b06757",
    ("wedge:2x5", "Fp:7"): "031f31e3d25788a2dc4e7791a828f11be0137b7db7a280ecd79af46d67aafce3",
}
_BARE_SPACES = {"rect:2x4": Space("rect", m=2, n=4), "wedge:2x5": Space("wedge", d=2, n=5)}


@pytest.mark.parametrize("line, field", sorted(SAMPLE_MINIMAL_DIGESTS))
def test_sample_minimal_draw_stream_is_pinned(line, field):
    target = _BARE_SPACES.get(line) or parse_form(line)
    rng = random.Random(12)
    h = hashlib.sha256()
    for _ in range(10):
        h.update(sample_minimal(target, parse_field(field), rng).to_json().encode() + b"\n")
    h.update(b"%d" % rng.getrandbits(64))
    assert h.hexdigest() == SAMPLE_MINIMAL_DIGESTS[line, field]


# tensors of rank one in one flattening only, and rank-one 2 x 4 matrices
# with one zero row (isotropic only in the last), which random points and
# sums of minimal points almost never hit
_EDGE_POINTS = {
    "hyperdet": [(1, 0, 0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 1, 0, 0), (1, 0, 0, 0, 0, 0, 1, 0)],
    "mat2n:4": [(1, 0, 0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0, 0, 1), (0, 0, 0, 0, 1, 0, 0, 0)],
}


def _agreement_vectors(form, field, rng):
    """Minimal points, sums of two (off the cone unless the two meet), random
    points (inside the contraction kernel for sp6) and the edge points."""
    if isinstance(form, Sp6Quartic):
        emb = form.kernel_basis(field)
        random_points = [RepVector(form.space, field, emb.apply([field.of(rng.randint(-2, 2)) for _ in range(14)]))
                         for _ in range(3)]
    else:
        random_points = [rand_vec(rng, form.space, field, -3, 3) for _ in range(3)]
    out = random_points + [vec(form.space, field, e) for e in _EDGE_POINTS.get(form.line, ())]
    for _ in range(3):
        a, b = sample_minimal(form, field, rng), sample_minimal(form, field, rng)
        out += [a, a + b]
    return out


@pytest.mark.parametrize("field", [QQ, F5, F7], ids=lambda f: f.descriptor)
def test_integer_structure_rule_matches_the_other_oracles(field):
    """The structure rule on integer coordinates against the root-spread
    lattice check and the radical oracle, which share no code with it; the
    rule also gives every nonzero integer multiple the same verdict."""
    rng = random.Random(field.descriptor)
    rrs_lines = [SymmDet(3), SymmDet(4), SkewPf(4), SkewPf(6), SquareDet(3), Quadric(4), CUBIC]
    radical_lines = [CUBIC, Wedge36(), Sp6Quartic(), Mat2n(4), Mat2n(5), Hyperdet()]
    seen = set()
    for form in rrs_lines + radical_lines:
        rule = structure_rule(form, field)
        for v in _agreement_vectors(form, field, rng):
            got = minimal_by_rank(form, v).is_minimal
            if form in rrs_lines:
                assert got == minimal_by_rrs(form, v, policy="exact").is_minimal, (form.line, v.coords)
            if form in radical_lines:
                assert got == minimal_by_radical(form, v).is_minimal, (form.line, v.coords)
            (x,), _ = clear_denominators(field, [v.coords])
            k = rng.choice([2, 3, -1]) if field == QQ else rng.randrange(1, field.modulus)
            multiple = [k * c for c in x] if field == QQ else [k * c % field.modulus for c in x]
            assert rule(multiple) == got
            seen.add((form.line, got))
    # no line passes vacuously: each sees both verdicts
    assert {line for line, ok in seen if ok} == {line for line, ok in seen if not ok}


def test_mat2n_structure_rule_refuses_a_singular_gram():
    # S = diag(1, 1, 1, 7) is invertible over Q and singular over F_7: only
    # the API builds such a form, and its rule must refuse, not answer
    form = Mat2n(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 7]])
    rule = structure_rule(form, F7)
    with pytest.raises(FormError, match="singular"):
        rule([1, 0, 0, 0, 0, 0, 0, 0])
    with pytest.raises(FormError, match="singular"):
        rule([0, 0, 0, 1, 0, 0, 0, 2])
    assert structure_rule(form, QQ)([0, 1, 0, 0, 0, 0, 0, 0]) is False


def test_vandermonde_inverse_is_built_once_per_field_and_degree(monkeypatch):
    from linpres import forms
    from linpres.linalg import Matrix

    calls = []
    real_inv = Matrix.inv
    monkeypatch.setattr(Matrix, "inv", lambda self: calls.append(self.nrows) or real_inv(self))
    forms._vandermonde_inverse.cache_clear()
    rng = random.Random(69)
    cases = [(CubicDisc(), minimal_by_rrs), (SymmDet(3), minimal_by_rrs), (parse_form("hyperdet"), minimal_by_radical)]
    for field in (QQ, F7):
        for form, oracle in cases:
            for _ in range(5):
                oracle(form, sample_minimal(form, field, rng))
    # degrees 4 and 3 over two fields: one inverse each, however many calls
    assert sorted(calls) == [4, 4, 5, 5]
