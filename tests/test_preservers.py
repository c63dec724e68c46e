"""Family actions, star identities, preservation policies, and samplers."""

import functools
import hashlib
import itertools
import json
import operator
import random
import threading
import zlib
from fractions import Fraction

import pytest

from linpres import preservers
from linpres.fields import QQ, PrimeField
from linpres.forms import CubicDisc, InvariantForm, Mat2n, SkewPf, Sp6Quartic, Wedge36, parse_form, simplex_lattice
from linpres.linalg import Matrix
from linpres.multilinear import RepVector, Space, lambda_power_matrix
from linpres.preservers import (
    COROLLARY_IDS,
    Congruence,
    CubicSubstitution,
    GSp6Push,
    OrthogonalPair,
    PERMS3,
    PreservationVerdict,
    PreserverError,
    Sandwich,
    TriplePush,
    TransposeSandwich,
    WedgePush,
    _packed,
    corollary_forms,
    canonical_corollary,
    preserves_form,
    preserves_minimals,
    sample_free_element,
    sample_group_element,
    sample_violator,
    scales_form,
    sz_trial_count,
    verify_corollary,
)
from linpres.polynomials import PolyRing
from linpres.sampling import gsp6_element, invertible_matrix, slot_code, unimodular_matrix, uniform_ints
from reference import GenericMap, factor_permutation, hodge_star4_matrix, rand_vector, wedge_complement_star_matrix

F5 = PrimeField(5)
F7 = PrimeField(7)


def rnd(seed=0):
    return random.Random(seed)


def stable_seed(*parts):
    # str hashes are salted per process; crc32 gives the same seed every run
    return zlib.crc32("|".join(parts).encode()) % 100000


def sample_elements(cid, form, field, rng, count=3):
    return [sample_free_element(cid, form, field, rng) for _ in range(count)]


ALL_CELLS = [(cid, d) for cid in COROLLARY_IDS for d in
             [f.descriptor() for f in corollary_forms(cid)]]


# star identities


def test_alt4_star_is_involution_and_fixes_pfaffian():
    for field in (QQ, F7):
        s = hodge_star4_matrix(field)
        assert s @ s == Matrix.identity(field, 6)
        pf = SkewPf(4)
        rng = rnd(1)
        for _ in range(20):
            v = rand_vector(Space("alt", n=4), field, rng)
            w = RepVector._raw(v.space, field, s.apply(v.coords))
            assert pf.evaluate(w) == pf.evaluate(v)


def test_wedge_star_squares_to_minus_identity():
    for field in (QQ, F7):
        s = wedge_complement_star_matrix(field, 6, 3)
        assert s @ s == Matrix.identity(field, 20).scale(field.of(-1))


def test_wedge_matrix_fast_path_matches_generic():
    rng = rnd(21)
    for field in (QQ, F7):
        g = invertible_matrix(field, rng, 6)
        for star in (False, True):
            el = WedgePush(field.of(3), g, star)
            expect = lambda_power_matrix(g, 3)
            if star:
                expect = expect @ wedge_complement_star_matrix(field, 6, 3)
            assert el.matrix_on_space() == expect.scale(field.of(3))
    # non-integer rational factors: denominators are cleared before the minors
    g = Matrix(QQ, [[Fraction(1, 2) if i == j else Fraction(0) for j in range(6)] for i in range(6)])
    el = WedgePush(QQ.one, g)
    assert el.matrix_on_space() == lambda_power_matrix(g, 3)
    for _ in range(3):
        while True:
            g = Matrix(QQ, [[QQ.sample(rng, 9) for _ in range(6)] for _ in range(6)])
            if g.det() != QQ.zero:
                break
        assert len({x.denominator for row in g.rows for x in row}) > 2
        c = Fraction(-5, 3)
        for star in (False, True):
            expect = lambda_power_matrix(g, 3)
            if star:
                expect = expect @ wedge_complement_star_matrix(QQ, 6, 3)
            assert WedgePush(c, g, star).matrix_on_space() == expect.scale(c)


def test_wedge_star_fixes_quartic():
    w36 = Wedge36()
    for field in (QQ, F7):
        el = WedgePush(field.one, Matrix.identity(field, 6), star=True)
        rng = rnd(2)
        for _ in range(10):
            v = rand_vector(w36.space, field, rng)
            assert w36.evaluate(el.apply(v)) == w36.evaluate(v)


# apply and the coordinate matrix versus each family's formula


def _form_times(zero, u, w):
    # coefficient lists (index = power of y) of two binary forms: their product
    out = [zero] * (len(u) + len(w) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(w):
            out[i + j] = out[i + j] + a * b
    return out


@functools.lru_cache(maxsize=64)
def _lambda3(g, star):
    # Lambda^3(g), after the top-wedge star when star is set
    m = lambda_power_matrix(g, 3)
    return m @ wedge_complement_star_matrix(g.ring, 6, 3) if star else m


def reference_image(el, v):
    """The image of v, computed from the family's defining formula with
    Matrix products, independently of the element's integer action."""
    field, space = el.field, el.space
    if isinstance(el, Congruence):  # r P (star X) P^t
        if el.star:
            v = RepVector._raw(space, field, hodge_star4_matrix(field).apply(v.coords))
        m = (el.p @ v.to_matrix() @ el.p.transpose()).scale(el.r)
        return RepVector.from_matrix(space, field, m.rows)
    if isinstance(el, Sandwich):  # A X B
        return RepVector.from_matrix(space, field, (el.a @ v.to_matrix() @ el.b).rows)
    if isinstance(el, TransposeSandwich):  # A X^t B
        return RepVector.from_matrix(space, field, (el.a @ v.to_matrix().transpose() @ el.b).rows)
    if isinstance(el, CubicSubstitution):  # c (q o g), x -> ax + by, y -> cx + dy
        (a, b), (c, d) = el.g.rows
        x_img, y_img = [a, b], [c, d]
        out = [field.zero] * 4
        for k, qk in enumerate(v.coords):  # qk x^(3-k) y^k
            term = [field.one]
            for factor in [x_img] * (3 - k) + [y_img] * k:
                term = _form_times(field.zero, term, factor)
            out = [o + qk * t for o, t in zip(out, term)]
        return RepVector._raw(space, field, [el.c * o for o in out])
    if isinstance(el, WedgePush):  # c Lambda^3(g) (star v)
        m = _lambda3(el.g, el.star)
        return RepVector._raw(space, field, [el.c * x for x in m.apply(v.coords)])
    if isinstance(el, TriplePush):  # (g1 x g2 x g3)(sigma T)
        t, s = v.coords, el.perm
        # slot a of sigma T carries slot sigma^-1(a) of T
        moved = {}
        for i in itertools.product(range(2), repeat=3):
            moved[i] = t[4 * i[s[0]] + 2 * i[s[1]] + i[s[2]]]
        g1, g2, g3 = (g.rows for g in el.gs)
        out = []
        for i, j, k in itertools.product(range(2), repeat=3):
            acc = field.zero
            for (a, b, c), x in moved.items():
                acc = acc + g1[i][a] * g2[j][b] * g3[k][c] * x
            out.append(acc)
        return RepVector._raw(space, field, out)
    if isinstance(el, OrthogonalPair):  # g1 X g2^t
        return RepVector.from_matrix(space, field, (el.g1 @ v.to_matrix() @ el.g2.transpose()).rows)
    if isinstance(el, GenericMap):
        return RepVector._raw(space, field, el.matrix_on_space().apply(v.coords))
    raise AssertionError("no reference for %r" % el.family)


def check_against_reference(el, vectors):
    field, space = el.field, el.space
    for v in vectors:
        assert el.apply(v) == reference_image(el, v), (el.family, field)
    cols = [reference_image(el, RepVector.basis(space, field, j)).coords for j in range(space.dim)]
    assert el.matrix_on_space() == Matrix(field, list(zip(*cols))), (el.family, field)


def star_variants(el):
    if isinstance(el, Congruence) and el.space == Space("alt", n=4):
        return [Congruence(el.space, el.r, el.p, star) for star in (False, True)]
    if type(el) is WedgePush:
        return [WedgePush(el.c, el.g, star) for star in (False, True)]
    return [el]


@pytest.mark.parametrize("cid,desc", ALL_CELLS)
def test_apply_matches_matrix(cid, desc):
    form = parse_form(desc)
    for field in (QQ, F7):
        rng = rnd(stable_seed(cid, desc))
        for el in sample_elements(cid, form, field, rng) + [sample_group_element(cid, form, field, rng)]:
            for variant in star_variants(el):
                vectors = [rand_vector(form.space, field, rng) for _ in range(3)]
                if field == QQ:
                    vectors.append(vectors[0].scale(Fraction(2, 7)))
                check_against_reference(variant, vectors)


def _dense_rational(rng, n):
    while True:
        g = Matrix(QQ, [[QQ.sample(rng, 9) for _ in range(n)] for _ in range(n)])
        if g.det() != QQ.zero:
            return g


def test_kronecker_builds_match_basis_images():
    # the Kronecker-product builds against each family's formula
    rng = rnd(22)
    for field in (QQ, F7):
        for perm in PERMS3:
            el = TriplePush(*[invertible_matrix(field, rng, 2) for _ in range(3)], perm=perm)
            check_against_reference(el, [rand_vector(el.space, field, rng)])
        for n in (4, 5, 6):
            form = Mat2n(n)
            for el in (sample_group_element("blackholes", form, field, rng),
                       sample_free_element("blackholes", form, field, rng)):
                check_against_reference(el, [rand_vector(el.space, field, rng)])
        square, rect = Space("square", n=3), Space("rect", m=2, n=3)
        a, b = invertible_matrix(field, rng, 3), invertible_matrix(field, rng, 3)
        for el in (Sandwich(square, a, b), TransposeSandwich(square, a, b),
                   Sandwich(rect, invertible_matrix(field, rng, 2), b)):
            check_against_reference(el, [rand_vector(el.space, field, rng)])
    # dense rational factors: every entry a fraction, several denominators
    a, b, g2 = _dense_rational(rng, 3), _dense_rational(rng, 3), _dense_rational(rng, 4)
    assert len({x.denominator for row in a.rows + b.rows for x in row}) > 2
    square = Space("square", n=3)
    els = [Sandwich(square, a, b), TransposeSandwich(square, a, b),
           OrthogonalPair(Space("rect", m=2, n=4), _dense_rational(rng, 2), g2, Fraction(3, 2))]
    els += [TriplePush(*[_dense_rational(rng, 2) for _ in range(3)], perm=perm) for perm in PERMS3]
    els += [Congruence(Space("alt", n=4), Fraction(-5, 3), _dense_rational(rng, 4), star) for star in (False, True)]
    els += [CubicSubstitution(Fraction(2, 9), _dense_rational(rng, 2))]
    for el in els:
        check_against_reference(el, [rand_vector(el.space, QQ, rng)])


def test_congruence_rows_match_the_entrywise_products():
    # row (a, b), column (i, j) of the integer action, from rows a and b of P
    rng = rnd(23)
    for kind in ("symm", "alt"):
        for n in range(2, 9):
            space = Space(kind, n=n)
            pairs = [(i, j) for i in range(n) for j in range(i + (kind == "alt"), n)]
            el = Congruence(space, QQ.one, _dense_rational(rng, n))
            e, _ = el.p.ints()
            want = []
            for a, b in pairs:
                ea, eb = e[a], e[b]
                if kind == "alt":
                    want.append([ea[i] * eb[j] - ea[j] * eb[i] for i, j in pairs])
                else:
                    want.append([ea[i] * eb[j] + ea[j] * eb[i] if i != j else ea[i] * eb[i] for i, j in pairs])
            assert el.action()[0] == want, (kind, n)


# family actions on known inputs


def test_cubic_substitution_known_matrix():
    # x -> x + y, y -> y sends x^3 to x^3 + 3 x^2 y + 3 x y^2 + y^3
    g = Matrix.from_ints(QQ, [[1, 1], [0, 1]])
    el = CubicSubstitution(QQ.one, g)
    m = el.matrix_on_space()
    assert [m.entry(i, 0) for i in range(4)] == [Fraction(1), Fraction(3), Fraction(3), Fraction(1)]
    assert [m.entry(i, 3) for i in range(4)] == [Fraction(0), Fraction(0), Fraction(0), Fraction(1)]


def test_factor_permutation_moves_slots():
    t = RepVector._raw(Space("tritensor"), QQ, [QQ.of(int(i == 3)) for i in range(8)])
    el = factor_permutation(QQ, (1, 0, 2))
    # e0 x e1 x e1 becomes e1 x e0 x e1
    img = el.apply(t)
    assert img.coords[5] == QQ.one
    assert sum(1 for c in img.coords if c != QQ.zero) == 1


# construction errors


def test_family_validation_errors():
    with pytest.raises(PreserverError):
        Congruence(Space("symm", n=3), QQ.one, Matrix.identity(QQ, 3), star=True)
    with pytest.raises(PreserverError):
        Congruence(Space("alt", n=6), QQ.one, Matrix.identity(QQ, 6), star=True)
    with pytest.raises(PreserverError):
        Congruence(Space("symm", n=3), QQ.zero, Matrix.identity(QQ, 3))
    with pytest.raises(PreserverError):
        Congruence(Space("symm", n=3), QQ.one, Matrix.from_ints(QQ, [[0] * 3] * 3))
    with pytest.raises(PreserverError):
        Sandwich(Space("square", n=2), Matrix.identity(QQ, 2), Matrix.identity(QQ, 3))
    with pytest.raises(PreserverError):
        CubicSubstitution(QQ.one, Matrix.from_ints(QQ, [[1, 2], [2, 4]]))
    with pytest.raises(PreserverError):
        TriplePush(Matrix.identity(QQ, 2), Matrix.identity(QQ, 2), Matrix.identity(QQ, 2), perm=(0, 0, 1))


def test_gsp6_rejects_non_similitude():
    for field in (F7, QQ):
        m = Matrix.identity(field, 6)
        with pytest.raises(PreserverError):
            GSp6Push(field.one, m + Matrix.from_ints(field, [[0] * 6] * 5 + [[1, 0, 0, 0, 0, 0]]))
        # a sampled similitude passes; moving one of its entries by one breaks
        # it (entries where g stays invertible over F_7 as well)
        g, _ = gsp6_element(field, rnd(5))
        GSp6Push(field.one, g)
        for i, j in ((0, 0), (2, 4), (5, 1)):
            rows = [list(r) for r in g.rows]
            rows[i][j] += field.one
            with pytest.raises(PreserverError, match="not a symplectic similitude"):
                GSp6Push(field.one, Matrix(field, rows))


def _bad_constructions(field):
    """Every family built once per kind of bad parameter: a factor of the
    wrong size, a singular factor, a zero scalar or a space it cannot act on."""
    one, zero = field.one, field.zero

    def eye(n):
        return Matrix.identity(field, n)

    def singular(n):
        return Matrix.from_ints(field, [[1] * n] * n)

    symm3, alt4, sq2, sq3 = Space("symm", n=3), Space("alt", n=4), Space("square", n=2), Space("square", n=3)
    rect23, rect33 = Space("rect", m=2, n=3), Space("rect", m=3, n=3)
    return {
        "congruence-size": lambda: Congruence(symm3, one, eye(2)),
        "congruence-singular": lambda: Congruence(alt4, one, singular(4)),
        "congruence-zero-r": lambda: Congruence(symm3, zero, eye(3)),
        "congruence-space": lambda: Congruence(sq2, one, eye(2)),
        "sandwich-size-a": lambda: Sandwich(rect23, eye(3), eye(3)),
        "sandwich-size-b": lambda: Sandwich(rect23, eye(2), eye(2)),
        "sandwich-singular-a": lambda: Sandwich(sq2, singular(2), eye(2)),
        "sandwich-singular-b": lambda: Sandwich(rect23, eye(2), singular(3)),
        "sandwich-space": lambda: Sandwich(Space("symm", n=2), eye(2), eye(2)),
        "transpose-sandwich-rect": lambda: TransposeSandwich(rect23, eye(2), eye(3)),
        "transpose-sandwich-size": lambda: TransposeSandwich(sq3, eye(2), eye(3)),
        "transpose-sandwich-singular": lambda: TransposeSandwich(sq3, eye(3), singular(3)),
        "cubic-size": lambda: CubicSubstitution(one, eye(3)),
        "cubic-singular": lambda: CubicSubstitution(one, singular(2)),
        "cubic-zero-c": lambda: CubicSubstitution(zero, eye(2)),
        "wedge-size": lambda: WedgePush(one, eye(5)),
        "wedge-singular": lambda: WedgePush(one, singular(6), star=True),
        "wedge-zero-c": lambda: WedgePush(zero, eye(6)),
        "sp6-size": lambda: GSp6Push(one, eye(5)),
        "sp6-singular": lambda: GSp6Push(one, singular(6)),
        "sp6-zero-c": lambda: GSp6Push(zero, eye(6)),
        "triple-size": lambda: TriplePush(eye(2), eye(2), eye(3)),
        "triple-singular": lambda: TriplePush(eye(2), singular(2), eye(2)),
        "orthogonal-space": lambda: OrthogonalPair(rect33, eye(3), eye(3), one),
        "orthogonal-square": lambda: OrthogonalPair(sq2, eye(2), eye(2), one),
        "orthogonal-size-g1": lambda: OrthogonalPair(rect23, eye(3), eye(3), one),
        "orthogonal-size-g2": lambda: OrthogonalPair(rect23, eye(2), eye(2), one),
        "orthogonal-singular-g2": lambda: OrthogonalPair(rect23, eye(2), singular(3), one),
        "orthogonal-zero-mu": lambda: OrthogonalPair(rect23, eye(2), eye(3), zero),
        "generic-dimension": lambda: GenericMap(Space("cubic"), field, eye(3)),
    }


@pytest.mark.parametrize("case", sorted(_bad_constructions(QQ)))
@pytest.mark.parametrize("field", [QQ, F7], ids=["Q", "F7"])
def test_every_family_rejects_bad_parameters(field, case):
    with pytest.raises(PreserverError):
        _bad_constructions(field)[case]()


def _mixed_constructions(field, other):
    """Every family built over `field` with one factor or scalar from
    `other`, as (family, the parameter the error must name, build).  The
    stray values are units of `other`, so only the field check refuses them."""
    one = field.one

    def eye(n, ring=field):
        return Matrix.identity(ring, n)

    def flip(n):  # diag(1, .., 1, -1) over `other`: its last entry is 6 over F_7
        return Matrix.from_ints(other, [[(i == j) * (1 - 2 * (i == n - 1)) for j in range(n)] for i in range(n)])

    stray = other.of(2)
    sq2, rect23 = Space("square", n=2), Space("rect", m=2, n=3)
    return [
        (Congruence, "r", lambda: Congruence(Space("symm", n=2), stray, eye(2))),
        (Sandwich, "B", lambda: Sandwich(sq2, eye(2), flip(2))),
        (TransposeSandwich, "B", lambda: TransposeSandwich(sq2, eye(2), flip(2))),
        (CubicSubstitution, "c", lambda: CubicSubstitution(stray, eye(2))),
        (WedgePush, "c", lambda: WedgePush(stray, eye(6), star=True)),
        (GSp6Push, "c", lambda: GSp6Push(stray, eye(6))),
        (TriplePush, "g2", lambda: TriplePush(eye(2), flip(2), eye(2))),
        (TriplePush, "g3", lambda: TriplePush(eye(2), eye(2), eye(2, other), perm=(1, 0, 2))),
        (OrthogonalPair, "g2", lambda: OrthogonalPair(rect23, eye(2), flip(3), one)),
        (OrthogonalPair, "mu", lambda: OrthogonalPair(rect23, eye(2), eye(3), stray)),
        (GenericMap, "matrix", lambda: GenericMap(Space("cubic"), field, eye(4, other))),
    ]


@pytest.mark.parametrize("field,other", [(QQ, F7), (F7, QQ), (F7, F5)], ids=["Q-F7", "F7-Q", "F7-F5"])
def test_every_family_rejects_factors_and_scalars_from_another_field(field, other):
    # the first factor (or GenericMap's field argument) names the element's
    # field, and every other factor and scalar must lie in it: a factor read
    # over the wrong field would build a wrong action, diag(1, -1) over F_7
    # holding 6 in an element over Q
    cases = _mixed_constructions(field, other)
    assert len({family for family, _, _ in cases}) == 9
    for family, what, build in cases:
        with pytest.raises(PreserverError, match="^%s must be (over|in) %s$" % (what, field.descriptor)):
            build()
    # the same values drawn from the element's own field build every family
    for family, what, build in _mixed_constructions(field, field):
        assert type(build()) is family, what


# json output


def test_generic_map_json_matches_recorded_bytes():
    # the one family the stream digests do not hash
    space = Space("cubic")
    rows = [[Fraction(i - 2 * j, 3) for j in range(4)] for i in range(4)]
    assert json.dumps(GenericMap(space, QQ, Matrix(QQ, rows)).to_json_obj()) == (
        '{"family": "generic", "params": {"matrix": [["0", "-2/3", "-4/3", "-2"], '
        '["1/3", "-1/3", "-1", "-5/3"], ["2/3", "0", "-2/3", "-4/3"], ["1", "1/3", "-1/3", "-1"]]}}')
    ints = [[i - 3 * j for j in range(4)] for i in range(4)]
    assert json.dumps(GenericMap(space, F7, Matrix.from_ints(F7, ints)).to_json_obj()) == (
        '{"family": "generic", "params": {"matrix": [["0", "4", "1", "5"], '
        '["1", "5", "2", "6"], ["2", "6", "3", "0"], ["3", "0", "4", "1"]]}}')


# preservation policies


def test_sz_trial_counts_frozen():
    assert sz_trial_count(F7, 4) == 75
    assert sz_trial_count(F7, 3) == 50
    assert sz_trial_count(QQ, 4) == 2
    assert sz_trial_count(QQ, 2) == 2


def test_sz_refuses_degree_equal_to_set_size_in_bounded_time():
    # at degree = set size no t gives (degree / size)^t <= 2^-60, so the
    # search for t ends only at the guard: run it on a thread and bound the wait
    raised = []

    def call():
        try:
            sz_trial_count(F5, 5)
        except PreserverError as exc:
            raised.append(exc)

    worker = threading.Thread(target=call, daemon=True)
    worker.start()
    worker.join(5)
    assert not worker.is_alive(), "sz_trial_count did not return within 5 s at degree = set size"
    assert raised


def test_sz_rejects_tiny_field():
    assert sz_trial_count(F5, 4) == 187
    with pytest.raises(PreserverError):
        sz_trial_count(F5, 5)


def test_policy_errors():
    w36 = Wedge36()
    el = WedgePush(F7.one, Matrix.identity(F7, 6))
    # dimension 20 is no bar to the exact lattice check
    assert preserves_form(el, w36, policy="symbolic") == PreservationVerdict(True, "symbolic")
    with pytest.raises(PreserverError):
        preserves_form(el, w36, policy="schwartz-zippel")  # no rng
    with pytest.raises(PreserverError):
        preserves_form(el, w36, policy="bogus", rng=rnd(0))
    el2 = CubicSubstitution(F7.one, Matrix.identity(F7, 2))
    with pytest.raises(PreserverError):
        preserves_form(el2, w36)  # wrong space


@pytest.mark.parametrize("cid,desc", ALL_CELLS)
def test_group_elements_preserve_forms(cid, desc):
    form = parse_form(desc)
    for field in (QQ, F7):
        rng = rnd(stable_seed(cid, desc, "g"))
        for _ in range(3):
            el = sample_group_element(cid, form, field, rng)
            assert el.constraint_satisfied(form)
            verdict = preserves_form(el, form, rng=rng)
            assert verdict.ok, (cid, desc, field.descriptor)


@pytest.mark.parametrize("cid,desc", ALL_CELLS)
def test_violators_are_caught(cid, desc):
    form = parse_form(desc)
    for field in (QQ, F7):
        rng = rnd(stable_seed(cid, desc, "v"))
        el = sample_violator(cid, form, field, rng)
        assert not el.constraint_satisfied(form)
        verdict = preserves_form(el, form, rng=rng, trials=32)
        assert not verdict.ok
        if verdict.policy == "schwartz-zippel":
            assert verdict.counterexample is not None


@pytest.mark.parametrize("cid,desc", [("SL6", "wedge36"), ("Sp6", "sp6"), ("skew.f", "skew-pf:8")])
def test_sz_counterexample_is_a_witness(cid, desc):
    form = parse_form(desc)
    for field in (QQ, F7):
        rng = rnd(stable_seed(cid, desc, "w"))
        el = sample_violator(cid, form, field, rng)
        verdict = preserves_form(el, form, policy="schwartz-zippel", rng=rng, trials=32)
        assert not verdict.ok
        x = RepVector(form.space, field, [field.parse(c) for c in verdict.counterexample])
        assert [field.format(c) for c in x.coords] == verdict.counterexample
        assert form.evaluate(el.apply(x)) != form.evaluate(x)  # sp6: x is a kernel point


@pytest.mark.parametrize("cid,desc", ALL_CELLS)
def test_symbolic_rejection_names_the_first_rejecting_lattice_point(cid, desc):
    # the point is E alpha for the first alpha of the degree-deg lattice on
    # the raw coefficients, in combinations_with_replacement order, where
    # f(T E alpha) differs from f(E alpha), read here through field vectors
    form = parse_form(desc)
    for field in (QQ, F7):
        rng = rnd(stable_seed(cid, desc, "s"))
        el = sample_violator(cid, form, field, rng)
        verdict = preserves_form(el, form, policy="symbolic")
        assert not verdict.ok and verdict.policy == "symbolic"
        emb = form.raw_embedding(field)
        k = form.space.dim if emb is None else len(emb[0])
        for combo in itertools.combinations_with_replacement(range(k), form.degree):
            alpha = [combo.count(j) for j in range(k)]
            coords = alpha if emb is None else [sum(map(operator.mul, row, alpha)) for row in emb]
            x = RepVector(form.space, field, [field.of(c) for c in coords])
            if form.evaluate(el.apply(x)) != form.evaluate(x):
                break
        else:
            pytest.fail("no lattice point rejects the violator")
        assert verdict.counterexample == [field.format(c) for c in x.coords], (cid, desc, field)


def _expanded_preserves(el, form, field):
    """Independent oracle: f(M x) - f(x) expanded over a polynomial ring."""
    ring = PolyRing(field, tuple("x%d" % i for i in range(form.space.dim)))
    gens = list(ring.gens())
    m = el.matrix_on_space()
    moved = [sum((gens[j] * m.entry(i, j) for j in range(len(gens))), ring.zero) for i in range(len(gens))]
    return (form.eval_entries(ring, moved) - form.eval_entries(ring, gens)).is_zero()


def test_symbolic_and_sampled_policies_agree():
    # every cell over both fields; the polynomial expansion runs up to dimension 10
    rng = rnd(6)
    for cid, desc in ALL_CELLS:
        form = parse_form(desc)
        small = form.space.dim <= 10
        for field in (QQ, F7):
            for k in range(3 if small else 1):
                el = sample_group_element(cid, form, field, rng)
                verdict = preserves_form(el, form, policy="symbolic")
                assert verdict.ok and verdict.policy == "symbolic", (cid, desc, field)
                assert preserves_form(el, form, policy="schwartz-zippel", rng=rng).ok
                bad = sample_violator(cid, form, field, rng)
                bad_verdict = preserves_form(bad, form, policy="symbolic")
                assert not bad_verdict.ok, (cid, desc, field)
                assert not preserves_form(bad, form, policy="schwartz-zippel", rng=rng, trials=16).ok
                if k == 0 and small:
                    assert verdict.ok == _expanded_preserves(el, form, field)
                    assert bad_verdict.ok == _expanded_preserves(bad, form, field)
            if small:
                # a map from no family: the lattice verdict still matches the expansion
                dim = form.space.dim
                generic = GenericMap(form.space, field, Matrix(field, [[field.sample(rng, 3) for _ in range(dim)] for _ in range(dim)]))
                assert preserves_form(generic, form, policy="symbolic").ok == _expanded_preserves(generic, form, field)


def test_lattice_check_needs_characteristic_above_degree():
    f5 = PrimeField(5)
    form = parse_form("symm-det:6")  # degree 6 >= p
    identity = GenericMap(form.space, f5, Matrix.identity(f5, form.space.dim))
    with pytest.raises(PreserverError, match="characteristic"):
        preserves_form(identity, form, policy="symbolic")


def test_lattice_check_refuses_characteristic_equal_to_degree():
    # p = deg is the boundary: the degree-5 lattice is not unisolvent over F_5
    form = parse_form("symm-det:5")
    identity = GenericMap(form.space, F5, Matrix.identity(F5, form.space.dim))
    with pytest.raises(PreserverError, match="characteristic"):
        preserves_form(identity, form, policy="symbolic")
    with pytest.raises(PreserverError, match="characteristic"):
        simplex_lattice(sum, [[1]], 5, 5, PreserverError)


@pytest.mark.parametrize("field", [QQ, F7], ids=lambda f: f.descriptor)
def test_symbolic_check_scales_by_a_power_with_a_denominator(field):
    # X -> r P X P^t on symmetric 2 x 2 matrices scales det by r^2 det(P)^2:
    # 1 at r = 1/2 and det P = 2, 4/9 at r = 1/3; s^deg = 1/4 over Q has a
    # denominator the reference values must be multiplied by
    form = parse_form("symm-det:2")
    p = Matrix.from_ints(field, [[1, 1], [0, 2]])
    half = Congruence(form.space, field.of(Fraction(1, 2)), p)
    third = Congruence(form.space, field.of(Fraction(1, 3)), p)
    assert preserves_form(half, form, policy="symbolic").ok
    assert not preserves_form(third, form, policy="symbolic").ok


@pytest.mark.parametrize("which", ["first", "last"])
@pytest.mark.parametrize("field", [QQ, F7], ids=lambda f: f.descriptor)
def test_symbolic_check_compares_every_lattice_point(which, field, monkeypatch):
    # an evaluator that differs from f at one lattice point alone must fail:
    # for the identity map the lattice points are the degree-4 points alpha,
    # from 4 e_0 (first, lexicographic) to 4 e_3 (last)
    form = CubicDisc()
    identity = GenericMap(form.space, field, Matrix.identity(field, 4))
    assert preserves_form(identity, form, policy="symbolic").ok  # reference values from f itself
    fn = form.int_evaluator(field)
    point = [4, 0, 0, 0] if which == "first" else [0, 0, 0, 4]

    def perturbed(x):
        value = fn(x) + (list(x) == point)
        return value if field.modulus is None else value % field.modulus

    monkeypatch.setattr(form, "int_evaluator", lambda f: perturbed)
    assert not preserves_form(identity, form, policy="symbolic").ok


def test_scales_form_matches_character():
    rng = rnd(7)
    for cid, desc in ALL_CELLS:
        form = parse_form(desc)
        for field in (QQ, F7):
            el = sample_free_element(cid, form, field, rng)
            c = scales_form(el, form, rng)
            assert c == el.scaling_factor(form), (cid, desc, field.descriptor)


def test_generic_map_has_no_character():
    form = CubicDisc()
    el = GenericMap(form.space, QQ, Matrix.identity(QQ, 4))
    with pytest.raises(PreserverError):
        el.scaling_factor(form)


def test_char_params_raises_without_a_closed_character():
    # the base class raises where no family defines its parameters, and
    # scaling_factor passes that error on
    el = GenericMap(Space("cubic"), F7, Matrix.identity(F7, 4))
    for call in (el.char_params, lambda: el.scaling_factor(CubicDisc())):
        with pytest.raises(PreserverError, match="no closed scaling character for 'generic'"):
            call()


def test_preserves_minimals_for_group_elements():
    rng = rnd(8)
    for cid, desc in [("cubics", "cubic-disc"), ("blackholes", "mat2n:4"), ("SL6", "wedge36")]:
        form = parse_form(desc)
        for field in (QQ, F7):
            el = sample_group_element(cid, form, field, rng)
            ok, bad = preserves_minimals(el, form, rng, samples=25)
            assert ok and bad is None


def test_preserves_minimals_reports_the_sampled_vector_a_generic_map_moves():
    # swapping two entries of a 2 x 2 matrix, or scaling one wedge
    # coordinate by 1/2 and adding another, leaves the minimal cone; the
    # reports hold the sampled vector as the field-element check gave it
    form = parse_form("square-det:2")
    swap = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    for field, want in ((QQ, ["3", "-2", "-2", "4/3"]), (F7, ["5", "1", "5", "1"])):
        el = GenericMap(form.space, field, Matrix.from_ints(field, swap))
        assert preserves_minimals(el, form, rnd(4), samples=10) == (False, want)
    wedge = parse_form("wedge36")
    rows = [[Fraction(int(i == j) + int((i, j) == (0, 19)), 2 if i == 3 else 1) for j in range(20)] for i in range(20)]
    want = ["168", "168", "48", "96", "0", "-432", "-24", "-432", "-24", "240",
            "-56", "160", "-72", "176", "-40", "-112", "-144", "-8", "208", "128"]
    el = GenericMap(wedge.space, QQ, Matrix(QQ, rows))
    assert preserves_minimals(el, wedge, rnd(5), samples=10) == (False, want)
    with pytest.raises(PreserverError, match="different spaces"):
        preserves_minimals(el, form, rnd(5))


def test_orthogonal_pair_validated_against_form():
    form = Mat2n(4)
    rng = rnd(9)
    el = sample_group_element("blackholes", form, F7, rng)

    def similitude(f):
        # g2^t S g2 = mu S for the form's gram S
        s = f.gram(F7)
        return el.g2.transpose() @ s @ el.g2 == s.scale(el.mu)

    assert similitude(form)
    assert not similitude(Mat2n(4, s_entries=[[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 1]]))


# corollary registry and verify driver


def test_corollary_canonicalization():
    assert canonical_corollary("sl6") == "SL6"
    assert canonical_corollary("  Blackholes ") == "blackholes"
    with pytest.raises(KeyError):
        canonical_corollary("e6")


def test_verify_report_deterministic_and_ok():
    r1 = verify_corollary("cubics", F7, seed=11, elements=6)
    r2 = verify_corollary("cubics", F7, seed=11, elements=6)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    assert r1["ok"] and r1["cells"][0]["failures"] == 0
    assert r1["cells"][0]["policy"] == "symbolic"
    r3 = verify_corollary("cubics", F7, seed=12, elements=6)
    assert json.dumps(r1, sort_keys=True) != json.dumps(r3, sort_keys=True)


def test_verify_covers_every_corollary_smoke():
    for cid in COROLLARY_IDS:
        rep = verify_corollary(cid, F7, seed=13, elements=2 * len(corollary_forms(cid)))
        assert rep["ok"], cid
        assert len(rep["cells"]) == len(corollary_forms(cid))
        rep_q = verify_corollary(cid, QQ, seed=13, elements=len(corollary_forms(cid)))
        assert rep_q["ok"], cid


def test_sz_error_bound_recorded():
    form = parse_form("wedge36")
    rng = rnd(14)
    el = sample_group_element("SL6", form, F7, rng)
    verdict = preserves_form(el, form, rng=rng)
    assert verdict.policy == "schwartz-zippel"
    assert verdict.trials == 75
    assert verdict.error_bound == Fraction(4, 7) ** 75
    obj = verdict.to_json_obj()
    assert obj["ok"] and "error_bound" in obj


def test_verdict_json_emits_the_rejecting_point_and_the_error_bound():
    # a rejection by either policy emits its point, a witness f(T x) != f(x);
    # a sampled success emits its error bound as "a/b" and no point
    form = parse_form("cubic-disc")
    rng = rnd(16)
    bad = sample_violator("cubics", form, F7, rng)
    for policy, trials in (("symbolic", 0), ("schwartz-zippel", 1)):
        obj = preserves_form(bad, form, policy=policy, rng=rng).to_json_obj()
        assert sorted(obj) == ["counterexample", "ok", "policy", "trials"]
        assert (obj["ok"], obj["policy"], obj["trials"]) == (False, policy, trials)
        x = RepVector(form.space, F7, [F7.parse(c) for c in obj["counterexample"]])
        assert form.evaluate(bad.apply(x)) != form.evaluate(x)
    good = sample_group_element("cubics", form, F7, rng)
    obj = preserves_form(good, form, policy="schwartz-zippel", rng=rng).to_json_obj()
    assert obj == {"ok": True, "policy": "schwartz-zippel", "trials": 75, "error_bound": "%d/%d" % (4**75, 7**75)}


def test_sampling_budgets_below_one_are_rejected():
    # a verdict from no samples would be vacuous
    form = parse_form("skew-pf:8")
    rng = rnd(15)
    bad = sample_violator("skew.f", form, F7, rng)
    for policy in ("schwartz-zippel", "auto"):
        for trials in (0, -3):
            with pytest.raises(PreserverError, match="trials"):
                preserves_form(bad, form, policy=policy, rng=rng, trials=trials)
    free = sample_free_element("skew.f", form, F7, rng)
    cubic = parse_form("cubic-disc")
    group = sample_group_element("cubics", cubic, F7, rng)
    for count in (0, -2):
        with pytest.raises(PreserverError, match="points"):
            scales_form(free, form, rng, points=count)
        with pytest.raises(PreserverError, match="samples"):
            preserves_minimals(group, cubic, rng, samples=count)


# the packed integer product

# (columns n, modulus p, expected slot type code) for inputs in [0, p): the
# largest entry of R x is n (p - 1)^2, which must stay below 2^16, 2^32 or
# 2^64 for 'H', 'I' or 'Q'; the moduli around each bound are primes for
# n = 28 (skew-pf:8), plus the points where n (p - 1)^2 equals the bound
# exactly (the moduli need not be prime there)
SLOT_CASES = [
    (28, 47, "H"), (28, 53, "I"),
    (4, 128, "H"), (4, 129, "I"), (1, 256, "H"), (1, 257, "I"),
    (28, 12379, "I"), (28, 12391, "Q"), (28, 10007, "I"),
    (4, 2**15, "I"), (4, 2**15 + 1, "Q"), (1, 65537, "Q"), (28, 65537, "Q"),
    (28, 811672523, "Q"), (28, 811672541, None),
    (4, 2**31, "Q"), (4, 2**31 + 1, None), (1, 2**32, "Q"), (1, 2**32 + 1, None),
    (28, 2**31 - 1, None),
]

# (columns m, modulus p, input bound top, expected slot type code): one slot
# holds m (p - 1) top; the cases sit on either side of 2^16, 2^32 and 2^64,
# plus the corollaries' own bounds (top = p - 1 for residues, 14 (p - 1)^2
# for sp6's raw points E c)
BATCH_SLOT_CASES = [
    (28, 7, 6, "H"), (20, 7, 14 * 6**2, "H"), (1, 257, 255, "H"), (1, 257, 256, "I"),
    (20, 10007, 10006, "I"), (1, 65537, 65535, "I"), (1, 65537, 65536, "Q"), (20, 10007, 14 * 10006**2, "Q"),
    (1, 2**32 + 1, 2**32 - 1, "Q"), (1, 2**32 + 1, 2**32, None), (20, 2**61 - 1, 2**61 - 2, None),
]


def _int_matvec(rows, x, p):
    """rows x row by row: the reference product, reduced mod p unless p is None."""
    if p is None:
        return [sum(map(operator.mul, row, x)) for row in rows]
    return [sum(map(operator.mul, row, x)) % p for row in rows]


def check_packed_product(m, p, top, code):
    # both sides of a product: R's columns packed for points x in [0, top],
    # and the points' coordinates packed for R's rows; every slot of the
    # worst-case rows (all p - 1) at the point [top] * m holds m (p - 1) top
    assert slot_code(m * (p - 1) * top) == code
    rng = rnd(m * p % 100003 + top % 997)
    for n in (m, 20, 1):  # rows of R
        worst = [[p - 1] * m for _ in range(n)]
        mixed = [[rng.choice((0, 1, p - 2, p - 1, rng.randrange(p))) for _ in range(m)] for _ in range(n)]
        for rows in (worst, mixed):
            product = _packed(rows, p, top)
            for count in (1, 2, 31, 74):  # points in one product
                xs = [[top] * m] + [[rng.choice((0, top, rng.randint(0, top))) for _ in range(m)] for _ in range(count - 1)]
                # the images are exact products, unreduced; reduced mod p they are R x over F_p
                exact = [_int_matvec(rows, x, None) for x in xs]
                assert product(xs) == [v for y in exact for v in y], (m, p, top, n, count)
                assert _packed(xs, p, top)(rows) == [y[i] for i in range(n) for y in exact], (m, p, top, n, count)
                assert [[v % p for v in y] for y in exact] == [_int_matvec(rows, x, p) for x in xs]
            assert product([]) == []


@pytest.mark.parametrize("n,p,code", SLOT_CASES)
def test_matvec_kernel_at_slot_boundaries(n, p, code):
    # the packed product for residues (top = p - 1), the bound of an
    # element's R x
    check_packed_product(n, p, p - 1, code)


@pytest.mark.parametrize("m,p,top,code", BATCH_SLOT_CASES)
def test_batch_matvec_at_slot_boundaries(m, p, top, code):
    check_packed_product(m, p, top, code)


def test_matvec_kernel_over_q_is_exact():
    # no slots over Q: negative and wide entries on both sides
    rng = rnd(16)
    rows = [[rng.randint(-(1 << 40), 1 << 40) for _ in range(28)] for _ in range(20)]
    xs = [[rng.randint(-(1 << 31), 1 << 31) for _ in range(28)] for _ in range(3)]
    exact = [_int_matvec(rows, x, None) for x in xs]
    assert _packed(rows, None, None)(xs) == [v for y in exact for v in y]
    assert _packed(xs, None, None)(rows) == [y[i] for i in range(20) for y in exact]


def test_each_integer_map_is_packed_once(monkeypatch):
    # an element packs R once for all its readers (scales_form,
    # preserves_minimals, apply), and sp6's embedding E once per field; the
    # Schwartz-Zippel checks pack their trial points per batch instead
    built = []
    real = preservers._packed
    monkeypatch.setattr(preservers, "_packed", lambda rows, p, top: built.append(rows) or real(rows, p, top))
    preservers._raw_points.cache_clear()
    form = parse_form("sp6")
    rng = rnd(31)
    for field in (QQ, F7):
        built.clear()
        emb = form.raw_embedding(field)
        v = RepVector(form.space, field, next(zip(*emb)))
        maps = [emb]
        for _ in range(2):
            el = sample_free_element("Sp6", form, field, rng)
            maps.append(el.action()[0])
            for _ in range(2):
                preserves_form(el, form, policy="schwartz-zippel", rng=rng)
            scales_form(el, form, rng)
            preserves_minimals(el, form, rng, samples=2)
            el.apply(v)
        assert [len(rows[0]) for rows in built if any(rows is m for m in maps)] == [14, 20, 20], field.descriptor


def row_by_row_sz(el, form, rng, trials):
    """The Schwartz-Zippel loop with one field evaluation per trial: the same
    draws as preserves_form (one uniform_ints call per trial), and
    f(T x) == f(x) decided by apply and evaluate.
    Returns (ok, trials, counterexample, error_bound)."""
    field = el.field
    p = field.modulus
    lo, hi = (0, p) if p is not None else (-(1 << 31), 1 << 31)
    sp6 = isinstance(form, Sp6Quartic)
    emb = form.kernel_basis(field).ints()[0] if sp6 else None
    for t in range(1, trials + 1):
        c = uniform_ints(rng, lo, hi, 14 if sp6 else form.space.dim)
        x = [sum(e * ci for e, ci in zip(row, c)) for row in emb] if sp6 else c
        if p is not None:
            x = [v % p for v in x]
        v = RepVector(form.space, field, [field.of(xi) for xi in x])
        if form.evaluate(el.apply(v)) != form.evaluate(v):
            return False, t, [str(xi) for xi in x], None
    return True, trials, None, Fraction(form.degree, field.sz_set_size) ** trials


SZ_STREAM_FIELDS = [F7, PrimeField(10007), PrimeField(65537), PrimeField(2**31 - 1), QQ]


@pytest.mark.parametrize("field", SZ_STREAM_FIELDS, ids=lambda f: f.descriptor)
def test_sz_matches_row_by_row_loop_and_rng_stream(field):
    for cid, desc in ALL_CELLS:
        form = parse_form(desc)
        rng = rnd(stable_seed(cid, desc, "stream"))
        for sampler in (sample_free_element, sample_violator, sample_group_element):
            el = sampler(cid, form, field, rng)
            for trials in (None, 1, 2, 32):
                count = sz_trial_count(field, form.degree) if trials is None else trials
                state = rng.getstate()
                verdict = preserves_form(el, form, policy="schwartz-zippel", rng=rng, trials=trials)
                after = rng.getstate()
                rng.setstate(state)
                want = row_by_row_sz(el, form, rng, count)
                assert (verdict.ok, verdict.trials, verdict.counterexample, verdict.error_bound) == want, (
                    cid, desc, sampler.__name__, field.descriptor)
                assert rng.getstate() == after


def _sz_like_row_by_row(el, form, rng, trials):
    """preserves_form's Schwartz-Zippel verdict, once it equals
    row_by_row_sz's on the same stream and leaves the rng where it does."""
    count = sz_trial_count(el.field, form.degree) if trials is None else trials
    state = rng.getstate()
    verdict = preserves_form(el, form, policy="schwartz-zippel", rng=rng, trials=trials)
    after = rng.getstate()
    rng.setstate(state)
    assert (verdict.ok, verdict.trials, verdict.counterexample, verdict.error_bound) == row_by_row_sz(el, form, rng, count)
    assert rng.getstate() == after
    return verdict


F_FALLBACK = PrimeField(2**61 - 1)  # m (p - 1)^2 > 2^64 for every m: no slot holds a batch
SZ_BATCH_FIELDS = [QQ, F7, PrimeField(10007), F_FALLBACK]


@pytest.mark.parametrize("field", SZ_BATCH_FIELDS, ids=lambda f: f.descriptor)
def test_sz_batch_passes_group_elements_like_row_by_row_loop(field):
    # trial 1 row by row, trials 2..T through one packed product: 'H' slots
    # over F_7, 'I' over F_10007 ('Q' for sp6's raw points), products vector
    # by vector over Q and the fallback prime
    for cid, desc in ALL_CELLS:
        form = parse_form(desc)
        rng = rnd(stable_seed(cid, desc, "batch"))
        for _ in range(2):
            el = sample_group_element(cid, form, field, rng)
            verdict = _sz_like_row_by_row(el, form, rng, None)
            assert verdict.ok and verdict.trials == sz_trial_count(field, form.degree), (cid, desc)


# (field, corollary, form, seed, trials, failing trial): violators sampled
# from rnd(seed) whose check on the same stream fails on trial 1, in mid-batch
# (trial t < T, so the stream is replayed from trial 2) or on the last trial
# T; the seeds were found by searching upward from 0.  Over Q and the fallback
# prime a violator passes a trial with probability at most deg / |S|, so only
# trial-1 failures occur there.
SZ_FAILURE_CASES = [
    (F7, "SL6", "wedge36", 0, None, 1),
    (F7, "SL6", "wedge36", 40, None, 3),
    (F7, "SL6", "wedge36", 1829, 4, 4),
    (F7, "Sp6", "sp6", 0, None, 1),
    (F7, "Sp6", "sp6", 53, None, 3),
    (F7, "Sp6", "sp6", 1091, 4, 4),
    (F7, "skew.f", "skew-pf:8", 0, None, 1),
    (F7, "skew.f", "skew-pf:8", 105, None, 3),
    (F7, "skew.f", "skew-pf:8", 64, 4, 4),
    (F7, "square.f", "square-det:4", 0, None, 1),
    (F7, "square.f", "square-det:4", 45, None, 3),
    (F7, "square.f", "square-det:4", 252, 4, 4),
    (F7, "blackholes", "mat2n:6", 0, None, 1),
    (F7, "blackholes", "mat2n:6", 5, None, 3),
    (F7, "blackholes", "mat2n:6", 831, 4, 4),
    (F7, "cubics", "cubic-disc", 47, None, 3),
    (F7, "cubics", "cubic-disc", 61, 4, 4),
    (F7, "hyperdet", "hyperdet", 14, None, 3),
    (F7, "hyperdet", "hyperdet", 271, 4, 4),
    (F7, "symm.f", "symm-det:3", 46, None, 3),
    (F7, "symm.f", "symm-det:3", 122, 4, 4),
    (F7, "skew.f4", "skew-pf:4", 25, None, 3),
    (F7, "skew.f4", "skew-pf:4", 147, 4, 4),
    (PrimeField(10007), "SL6", "wedge36", 0, None, 1),
    (PrimeField(10007), "SL6", "wedge36", 14120, None, 2),
    (PrimeField(10007), "SL6", "wedge36", 14120, 2, 2),
    (PrimeField(10007), "Sp6", "sp6", 0, None, 1),
    (PrimeField(10007), "Sp6", "sp6", 1405, None, 2),
    (PrimeField(10007), "Sp6", "sp6", 1405, 2, 2),
    (PrimeField(10007), "skew.f", "skew-pf:8", 0, None, 1),
    (PrimeField(10007), "skew.f", "skew-pf:8", 2844, None, 2),
    (PrimeField(10007), "skew.f", "skew-pf:8", 2844, 2, 2),
    (F_FALLBACK, "SL6", "wedge36", 0, None, 1),
    (F_FALLBACK, "Sp6", "sp6", 0, None, 1),
    (F_FALLBACK, "skew.f", "skew-pf:8", 0, None, 1),
    (QQ, "SL6", "wedge36", 0, None, 1),
    (QQ, "Sp6", "sp6", 0, None, 1),
    (QQ, "skew.f", "skew-pf:8", 0, None, 1),
]


@pytest.mark.parametrize("field,cid,desc,seed,trials,fails", SZ_FAILURE_CASES,
                         ids=lambda v: getattr(v, "descriptor", None) or str(v))
def test_sz_batch_catches_violators_like_row_by_row_loop(field, cid, desc, seed, trials, fails):
    form = parse_form(desc)
    rng = rnd(seed)
    el = sample_violator(cid, form, field, rng)
    verdict = _sz_like_row_by_row(el, form, rng, trials)
    assert not verdict.ok and verdict.trials == fails
    # the counterexample is the reduced raw point, as the per-trial loop prints it
    if field.modulus is not None:
        assert all(0 <= int(v) < field.modulus for v in verdict.counterexample)


# the character law on integers


def field_loop_scales(el, form, rng, points=4):
    """scales_form on field objects: RepVector points, apply and evaluate,
    with the same draws and checks."""
    field = el.field
    sp6 = isinstance(form, Sp6Quartic)
    scalar = None
    checked = 0
    budget = 64 * points
    while checked < points:
        budget -= 1
        if budget < 0:
            raise PreserverError("could not locate enough nonzero values of f")
        if sp6:
            emb = form.kernel_basis(field)
            c = [field.of(x) for x in uniform_ints(rng, -9, 10, 14)]
            v = RepVector(form.space, field, emb.apply(c))
            fv = Wedge36().evaluate(v)
            fw = Wedge36().evaluate(el.apply(v))
        else:
            v = RepVector(form.space, field, [field.of(x) for x in uniform_ints(rng, -9, 10, form.space.dim)])
            fv = form.evaluate(v)
            fw = form.evaluate(el.apply(v))
        if fv == field.zero:
            continue
        ratio = fw / fv
        if scalar is None:
            scalar = ratio
        elif ratio != scalar:
            raise PreserverError("map does not scale the form by a constant")
        checked += 1
    return scalar


class ZeroForm(InvariantForm):
    line = "zero"
    degree = 2
    space = Space("vector", n=2)

    @staticmethod
    def formula(vals):
        return 0


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except PreserverError as exc:
        return "raised", str(exc)
    return type(value), value


@pytest.mark.parametrize("field", [F7, PrimeField(10007), QQ], ids=lambda f: f.descriptor)
def test_scales_form_matches_field_loop_and_rng_stream(field):
    # over Q the sp6 points are E c for the kernel basis E itself, whose
    # entries are integers, so its integer form must be E with D = 1
    basis = Sp6Quartic().kernel_basis(QQ)
    assert basis.ints() == (basis.rows, 1)
    for cid, desc in ALL_CELLS:
        form = parse_form(desc)
        rng = rnd(stable_seed(cid, desc, "scales"))
        dim = form.space.dim
        elements = [sampler(cid, form, field, rng) for _ in range(2)
                    for sampler in (sample_free_element, sample_group_element, sample_violator)]
        # a map from no family, which scales by no constant, and the zero map
        elements.append(GenericMap(form.space, field, Matrix(field, [[field.sample(rng, 3) for _ in range(dim)]
                                                                     for _ in range(dim)])))
        elements.append(GenericMap(form.space, field, Matrix(field, [[field.zero] * dim for _ in range(dim)])))
        outcomes = []
        for el in elements:
            for points in (1, 4):
                state = rng.getstate()
                got = _outcome(scales_form, el, form, rng, points)
                after = rng.getstate()
                rng.setstate(state)
                want = _outcome(field_loop_scales, el, form, rng, points)
                assert got == want, (cid, desc, el.family, points)
                assert rng.getstate() == after, (cid, desc, el.family, points)
                outcomes.append(got[0])
        # one point cannot tell a constant apart; four do, and the zero map scales by 0
        assert outcomes[-3:] == ["raised", type(field.zero), type(field.zero)], (cid, desc)
    # a form that vanishes everywhere spends the whole budget of 64 * points draws
    zero = ZeroForm()
    identity = GenericMap(zero.space, field, Matrix.identity(field, 2))
    rng = rnd(17)
    got = _outcome(scales_form, identity, zero, rng, 3)
    after = rng.getstate()
    rng = rnd(17)
    assert got == _outcome(field_loop_scales, identity, zero, rng, 3) == ("raised", "could not locate enough nonzero values of f")
    assert rng.getstate() == after


# verdicts that hold on any random stream


VERDICT_FIELDS = [F7, PrimeField(10007), QQ]


@pytest.mark.parametrize("field", VERDICT_FIELDS, ids=lambda f: f.descriptor)
def test_group_elements_pass_and_violators_are_caught_with_witnesses(field):
    # what a run reports at a fixed seed depends on the stream; that group
    # elements pass, violators fail and a counterexample x has f(T x) != f(x)
    # does not
    for cid, desc in ALL_CELLS:
        form = parse_form(desc)
        rng = rnd(stable_seed(cid, desc, "verdicts"))
        for _ in range(4):
            el = sample_group_element(cid, form, field, rng)
            assert el.constraint_satisfied(form), (cid, desc)
            for policy in ("auto", "schwartz-zippel"):
                verdict = preserves_form(el, form, policy=policy, rng=rng)
                assert verdict.ok and verdict.counterexample is None, (cid, desc, policy)
            bad = sample_violator(cid, form, field, rng)
            assert not bad.constraint_satisfied(form), (cid, desc)
            verdict = preserves_form(bad, form, policy="schwartz-zippel", rng=rng)
            assert not verdict.ok and verdict.error_bound is None, (cid, desc)
            assert 1 <= verdict.trials <= sz_trial_count(field, form.degree)
            v = RepVector(form.space, field, [field.of(int(x)) for x in verdict.counterexample])
            assert form.evaluate(bad.apply(v)) != form.evaluate(v), (cid, desc)


def test_rational_skew_group_elements_need_no_redraw(monkeypatch):
    # r^(n/2) = 1 / det P: for even n/2 only det P = 1 has a rational root, so
    # each element is one unimodular draw; for odd n/2, det P = -1 stays
    import linpres.preservers as preservers

    calls = []

    def counted(field, rng, n):
        calls.append(n)
        return unimodular_matrix(field, rng, n)

    monkeypatch.setattr(preservers, "unimodular_matrix", counted)
    monkeypatch.setattr(preservers, "invertible_matrix", lambda *args: pytest.fail("det P may be -1"))
    rng = rnd(23)
    for cid, desc in (("skew.f4", "skew-pf:4"), ("skew.f", "skew-pf:8")):
        form = parse_form(desc)
        del calls[:]
        for _ in range(20):
            assert sample_group_element(cid, form, QQ, rng).constraint_satisfied(form)
        assert calls == [form.space.params["n"]] * 20, cid
    monkeypatch.undo()
    form = parse_form("skew-pf:6")
    elements = [sample_group_element("skew.f", form, QQ, rng) for _ in range(20)]
    assert all(el.constraint_satisfied(form) for el in elements)
    assert {el.p.det() for el in elements} == {QQ.of(1), QQ.of(-1)}


# the group stream


def stream_digest(cid, desc, field, tag, samplers):
    """sha256 over one element from each sampler in turn, as sorted-key JSON,
    and the rng state after them."""
    form = parse_form(desc)
    rng = rnd(stable_seed(cid, desc, tag))
    h = hashlib.sha256()
    for sample in samplers:
        h.update(json.dumps(sample(cid, form, field, rng).to_json_obj(), sort_keys=True).encode())
    h.update(repr(rng.getstate()).encode())
    return h.hexdigest()


def group_stream_digest(cid, desc, field):
    return stream_digest(cid, desc, field, "group-stream", [sample_group_element] * 20)


def free_stream_digest(cid, desc, field):
    return stream_digest(cid, desc, field, "free-stream", [sample_free_element] * 20 + [sample_violator])


DIGEST_FIELDS = {f.descriptor: f for f in (F7, PrimeField(10007), QQ)}


# recorded before the free and group samplers became one draw per corollary:
# a group element is drawn exactly as before, so no digest may change
GROUP_STREAM_DIGESTS = {
    ("symm.f", "symm-det:2", "Fp:7"): "a8f803c944f4690a2ba077abd5d99d5690cfd3858210963c2ba09bfa39fe1d47",
    ("symm.f", "symm-det:2", "Fp:10007"): "730a04ec213719eaadfc92e295368e933e9808522921cad9b275ee2c656c3a78",
    ("symm.f", "symm-det:2", "Q"): "7a4101fb4659400ab4d8945aa0938c377a95361bc0cf528a24058dbd2c130c4a",
    ("symm.f", "symm-det:3", "Fp:7"): "50f6f2665c5956ea7c64280e28ee3c3779fc12cde7d8c64f245244c45e15d6c9",
    ("symm.f", "symm-det:3", "Fp:10007"): "191b309fab735923a67c04f5e75ad453e8b62f9c3fc37c0e0e16ebeaf5507fff",
    ("symm.f", "symm-det:3", "Q"): "3c4ca75fbe44bb2e3d179252b8cc65b95298dd17971a5bbadefeae9b4b5a9268",
    ("symm.f", "symm-det:4", "Fp:7"): "493b2d67e474fb5af233fd064ff1cd27d8136017ffd5f8e2cb99d660cfddeec1",
    ("symm.f", "symm-det:4", "Fp:10007"): "cc5d503b2ae54ee99a60924632933454abeb1e32ede319fcc0ecbfa9eb14ea45",
    ("symm.f", "symm-det:4", "Q"): "d9239e9ab4975597978f983eb8158fa1311f85833bda8ae992bd458a429f8179",
    ("skew.f", "skew-pf:6", "Fp:7"): "ba8de1992955f7e801c3402054e57ae8580071737cb9da01d810eecc1514e567",
    ("skew.f", "skew-pf:6", "Fp:10007"): "2d9cd0ddbf2b68149ea45be0014a0d2c66a4f1422b0303f3964d6de6ad2debf5",
    ("skew.f", "skew-pf:6", "Q"): "bd3a0ba28325935fa3ff129d4486bcadc37f827915649ef710d166da42da969a",
    ("skew.f", "skew-pf:8", "Fp:7"): "3182b467aa2168e23a624f56ddfd6ff934deabc4e5fb49c3c95867b7bae96d3e",
    ("skew.f", "skew-pf:8", "Fp:10007"): "c574117ae6b02d3537636d2734a30c444b7202c93f684336144f50842af31531",
    ("skew.f", "skew-pf:8", "Q"): "c522ddb491d5d4d98a9722780ff8a391ff8cf4af89fae8f95e5d540e51b24dbf",
    ("skew.f4", "skew-pf:4", "Fp:7"): "5d762229b42033d95023d2c4741b1378dcdd59b815d7d20475d2b6a5fa6d8c7b",
    ("skew.f4", "skew-pf:4", "Fp:10007"): "933c32993deeaeb180af15ee9b467cba9c0dd51b7bae6c1c85f2684f8151dfbd",
    ("skew.f4", "skew-pf:4", "Q"): "ef620d683c7b1442be2e7c1a1f407513d272895ddb935f44178fcb8a19055a3e",
    ("square.f", "square-det:2", "Fp:7"): "5a91cbf300efa37012626f5d7fc21431c2dc62f1bba5a5cd38838b5c509dfa71",
    ("square.f", "square-det:2", "Fp:10007"): "3c80bdf5a53255141d0d346e79cc3e7f2d618f06b24b57ce9604949ece9e0f8d",
    ("square.f", "square-det:2", "Q"): "95164380ee20aaf917a396bd2f580ca29c143a3254ff6c3ed55f0ca758d179ba",
    ("square.f", "square-det:3", "Fp:7"): "99e9be796c796be94c4eb18635f814e1e829b32b56012d2db5d9aa41cfd2f8be",
    ("square.f", "square-det:3", "Fp:10007"): "8834bc3f8cdcfde455e663ed1a1bfb890abed38cddbe4d5190089ea3e416e916",
    ("square.f", "square-det:3", "Q"): "34ee6b6f0c474ef9de97f958310566c5931a8d4fd93df294f1ed19d74ff1f2d0",
    ("square.f", "square-det:4", "Fp:7"): "288c748bd1299403cc9a11e87f10cc8a69910901931876afee8e7183fe038a3f",
    ("square.f", "square-det:4", "Fp:10007"): "11781e87c2a7ae256c301ac32fe5b74153187aebacde24be2d1ef68d80502112",
    ("square.f", "square-det:4", "Q"): "106d8b3bb42dfddaa169a9557a5316fe6ee0e0e769832d9d232839c7a8561d3c",
    ("cubics", "cubic-disc", "Fp:7"): "19d7c440fbbbb31791cd87057a76e5769da1afc26e703aa1e590024d33ec8af2",
    ("cubics", "cubic-disc", "Fp:10007"): "f8b9ef6872fe80c763279aa7267602da358ea822f8e27d62893068443cf367f4",
    ("cubics", "cubic-disc", "Q"): "687923da333e92cc153530cf6d4ff69d1df20b59a330a7dc16cf38f5a24ad94c",
    ("SL6", "wedge36", "Fp:7"): "171805ed15bfab6bd29e093d02aea7eab164ab3dc7fcee991fffe35caacd879c",
    ("SL6", "wedge36", "Fp:10007"): "af087fe518e0a5cfd6a88fd8cf13e904cb2cd4690ed020a4ca46dfd0221d6a5f",
    ("SL6", "wedge36", "Q"): "21fff30b0e0289a8c6215d83d421ab042be4ccb6114c31f4e9e77b95e68c498e",
    ("Sp6", "sp6", "Fp:7"): "c1a6c27b0366a54b900629d42129bdabb83eb373786654b825a51907d60bd05b",
    ("Sp6", "sp6", "Fp:10007"): "f7d5c1a1ace2c4757cae6098b8806464886c82654bf022623d718d2314fb3ee2",
    ("Sp6", "sp6", "Q"): "4e1230485559ba2334a08aa172467f5a5f9af9691e212979f308550cab8e07dd",
    ("hyperdet", "hyperdet", "Fp:7"): "31647d811a072185602e6beceebe91fdb6e7a6b6477613d2d8b0466e2d3c6c09",
    ("hyperdet", "hyperdet", "Fp:10007"): "33e28b79d239379317a5e35af1404ff0fe9d3b603ab623a22ded6c139912c694",
    ("hyperdet", "hyperdet", "Q"): "553a120d38c56c06fb281273ae36050055a417a618cb2c39f5b9bacd955e300e",
    ("blackholes", "mat2n:4", "Fp:7"): "3a7c9948be1f660cddef4bb5e5941b29d35522f30e77f3e9fb02fd55bd271cb5",
    ("blackholes", "mat2n:4", "Fp:10007"): "a7b426ef2a228aa1e75c19d2919dfffa8398c72ea2d3cd9691709daea89a6e62",
    ("blackholes", "mat2n:4", "Q"): "1f8e9af988a3d36cf30ac79faf1cca1fd340ddcc245bcf46234db3770626cc11",
    ("blackholes", "mat2n:5", "Fp:7"): "0de41c21cb814ae753e252dec31adfe2aa7a6c167ba993e1ee84c97479607ba0",
    ("blackholes", "mat2n:5", "Fp:10007"): "dac5ad640257e0f65f04abedaeba34571221c5deb8ad5291305528462548ee86",
    ("blackholes", "mat2n:5", "Q"): "af37e9a1cf022099ee5f1ed1908103abaab3a88d945998f6fb0c964f427c5ed8",
    ("blackholes", "mat2n:6", "Fp:7"): "2ec019bc969f5db3161fd09c08b28606acf36f231d60ea9817fedff5894716e5",
    ("blackholes", "mat2n:6", "Fp:10007"): "a273693cd4f453bafeab7ae25ada9516b02e845b97c661f90e2c5c00ee72337b",
    ("blackholes", "mat2n:6", "Q"): "807b47d8daddaf33b53aa1a9021542f5b983891aee71953c909b27f6f71c596f",
}


@pytest.mark.parametrize("cid,desc,field", sorted(GROUP_STREAM_DIGESTS))
def test_group_stream_matches_recorded_digest(cid, desc, field):
    assert group_stream_digest(cid, desc, DIGEST_FIELDS[field]) == GROUP_STREAM_DIGESTS[cid, desc, field]


# recorded before sampled matrices carried their determinant and integer
# rows: the free draws and the violator search make the same rng calls and
# return the same elements
FREE_STREAM_DIGESTS = {
    ("symm.f", "symm-det:2", "Fp:7"): "6f4d810db53cea172c7c2d3950dc83ae92fa010d80bf3bde1f98ddad77653c21",
    ("symm.f", "symm-det:2", "Fp:10007"): "75a784e16ad7b77c4e6295868f4229bf205d724b82e5b6e8214f014b0c5ef388",
    ("symm.f", "symm-det:2", "Q"): "faa498333be8a70547bab198b248b950d23d0a9527f5c165043c30dfd4f0b958",
    ("symm.f", "symm-det:3", "Fp:7"): "0eab596170d0fc7a0e02d46f95a089374136c84af54d5da77ad2f14563de2e10",
    ("symm.f", "symm-det:3", "Fp:10007"): "6a3f1050b0ebe9dcabb9aba1d30d6a99d1fa0c26061819551abebcb32a8e728c",
    ("symm.f", "symm-det:3", "Q"): "5db0a9d0569ac490150fa70f555581be0f9e1e624689532379e49e0075e85859",
    ("symm.f", "symm-det:4", "Fp:7"): "96ecc317f22f9d72cbe42d9d2b48286e076c4e39e83fe86cffe4649f6739229e",
    ("symm.f", "symm-det:4", "Fp:10007"): "0a0d7eb1236f614a6456d1542d4d3e4d576de51d1bbaba13f82b817ea3f06740",
    ("symm.f", "symm-det:4", "Q"): "4dcd7be3248fa10219ae7020da9152e162cb6f3dc54a9c67bc81ae4678bcdab9",
    ("skew.f", "skew-pf:6", "Fp:7"): "ee204837ba5c64bd09028bafb540f41a14a257bd6a2bdbfd80d57a3247f17e77",
    ("skew.f", "skew-pf:6", "Fp:10007"): "f37a4f4e48d7a7a0a85c46cbca70ed4b51ef1a8354cb07eb92f8af858c765fad",
    ("skew.f", "skew-pf:6", "Q"): "66f3b7b00f9222365d85e505908255cadef2495159796083ac5e1b2b79dd42c3",
    ("skew.f", "skew-pf:8", "Fp:7"): "6ff8af656cdea7a221ae10dd88b0bbdc9f3adfb38148bba692961f12bf2da00d",
    ("skew.f", "skew-pf:8", "Fp:10007"): "9577811ed19a2dc93309ed9224543146df4f59b6590a0dc4c877248b3054391c",
    ("skew.f", "skew-pf:8", "Q"): "a88cff7fcf173f4d9904d2d05d21121045347b03b3ee288e2455bb06c732185b",
    ("skew.f4", "skew-pf:4", "Fp:7"): "45d17e3e43164015dae37f1b1e7dccd6f92e2367706017ce9f0224588ca4f99b",
    ("skew.f4", "skew-pf:4", "Fp:10007"): "715918de08a207620be31b6a2fa810ded65966928ace243e37c9cbd17941b112",
    ("skew.f4", "skew-pf:4", "Q"): "d6bc41b8bb4b0777f26b40346133e02a1d12af8288835ab24108bb4b0a7a4cc1",
    ("square.f", "square-det:2", "Fp:7"): "e9e4fae2f0fb2da1279365e81aef76dec74e8398efa3626f705ed2c9eabdf302",
    ("square.f", "square-det:2", "Fp:10007"): "59c28311de6773756260fe6e573b38ff4d0ac4bc4433f4ea6c22d3fba42e4a67",
    ("square.f", "square-det:2", "Q"): "602abfbbf0b8e76e62738864afc7168f02a8b856f17189fe81b1289d4ba13978",
    ("square.f", "square-det:3", "Fp:7"): "2e97d5827e654bd56aa3eab1faf3402329250b39dbf90e65a17bb01851ee14c6",
    ("square.f", "square-det:3", "Fp:10007"): "8740451e1ddd332a3ce93fbb548dfdec2ca732bf9f9dba367f9dd8a251f10546",
    ("square.f", "square-det:3", "Q"): "543c1b47fccc45ce3e6d9a53bff825c8fa243aab46dd47cd5bb5e4883281082d",
    ("square.f", "square-det:4", "Fp:7"): "dac0b3f4553bed6be7f9b766cc1ac27c8f20f54b238794548848f4e72de0e34e",
    ("square.f", "square-det:4", "Fp:10007"): "3e7ee630e9335a5b0977dc4cabb8498333511b52ee3dea817bf9a6f34c95b272",
    ("square.f", "square-det:4", "Q"): "e6b551aac4325634081db4b957fc0cb510c4877f29801bd59cdd958ad4ed313c",
    ("cubics", "cubic-disc", "Fp:7"): "0c909d9e7cdaa41ea0d1552430a897184ea2d4dba1055245ad3a99e9dcbf1ce8",
    ("cubics", "cubic-disc", "Fp:10007"): "79f259341ddcd69199d8cbf21bd7729bcf1046c5d6af2ef6949dcfbd9ebf4da0",
    ("cubics", "cubic-disc", "Q"): "f62452225ae9dfe74349d95bfde429e15d9f48e8e23ce041f9d4dcafe2bd3740",
    ("SL6", "wedge36", "Fp:7"): "9164a63895f3846136c9e3b63c00e3b4adac896377f422a1bd8b21cc13fa1e8d",
    ("SL6", "wedge36", "Fp:10007"): "f44a617b1cd1d410cd1b1a0b66d7f6873adcc7177a53b171a74183f42616a91f",
    ("SL6", "wedge36", "Q"): "28b593cd9a99257c0447fe705903642f03f7b1f2a26fd9f9c935f18b851c93bc",
    ("Sp6", "sp6", "Fp:7"): "247837f4d9a7f10d08dfbc2043558795004b8e99ae79650289ecade89b3f84a1",
    ("Sp6", "sp6", "Fp:10007"): "a34677b131886a91a18ebd4fe878531ec774ed42ff30bfa2b18ae524d5ea4db1",
    ("Sp6", "sp6", "Q"): "37dacdd4d14341e22bfad114641a52cb0e63a8fbb0e26180349cf6fb16a5fb85",
    ("hyperdet", "hyperdet", "Fp:7"): "6fa9018fd3f580d2a2d1e73dab7e1ba7aa80f60f3b7f036ddc953da62df9bc38",
    ("hyperdet", "hyperdet", "Fp:10007"): "2419136f2d853cbbf5109f1e253e80716f78928a54e9f3abf42b955027824319",
    ("hyperdet", "hyperdet", "Q"): "97f3e618f9fd2d10ca51c41a5d029faf42c58ebbee885be73280a6dcbcc598bf",
    ("blackholes", "mat2n:4", "Fp:7"): "6b8b8a7317b0cfd1aa8e68c2939ce48d2206f09e94a91ed9a1eb121a96a2022a",
    ("blackholes", "mat2n:4", "Fp:10007"): "abe68a68d3ee3e14286a26d1259aa4348edea26b4611a80267ac322c2d71ac64",
    ("blackholes", "mat2n:4", "Q"): "6dc0f5158a0bb7ec0319396c2a3e4d82cd2b7538b371d93e54f8fbe523e1b17e",
    ("blackholes", "mat2n:5", "Fp:7"): "9e3f71975e834edef18d33f75b3e86d2e0fa545dff10bb0cf11e3e5574ba770b",
    ("blackholes", "mat2n:5", "Fp:10007"): "448cadfe3d902c7aff7baf5b3e35ffd2eef553150e1f2807744f00a001c9d217",
    ("blackholes", "mat2n:5", "Q"): "6afae8ea87451daa495ed76e60a311218468f56be6994e6988d55d40fc15bf1b",
    ("blackholes", "mat2n:6", "Fp:7"): "9bc2d94ba7d67ffc80e75e9f3ef0fdea19a828e5f0fed48f83c333eee4c208e1",
    ("blackholes", "mat2n:6", "Fp:10007"): "864ed13a2ea29c5fd6b4e64e74d2c9163bf020df7388b47c2d4d74012ef2b7ce",
    ("blackholes", "mat2n:6", "Q"): "cec5a9970c16df0a1f85f93963be132cf8cf0b1699a9c480713877ff0985dd40",
}


@pytest.mark.parametrize("cid,desc,field", sorted(FREE_STREAM_DIGESTS))
def test_free_stream_matches_recorded_digest(cid, desc, field):
    assert free_stream_digest(cid, desc, DIGEST_FIELDS[field]) == FREE_STREAM_DIGESTS[cid, desc, field]


@pytest.mark.parametrize("field", [F7, QQ], ids=lambda f: f.descriptor)
def test_free_elements_scale_by_more_than_a_sign(field):
    # over Q the matrix draws alone have det +-1; a free element's character
    # must still range beyond +-1
    for cid, desc in ALL_CELLS:
        form = parse_form(desc)
        rng = rnd(stable_seed(cid, desc, "free"))
        factors = {sample_free_element(cid, form, field, rng).scaling_factor(form) for _ in range(20)}
        assert factors - {field.one, -field.one}, (cid, desc, field.descriptor)


@pytest.mark.parametrize("p", [7, 13])
def test_symbolic_kernel_on_sp6_images_equals_the_called_evaluator(p):
    # the symbolic policy reads sp6's lattice through the unreduced columns of
    # R E (entries up to 20 (p - 1)^2); the byte-sliced kernel on them gives
    # the list a wrapper with no source gives
    field, form = PrimeField(p), parse_form("sp6")
    rng = rnd(stable_seed("sp6", "kernel-lattice", field.descriptor))
    emb, fn = form.raw_embedding(field), form.int_evaluator(field)
    for sampler in (sample_free_element, sample_group_element):
        cols = preservers._images(list(zip(*emb)), sampler("Sp6", form, field, rng).action()[0], p, p - 1)
        assert max(map(max, cols)) >= p
        for scale in (2, p - 1):
            want = simplex_lattice(lambda x: fn(x), cols, 4, p, PreserverError, scale)
            assert simplex_lattice(fn, cols, 4, p, PreserverError, scale) == want, (sampler.__name__, scale)


@pytest.mark.parametrize("p", [7, 11, 13])
def test_sz_kernel_rejects_violators_like_the_scalar_loop(p, monkeypatch):
    # a violator whose trial 1 passes fails inside the batch of trials 2..T;
    # the kernel's verdict (first failing trial, counterexample) and the rng
    # state after it are the scalar loop's, which an evaluator with no
    # source runs
    field = PrimeField(p)
    in_batch = 0
    for cid, desc in ALL_CELLS:
        form = parse_form(desc)
        fn = form.int_evaluator(field)
        rng = rnd(stable_seed(cid, desc, "kernel-sz", field.descriptor))
        for _ in range(8):
            el = sample_violator(cid, form, field, rng)
            state = rng.getstate()
            verdict = preserves_form(el, form, policy="schwartz-zippel", rng=rng)
            after = rng.getstate()
            rng.setstate(state)
            with monkeypatch.context() as patch:
                patch.setattr(form, "int_evaluator", lambda field: lambda x: fn(x))
                assert preserves_form(el, form, policy="schwartz-zippel", rng=rng) == verdict, (desc, p)
            assert rng.getstate() == after, (desc, p)
            in_batch += verdict.trials > 1
    assert in_batch >= 5


def test_sz_byte_batch_runs_where_p_squared_fits_a_byte(monkeypatch):
    # trials 2..T run in byte slots wherever p * p <= 256 and the evaluator
    # has a source of the space's width: sp6 (its raw points reduced by E's
    # byte-slot map) over F_7, F_11 and F_13, and wedge36 over F_13; over F_17
    # and Q, and for an evaluator with no source, the scalar loop runs them.
    # Trial 1 runs the scalar loop everywhere.
    byte, scalar = [], []
    real_byte, real_scalar = preservers._byte_failure, preservers._first_failure
    monkeypatch.setattr(preservers, "_byte_failure", lambda *args: byte.append(len(args[1])) or real_byte(*args))
    monkeypatch.setattr(preservers, "_first_failure", lambda *args: scalar.append(len(args[1])) or real_scalar(*args))
    cases = [("Sp6", "sp6", p, True) for p in (7, 11, 13)] + [("SL6", "wedge36", 13, True), ("Sp6", "sp6", 17, False),
                                                             ("Sp6", "sp6", None, False), ("SL6", "wedge36", 7, None)]
    for cid, desc, p, in_bytes in cases:
        field, form = QQ if p is None else PrimeField(p), parse_form(desc)
        rng = rnd(stable_seed(cid, desc, "byte-batch", field.descriptor))
        el = sample_group_element(cid, form, field, rng)
        byte.clear()
        scalar.clear()
        with monkeypatch.context() as patch:
            if in_bytes is None:  # a wrapper with no source has no kernel
                fn = form.int_evaluator(field)
                patch.setattr(form, "int_evaluator", lambda field: lambda x: fn(x))
            assert _sz_like_row_by_row(el, form, rng, None).ok
        rest = sz_trial_count(field, form.degree) - 1
        assert (byte, scalar) == (([rest], [1]) if in_bytes else ([], [1, rest])), (desc, field.descriptor)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_slot_map_equals_the_row_sums_mod_p(p):
    # every entry and every input slot p - 1 puts the most into each running
    # sum, so a dense worst-case row must reduce mid-sum; slot t of each
    # output is the row sum at the point of slots t, mod p
    rng = rnd(stable_seed("slot-map", str(p)))
    for width in (1, 2, 7, 14, 20, 28):
        worst = [[p - 1] * width for _ in range(3)]
        mixed = [[rng.choice((0, 1, p - 1, rng.randrange(p))) for _ in range(width)] for _ in range(5)]
        for n in (1, 2, 74, 255):
            points = [[p - 1] * width] + [[rng.randrange(p) for _ in range(width)] for _ in range(n - 1)]
            xs = [int.from_bytes(bytes(col), "big") for col in zip(*points)]
            for rows in (worst, mixed):
                got = [list(v.to_bytes(n, "big")) for v in preservers._slot_map(rows, xs, p, n)]
                assert got == [[sum(map(operator.mul, row, x)) % p for x in points] for row in rows], (p, width, n)
