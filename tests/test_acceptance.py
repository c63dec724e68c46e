"""Acceptance suite.

Each test checks one numbered criterion and prints a single
"criterion N: PASS/FAIL" line on the real stdout, bypassing capture,
so the run reads as a checklist even under plain pytest.
"""

import random
import sys
import time

from linpres.bruteforce import run_case
from linpres.fields import QQ, PrimeField
from linpres.forms import Hyperdet, Mat2n, SkewPf, Wedge36
from linpres.linalg import Matrix
from linpres.multilinear import RepVector, Space
from linpres.polynomials import PolyRing
from linpres.preservers import (
    COROLLARY_IDS,
    PERMS3,
    Sandwich,
    corollary_forms,
    preserves_form,
    preserves_minimals,
    sample_free_element,
    sample_group_element,
    sample_violator,
    scales_form,
)
from linpres.sampling import invertible_matrix
from reference import factor_permutation, hodge_star4_matrix, rand_vector, symplectic_pair, wedge36_pair_point

F7 = PrimeField(7)
FIELDS = (F7, QQ)


def _emit(cap, line):
    # capture is suspended so the checklist shows up under plain pytest
    if cap is not None:
        with cap.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


def _run(num, label, body, cap=None, budget=None):
    t0 = time.monotonic()
    try:
        detail = body()
    except BaseException as exc:
        _emit(cap, "criterion %2d: FAIL  %-28s %s" % (num, label, exc))
        raise
    dt = time.monotonic() - t0
    if budget is not None and dt >= budget:
        _emit(cap, "criterion %2d: FAIL  %-28s took %.1fs, budget %ds" % (num, label, dt, budget))
        raise AssertionError("%s exceeded %ds budget: %.1fs" % (label, budget, dt))
    _emit(cap, "criterion %2d: PASS  %-28s %s (%.1fs)" % (num, label, detail, dt))


def _all_cells():
    for cid in COROLLARY_IDS:
        for form in corollary_forms(cid):
            yield cid, form


def test_criterion_01_group_elements_preserve(capsys):
    def body():
        rng = random.Random(101)
        checked = 0
        for field in FIELDS:
            for cid in COROLLARY_IDS:
                forms = corollary_forms(cid)
                per_cell = 1000 // len(forms)
                for form in forms:
                    for _ in range(per_cell):
                        el = sample_group_element(cid, form, field, rng)
                        assert el.constraint_satisfied(form), (cid, form.descriptor())
                        verdict = preserves_form(el, form, rng=rng)
                        assert verdict.ok, (cid, form.descriptor(), field.descriptor)
                        checked += 1
        return "%d unit-character elements preserve their forms" % checked

    _run(1, "group elements preserve", body, cap=capsys, budget=120)


def test_criterion_02_character_law(capsys):
    def body():
        rng = random.Random(202)
        checked = 0
        for field in FIELDS:
            for cid, form in _all_cells():
                for _ in range(500):
                    el = sample_free_element(cid, form, field, rng)
                    measured = scales_form(el, form, rng)
                    assert measured == el.scaling_factor(form), (
                        cid,
                        form.descriptor(),
                        field.descriptor,
                    )
                    checked += 1
        return "%d unconstrained elements scale by the predicted factor" % checked

    _run(2, "character law", body, cap=capsys)


def test_criterion_03_cubic_oracle_census(capsys):
    def body():
        rep = run_case("cubic-oracles-f5")
        assert rep.ok
        assert rep.counts == {"disagreements": 0, "minimal": 24, "points": 625}
        return "three oracles agree on all 625 cubics, 24 minimal"

    _run(3, "oracle agreement census", body, cap=capsys, budget=10)


def test_criterion_04_rank_one_fixers(capsys):
    def body():
        rep = run_case("rk1fix-symm2-f3")
        assert rep.ok
        assert rep.counts == {"cone_points": 8, "line_fixers": 2, "maps_enumerated": 11232}
        assert rep.details["fixers"] == [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[2, 0, 0], [0, 2, 0], [0, 0, 2]],
        ]
        return "only scalars fix the rank-one cone among all 11232 maps"

    _run(4, "rank-one fixer census", body, cap=capsys, budget=30)


def test_criterion_05_star_identities(capsys):
    def body():
        pf4 = SkewPf(4)
        # the alternating-square star commutes with the Pfaffian, symbolically
        for field in FIELDS:
            ring = PolyRing(field, ["x%d" % i for i in range(6)])
            gens = ring.gens()
            star = hodge_star4_matrix(field)
            moved = [
                sum((ring.const(star.entry(i, j)) * gens[j] for j in range(6)), ring.zero)
                for i in range(6)
            ]
            assert (pf4.eval_entries(ring, moved) - pf4.eval_entries(ring, gens)).is_zero()
        # the hyperdeterminant is invariant under all six slot permutations
        hyp = Hyperdet()
        for field in FIELDS:
            for perm in PERMS3:
                el = factor_permutation(field, perm)
                assert preserves_form(el, hyp, policy="symbolic").ok, perm
        # Pf(X)^2 = det(X) at random points
        rng = random.Random(505)
        points = 0
        for n in (4, 6, 8):
            pf = SkewPf(n)
            for field in FIELDS:
                for _ in range(500):
                    v = rand_vector(pf.space, field, rng)
                    assert pf.evaluate(v) ** 2 == v.to_matrix().det()
                    points += 1
        return "star and squared-Pfaffian identities hold (%d points)" % points

    _run(5, "star identities", body, cap=capsys)


def test_criterion_06_wedge_pair_identity(capsys):
    def body():
        f = Wedge36()
        pf = SkewPf(4)
        alt4 = Space("alt", n=4)
        rng = random.Random(606)
        pairs = 0
        for field in FIELDS:
            for _ in range(500):
                x = rand_vector(alt4, field, rng)
                y = rand_vector(alt4, field, rng)
                v = wedge36_pair_point(x, y)
                pair = symplectic_pair(alt4, x, y)
                want = pair * pair - field.of(4) * pf.evaluate(x) * pf.evaluate(y)
                assert f.evaluate(v) == want
                pairs += 1
        return "pairing identity holds at %d decomposable-pair points" % pairs

    _run(6, "wedge pair identity", body, cap=capsys)


def test_criterion_07_hyperdet_flattening(capsys):
    def body():
        hyp = Hyperdet()
        rng = random.Random(707)
        tensors = 0
        for field in FIELDS:
            rect = Space("rect", m=2, n=4)
            pinned = Mat2n(
                4,
                s_entries=[
                    [0, 0, 0, 1],
                    [0, 0, -1, 0],
                    [0, -1, 0, 0],
                    [1, 0, 0, 0],
                ],
            )
            for _ in range(100):
                t = rand_vector(hyp.space, field, rng)
                flat = RepVector(rect, field, list(t.coords))
                assert pinned.evaluate(flat) == -hyp.evaluate(t)
                tensors += 1
        return "2x4 flattening recovers the hyperdeterminant on %d tensors" % tensors

    _run(7, "hyperdet flattening", body, cap=capsys)


def test_criterion_08_violators_caught(capsys):
    def body():
        rng = random.Random(808)
        caught = 0
        for field in FIELDS:
            for cid, form in _all_cells():
                for _ in range(100):
                    el = sample_violator(cid, form, field, rng)
                    assert not el.constraint_satisfied(form)
                    verdict = preserves_form(
                        el, form, policy="schwartz-zippel", rng=rng, trials=32
                    )
                    assert not verdict.ok, (cid, form.descriptor(), field.descriptor)
                    assert verdict.counterexample is not None
                    assert verdict.trials <= 32
                    caught += 1
        return "%d non-unit-character elements rejected within 32 points" % caught

    _run(8, "violators caught", body, cap=capsys)


def test_criterion_09_cubic_preserver_census(capsys):
    def body():
        rep = run_case("cubic-census-f5")
        assert rep.ok
        assert rep.counts == {
            "character_one_pairs": 960,
            "distinct_preserving_maps": 240,
            "mismatches": 0,
            "pairs_checked": 1920,
            "preserving_pairs": 960,
        }
        return "960 of 1920 unit-determinant pairs preserve, 240 distinct maps"

    _run(9, "cubic preserver census", body, cap=capsys, budget=60)


def test_criterion_10_minimals_preserved(capsys):
    def body():
        rng = random.Random(1010)
        checked = 0
        for field in FIELDS:
            for cid, form in _all_cells():
                for _ in range(5):
                    el = sample_free_element(cid, form, field, rng)
                    ok, cex = preserves_minimals(el, form, rng, samples=100)
                    assert ok, (cid, form.descriptor(), field.descriptor, cex)
                    checked += 100
            # rectangular matrices carry no invariant but still have a rank-one cone
            rect = Space("rect", m=2, n=4)
            for _ in range(5):
                el = Sandwich(
                    rect,
                    invertible_matrix(field, rng, 2),
                    invertible_matrix(field, rng, 4),
                )
                ok, cex = preserves_minimals(el, rect, rng, samples=100)
                assert ok, ("rect", field.descriptor, cex)
                checked += 100
        return "%d minimal vectors stay minimal under unconstrained elements" % checked

    _run(10, "minimal orbits preserved", body, cap=capsys)
