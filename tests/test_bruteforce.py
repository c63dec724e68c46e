"""Exhaustive census cases: exact counts, ordering, and guards."""

import json
import time
from operator import mul

import pytest

from linpres.bruteforce import (
    BruteForceError,
    CASES,
    CensusReport,
    case_cubic_census_f5,
    case_cubic_oracles_f5,
    case_rank_one_fixers_f3,
    enumerate_invertible,
    invertible_count,
    run_case,
)
from linpres.fields import QQ, PrimeField
from linpres.forms import CubicDisc
from linpres.linalg import Matrix
from linpres.preservers import CubicSubstitution, preserves_form

F3 = PrimeField(3, allow_small=True)
F5 = PrimeField(5)


def test_invertible_count_formula():
    assert invertible_count(3, 3) == 11232
    assert invertible_count(5, 2) == 480
    assert invertible_count(7, 1) == 6


def test_enumeration_is_complete_and_lex_ordered():
    seen = []
    for m in enumerate_invertible(F5, 2):
        assert m.det() != F5.zero
        seen.append(tuple(x.value for row in m.rows for x in row))
    assert len(seen) == 480
    assert len(set(seen)) == 480
    assert seen == sorted(seen)
    assert seen[0] == (0, 1, 1, 0)  # smallest invertible in lex order


def test_enumeration_guards():
    with pytest.raises(BruteForceError):
        list(enumerate_invertible(QQ, 2))
    with pytest.raises(BruteForceError):
        next(iter(enumerate_invertible(PrimeField(31), 4)))  # 31^16 too large


def test_rank_one_fixers_census():
    start = time.monotonic()
    rep = case_rank_one_fixers_f3()
    elapsed = time.monotonic() - start
    assert rep.ok
    assert rep.counts == {"cone_points": 8, "line_fixers": 2, "maps_enumerated": 11232}
    assert rep.details["fixers"] == [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[2, 0, 0], [0, 2, 0], [0, 0, 2]],
    ]
    assert elapsed < 30.0


def test_cubic_oracle_census():
    start = time.monotonic()
    rep = case_cubic_oracles_f5()
    elapsed = time.monotonic() - start
    assert rep.ok
    assert rep.counts == {"disagreements": 0, "minimal": 24, "points": 625}
    assert elapsed < 10.0


def test_cubic_preserver_census():
    start = time.monotonic()
    rep = case_cubic_census_f5()
    elapsed = time.monotonic() - start
    assert rep.ok
    assert rep.counts == {
        "character_one_pairs": 960,
        "distinct_preserving_maps": 240,
        "mismatches": 0,
        "pairs_checked": 1920,
        "preserving_pairs": 960,
    }
    assert elapsed < 60.0


def test_cubic_census_lattice_matches_every_point():
    # p = 5 is deg + 1, the edge of the lattice theorem: compare with f(T x) == f(x) at all 625 points
    form = CubicDisc()
    disc = form.int_evaluator(F5)
    pts = [[code // 5**k % 5 for k in (3, 2, 1, 0)] for code in range(625)]
    vals = {tuple(x): disc(x) for x in pts}
    pairs = 0
    for g in enumerate_invertible(F5, 2):
        for c in range(1, 5):
            el = CubicSubstitution(F5.of(c), g)
            rows, s = el.action()
            pointwise = all(vals[tuple(s.value * sum(map(mul, row, x)) % 5 for row in rows)] == vals[tuple(x)]
                            for x in pts)
            assert preserves_form(el, form, "symbolic").ok == pointwise, (c, g)
            pairs += 1
    assert pairs == 1920


def test_report_json_shape():
    rep = CensusReport(case="x", field="Fp:5", counts={"b": 2, "a": 1}, ok=True)
    obj = json.loads(rep.to_json())
    assert list(obj["counts"]) == ["a", "b"]
    assert obj["ok"] is True


def test_run_case_dispatch():
    assert set(CASES) == {"rk1fix-symm2-f3", "cubic-oracles-f5", "cubic-census-f5"}
    with pytest.raises(KeyError):
        run_case("nope")
