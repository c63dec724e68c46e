"""Exhaustive small-field censuses.

Three cases, each deterministic and exact:

- rk1fix-symm2-f3    every invertible map on symmetric 2x2 matrices over F_3;
                     the maps fixing every rank-one line are the two scalars
- cubic-oracles-f5   all 625 binary cubics over F_5; the three minimality
                     oracles must agree pointwise and count 24 minimal points
- cubic-census-f5    all 1920 substitution pairs (c, g) over F_5; the pairs
                     preserving the discriminant, an identity of degree 4
                     checked on its 35 simplex lattice points (exact, as
                     4 < p = 5), must be exactly the 960 with trivial
                     scaling character, giving 240 maps
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from itertools import product
from operator import mul

from .fields import PrimeField
from .forms import CubicDisc
from .linalg import Matrix, int_rank
from .minimality import minimal_by_radical, minimal_by_rank, minimal_by_rrs, structure_rule
from .multilinear import RepVector, Space
from .preservers import CubicSubstitution, preserves_form


class BruteForceError(RuntimeError):
    """Enumeration out of range or an internally inconsistent census."""


GL_ENUM_LIMIT = 10**9


def invertible_count(p: int, dim: int) -> int:
    """Order of the group of invertible dim x dim matrices over F_p."""
    total = 1
    q = p**dim
    for i in range(dim):
        total *= q - p**i
    return total


def enumerate_invertible(field, dim: int):
    """All invertible dim x dim matrices over a prime field, in row-major
    lexicographic order of the entry values; dependent prefixes are pruned."""
    p = field.modulus
    if p is None:
        raise BruteForceError("exhaustive enumeration needs a finite field")
    if p ** (dim * dim) > GL_ENUM_LIMIT:
        raise BruteForceError(
            "search space %d^%d exceeds the enumeration limit" % (p, dim * dim)
        )
    rows_pool = list(product(range(p), repeat=dim))

    def recurse(chosen):
        if len(chosen) == dim:
            yield Matrix._exact(field, chosen)
            return
        for vec in rows_pool:
            grown = chosen + [vec]
            if int_rank(list(grown), p) == len(grown):
                yield from recurse(grown)

    yield from recurse([])


@dataclass(frozen=True)
class CensusReport:
    case: str
    field: str
    counts: dict
    ok: bool
    details: dict = dc_field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {
            "case": self.case,
            "field": self.field,
            "counts": dict(sorted(self.counts.items())),
            "details": self.details,
            "ok": self.ok,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=2)


# rank-one line fixers on symmetric 2x2 matrices over F_3


def case_rank_one_fixers_f3() -> CensusReport:
    f3 = PrimeField(3, allow_small=True)
    # coordinates (a, b, c) for [[a, b], [b, c]]: the nonzero rank-one points
    cone = [v for v in product(range(3), repeat=3) if structure_rule(Space("symm", n=2), f3)(v)]
    fixers = []
    maps = 0
    for m in enumerate_invertible(f3, 3):
        maps += 1
        rows = m.ints()[0]
        # m fixes the line through v when v and m v have rank one; int_rank
        # takes entries strictly between -3 and 3, so m v is reduced first
        if all(int_rank([v, [sum(map(mul, row, v)) % 3 for row in rows]], 3) == 1 for v in cone):
            fixers.append([list(r) for r in rows])
    expected = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[2, 0, 0], [0, 2, 0], [0, 0, 2]],
    ]
    ok = maps == invertible_count(3, 3) and fixers == expected
    return CensusReport(
        case="rk1fix-symm2-f3",
        field="Fp:3",
        counts={
            "cone_points": len(cone),
            "line_fixers": len(fixers),
            "maps_enumerated": maps,
        },
        ok=ok,
        details={"fixers": fixers},
    )


# minimality oracle agreement on all binary cubics over F_5


def case_cubic_oracles_f5() -> CensusReport:
    f5 = PrimeField(5)
    form = CubicDisc()
    space = Space("cubic")
    minimal = 0
    disagreements = 0
    points = 0
    for coords in product(range(5), repeat=4):
        v = RepVector(space, f5, coords)
        points += 1
        a = minimal_by_rank(form, v).is_minimal
        b = minimal_by_rrs(form, v, policy="exact").is_minimal
        c = minimal_by_radical(form, v).is_minimal
        if not (a == b == c):
            disagreements += 1
        elif a:
            minimal += 1
    ok = points == 625 and disagreements == 0 and minimal == 24
    return CensusReport(
        case="cubic-oracles-f5",
        field="Fp:5",
        counts={"disagreements": disagreements, "minimal": minimal, "points": points},
        ok=ok,
    )


# discriminant preserver census over F_5


def case_cubic_census_f5() -> CensusReport:
    f5 = PrimeField(5)
    form = CubicDisc()
    total_g = invertible_count(5, 2)
    checked = 0
    preserving = 0
    character_one = 0
    mismatches = 0
    maps = set()
    for g in enumerate_invertible(f5, 2):
        for c in range(1, 5):
            checked += 1
            el = CubicSubstitution(f5.of(c), g)
            keeps = preserves_form(el, form, "symbolic").ok
            chi_one = el.constraint_satisfied(form)
            if chi_one:
                character_one += 1
            if keeps:
                preserving += 1
                maps.add(el.matrix_on_space())
            if keeps != chi_one:
                mismatches += 1
    ok = (
        checked == 4 * total_g
        and mismatches == 0
        and preserving == character_one == 960
        and len(maps) == 240
    )
    return CensusReport(
        case="cubic-census-f5",
        field="Fp:5",
        counts={
            "character_one_pairs": character_one,
            "distinct_preserving_maps": len(maps),
            "mismatches": mismatches,
            "pairs_checked": checked,
            "preserving_pairs": preserving,
        },
        ok=ok,
    )


CASES = {
    "rk1fix-symm2-f3": case_rank_one_fixers_f3,
    "cubic-oracles-f5": case_cubic_oracles_f5,
    "cubic-census-f5": case_cubic_census_f5,
}


def run_case(name: str) -> CensusReport:
    return CASES[name]()
