"""Reference implementations that only the tests use.

Each is an independent check on the package: the determinant and the
Pfaffian by their own memoized recursions over any commutative ring
(field elements or polynomials), the Pfaffian's polar pairing, the
symplectic contraction and the duality stars as field matrices, a point of
wedge^3 k^6 built from two alternating 4x4 matrices, a map given by an
arbitrary coordinate matrix, uniform field vectors, and the rational and
dense matrix samplers as list-row loops drawing through rng.randrange and
rng.choice.
"""

from __future__ import annotations

from math import comb

from linpres.forms import FormError
from linpres.linalg import LinAlgError, Matrix, ratio
from linpres.multilinear import RepVector, Space, SpaceError, _alt_pairs, complement_star_table, subset_index
from linpres.preservers import (
    PreserverElement,
    PreserverError,
    TriplePush,
    _STAR4,
    _action,
    _param_json,
)
from linpres.sampling import uniform_ints


def det_expansion(ring, rows):
    """Division-free determinant by memoized minor expansion (any commutative ring)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise LinAlgError("determinant of a non-square matrix")
    if n == 0:
        return ring.one
    cache: dict = {}

    def minor(cols):
        if cols in cache:
            return cache[cols]
        r = n - len(cols)
        if len(cols) == 1:
            val = rows[r][cols[0]]
        else:
            val = None
            for idx, c in enumerate(cols):
                rest = cols[:idx] + cols[idx + 1 :]
                term = rows[r][c] * minor(rest)
                if idx % 2:
                    term = -term
                val = term if val is None else val + term
        cache[cols] = val
        return val

    return minor(tuple(range(n)))


def pfaffian(ring, rows):
    """Pfaffian of an alternating matrix by recursive expansion.

    Division-free; works for field and polynomial entries.  Normalization:
    the standard block-diagonal pairing matrix has Pfaffian +1.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise LinAlgError("Pfaffian of a non-square matrix")
    if n % 2:
        raise LinAlgError("Pfaffian needs even dimension")
    z = ring.zero
    for i in range(n):
        if rows[i][i] != z:
            raise LinAlgError("nonzero diagonal in alternating matrix")
        for j in range(i + 1, n):
            if rows[i][j] != -rows[j][i]:
                raise LinAlgError("matrix is not alternating")
    if n == 0:
        return ring.one
    cache: dict = {}

    def pf(idx):
        if len(idx) == 0:
            return ring.one
        if idx in cache:
            return cache[idx]
        s0 = idx[0]
        val = None
        for k in range(1, len(idx)):
            rest = idx[1:k] + idx[k + 1 :]
            term = rows[s0][idx[k]] * pf(rest)
            if k % 2 == 0:
                term = -term
            val = term if val is None else val + term
        cache[idx] = val
        return val

    return pf(tuple(range(n)))


def symplectic_pair(space: Space, x: RepVector, y: RepVector):
    """The invariant pairing on alternating 4x4 matrices, the polar form of
    the Pfaffian: the coefficient of t in Pf(x + t y),
    x1 y6 + x6 y1 - x2 y5 - x5 y2 + x3 y4 + x4 y3."""
    if space != Space("alt", n=4):
        raise SpaceError("no pairing registered for %r" % space)
    if x.space != space or y.space != space:
        raise SpaceError("vectors outside the pairing's space")
    a, b = x.coords, y.coords
    return a[0] * b[5] + a[5] * b[0] - a[1] * b[4] - a[4] * b[1] + a[2] * b[3] + a[3] * b[2]


def wedge_complement_star_matrix(field, n: int, d: int) -> Matrix:
    """Duality star on wedge(d, n): e_A -> sign(A, complement) * e_complement."""
    rows = [[field.zero] * comb(n, d) for _ in range(comb(n, n - d))]
    for a, (c, s) in enumerate(complement_star_table(n, d)):
        rows[c][a] = field.of(s)
    return Matrix(field, rows)


def sp6_contract(v: RepVector, b: Matrix) -> list:
    """Contraction of a 3-vector on k^6 by a nondegenerate skew form b."""
    space = v.space
    if space != Space("wedge", d=3, n=6):
        raise SpaceError("contraction defined on wedge(3, 6)")
    field = v.field
    if b.nrows != 6 or b.ncols != 6:
        raise SpaceError("b must be 6x6")
    if b.transpose() != -b:
        raise SpaceError("b must be skew")
    if b.rank() != 6:
        raise SpaceError("b must be nondegenerate")
    _, subs = subset_index(6, 3)
    out = [field.zero] * 6
    for a, (i, j, k) in enumerate(subs):
        va = v.coords[a]
        if va == field.zero:
            continue
        out[k] = out[k] + b.entry(i, j) * va
        out[j] = out[j] - b.entry(i, k) * va
        out[i] = out[i] + b.entry(j, k) * va
    return out


def wedge36_pair_point(x: RepVector, y: RepVector) -> RepVector:
    """e_1 wedge x + e_2 wedge y in wedge^3 of k^6, for x, y alternating 4x4
    on the last four basis vectors.  The wedge36 quartic takes the value
    <x, y>^2 - 4 Pf(x) Pf(y) on such points."""
    alt4 = Space("alt", n=4)
    if x.space != alt4 or y.space != alt4 or x.field != y.field:
        raise FormError("expected two alternating 4x4 vectors over one field")
    field = x.field
    idx3, _ = subset_index(6, 3)
    coords = [field.zero] * 20
    for k, (i, j) in enumerate(_alt_pairs(4)):
        coords[idx3[(0, i + 2, j + 2)]] = x.coords[k]
        coords[idx3[(1, i + 2, j + 2)]] = y.coords[k]
    return RepVector._raw(Space("wedge", d=3, n=6), field, coords)


def hodge_star4_matrix(field) -> Matrix:
    """Pfaffian-fixing involution on alternating 4x4 coordinates:
    (x1..x6) -> (x1, -x2, -x4, -x3, -x5, x6)."""
    rows = [[field.zero] * 6 for _ in range(6)]
    for i, (j, s) in enumerate(_STAR4):
        rows[i][j] = field.of(s)
    return Matrix(field, rows)


def factor_permutation(field, perm) -> TriplePush:
    """Pure factor permutation of a 2x2x2 tensor."""
    i2 = Matrix.identity(field, 2)
    return TriplePush(i2, i2, i2, perm=perm)


class GenericMap(PreserverElement):
    """An arbitrary linear coordinate map; no closed scaling character.  The
    one family whose action comes from its matrix."""

    family = "generic"

    def __init__(self, space: Space, field, matrix: Matrix):
        if matrix.ring != field:
            raise PreserverError("matrix must be over %s" % field.descriptor)
        if (matrix.nrows, matrix.ncols) != (space.dim, space.dim):
            raise PreserverError("matrix does not match the space dimension")
        super().__init__(space, field)
        self._matrix = matrix

    def _build_action(self):
        rows, den = self._matrix.ints()
        return _action(self.field, rows, self.field.one, den)

    def params_json(self):
        return {"matrix": _param_json(self.field, self._matrix)}


def rand_vector(space: Space, field, rng, bound=9, nonzero=False) -> RepVector:
    while True:
        v = RepVector(space, field, [field.sample(rng, bound) for _ in range(space.dim)])
        if not nonzero or not v.is_zero():
            return v


def unimodular_matrix(field, rng, n: int) -> Matrix:
    """Product of 3n elementary transvections, one list row updated per step;
    determinant exactly one."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return Matrix._exact(field, rows, det=field.one)


def times_column(field, m: Matrix, j: int, c) -> Matrix:
    """m with column j times the field element c; its determinant is c det(m)."""
    a, b = ratio(field, c)
    rows, den = m.ints()
    return Matrix._exact(field, [[x * a if k == j else x * b for k, x in enumerate(r)] for r in rows],
                         den * b, c * m.det())


def invertible_matrix(field, rng, n: int) -> Matrix:
    """Dense residues over a prime field, canonicalized and tested by Matrix.det;
    over the rationals a transvection word with a column negated half the time."""
    if field.modulus is not None:
        while True:
            entries = uniform_ints(rng, 0, field.modulus, n * n)
            m = Matrix._exact(field, [entries[i : i + n] for i in range(0, n * n, n)])
            if m.det() != field.zero:
                return m
    m = unimodular_matrix(field, rng, n)
    if rng.randrange(2):
        m = times_column(field, m, rng.randrange(n), -field.one)
    return m


def forced_det_matrix(field, rng, n: int, target) -> Matrix:
    """invertible_matrix with one column scaled to make the determinant target."""
    m = invertible_matrix(field, rng, n)
    return times_column(field, m, rng.randrange(n), target / m.det())
