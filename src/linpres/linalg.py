"""Exact dense linear algebra over scalar fields and polynomial rings.

Field algorithms: fraction-free Bareiss elimination over the rationals for
determinant and rank (controls coefficient swell), plain elimination over
prime fields, Gauss-Jordan for inverse/solve/kernel.  Ring algorithms
(polynomial entries) are division-free: memoized minor expansion for the
determinant and the recursive Pfaffian expansion.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .fields import FieldError, Residue


class LinAlgError(ValueError):
    """Shape mismatch, singular input, or unsupported element domain."""


class Matrix:
    """Immutable dense matrix; ring is a field or PolyRing.  The determinant
    is computed at most once per matrix."""

    __slots__ = ("ring", "rows", "_det")

    def __init__(self, ring, rows):
        rows = tuple(tuple(r) for r in rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise LinAlgError("ragged rows")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_det", None)

    def __setattr__(self, name, val):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, ring, n):
        z, o = ring.zero, ring.one
        return cls(ring, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, ring, m, n):
        z = ring.zero
        return cls(ring, [[z] * n for _ in range(m)])

    @classmethod
    def from_ints(cls, ring, rows):
        return cls(ring, [[ring.of(x) for x in r] for r in rows])

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    @property
    def is_square(self):
        return self.nrows == self.ncols

    def entry(self, i, j):
        return self.rows[i][j]

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_shape(other, same=True)
        return Matrix(
            self.ring,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_shape(other, same=True)
        return Matrix(
            self.ring,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __neg__(self):
        return Matrix(self.ring, [[-a for a in r] for r in self.rows])

    def _check_shape(self, other, same=False):
        if same:
            if (self.nrows, self.ncols) != (other.nrows, other.ncols):
                raise LinAlgError("shape mismatch")
        elif self.ncols != other.nrows:
            raise LinAlgError("inner dimension mismatch")

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_shape(other)
        cols = list(zip(*other.rows)) if other.rows else []
        out = []
        for r in self.rows:
            row = []
            for c in cols:
                acc = self.ring.zero
                for a, b in zip(r, c):
                    acc = acc + a * b
                row.append(acc)
            out.append(row)
        return Matrix(self.ring, out)

    def scale(self, c):
        return Matrix(self.ring, [[c * a for a in r] for r in self.rows])

    def transpose(self):
        return Matrix(self.ring, list(zip(*self.rows)) if self.rows else [])

    def apply(self, vec):
        """Matrix-vector product; vec entries may live in a larger ring."""
        if len(vec) != self.ncols:
            raise LinAlgError("vector length mismatch")
        out = []
        for r in self.rows:
            acc = None
            for a, v in zip(r, vec):
                term = a * v
                acc = term if acc is None else acc + term
            out.append(acc)
        return out

    def det(self):
        if self._det is None:
            if not self.is_square:
                raise LinAlgError("determinant of a non-square matrix")
            if self.nrows == 0:
                d = self.ring.one
            elif getattr(self.ring, "is_field", False):
                d = _det_field(self.ring, self.rows)
            else:
                d = det_expansion(self.ring, self.rows)
            object.__setattr__(self, "_det", d)
        return self._det

    def rank(self):
        return _rank_field(self.ring, self.rows)

    def inv(self):
        if not self.is_square:
            raise LinAlgError("inverse of a non-square matrix")
        n = self.nrows
        aug = [list(r) + [self.ring.one if i == j else self.ring.zero for j in range(n)]
               for i, r in enumerate(self.rows)]
        red = _gauss_jordan(self.ring, aug, n)
        if red is None:
            raise LinAlgError("singular matrix")
        return Matrix(self.ring, [r[n:] for r in red])

    def solve(self, b):
        """Solve self @ x = b for square nonsingular self."""
        if not self.is_square:
            raise LinAlgError("solve needs a square matrix")
        n = self.nrows
        if len(b) != n:
            raise LinAlgError("vector length mismatch")
        aug = [list(r) + [bv] for r, bv in zip(self.rows, b)]
        red = _gauss_jordan(self.ring, aug, n)
        if red is None:
            raise LinAlgError("singular matrix")
        return [r[n] for r in red]

    def kernel(self):
        """Basis of the right null space {v : self @ v = 0}."""
        ring = self.ring
        m, n = self.nrows, self.ncols
        rows = [list(r) for r in self.rows]
        pivots = []
        rank = 0
        for col in range(n):
            piv = None
            for i in range(rank, m):
                if rows[i][col] != ring.zero:
                    piv = i
                    break
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            inv = ring.inv(rows[rank][col])
            rows[rank] = [inv * x for x in rows[rank]]
            for i in range(m):
                if i != rank and rows[i][col] != ring.zero:
                    c = rows[i][col]
                    rows[i] = [x - c * y for x, y in zip(rows[i], rows[rank])]
            pivots.append(col)
            rank += 1
            if rank == m:
                break
        free = [j for j in range(n) if j not in pivots]
        basis = []
        for j in free:
            v = [ring.zero] * n
            v[j] = ring.one
            for r, pc in enumerate(pivots):
                v[pc] = -rows[r][j]
            basis.append(v)
        return basis

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.ring == self.ring
            and other.rows == self.rows
        )

    def __hash__(self):
        return hash((self.ring, self.rows))

    def __repr__(self):
        return "Matrix(%r)" % (list(list(r) for r in self.rows),)


def _gauss_jordan(ring, aug, n):
    """Reduce [A | B] with A n-by-n to [I | A^-1 B]; None if A is singular."""
    for col in range(n):
        piv = None
        for i in range(col, n):
            if aug[i][col] != ring.zero:
                piv = i
                break
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = ring.inv(aug[col][col])
        aug[col] = [inv * x for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != ring.zero:
                c = aug[i][col]
                aug[i] = [x - c * y for x, y in zip(aug[i], aug[col])]
    return aug


def clear_denominators(field, rows):
    """(integer rows, D) with rows == integer rows / D, D the least common
    denominator.  Over F_p the integer rows are the raw residues and D = 1."""
    if field.modulus is not None:
        return [[x.value for x in row] for row in rows], 1
    rows = [list(row) for row in rows]
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def _bareiss(rows):
    """Fraction-free elimination on integer rows; returns (det, rank, sign-adjusted)."""
    m = [list(r) for r in rows]
    nr, nc = len(m), len(m[0]) if m else 0
    prev = 1
    sign = 1
    rank = 0
    for col in range(nc):
        if rank == nr:
            break
        piv = None
        for i in range(rank, nr):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        pv = m[rank][col]
        for i in range(rank + 1, nr):
            for j in range(col + 1, nc):
                m[i][j] = (pv * m[i][j] - m[i][col] * m[rank][j]) // prev
            m[i][col] = 0
        prev = pv
        rank += 1
    det = sign * prev if rank == nr and nr == nc else 0
    return det, rank


def _det_field(ring, rows):
    n = len(rows)
    if ring.modulus is None:
        int_rows, den = clear_denominators(ring, rows)
        return Fraction(_bareiss(int_rows)[0], den**n)
    p = ring.modulus
    m = [[x.value for x in r] for r in rows]
    detv = 1
    for col in range(n):
        piv = None
        for i in range(col, n):
            if m[i][col] % p:
                piv = i
                break
        if piv is None:
            return ring.zero
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            detv = -detv
        pv = m[col][col]
        detv = detv * pv % p
        inv = pow(pv, p - 2, p)
        for i in range(col + 1, n):
            if m[i][col]:
                f = m[i][col] * inv % p
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[col])]
    return Residue(detv, p)


def _rank_field(ring, rows):
    if not rows:
        return 0
    if ring.modulus is None:
        return _bareiss(clear_denominators(ring, rows)[0])[1]
    p = ring.modulus
    m = [[x.value for x in r] for r in rows]
    nr, nc = len(m), len(m[0])
    rank = 0
    for col in range(nc):
        if rank == nr:
            break
        piv = None
        for i in range(rank, nr):
            if m[i][col] % p:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        for i in range(rank + 1, nr):
            if m[i][col]:
                f = m[i][col] * inv % p
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


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
            rest = tuple(x for x in idx[1:] if x != idx[k])
            term = rows[s0][idx[k]] * pf(rest)
            if k % 2 == 0:
                term = -term
            val = term if val is None else val + term
        cache[idx] = val
        return val

    return pf(tuple(range(n)))
