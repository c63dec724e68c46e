"""Exact dense linear algebra over the scalar fields.

A field value is read as an integer form (X, D), and four functions here
define that encoding: `clear_denominators` (field values to the form),
`canonical` (integers over a denominator to the form), `scaled` (the form
back to field values) and `ratio` (a scalar as integers a / b).  Over F_p,
X holds residues in [0, p) and D = 1; over Q, X holds numerators over their
least common denominator D > 0.  A `Matrix` holds only its integer form;
its entries are a view of it.

Over a field, determinant, rank, inverse and kernel all read one row
reduction (`_reduce`) of the integer form: residues mod p over F_p,
fraction-free Bareiss elimination over the rationals (every division exact,
no coefficient swell).  Determinants and Pfaffians of polynomial entries
are the forms' expansions (forms.SymmDet, SquareDet, SkewPf).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class LinAlgError(ValueError):
    """Shape mismatch, singular input, or unsupported element domain."""


class Matrix:
    """Immutable dense matrix over a field, held as its integer form (X, D)
    (`canonical`): the entries are X / D, built on first read.  The
    determinant is computed at most once, and not at all where the caller
    passes its exact value."""

    __slots__ = ("ring", "_ints", "_det", "_rows")

    def __init__(self, ring, rows):
        rows = tuple(map(tuple, rows))
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise LinAlgError("ragged rows")
        ints, den = clear_denominators(ring, rows)
        self._hold(ring, (tuple(map(tuple, ints)), den), None, rows)

    def _hold(self, ring, ints, det, rows=None):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_ints", ints)
        object.__setattr__(self, "_det", det)
        object.__setattr__(self, "_rows", rows)
        return self

    def __setattr__(self, name, val):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, ring, n):
        z, o = ring.zero, ring.one
        return cls(ring, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def from_ints(cls, ring, rows):
        return cls(ring, [[ring.of(x) for x in r] for r in rows])

    @classmethod
    def _exact(cls, ring, ints, den=1, det=None):
        """The matrix ints / den over a field for integer rows ints, with its
        determinant set when given."""
        return object.__new__(cls)._hold(ring, canonical(ring, ints, den), det)

    @property
    def rows(self):
        """The entries, as row tuples; built on first read from the integer form."""
        if self._rows is None:
            ints, den = self._ints
            object.__setattr__(self, "_rows", tuple([tuple(scaled(self.ring, self.ring.one, den, r)) for r in ints]))
        return self._rows

    def ints(self):
        """The integer form (X, D), X a tuple of row tuples: clear_denominators
        of the entries."""
        return self._ints

    @property
    def nrows(self):
        return len(self._ints[0])

    @property
    def ncols(self):
        ints = self._ints[0]
        return len(ints[0]) if ints else 0

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
        """The transpose, keeping a known determinant; the integer form of a
        matrix is canonical, and so is its transpose."""
        ints, den = self._ints
        return object.__new__(Matrix)._hold(self.ring, (tuple(zip(*ints)), den), self._det)

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
            ints, den = self._ints
            (d,) = scaled(self.ring, self.ring.one, den**self.nrows, [_reduce(list(ints), self.ring.modulus)[2]])
            object.__setattr__(self, "_det", d)
        return self._det

    def rank(self):
        return int_rank(list(self._ints[0]), self.ring.modulus)

    def inv(self):
        """A^-1 from the reduced echelon form [pv I | R] of the integer rows
        [D A | D I]: every pivot entry is the last pivot pv (1 over F_p), and
        A^-1 = R / pv."""
        if not self.is_square:
            raise LinAlgError("inverse of a non-square matrix")
        ring, n = self.ring, self.nrows
        ints, den = self._ints
        aug = [list(r) + [den * (i == j) for j in range(n)] for i, r in enumerate(ints)]
        red, pivots, _ = _reduce(aug, ring.modulus, n, clear_above=True)
        if len(pivots) < n:
            raise LinAlgError("singular matrix")
        return Matrix._exact(ring, [row[n:] for row in red], red[n - 1][n - 1] if n else 1)

    def kernel(self):
        """Basis of the right null space {v : self @ v = 0}: for each free
        column j, x / pv with x[j] = pv and x[c] = -row[j] for each reduced
        row and its pivot column c; every pivot entry is the last pivot pv
        (1 over F_p)."""
        ring, n = self.ring, self.ncols
        red, pivots, _ = _reduce(list(self._ints[0]), ring.modulus, clear_above=True)
        pv = red[len(pivots) - 1][pivots[-1]] if pivots else 1
        basis = []
        for j in range(n):
            if j not in pivots:
                x = [0] * n
                x[j] = pv
                for row, pc in zip(red, pivots):
                    x[pc] = -row[j]
                basis.append(scaled(ring, ring.one, pv, x))
        return basis

    def __eq__(self, other):
        return isinstance(other, Matrix) and other.ring == self.ring and other._ints == self._ints

    def __hash__(self):
        return hash((self.ring, self._ints))

    def __repr__(self):
        return "Matrix(%r)" % (list(list(r) for r in self.rows),)


def clear_denominators(field, rows):
    """(integer rows, D) with rows == integer rows / D, D the least common
    denominator.  Over F_p the integer rows are the raw residues and D = 1."""
    if field.modulus is not None:
        return [[x.value for x in row] for row in rows], 1
    rows = [list(row) for row in rows]
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def scaled(field, s, den, ints):
    """The field elements (s / den) x for the integers x and a field element
    s: the inverse of clear_denominators (den = 1 over F_p)."""
    if field.modulus is not None:
        sv = s.value
        return [field.of(sv * x) for x in ints]
    num, den = s.numerator, s.denominator * den
    return [Fraction(num * x, den) for x in ints]


def canonical(field, rows, den=1):
    """The integer form (X, D) of the field values rows / den for integer
    rows, X a tuple of row tuples: clear_denominators of those values.  Over
    F_p (den prime to p), X holds residues in [0, p) and D = 1; over Q,
    D > 0 and gcd(D, X) = 1."""
    p = field.modulus
    if p is not None:
        if den != 1:
            k = pow(den, -1, p)
            rows = [[x * k for x in r] for r in rows]
        return tuple([tuple([x % p for x in r]) for r in rows]), 1
    if den == 1:
        return tuple(map(tuple, rows)), 1
    g = gcd(den, *[x for r in rows for x in r])
    if den < 0:
        g = -g
    return tuple([tuple([x // g for x in r]) for r in rows]), den // g


def ratio(field, c):
    """Integers (a, b) with c = a / b: over Q in lowest terms with b > 0, over
    F_p the residue a and b = 1."""
    return (c.value, 1) if field.modulus is not None else (c.numerator, c.denominator)


def int_rank(m, p):
    """Rank of the integer rows m over F_p or Q (p None), reducing m in place."""
    return len(_reduce(m, p)[1])


def _reduce(m, p, width=None, clear_above=False):
    """The one row reduction behind det, rank, inv and kernel.

    Reduces the integer rows m in place (it rebinds rows of m, never writes
    into one), as clear_denominators returns them:
    residues over F_p (integers strictly between -p and p also do), integers
    over Q (p None).  Pivots are taken in the first width columns (all by
    default), and each pivot column is cleared below the pivot, and above it
    too when clear_above is set.  Over F_p the entries stay residues mod p,
    and each pivot row is scaled to 1 when clear_above is set.  Over Q it is
    fraction-free (Bareiss 1968): with pivot
    pv, row i becomes (pv row_i - row_i[col] pivot_row) divided by the
    previous pivot, a division that is always exact; with clear_above every
    pivot entry ends equal to the last pivot.  Either way, row r divided by
    its pivot entry is row r of the reduced echelon form of m.

    Returns (m, pivot columns, det), where det is the determinant of m (mod p
    over F_p) when m is square and width is its size, and 0 otherwise.
    """
    nr = len(m)
    if width is None:
        width = len(m[0]) if m else 0
    pivots = []
    sign, acc = 1, 1  # acc: the last pivot over Q, the product of the pivots over F_p
    for col in range(width):
        r = len(pivots)
        if r == nr:
            break
        for piv in range(r, nr):
            if m[piv][col]:
                break
        else:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        top = m[r]
        pv = top[col]
        others = range(nr) if clear_above else range(r + 1, nr)
        if p is None:
            for i in others:
                if i != r:
                    c = m[i][col]
                    m[i] = [(pv * a - c * b) // acc for a, b in zip(m[i], top)]
            acc = pv
        else:
            acc = acc * pv % p
            inv = pow(pv, p - 2, p)
            if clear_above:
                top = m[r] = [a * inv % p for a in top]
                inv = 1
            for i in others:
                c = m[i][col]
                if c and i != r:
                    f = c * inv % p
                    m[i] = [(a - f * b) % p for a, b in zip(m[i], top)]
        pivots.append(col)
    if len(pivots) < nr or width != nr:
        return m, pivots, 0
    return m, pivots, sign * acc
