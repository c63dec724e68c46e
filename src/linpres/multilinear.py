"""Representation spaces, their vectors, and multilinear scaffolding.

Spaces: symmetric/alternating/square/rectangular matrices, plain vectors,
wedge powers, binary cubic forms, 2x2x2 tensors.  One table (_KINDS) gives
each kind's parameter names, its dimension, its matrix shape (Space.shape:
(n, n), (m, n), or None for a kind that is not a matrix) and, for symmetric
and alternating matrices, the (i, j) entry of each coordinate (Space.pairs).
Vectors are stored as flat coordinate tuples in a canonical basis per space:

- symm(n): upper-triangle entries (i <= j), lexicographic;
- alt(n): above-diagonal entries (i < j), lexicographic;
- square(n)/rect(m,n): row-major entries;
- wedge(d,n): coordinates on sorted d-subsets in colexicographic order;
- cubic: (a0, a1, a2, a3) for a0*x^3 + a1*x^2*y + a2*x*y^2 + a3*y^3;
- tritensor: 2x2x2 entries, index (i,j,k) -> 4i + 2j + k.

A vector holds only its integer form (RepVector.ints, as linalg.canonical
returns it); its coordinates are a view of it, built on first read.  Every
colex wedge product runs through one compiled integer step r ^ w
(_wedge_step), behind wedge_ints and exterior_power_ints.

Also here: degree-4 polarization and the Gram of the bilinear form b_x,
both read off the form's integer formula on cleared integer coordinates
(InvariantForm.int_evaluator, line_coefficients), wedge products, and the
complement star's table.
"""

from __future__ import annotations

import json
from functools import cache
from itertools import combinations
from math import comb

from .fields import FieldError
from .linalg import Matrix, canonical, clear_denominators, ratio, scaled


class SpaceError(ValueError):
    """Unknown space kind, bad parameters, or a vector outside the space."""


def _straight_line(dim, assignments, result):
    """Compile vals -> result over the locals v0 .. v{dim-1}, after the
    (name, expression) assignments.  Straight-line code from a fixed term
    plan runs several times faster than a loop over the same plan.  fn keeps
    its source (dim, the assignment lines, result) as fn.source, for
    forms.simplex_lattice to inline; a name starting with "_" is refused."""
    if any(name.startswith("_") for name, _ in assignments):
        raise ValueError("straight-line names may not start with an underscore")
    body = ["%s = %s" % a for a in assignments]
    lines = ["def fn(vals):", "    %s, = vals" % ", ".join("v%d" % i for i in range(dim))]
    lines += ["    " + line for line in body] + ["    return " + result]
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    namespace["fn"].source = (dim, "\n".join(body), result)
    return namespace["fn"]


def _signed_sum(terms):
    """Source text of sum(coeff * prod(v_i for i in idxs)) over integer terms,
    with no leading unary plus (polynomials have none)."""
    parts = []
    for coeff, idxs in terms:
        mono = "*".join("v%d" % i for i in idxs)
        mag = abs(coeff)
        parts.append("%s %s" % ("-" if coeff < 0 else "+", mono if mag == 1 else "%d*%s" % (mag, mono)))
    return " ".join(parts).lstrip("+ ") or "0"


def _alt_pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _square(n):
    if n < 2:
        raise SpaceError("matrix spaces need n >= 2")
    return n, n


# kind -> (parameter names, those parameters -> (dimension, matrix shape or
# None for a kind that is not a matrix, the (i, j) entry of each coordinate
# of a symmetric or alternating matrix or None))
_KINDS = {
    "symm": (("n",), lambda n: (n * (n + 1) // 2, _square(n), [(i, j) for i in range(n) for j in range(i, n)])),
    "alt": (("n",), lambda n: (n * (n - 1) // 2, _square(n), _alt_pairs(n))),
    "square": (("n",), lambda n: (n * n, _square(n), None)),
    "rect": (("m", "n"), lambda m, n: (m * n, (m, n), None)),
    "vector": (("n",), lambda n: (n, None, None)),
    "wedge": (("d", "n"), lambda d, n: (comb(n, d), None, None)),
    "cubic": ((), lambda: (4, None, None)),
    "tritensor": ((), lambda: (8, None, None)),
}


class Space:
    """Immutable representation-space descriptor: a kind of _KINDS, its
    parameters, and the dimension, matrix shape ((n, n), (m, n) or None) and
    coordinate pairs (the (i, j) entry of each coordinate of a symmetric or
    alternating matrix, None for other kinds) they give."""

    __slots__ = ("kind", "params", "dim", "shape", "pairs")

    def __init__(self, kind: str, **params):
        if kind not in _KINDS:
            raise SpaceError("unknown space kind %r" % kind)
        need, size = _KINDS[kind]
        if set(params) != set(need):
            raise SpaceError("space %r needs params %r" % (kind, need))
        for k, v in params.items():
            if not isinstance(v, int) or v < 1:
                raise SpaceError("space parameter %s must be a positive integer" % k)
        if kind == "wedge" and not 1 <= params["d"] <= params["n"]:
            raise SpaceError("wedge degree out of range")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", dict(params))
        for name, value in zip(("dim", "shape", "pairs"), size(**params)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, val):
        raise AttributeError("Space is immutable")

    def _key(self):
        return (self.kind, tuple(sorted(self.params.items())))

    def __eq__(self, other):
        return isinstance(other, Space) and other._key() == self._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        inner = ", ".join("%s=%d" % kv for kv in sorted(self.params.items()))
        return "Space(%r%s)" % (self.kind, ", " + inner if inner else "")


def subsets_colex(n: int, d: int):
    """All sorted d-subsets of {0..n-1} in colexicographic order."""
    return sorted(combinations(range(n), d), key=lambda t: tuple(reversed(t)))


@cache
def subset_index(n: int, d: int):
    """Map sorted d-subset -> coordinate index, plus the ordered subset list."""
    subs = subsets_colex(n, d)
    return {s: i for i, s in enumerate(subs)}, subs


def merge_sign(a, b) -> int:
    """Sign of sorting the concatenation of two disjoint sorted tuples; 0 if not disjoint."""
    if set(a) & set(b):
        return 0
    inv = 0
    for x in a:
        for y in b:
            if x > y:
                inv += 1
    return -1 if inv % 2 else 1


class RepVector:
    """Immutable element of a representation space over one field, held as
    its integer form (x, D) (linalg.canonical): the coordinates are x / D,
    built on first read."""

    __slots__ = ("space", "field", "_ints", "_coords")

    def __init__(self, space: Space, field, coords):
        coords = tuple(field.of(c) for c in coords)
        if len(coords) != space.dim:
            raise SpaceError(
                "expected %d coordinates for %r, got %d" % (space.dim, space, len(coords))
            )
        self._hold(space, field, coords)

    def _hold(self, space, field, coords, ints=None):
        """Set the slots; the integer form is cleared from coords unless given."""
        if ints is None:
            (x,), den = clear_denominators(field, [coords])
            ints = tuple(x), den
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_ints", ints)
        object.__setattr__(self, "_coords", coords)
        return self

    def __setattr__(self, name, val):
        raise AttributeError("RepVector is immutable")

    @classmethod
    def _raw(cls, space, field, coords):
        return object.__new__(cls)._hold(space, field, tuple(coords))

    @classmethod
    def _exact(cls, space, field, s, den, ints):
        """The vector (s / den) x for integers x and a field element s."""
        a, b = ratio(field, s)
        (x,), d = canonical(field, [[a * v for v in ints]], den * b)
        return object.__new__(cls)._hold(space, field, None, (x, d))

    @property
    def coords(self):
        """The coordinates, as a tuple; built on first read from the integer form."""
        if self._coords is None:
            x, den = self._ints
            object.__setattr__(self, "_coords", tuple(scaled(self.field, self.field.one, den, x)))
        return self._coords

    def ints(self):
        """The integer form (x, D) = clear_denominators(field, [coords]), x a
        tuple: residues in [0, p) over F_p, where D = 1."""
        return self._ints

    @classmethod
    def zero(cls, space, field):
        return cls._raw(space, field, (field.zero,) * space.dim)

    @classmethod
    def basis(cls, space, field, i):
        coords = [field.zero] * space.dim
        coords[i] = field.one
        return cls._raw(space, field, coords)

    def _check_mate(self, other):
        if not isinstance(other, RepVector):
            raise SpaceError("expected a RepVector")
        if other.space != self.space or other.field != self.field:
            raise SpaceError("mixed spaces or fields")

    def __add__(self, other):
        self._check_mate(other)
        return RepVector._raw(
            self.space, self.field, (a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other):
        self._check_mate(other)
        return RepVector._raw(
            self.space, self.field, (a - b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self):
        return RepVector._raw(self.space, self.field, (-a for a in self.coords))

    def scale(self, c):
        c = self.field.of(c)
        return RepVector._raw(self.space, self.field, (c * a for a in self.coords))

    def is_zero(self) -> bool:
        return not any(self._ints[0])

    def __eq__(self, other):
        return (
            isinstance(other, RepVector)
            and other.space == self.space
            and other.field == self.field
            and other._ints == self._ints
        )

    def __hash__(self):
        return hash((self.space, self.field, self._ints))

    def __repr__(self):
        return "RepVector(%r, [%s])" % (
            self.space,
            ", ".join(self.field.format(c) for c in self.coords),
        )

    # matrix interplay

    @classmethod
    def from_matrix(cls, space, field, rows):
        """Build from full matrix entries, validating the symmetry tag: the
        rows must be the full matrix of their own coordinates."""
        rows = [[field.of(x) for x in r] for r in rows]
        n = len(rows[0]) if rows else 0
        if any(len(r) != n for r in rows):
            raise SpaceError("ragged matrix")
        if space.shape is None:
            raise SpaceError("space %r is not a matrix kind" % space.kind)
        if (len(rows), n) != space.shape:
            raise SpaceError("matrix shape mismatch")
        if space.pairs is None:  # row-major
            return cls._raw(space, field, [x for r in rows for x in r])
        coords = [rows[i][j] for i, j in space.pairs]
        if full_rows(space, coords, field.zero) != rows:
            raise SpaceError("matrix is not %s" % ("symmetric" if space.kind == "symm" else "alternating"))
        return cls._raw(space, field, coords)

    def to_matrix(self) -> Matrix:
        """Full matrix form for matrix kinds."""
        return Matrix(self.field, full_rows(self.space, self.coords, self.field.zero))

    # JSON round trip

    def to_json_obj(self) -> dict:
        space, field = self.space, self.field
        coords = self.coords if space.shape is None else [x for r in full_rows(space, self.coords, field.zero) for x in r]
        entries = [field.format(x) for x in coords]
        return {"space": space.kind, "params": dict(sorted(space.params.items())), "entries": entries}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj, field):
        try:
            kind = obj["space"]
            params = obj.get("params", {})
            entries = obj["entries"]
            # a string is a sequence too, and would be read one character at a time
            if not isinstance(entries, list):
                raise TypeError("entries must be a JSON array, got %s" % json.dumps(entries))
            entries = [field.parse(str(e)) for e in entries]
        except (KeyError, TypeError, ValueError, FieldError) as exc:
            raise SpaceError("bad vector object: %s" % exc) from exc
        # bool is an int subclass, and int() would truncate 2.9 to 2
        if not isinstance(params, dict) or any(type(v) is not int for v in params.values()):
            raise SpaceError("bad vector object: params must map names to integers, got %s" % json.dumps(params))
        space = Space(kind, **params)
        if space.shape is not None:
            m, n = space.shape
            if len(entries) != m * n:
                raise SpaceError("expected %d matrix entries" % (m * n))
            rows = [entries[i * n : (i + 1) * n] for i in range(m)]
            return cls.from_matrix(space, field, rows)
        return cls(space, field, entries)


def full_rows(space: Space, coords, zero):
    """Rows of the full matrix of a matrix-kind vector from its coordinates:
    field elements, or integers with zero = 0."""
    if space.shape is None:
        raise SpaceError("space %r is not a matrix kind" % space.kind)
    n = space.shape[1]
    if space.pairs is None:  # row-major
        return [list(coords[i : i + n]) for i in range(0, len(coords), n)]
    rows = [[zero] * n for _ in range(n)]
    for c, (i, j) in zip(coords, space.pairs):
        rows[i][j] = c
        rows[j][i] = c if space.kind == "symm" else -c
    return rows


@cache
def standard_symplectic_ints(n: int):
    """Integer Gram rows of the nondegenerate skew form pairing coordinates
    (0,1), (2,3), ...: row i holds (-1)^i at column i ^ 1.  The same
    integers serve every field."""
    if n % 2:
        raise SpaceError("symplectic form needs even dimension")
    return tuple(tuple((j == i ^ 1) * (-1) ** i for j in range(n)) for i in range(n))


# degree-4 polarization


def polarize4(f, x1: RepVector, x2: RepVector, x3: RepVector, x4: RepVector):
    """The symmetric 4-linear form with diagonal f, by inclusion-exclusion:
    f's integer formula at the 15 nonempty subset sums of the four vectors,
    cleared of one common denominator D, summed with signs and scaled once
    by constant / (24 D^4).

    Needs 24 invertible in the field (guaranteed by the admissibility rule).
    """
    if f.degree != 4:
        raise SpaceError("polarization implemented for degree 4 only")
    vecs = (x1, x2, x3, x4)
    space, field = x1.space, x1.field
    for v in vecs:
        if v.space != space or v.field != field:
            raise SpaceError("mixed spaces or fields")
    if space != f.space:
        raise SpaceError("vectors outside the form's space")
    for v in vecs:
        f._check(v)
    ints, den = clear_denominators(field, [v.coords for v in vecs])
    fn = f.int_evaluator(field)
    acc = 0
    for mask in range(1, 16):
        picked = [x for i, x in enumerate(ints) if mask >> i & 1]
        value = fn([sum(c) for c in zip(*picked)])
        acc += -value if len(picked) % 2 else value
    return field.of(acc) * field.of(f.constant / (24 * den**4))


def bx_int_gram(f, x: RepVector):
    """(G, s): s G is the Gram matrix of b_x(u, w) = polarize4(f, x, x, u, w)
    on the integer columns of f.raw_embedding(x.field) (the unit vectors
    where it is None; for sp6, the kernel basis), G integer (residues over
    F_p).

    For quartic f the t^2 coefficient of f(u + t D x), D x the integer
    multiple of x from clear_denominators, is 6 D^2 b_x(u, u).  With c_2 / den
    that coefficient over f.constant (InvariantForm.line_coefficients), G
    holds 2 c_2(u_i) on the diagonal and c_2(u_i + u_j) - c_2(u_i) - c_2(u_j)
    off it, and s = constant / (12 den D^2).  Every value is read off f's
    integer formula; this costs O(len(cols)^2) line reads.
    """
    if f.degree != 4:
        raise SpaceError("b_x defined for degree-4 forms only")
    if x.space != f.space:
        raise SpaceError("vector outside the form's space")
    field = x.field
    dx, big_d = x.ints()
    coefficients, den = f.line_coefficients(field, dx)
    emb = f.raw_embedding(field)
    cols = [[int(i == j) for j in range(len(dx))] for i in range(len(dx))] if emb is None else list(zip(*emb))
    diag = [coefficients(u)[2] for u in cols]
    gram = [[2 * c if i == j else 0 for j in range(len(cols))] for i, c in enumerate(diag)]
    for i, j in combinations(range(len(cols)), 2):
        c2 = coefficients([a + b for a, b in zip(cols[i], cols[j])])[2]
        gram[i][j] = gram[j][i] = c2 - diag[i] - diag[j]
    gram, _ = canonical(field, gram)
    return list(gram), field.of(f.constant / (12 * den * big_d**2))


# wedge machinery


@cache
def _wedge_step(n: int, k: int):
    """fn((*r, *w)) = r ^ w on integers, for a vector r and w in wedge^(k-1)
    of k^n: sum_t (-1)^t r[B[t]] w[B - B[t]] for each k-subset B in colex
    order, the Laplace expansion along r of the minor on columns B."""
    rows = [[(-1 if neg else 1, (i, n + a)) for i, a, neg in row] for row in _wedge_map_table(n, k - 1)]
    return _straight_line(n + comb(n, k - 1), [], "[%s]" % ", ".join(map(_signed_sum, rows)))


def wedge_ints(n: int, vectors):
    """Integer colex coordinates of v1 ^ ... ^ vd (the d x d minors on rows
    v1 .. vd) for integer vectors of length n, wedged from the last."""
    w = (1,)
    for k, v in enumerate(reversed(vectors), 1):
        w = _wedge_step(n, k)((*v, *w))
    return w


def exterior_power_ints(rows, d: int):
    """Integer rows of Lambda^d(g) for the integer rows of g: row I (colex)
    is g[I[0]] ^ (g[I[1]] ^ ...), each suffix wedge computed once."""
    n = len(rows)
    memo = {(): (1,)}

    def wedge(idx):
        w = memo.get(idx)
        if w is None:
            w = memo[idx] = _wedge_step(n, len(idx))((*rows[idx[0]], *wedge(idx[1:])))
        return w

    return [wedge(I) for I in subset_index(n, d)[1]]


def wedge_of_vectors(field, n: int, vectors, c=None) -> RepVector:
    """c v1 wedge ... wedge vd (c = 1 by default) from d ambient vectors of
    field elements or integers: wedge_ints of the vectors cleared of their
    denominators D, scaled by c / D^d, as a vector carrying its integer form."""
    if any(len(v) != n for v in vectors):
        raise SpaceError("ambient vector length mismatch")
    ints, den = clear_denominators(field, [[field.of(a) for a in v] for v in vectors])
    space = Space("wedge", d=len(vectors), n=n)
    return RepVector._exact(space, field, field.one if c is None else c, den ** len(vectors), wedge_ints(n, ints))


def wedge_map_rows(space: Space, coords, zero):
    """Rows of u -> u wedge v, from k^n to wedge(d + 1, n), for the
    coordinates of v: field elements, or integers with zero = 0.

    e_i wedge e_A = (-1)^k e_B for B = A + {i} with i at position k of B, so
    row B holds (-1)^k v_(B - B[k]) in column B[k] and zero elsewhere."""
    if space.kind != "wedge":
        raise SpaceError("wedge map defined for wedge vectors")
    d, n = space.params["d"], space.params["n"]
    if d + 1 > n:
        raise SpaceError("wedge degree would exceed the ambient dimension")
    rows = []
    for row_spec in _wedge_map_table(n, d):
        row = [zero] * n
        for i, a, negate in row_spec:
            row[i] = -coords[a] if negate else coords[a]
        rows.append(row)
    return rows


@cache
def _wedge_map_table(n: int, d: int):
    """For each sorted (d + 1)-subset B in colex order: (B[k], index of
    B - B[k], k odd) for k = 0..d."""
    idx_d, _ = subset_index(n, d)
    return [[(i, idx_d[B[:k] + B[k + 1:]], k % 2 == 1) for k, i in enumerate(B)] for B in subset_index(n, d + 1)[1]]


def lambda_power_matrix(g: Matrix, d: int) -> Matrix:
    """Induced matrix of g on wedge(d, n): entries are d x d minors of g."""
    if not g.is_square:
        raise SpaceError("wedge power of a non-square matrix")
    n = g.nrows
    _, subs = subset_index(n, d)
    ring = g.ring
    rows = []
    for I in subs:
        row = []
        for J in subs:
            row.append(Matrix(ring, [[g.entry(i, j) for j in J] for i in I]).det())
        rows.append(row)
    return Matrix(ring, rows)


@cache
def complement_star_table(n: int, d: int):
    """(index of C in wedge(n - d, n), sign(A, C)) for each d-subset A in colex
    order and its complement C: the duality star maps e_A to sign(A, C) e_C."""
    idx_c, _ = subset_index(n, n - d)
    table = []
    for A in subset_index(n, d)[1]:
        comp = tuple(i for i in range(n) if i not in A)
        table.append((idx_c[comp], merge_sign(A, comp)))
    return tuple(table)
