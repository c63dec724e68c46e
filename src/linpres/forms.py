"""The invariant polynomial of each supported representation, with its
scaling character.

Supported lines (CLI descriptors):

- "symm-det:n"  determinant on symmetric n x n matrices (2 <= n <= 15), degree n;
- "skew-pf:n"   Pfaffian on alternating n x n matrices (n even, 4 <= n <= 20), degree n/2;
- "square-det:n" determinant on all n x n matrices (2 <= n <= 15), degree n;
- "quadric:n"   v^t S v on k^n for an invertible symmetric S (2 <= n <= 150), degree 2;
- "cubic-disc"  discriminant of a binary cubic form, degree 4;
- "wedge36"     the quartic invariant on wedge^3 of k^6;
- "sp6"         its restriction to the kernel of contraction by a symplectic form;
- "mat2n:n"     det(X S X^t) on 2 x n matrices (4 <= n <= 140), degree 4;
- "hyperdet"    the 2x2x2 hyperdeterminant, degree 4.

Conventions fixed here (the underlying theory determines f only up to a
nonzero scalar): Pf of the standard pairing matrix is +1; the wedge36
quartic is calibrated once so that its value on the chosen reference point
is 4; the hyperdeterminant's sign makes the all-diagonal tensor evaluate
to +1.  Every reported value depends on these conventions.

Each determinant and the Pfaffian has one expansion plan, compiled up to
COMPILED_DET_MAX and COMPILED_PF_MAX and interpreted above them; compiled
formulas are straight-line source, which simplex_lattice runs inline, or
over small fields as one byte-sliced kernel for every point (byte_kernel).
"""

from __future__ import annotations

import ast
from fractions import Fraction
from functools import cache, cached_property, wraps
from itertools import combinations_with_replacement, product
from math import comb
from operator import add, mul

from .fields import QQ, byte_table
from .linalg import Matrix, canonical, clear_denominators
from .multilinear import (
    RepVector,
    Space,
    _signed_sum,
    _straight_line,
    standard_symplectic_ints,
    subset_index,
)


class FormError(ValueError):
    """Unsupported form parameters or a vector outside the form's space."""


COMPILED_DET_MAX = 6  # larger determinants run their plan interpreted
# Larger Pfaffians, too: compiling the memoized expansion took 1.0 ms at
# n = 10, 2.5 ms at n = 12 and 7.6 ms at n = 14, where one interpreted
# evaluation took 0.9 and 2.7 ms, so above 10 a compile costs more than an
# evaluation (Python 3.11, 2-core x86).
COMPILED_PF_MAX = 10


def _expansion_formula(dim, top, expand, compiled):
    """The value of a recursive expansion plan: expand(key) is the coordinate
    index of a leaf, else its (sign, coordinate, subkey) terms.  Compiled,
    each subkey's value is named once and reused wherever it recurs;
    interpreted, a memoized walk of the same plan computes each once per
    call.  Either way only +, - and * touch the coordinates, so ints and
    polynomials both run through it."""
    if not compiled:

        def fn(vals):
            memo: dict = {}

            def value(key):
                terms = expand(key)
                if isinstance(terms, int):
                    return vals[terms]
                total = None
                for s, c, sub in terms:
                    t = memo.get(sub)
                    if t is None:
                        t = memo[sub] = value(sub)
                    t = vals[c] * t
                    if s < 0:
                        t = -t
                    total = t if total is None else total + t
                return total

            return value(top)

        return fn
    assignments = []
    names: dict = {}

    def name(key):
        if key not in names:
            terms = expand(key)
            if isinstance(terms, int):
                names[key] = "v%d" % terms
            else:
                text = " ".join("%s v%d*%s" % ("-" if s < 0 else "+", c, name(sub)) for s, c, sub in terms)
                names[key] = "m%d" % len(assignments)
                assignments.append((names[key], text.lstrip("+ ")))
        return names[key]

    result = name(top)
    return _straight_line(dim, assignments, result)


def _det_formula(n, coord):
    """det of the n x n matrix whose (i, j) entry is coordinate coord(i, j) of
    the input: Laplace expansion along the top row with every minor on the
    bottom rows computed once, keyed by the bit mask of its columns (an int
    hashes faster than a tuple), compiled for n <= COMPILED_DET_MAX."""
    table = [[coord(i, j) for j in range(n)] for i in range(n)]

    def expand(cols):
        left = [c for c in range(n) if cols >> c & 1]
        row = table[n - len(left)]
        if len(left) == 1:
            return row[left[0]]
        return [((-1) ** k, row[c], cols ^ 1 << c) for k, c in enumerate(left)]

    dim = 1 + max(map(max, table))
    return _expansion_formula(dim, (1 << n) - 1, expand, n <= COMPILED_DET_MAX)


LATTICE_POINT_LIMIT = 10**5
# Python refuses more than 20 statically nested blocks; a compiled walk opens
# one loop per index up to this depth, and deeper lattices start it from the
# sums of their first d - WALK_DEPTH_MAX indices
WALK_DEPTH_MAX = 16


@cache
def _lattice_walk(m, k, modular, source):
    """Compile walk(fn, cols, level, scale, p) for columns of width m: for each
    (i, base) in level, in order, scale * f(base + the columns of each sorted
    k-tuple of indices from i on), reduced mod p when modular.  One nested
    loop per index keeps the column sums of its depth in locals.  f is fn,
    called on the point's list display, or, given a formula's source (m,
    assignments, result), that formula run inline on the point bound to
    v0 .. v{m-1}; the walk's own names start with "_", and no formula's may."""
    cs = "".join("_c%d, " % t for t in range(m))
    point = ["_s0_%d" % t for t in range(m)]
    lines = ["def walk(_fn, _cols, _level, _scale, _p):", "    _out = []", "    _push = _out.append"]
    lines.append("    for _i0, (%s,) in _level:" % ", ".join(point))
    for depth in range(1, k):
        pad = "    " * (depth + 1)
        lines.append(pad + "for _i%d, (%s) in enumerate(_cols[_i%d:], _i%d):" % (depth, cs, depth - 1, depth - 1))
        lines += [pad + "    _s%d_%d = _s%d_%d + _c%d" % (depth, t, depth - 1, t, t) for t in range(m)]
    if k:  # the last index's loop adds its column to the point
        lines.append("    " * (k + 1) + "for %s in _cols[_i%d:]:" % (cs, k - 1))
        point = ["_s%d_%d + _c%d" % (k - 1, t, t) for t in range(m)]
    pad = "    " * (k + 2)
    if source is None or source[0] != m:
        value = "_fn([%s])" % ", ".join(point)
    else:
        lines += [pad + "v%d = %s" % v for v in enumerate(point)]
        lines += [pad + line for line in source[1].split("\n") if line]
        value = "(%s)" % source[2]
    lines += [pad + "_push(_scale * %s%s)" % (value, " % _p" if modular else ""), "    return _out"]
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["walk"]


def byte_kernel(fn, p, width, top):
    """fn's byte-sliced kernel over F_p (_byte_kernel) for inputs of width
    coordinates, each slot at most top; None over Q, for p * p > 256, for
    top > 255, or when fn carries no straight-line source of that width."""
    source = getattr(fn, "source", None)
    if p is None or p * p > 256 or top > 255 or source is None or source[0] != width:
        return None
    return _byte_kernel(source, p, top)


@cache
def _byte_kernel(source, p, top):
    """Compile a straight-line source (dim, assignments, result) to
    kernel(vals, n): vals are dim ints of n byte slots, slot t byte t of the
    n-byte big-endian form and at most top, and byte t of the bytes returned
    is f mod p at the point of slots t (SIMD within a register; Lamport,
    CACM 18(8), 1975).  Each value's slots have a compile-time bound of at
    most 255: + and a constant factor act on the int, - first adds a
    multiple of p at or above the subtrahend's bound, and residues a, b
    multiply by one translate of a p + b through the products mod p.  A
    value c v (c a constant, else 1) is reduced, or squared, by one translate
    of v, only where a product needs residues or a sum would pass 255."""
    dim, body, result = source
    lines, consts, reduced, origin, tables = [], set(), {}, {}, set()
    env = {"v%d" % i: ("v%d" % i, top) for i in range(dim)}

    def emit(text, bound):
        lines.append("_t%d = %s" % (len(lines), text))
        return "_t%d" % (len(lines) - 1), bound

    def translate(x, c=1, e=1):  # (c x)^e mod p, read from v for x = c0 v
        c0, v = origin.get(x[0], (1, x))
        c = (c * c0) ** e % p
        tables.add((c, e))
        return emit('_f(%s.to_bytes(_n, "big").translate(_b%d_%d), "big")' % (v[0], c, e), p - 1)

    def value(x):  # a constant c as the value with c in every slot
        if isinstance(x, int):
            consts.add(x)
            return "_k%d" % x, x
        return x

    def residue(x):  # a named value is reduced once
        if x[1] >= p and x[0] not in reduced:
            reduced[x[0]] = translate(x)
        return reduced.get(x[0], x)

    def node(e):  # a constant as its residue, a value as (name, bound)
        if isinstance(e, ast.Constant):
            return e.value % p
        if isinstance(e, ast.Name):
            return env[e.id]
        if isinstance(e, ast.UnaryOp) and isinstance(e.op, ast.USub):
            return binary(ast.Sub(), 0, node(e.operand))
        if isinstance(e, ast.BinOp) and isinstance(e.op, (ast.Add, ast.Sub, ast.Mult)):
            return binary(e.op, node(e.left), node(e.right))
        raise ValueError("no byte-sliced kernel for %s" % ast.dump(e))

    def binary(op, x, y):
        if isinstance(x, int) and isinstance(y, int):
            return {ast.Add: x + y, ast.Sub: x - y, ast.Mult: x * y}[type(op)] % p
        if isinstance(op, ast.Mult):
            c, v = (x, y) if isinstance(x, int) else (y, x)
            if x == y:
                return translate(x, 1, 2)
            if not isinstance(c, int):
                (a, _), (b, _) = residue(x), residue(y)
                return emit('_f((%s * %d + %s).to_bytes(_n, "big").translate(_mul), "big")' % (a, p, b), p - 1)
            if c < 2:
                return v if c else 0
            if c * v[1] > 255:
                return translate(v, c)
            origin["(%d * %s)" % (c, v[0])] = c, v  # inline: emitted only where a sum reads it
            return "(%d * %s)" % (c, v[0]), c * v[1]
        if y == 0:
            return x
        x, y, sub = value(x), value(y), isinstance(op, ast.Sub)
        # x - y is x + k - y, k the least multiple of p at or above y's bound
        grow = (lambda y: -(-y[1] // p) * p) if sub else (lambda y: y[1])
        while x[1] + grow(y) > 255:  # reduce the operand of larger bound
            x, y = (residue(x), y) if x[1] >= y[1] else (x, residue(y))
        if sub:
            return emit("%s + %s - %s" % (x[0], value(grow(y))[0], y[0]), x[1] + grow(y))
        return emit("%s + %s" % (x[0], y[0]), x[1] + y[1])

    for statement in ast.parse(body).body:
        env[statement.targets[0].id] = node(statement.value)
    out = value(node(ast.parse(result, mode="eval").body))[0]
    head = ["def kernel(_vals, _n):", "    %s, = _vals" % ", ".join("v%d" % i for i in range(dim))]
    head += ['    _o = _f(b"\\x01" * _n, "big")'] + ["    _k%d = %d * _o" % (c, c) for c in sorted(consts)]
    namespace = {"_f": int.from_bytes, **{"_b%d_%d" % (c, e): bytes(c * b**e % p for b in range(256)) for c, e in tables}}
    namespace["_mul"] = bytes(a * b % p for a in range(p) for b in range(p)).ljust(256, b"\0")
    exec("\n".join(head + ["    " + line for line in lines] + ['    return %s.to_bytes(_n, "big")' % out]), namespace)
    return namespace["kernel"]


@cache
def _lattice_alphas(n, d):
    """For each i < n, the count alpha_i at every point of the degree-d
    simplex lattice on n coordinates, in lattice order, one byte slot per
    point as byte_kernel reads them (d <= 255)."""
    counts = [bytearray(comb(n + d - 1, d)) for _ in range(n)]
    for t, combo in enumerate(combinations_with_replacement(range(n), d)):
        for i in combo:
            counts[i][t] += 1
    return [int.from_bytes(c, "big") for c in counts]


def simplex_lattice(fn, cols, d, modulus, error, scale=1):
    """[scale * fn(sum_i alpha_i cols[i]) for each point alpha of the
    principal simplex lattice of degree d on n = len(cols) coordinates], in
    lexicographic order, the sums in integers and each value reduced mod the
    modulus when there is one.  Walked as the sorted tuples of the indices
    alpha counts with multiplicity, by one walk compiled per (column width,
    depth, modulus or not, fn's formula source) and cached: a loop per
    index, each adding its column to the sums of the loop around it.  Each
    point runs the straight-line source fn carries (fn.source, from
    multilinear._straight_line) inline where its dimension is the column
    width, and calls fn on the point's list display otherwise.  Past
    WALK_DEPTH_MAX indices the sums of the first d - WALK_DEPTH_MAX are built
    level by level and the walk starts from each of them; those levels hold
    C(n + d - k, d - k) sums in all for k = WALK_DEPTH_MAX.  Where
    byte_kernel gives fn a kernel for slots up to d (p - 1), no walk runs:
    that kernel evaluates every point at once from byte-slot columns.

    A homogeneous polynomial of degree d that vanishes on this lattice is
    zero in characteristic 0 or above d (the lattice is unisolvent for
    degree d; Nicolaides 1972, Chung & Yao 1977), so an identity of degree d
    checked at these points holds exactly.  Raises `error` when the
    characteristic (modulus, None for 0) is at most d, or the lattice or its
    levels hold more than LATTICE_POINT_LIMIT points or sums."""
    if modulus is not None and modulus <= d:
        raise error("the lattice check needs characteristic above the degree %d" % d)
    n = len(cols)
    count = comb(n + d - 1, d)
    if count > LATTICE_POINT_LIMIT:
        raise error(
            "the degree-%d simplex lattice on %d coordinates has %d points, above the bound of %d"
            % (d, n, count, LATTICE_POINT_LIMIT)
        )
    m, k = len(cols[0]), min(d, WALK_DEPTH_MAX)
    sums = comb(n + d - k, d - k)  # in the levels built before the walk
    if sums > LATTICE_POINT_LIMIT:
        raise error("the degree-%d lattice's levels hold %d sums, above the bound of %d" % (d, sums, LATTICE_POINT_LIMIT))
    # slot t of coordinate j is sum_i (cols[i][j] mod p) alpha_i(t) <= d (p - 1)
    kernel = modulus and byte_kernel(fn, modulus, m, d * (modulus - 1))
    if kernel:
        alphas = _lattice_alphas(n, d)
        vals = [sum([c % modulus * a for c, a in zip(col, alphas)]) for col in zip(*cols)]
        return list(kernel(vals, count).translate(byte_table(modulus, scale)))
    # (i, the column sum) for each sorted tuple of the first d - k indices, i its last
    level = [(0, (0,) * m)]
    for _ in range(d - k):
        level = [(j, tuple(map(add, v, cols[j]))) for i, v in level for j in range(i, n)]
    # the evaluator's own source, so that a replaced evaluator is the one run
    return _lattice_walk(m, k, modulus is not None, getattr(fn, "source", None))(fn, cols, level, scale, modulus)


@cache
def _vandermonde_inverse(field, degree):
    """The integer form of the inverse of the Vandermonde matrix (t^k) for
    t, k = 0 .. degree, built once per (field, degree)."""
    nodes = range(degree + 1)
    return Matrix(field, [[field.of(t**k) for k in nodes] for t in nodes]).inv().ints()


class InvariantForm:
    """Base: a homogeneous invariant polynomial on one representation space.

    Each form defines f once, as f = constant * formula: `formula(vals)` maps
    a coordinate list through integer coefficients and +, - and * alone, so
    ints and polynomials both run through it, and `constant` is a rational.
    evaluate, eval_entries and int_evaluator all derive from that pair."""

    line: str
    degree: int
    space: Space
    constant = Fraction(1)

    def descriptor(self) -> str:
        return self.line

    def _check(self, v: RepVector):
        if v.space != self.space:
            raise FormError("vector in %r, form on %r" % (v.space, self.space))

    def _check_field(self, field):
        """Raise if f is not defined over the field."""

    def raw_embedding(self, field):
        """E: f is read at the raw points E c for integer coefficient vectors
        c (residues over F_p), E an integer matrix with one column per
        coefficient; None where E is the identity."""
        return None

    @cached_property
    def _int_fns(self):
        return {}

    def int_evaluator(self, field):
        """f / constant on integer coordinates, built once per field: mod p over
        F_p, where any representatives may stand for the residues; exact over Q."""
        fn = self._int_fns.get(field)
        if fn is None:
            self._check_field(field)
            fn, p = self.formula, field.modulus
            if p is not None:  # keeping the formula's source (wraps copies fn.source)
                fn = wraps(fn)(lambda vals, f=fn: f(vals) % p)
            self._int_fns[field] = fn
        return fn

    def evaluate(self, v: RepVector):
        """Exact value of f(v) as a field element."""
        self._check(v)
        return self._value(v.field, *v.ints())

    def eval_entries(self, ring, entries):
        """f on a coordinate list of field elements (as evaluate) or polynomials."""
        if ring.is_field:
            (ints,), den = clear_denominators(ring, [entries])
            return self._value(ring, ints, den)
        value = self.formula(entries)
        return value if self.constant == 1 else value * ring.of(self.constant)

    def _value(self, field, ints, den):
        # f is homogeneous: f(x) = f(D x) / D^deg for x = ints / den
        value = field.of(self.int_evaluator(field)(ints))
        scale = self.constant / den**self.degree
        return value if scale == 1 else value * field.of(scale)

    def line_coefficients(self, field, d):
        """(coefficients, den): coefficients(w) = [c_0, ..., c_deg] for integer
        points w, c_k / den the coefficient of t^k in f(w + t d) / constant
        along the integer direction d (residues over F_p, where den = 1).

        The c_k come from f's integer formula at t = 0 .. deg through the
        integer form of the inverse Vandermonde matrix (_vandermonde_inverse):
        integers over Q, residues mod p over F_p, which needs p > deg."""
        nodes = range(self.degree + 1)
        rows, den = _vandermonde_inverse(field, self.degree)
        fn = self.int_evaluator(field)

        def coefficients(w):
            values = [fn([a + t * b for a, b in zip(w, d)]) for t in nodes]
            return canonical(field, [[sum(map(mul, row, values)) for row in rows]])[0][0]

        return coefficients, den

    def scaling_factor(self, params: dict):
        """The exact factor by which the parametrized family member scales f."""
        raise FormError("no transformation family for %r" % self.line)

    def __eq__(self, other):
        return type(other) is type(self) and other.descriptor() == self.descriptor()

    def __hash__(self):
        return hash(self.descriptor())

    def __repr__(self):
        return "InvariantForm(%r)" % self.descriptor()


class SymmDet(InvariantForm):
    """Determinant on symmetric matrices."""

    def __init__(self, n: int):
        if n < 2:
            raise FormError("symm-det needs n >= 2")
        self.n = n
        self.line = "symm-det:%d" % n
        self.degree = n
        self.space = Space("symm", n=n)

    @cached_property
    def formula(self):
        index = {}
        for k, (i, j) in enumerate(self.space.pairs):
            index[i, j] = index[j, i] = k
        return _det_formula(self.n, lambda i, j: index[i, j])

    def scaling_factor(self, params):
        r = params["r"]
        return r**self.n * params["P"].det() ** 2


class SquareDet(InvariantForm):
    """Determinant on all square matrices."""

    def __init__(self, n: int):
        if n < 2:
            raise FormError("square-det needs n >= 2")
        self.n = n
        self.line = "square-det:%d" % n
        self.degree = n
        self.space = Space("square", n=n)

    @cached_property
    def formula(self):
        return _det_formula(self.n, lambda i, j: i * self.n + j)

    def scaling_factor(self, params):
        return params["A"].det() * params["B"].det()


class SkewPf(InvariantForm):
    """Pfaffian on alternating matrices, Pf(standard pairing) = +1."""

    def __init__(self, n: int):
        if n < 4 or n % 2:
            raise FormError("skew-pf needs even n >= 4")
        self.n = n
        self.line = "skew-pf:%d" % n
        self.degree = n // 2
        self.space = Space("alt", n=n)

    @cached_property
    def formula(self):
        """The expansion along the first index with each sub-Pfaffian on the
        remaining indices computed once, compiled for n <= COMPILED_PF_MAX:
        pairing the first index with the k-th remaining one contributes the
        sign (-1)^(k+1)."""
        coord = {ij: k for k, ij in enumerate(self.space.pairs)}

        def expand(idx):
            if len(idx) == 2:
                return coord[idx]
            return [((-1) ** (k + 1), coord[idx[0], idx[k]], idx[1:k] + idx[k + 1 :]) for k in range(1, len(idx))]

        return _expansion_formula(self.space.dim, tuple(range(self.n)), expand, self.n <= COMPILED_PF_MAX)

    def scaling_factor(self, params):
        r = params["r"]
        return r ** (self.n // 2) * params["P"].det()


class _GramForm(InvariantForm):
    """A form built from an invertible symmetric n x n matrix S (default:
    split antidiagonal).  Its formula uses the integer matrix D S, D the least
    common denominator of S; the constant carries the powers of 1/D."""

    def __init__(self, n: int, s_entries):
        if s_entries is None:
            s_entries = [[int(i + j == n - 1) for j in range(n)] for i in range(n)]
        self.s_entries = tuple(tuple(Fraction(x) for x in r) for r in s_entries)
        if self.s_entries != tuple(zip(*self.s_entries)):
            raise FormError("S must be symmetric")
        self.n = n
        self._s_int, self._den = clear_denominators(QQ, self.s_entries)
        self._grams: dict = {}

    def gram(self, field) -> Matrix:
        """S over the field, checked invertible there once."""
        if field not in self._grams:
            m = Matrix(field, [[field.of(x) for x in r] for r in self.s_entries])
            if m.rank() != self.n:
                raise FormError("S is singular over %s" % field.descriptor)
            self._grams[field] = m
        return self._grams[field]

    _check_field = gram  # S must be invertible over every field f is used on

    def __eq__(self, other):
        return super().__eq__(other) and other.s_entries == self.s_entries

    __hash__ = InvariantForm.__hash__  # defining __eq__ drops the inherited hash

    def _pairing(self, a, b):
        """Source text of u^t (D S) w for u, w the n coordinates from offsets a, b."""
        terms: dict = {}
        for i, row in enumerate(self._s_int):
            for j, s in enumerate(row):
                key = tuple(sorted((a + i, b + j)))
                terms[key] = terms.get(key, 0) + s
        return _signed_sum([(s, key) for key, s in terms.items() if s])


class Quadric(_GramForm):
    """v^t S v for an invertible symmetric S (default: split antidiagonal)."""

    def __init__(self, n: int, s_entries=None):
        if n < 2:
            raise FormError("quadric needs n >= 2")
        super().__init__(n, s_entries)
        self.line = "quadric:%d" % n
        self.degree = 2
        self.space = Space("vector", n=n)
        self.constant = Fraction(1, self._den)

    @cached_property
    def formula(self):
        return _straight_line(self.n, [], self._pairing(0, 0))


class CubicDisc(InvariantForm):
    """Discriminant of a0 x^3 + a1 x^2 y + a2 x y^2 + a3 y^3, a_i the coordinate v_i."""

    line = "cubic-disc"
    degree = 4

    def __init__(self):
        self.space = Space("cubic")

    formula = staticmethod(
        _straight_line(4, [], "v1*v1*v2*v2 + 18*v0*v1*v2*v3 - 4*v0*v2*v2*v2 - 4*v1*v1*v1*v3 - 27*v0*v0*v3*v3")
    )

    def scaling_factor(self, params):
        return params["c"] ** 4 * params["g"].det() ** 6


@cache
def _wedge36_formula():
    """The quartic as the Freudenthal quartic of wedge^3 k^6 = k + M3 + M3 + k
    (Brown 1969): with a = e012, b = e345, A[i][j] = e_{i+1, i+2, 3+j} and
    B[i][j] = e_{i, 3+(j+1), 3+(j+2)} (indices cyclic in 0..2, each basis
    3-vector sorted with its sign) and M# the adjugate of M,

        6 [(ab - tr(A B^t))^2 + 4 (a det B + b det A - tr(A# B#^t))],

    which equals tr(K_v^2) as an integer polynomial, compiled."""
    idx3, _ = subset_index(6, 3)
    assignments = []
    for i, j in product(range(3), repeat=2):
        for m, t in (("a", ((i + 1) % 3, (i + 2) % 3, 3 + j)), ("b", (i, 3 + (j + 1) % 3, 3 + (j + 2) % 3))):
            inversions = (t[0] > t[1]) + (t[1] > t[2]) + (t[0] > t[2])
            assignments.append(("%s%d%d" % (m, i, j), "-" * (inversions % 2) + "v%d" % idx3[tuple(sorted(t))]))
    for m in "ab":
        for i, j in product(range(3), repeat=2):
            # m#[i][j] is the cofactor of entry (j, i)
            r, s, c, d = (j + 1) % 3, (j + 2) % 3, (i + 1) % 3, (i + 2) % 3
            assignments.append(("%s_%d%d" % (m, i, j), "{0}{1}{2}*{0}{3}{4} - {0}{1}{4}*{0}{3}{2}".format(m, r, c, s, d)))
        assignments.append(("det_" + m, " + ".join("%s0%d*%s_%d0" % (m, j, m, j) for j in range(3))))
    a, b = "v%d" % idx3[0, 1, 2], "v%d" % idx3[3, 4, 5]
    pairs = list(product(range(3), repeat=2))
    assignments.append(("q", "%s*%s - (%s)" % (a, b, " + ".join("a%d%d*b%d%d" % (i, j, i, j) for i, j in pairs))))
    adj = " + ".join("a_%d%d*b_%d%d" % (i, j, i, j) for i, j in pairs)
    return _straight_line(20, assignments, "6*(q*q + 4*(%s*det_b + %s*det_a - (%s)))" % (a, b, adj))


class Wedge36(InvariantForm):
    """The quartic invariant on wedge^3 of k^6.

    f = c0 * tr(K_v^2) for the contraction endomorphism K_v(u) = ((u-contraction
    of v) wedge v) read through the top-wedge trivialization, evaluated as the
    equal Freudenthal quartic (_wedge36_formula); c0 is calibrated once so the
    reference point below evaluates to 4.
    """

    line = "wedge36"
    degree = 4

    def __init__(self):
        self.space = Space("wedge", d=3, n=6)

    @classmethod
    def _reference_coords(cls):
        """w-image of a tensor pair with target value 4 (split into basis coords)."""
        idx3, _ = subset_index(6, 3)
        coords = [0] * 20
        coords[idx3[(0, 2, 3)]] = 1
        coords[idx3[(0, 4, 5)]] = 1
        coords[idx3[(1, 2, 3)]] = 1
        coords[idx3[(1, 4, 5)]] = -1
        return coords

    @property
    def formula(self):
        """tr(K_v^2) as the Freudenthal quartic, compiled once."""
        return _wedge36_formula()

    @cached_property
    def constant(self) -> Fraction:
        """c0, computed over the integers."""
        return Fraction(4, self.formula(self._reference_coords()))

    def scaling_factor(self, params):
        return params["c"] ** 4 * params["g"].det() ** 2


class Sp6Quartic(Wedge36):
    """Restriction of the wedge36 quartic to the contraction kernel.

    Vectors are carried in ambient wedge(3, 6) coordinates; evaluation and
    polarization require contraction by b, the standard skew form, to
    vanish.  The intrinsic dimension is 14.  The raw entry points
    (int_evaluator, eval_entries, line_coefficients) skip that check.
    """

    line = "sp6"
    intrinsic_dim = 14

    @cached_property
    def _contraction_ints(self):
        """The 6 x 20 integer matrix of contraction by b, the same for every
        field: e_ijk goes to b_ij e_k - b_ik e_j + b_jk e_i."""
        b = standard_symplectic_ints(6)
        rows = [[0] * 20 for _ in range(6)]
        for a, (i, j, k) in enumerate(subset_index(6, 3)[1]):
            rows[k][a] += b[i][j]
            rows[j][a] -= b[i][k]
            rows[i][a] += b[j][k]
        return rows

    @cache
    def kernel_basis(self, field) -> Matrix:
        """20 x 14 matrix whose columns span the contraction kernel over the
        field, built once per field."""
        ker = Matrix._exact(field, self._contraction_ints).kernel()
        if len(ker) != self.intrinsic_dim:
            raise FormError("contraction kernel has unexpected dimension")
        return Matrix(field, list(zip(*ker)))

    def raw_embedding(self, field):
        """The integer form (Matrix.ints) of the kernel basis: sp6's raw points
        for sampling, the lattice check and the radical oracle."""
        return self.kernel_basis(field).ints()[0]

    def contracts_to_zero(self, x, p) -> bool:
        """Contraction by b kills the vector with integer coordinates x
        (residues over F_p, a nonzero multiple D v over Q, p None)."""
        sums = (sum(map(mul, row, x)) for row in self._contraction_ints)
        return not any(t % p if p is not None else t for t in sums)

    def in_kernel(self, v: RepVector) -> bool:
        """Contraction by b kills v."""
        super()._check(v)
        return self.contracts_to_zero(v.ints()[0], v.field.modulus)

    def _check(self, v: RepVector):
        if not self.in_kernel(v):
            raise FormError("vector has nonzero contraction; outside the restricted space")


class Mat2n(_GramForm):
    """det(X S X^t) on 2 x n matrices, S invertible symmetric (default split)."""

    def __init__(self, n: int, s_entries=None):
        if n < 4:
            raise FormError("mat2n needs n >= 4")
        super().__init__(n, s_entries)
        self.line = "mat2n:%d" % n
        self.degree = 4
        self.space = Space("rect", m=2, n=n)
        self.constant = Fraction(1, self._den**2)

    @cached_property
    def formula(self):
        # rows x0, x1 of X: det(X S X^t) = (x0 S x0)(x1 S x1) - (x0 S x1)^2
        n = self.n
        pairings = [("m00", self._pairing(0, 0)), ("m01", self._pairing(0, n)), ("m11", self._pairing(n, n))]
        return _straight_line(2 * n, pairings, "m00*m11 - m01*m01")

    def scaling_factor(self, params):
        return (params["g1"].det() * params["mu"]) ** 2


class Hyperdet(InvariantForm):
    """Cayley's 2x2x2 hyperdeterminant; the diagonal tensor evaluates to +1.

    Computed as the discriminant in t of det(A + t B) for the two slices
    A = (t000, t001; t010, t011) and B = (t100, t101; t110, t111) of the
    tensor (Gelfand, Kapranov & Zelevinsky 1994, ch. 14).
    """

    line = "hyperdet"
    degree = 4

    def __init__(self):
        self.space = Space("tritensor")

    # m^2 - 4 det A det B, the discriminant of det(A + t B) = det A + m t +
    # det B t^2, with t_ijk = v(4i + 2j + k)
    formula = staticmethod(
        _straight_line(8, [("m", "v0*v7 + v4*v3 - v1*v6 - v5*v2")], "m*m - 4*(v0*v3 - v1*v2)*(v4*v7 - v5*v6)")
    )

    def scaling_factor(self, params):
        return (params["g1"].det() * params["g2"].det() * params["g3"].det()) ** 2


# (factory, largest n for a sized line): one point of each line at its
# largest n took 0.08-0.1 s to parse and evaluate over Q in one process
# (Python 3.11, 2-core x86), and the determinant and Pfaffian expansions
# grow 2-3.5x with each further step of n
_FORM_FACTORIES = {
    "symm-det": (SymmDet, 15),
    "skew-pf": (SkewPf, 20),
    "square-det": (SquareDet, 15),
    "quadric": (Quadric, 150),
    "cubic-disc": (CubicDisc, None),
    "wedge36": (Wedge36, None),
    "sp6": (Sp6Quartic, None),
    "mat2n": (Mat2n, 140),
    "hyperdet": (Hyperdet, None),
}


def form_descriptors() -> list[str]:
    return sorted(_FORM_FACTORIES)


def parse_form(descriptor: str) -> InvariantForm:
    """Build a form from its CLI descriptor, e.g. "symm-det:3" or "hyperdet"."""
    d = descriptor.strip()
    name, sep, arg = d.partition(":")
    entry = _FORM_FACTORIES.get(name)
    if entry is None:
        raise FormError("unknown form %r (known: %s)" % (descriptor, ", ".join(form_descriptors())))
    factory, max_n = entry
    if max_n is not None:
        if not sep:
            raise FormError("form %r needs a size, e.g. %r" % (name, name + ":4"))
        try:
            n = int(arg)
        except ValueError as exc:
            raise FormError("bad size %r" % arg) from exc
        if n > max_n:
            raise FormError("form %r takes sizes up to %d, got %d" % (name, max_n, n))
        return factory(n)
    if sep:
        raise FormError("form %r takes no size" % name)
    return factory()
