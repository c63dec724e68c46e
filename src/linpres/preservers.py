"""Transformation families that scale each invariant, and randomized or
symbolic verification that a map preserves a form.

Families (the involution or factor permutation always acts first, as one
signed column gather of the action's rows, _gather):

- congruence        X -> r P (star^s X) P^t on symmetric or alternating matrices
- sandwich          X -> A X B on square or rectangular matrices
- transpose-sandwich X -> A X^t B on square matrices
- cubic-substitution q -> c (q o g) on binary cubics
- wedge-push        v -> c Lambda^3(g) (star^s v) on wedge^3 of k^6
- sp6-push          wedge-push with g a symplectic similitude, no star
- triple-push       T -> (g1 x g2 x g3) (sigma T) on 2x2x2 tensors
- orthogonal-pair   X -> g1 X g2^t with g2^t S g2 = mu S on 2 x n matrices

Each element builds its action once, as integer rows R and one field scalar
s with coordinate matrix s R, R reduced mod p over F_p where it is built
(in a compiled step, in the Kronecker product, after a star's signed
gather); apply, matrix_on_space, both preservation policies and the
censuses read them.  Every integer product with R goes through one packer
(_packed), and each reader packs one side once: R per element (matvec, for
apply, scales_form and preserves_minimals), sp6's embedding E per (form,
field), the points of each Schwartz-Zippel batch the scalar loop checks,
and E's columns for the symbolic policy's R E; a batch over a small field
stays in byte slots instead (_byte_failure), E a gather of its slots, and
a predicted preserver's trials all run in one such batch.

The alternating 4x4 star fixes the Pfaffian and squares to the identity;
the top-wedge star fixes the degree-20 quartic and squares to minus the
identity.  Both identities are exercised by the test suite.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations, combinations_with_replacement, islice
from operator import mul

from .fields import below, byte_table
from .forms import FormError, InvariantForm, byte_kernel, parse_form, simplex_lattice
from .linalg import Matrix, canonical, ratio
from .minimality import sample_minimal, structure_rule
from .multilinear import (
    RepVector,
    Space,
    _bilinear_step,
    complement_star_table,
    exterior_power_ints,
    standard_symplectic_ints,
)
from .sampling import (
    forced_det_matrix,
    go_element,
    gsp6_element,
    invertible_matrix,
    rand_unit,
    slot_code,
    solve_power,
    unimodular_matrix,
    uniform_bytes,
    uniform_ints,
)


class PreserverError(ValueError):
    """Invalid family parameters or an unusable policy request."""


SYMBOLIC_DIM_LIMIT = 10  # auto's routing only; the verify digests pin each cell's policy
SZ_ERROR_EXPONENT = 60  # certify identity failure probability <= 2^-60


def _param_json(field, v):
    """One family parameter as JSON: a matrix as rows of formatted entries, a
    flag as itself, a permutation as a list, a scalar through field.format."""
    if isinstance(v, Matrix):
        return [[field.format(x) for x in row] for row in v.rows]
    if isinstance(v, bool):
        return v
    if isinstance(v, tuple):
        return list(v)
    return field.format(v)


def _packed(rows, p, top):
    """vs -> [rows v for v in vs], exact, as one flat list (entry i of
    rows v_t at t len(rows) + i), for entries of rows in [0, p) and of each
    v in [0, top], or the other way round.  Over F_p each column of rows is
    packed once into one int of fixed-width slots, row i in slot i, so
    rows v is one big-int sum of v_j times column j, and the sums' bytes are
    cast once.  A slot holds m (p - 1) top for m columns (sampling.slot_code);
    an entry past its bound carries silently into the next slot.  Over Q
    (p None), where no slot holds the bound, or for one row (one slot packs
    nothing), the rows are multiplied one by one."""
    code = None if p is None else slot_code(len(rows[0]) * (p - 1) * top)
    if code is None or len(rows) == 1:
        return lambda vs: [sum(map(mul, row, v)) for v in vs for row in rows]
    order = sys.byteorder
    cols = [int.from_bytes(array(code, col), order) for col in zip(*rows)]
    size = len(rows) * array(code).itemsize
    return lambda vs: memoryview(b"".join([sum(map(mul, v, cols)).to_bytes(size, order) for v in vs])).cast(code).tolist()


def _slot_map(rows, xs, p, n):
    """rows xs mod p, rows residues and xs byte-slot ints (n slots in [0, p),
    forms.byte_kernel): a row's sum of r x over its nonzero r is reduced by
    one translate where its slot bound would pass 255, and once at the end."""
    mod, out = byte_table(p, 1), []
    for row in rows:
        s = bound = 0
        for r, x in zip(row, xs):
            if r:
                if bound + r * (p - 1) > 255:
                    s, bound = int.from_bytes(s.to_bytes(n, "big").translate(mod), "big"), p - 1
                s, bound = s + r * x, bound + r * (p - 1)
        out.append(int.from_bytes(s.to_bytes(n, "big").translate(mod), "big") if bound >= p else s)
    return out


def _matvec(rows, p):
    """x -> rows x for x in [0, p): reduced mod p over F_p, exact over Q;
    rows packed once (_packed)."""
    product = _packed(rows, p, p and p - 1)
    return (lambda x: product([x])) if p is None else lambda x: [v % p for v in product([x])]


def _images(xs, rows, p, top):
    """[rows x for x in xs], exact, for xs in [0, top]: the points packed
    once (_packed), x number t's image read as flat[t::len(xs)]."""
    n = len(xs)
    flat = _packed(xs, p, top)(rows)
    return [flat[t::n] for t in range(n)]


def _action(field, rows, c, den=1):
    """The action (R, s) of the coordinate matrix (c / den) rows, for integer
    rows that each builder has reduced mod p over F_p, where den is always 1."""
    return (rows, c) if field.modulus is not None else (rows, c / den)


def _kron_action(field, factors):
    """Action of the Kronecker product of the factor matrices: row (a, b, ..)
    and column (i, j, ..) hold f1[a][i] f2[b][j] .., each product reduced
    mod p over F_p."""
    rows, den, p = [[1]], 1, field.modulus
    for f in factors:
        ints, d = f.ints()
        if p is None:
            rows = [[x * y for x in r1 for y in r2] for r1 in rows for r2 in ints]
        else:
            rows = [[x * y % p for x in r1 for y in r2] for r1 in rows for r2 in ints]
        den *= d
    return _action(field, rows, field.one, den)


def _gather(rows, table, p=None):
    """The rows with their columns permuted and signed: column k holds s
    times column src of rows, for (src, s) = table[k], reduced mod p when p
    is given (a negated residue is not one).  Every involution and factor
    permutation acts on the right of an action this way."""
    if p is None:
        return [[s * row[src] for src, s in table] for row in rows]
    return [[s * row[src] % p for src, s in table] for row in rows]


def _invertible(m: Matrix, field, n: int, what: str) -> Matrix:
    """m, once it is an invertible n x n matrix over the field;
    PreserverError naming it if not."""
    if m.ring != field:
        raise PreserverError("%s must be over %s" % (what, field.descriptor))
    if (m.nrows, m.ncols) != (n, n):
        raise PreserverError("%s must be %dx%d" % (what, n, n))
    if m.det() == m.ring.zero:
        raise PreserverError("%s must be invertible" % what)
    return m


def _nonzero(c, field, what: str):
    """c, once it is a nonzero element of the field (a Fraction over Q, a
    residue mod p over F_p); PreserverError naming it if not."""
    if type(c) is not type(field.zero) or getattr(c, "modulus", None) != field.modulus:
        raise PreserverError("%s must be in %s" % (what, field.descriptor))
    if c == field.zero:
        raise PreserverError("%s must be nonzero" % what)
    return c


# star operators


# row i of the alternating 4x4 star holds sign s in column j, as (j, s); the
# matrix is symmetric, so the same table lists its columns
_STAR4 = ((0, 1), (1, -1), (3, -1), (2, -1), (4, -1), (5, 1))


# families


class PreserverElement:
    """One member of a transformation family acting on a representation;
    each family defines its action once, in _build_action."""

    family: str
    _action = _matrix = None  # built on first use

    def __init__(self, space: Space, field):
        self.space = space
        self.field = field

    def _build_action(self):
        raise NotImplementedError

    def action(self):
        """(R, s): integer rows R and a field scalar s, built once; the
        coordinate matrix is s R."""
        if self._action is None:
            self._action = self._build_action()
        return self._action

    @cached_property
    def matvec(self):
        """x -> R x on integer coordinates x (residues in [0, p) over F_p,
        the image reduced), R packed once per element (_matvec); apply,
        scales_form and preserves_minimals read it."""
        return _matvec(self.action()[0], self.field.modulus)

    def apply(self, v: RepVector) -> RepVector:
        x, den = v.ints()
        return RepVector._exact(self.space, self.field, self.action()[1], den, self.matvec(x))

    def matrix_on_space(self) -> Matrix:
        if self._matrix is None:
            rows, s = self.action()
            a, b = ratio(self.field, s)
            self._matrix = Matrix._exact(self.field, [[a * x for x in row] for row in rows], b)
        return self._matrix

    def char_params(self) -> dict:
        """Parameters consumed by the form's scaling_factor; every family
        defines them, and a map with no closed scaling character raises."""
        raise PreserverError("no closed scaling character for %r" % self.family)

    def scaling_factor(self, form: InvariantForm):
        return form.scaling_factor(self.char_params())

    def constraint_satisfied(self, form: InvariantForm) -> bool:
        return self.scaling_factor(form) == self.field.one

    def params_json(self) -> dict:
        return {k: _param_json(self.field, v) for k, v in self.char_params().items()}

    def to_json_obj(self) -> dict:
        return {"family": self.family, "params": self.params_json()}


@cache
def _pair_step(space: Space, modular: bool):
    """step(a, b, p) on integers for a, b of length n, compiled, one entry
    per coordinate (i, j) of the space (Space.pairs), reduced mod p when
    modular: a_i b_j + a_j b_i for i < j and a_i b_i for i = j on symmetric
    n x n matrices, a_i b_j - a_j b_i on alternating ones."""
    n = space.shape[0]
    cross = "v%d*v%d + v%d*v%d" if space.kind == "symm" else "v%d*v%d - v%d*v%d"
    terms = ("v%d*v%d" % (i, n + i) if i == j else cross % (i, n + j, j, n + i) for i, j in space.pairs)
    return _bilinear_step(n, n, terms, modular)


class Congruence(PreserverElement):
    """X -> r P (star^s X) P^t on symmetric or alternating n x n matrices."""

    family = "congruence"

    def __init__(self, space: Space, r, p: Matrix, star: bool = False):
        if space.pairs is None:
            raise PreserverError("congruence acts on symmetric or alternating matrices")
        if star and space != Space("alt", n=4):
            raise PreserverError("the star component exists only on alternating 4x4 matrices")
        super().__init__(space, p.ring)
        self.r = _nonzero(r, self.field, "r")
        self.p = _invertible(p, self.field, space.params["n"], "P")
        self.star = bool(star)

    def _build_action(self):
        # row (a, b) is the symmetric square or the wedge of rows a and b of
        # P = E / D in integers, so every entry is r / D^2 times an integer
        e, den = self.p.ints()
        p = self.field.modulus
        step = _pair_step(self.space, p is not None)
        out = [step(e[a], e[b], p) for a, b in self.space.pairs]
        if self.star:
            # times the star on the right: a signed column permutation
            out = _gather(out, _STAR4, p)
        return _action(self.field, out, self.r, den**2)

    def char_params(self):
        return {"r": self.r, "P": self.p, "star": self.star}


class _FrobeniusForm(PreserverElement):
    """X -> A X B or A X^t B on m x n matrices, A m x m and B n x n: the
    two sandwiches share their parameters and differ in the space kinds
    they accept and in their action."""

    kinds: tuple

    def __init__(self, space: Space, a: Matrix, b: Matrix):
        if space.kind not in self.kinds:
            raise PreserverError("%s cannot act on the %s space" % (self.family, space.kind))
        super().__init__(space, a.ring)
        self.a = _invertible(a, self.field, space.shape[0], "A")
        self.b = _invertible(b, self.field, space.shape[1], "B")

    def char_params(self):
        return {"A": self.a, "B": self.b}


class Sandwich(_FrobeniusForm):
    """X -> A X B on square or rectangular matrices."""

    family = "sandwich"
    kinds = ("square", "rect")

    def _build_action(self):
        # A X B has (a, b) entry sum A[a][i] X[i][j] B^t[b][j]: the action is A x B^t
        return _kron_action(self.field, (self.a, self.b.transpose()))


class TransposeSandwich(_FrobeniusForm):
    """X -> A X^t B on square matrices."""

    family = "transpose-sandwich"
    kinds = ("square",)

    def _build_action(self):
        # A X^t B is A x B^t applied to X^t: column (j, i) of the product
        # multiplies X[i][j], so column (i, j) gathers it
        n = self.a.nrows
        rows, s = _kron_action(self.field, (self.a, self.b.transpose()))
        return _gather(rows, [(j * n + i, 1) for i in range(n) for j in range(n)]), s


class CubicSubstitution(PreserverElement):
    """q -> c (q o g) on binary cubic coefficient vectors."""

    family = "cubic-substitution"

    def __init__(self, c, g: Matrix):
        super().__init__(Space("cubic"), g.ring)
        self.g = _invertible(g, self.field, 2, "g")
        self.c = _nonzero(c, self.field, "c")

    def _build_action(self):
        # g = G / D: every coefficient of q o g is a cubic in G over D^3
        (u, w), den = self.g.ints()

        def cubemul(u, w):
            # coefficient vectors of linear forms u, w: expand u^2 w
            out = [0] * 4
            for i, ui in enumerate(u):
                for j, uj in enumerate(u):
                    for k, wk in enumerate(w):
                        out[i + j + k] += ui * uj * wk
            return out

        # q -> q o g sends x to ax + by and y to cx + dy, u = (a, b), w = (c, d)
        cols = [cubemul(u, u), cubemul(u, w), cubemul(w, u), cubemul(w, w)]
        p = self.field.modulus
        return _action(self.field, [[x if p is None else x % p for x in r] for r in zip(*cols)], self.c, den**3)

    def char_params(self):
        return {"c": self.c, "g": self.g}


class WedgePush(PreserverElement):
    """v -> c Lambda^3(g) (star^s v) on wedge^3 of k^6."""

    family = "wedge-push"

    def __init__(self, c, g: Matrix, star: bool = False):
        super().__init__(Space("wedge", d=3, n=6), g.ring)
        self.g = _invertible(g, self.field, 6, "g")
        self.c = _nonzero(c, self.field, "c")
        self.star = bool(star)

    def _build_action(self):
        field = self.field
        # Lambda^3(g) = Lambda^3(D g) / D^3 for a common denominator D of g
        vals, den = self.g.ints()
        # integer 3x3 minors, then the star as a signed column permutation
        out = exterior_power_ints(vals, 3, field.modulus)
        if self.star:
            out = _gather(out, complement_star_table(6, 3), field.modulus)
        return _action(field, out, self.c, den**3)

    def char_params(self):
        return {"c": self.c, "g": self.g, "star": self.star}


_UPPER6 = list(combinations(range(6), 2))


class GSp6Push(WedgePush):
    """Wedge push by a symplectic similitude; validated against the standard
    pairing, no star component."""

    family = "sp6-push"

    def __init__(self, c, g: Matrix):
        super().__init__(c, g, star=False)
        # g^t b g = mu b (mu nonzero) for g = G / D reads G^t b G = k b in
        # integers, mod p over F_p, with k = mu D^2 = (G^t b G)[0][1].  b G
        # swaps G's rows in pairs (x, y) to (y, -x), so entry (r, c) sums
        # x_r y_c - y_r x_c; both sides are alternating, so r < c decides.
        b, (gi, _) = standard_symplectic_ints(6), g.ints()
        pairs = list(zip(gi[0::2], gi[1::2]))
        lhs = [sum(x[r] * y[c] - y[r] * x[c] for x, y in pairs) for r, c in _UPPER6]
        k = lhs[0]
        ((k, *diffs),), _ = canonical(self.field, [[k] + [x - k * b[r][c] for x, (r, c) in zip(lhs, _UPPER6)]])
        if not k or any(diffs):
            raise PreserverError("g is not a symplectic similitude")

    def char_params(self):
        return {"c": self.c, "g": self.g}


PERMS3 = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


class TriplePush(PreserverElement):
    """T -> (g1 x g2 x g3)(sigma T) on 2x2x2 tensors; sigma permutes the
    factors first: slot a of sigma T carries the vector from slot sigma^-1(a)."""

    family = "triple-push"

    def __init__(self, g1: Matrix, g2: Matrix, g3: Matrix, perm=(0, 1, 2)):
        super().__init__(Space("tritensor"), g1.ring)
        self.gs = tuple(_invertible(g, self.field, 2, "g%d" % i) for i, g in enumerate((g1, g2, g3), 1))
        self.perm = tuple(perm)
        if sorted(self.perm) != [0, 1, 2]:
            raise PreserverError("perm must be a permutation of (0, 1, 2)")

    def _build_action(self):
        # g1 x g2 x g3 has entry g1[i][a] g2[j][b] g3[k][c] at (ijk, abc);
        # column d = (a, b, c) of the action gathers the product's column t
        # with t[sigma(i)] = d[i], whose index weighs d[i] by 4 >> sigma(i)
        w = [4 >> i for i in self.perm]
        rows, s = _kron_action(self.field, self.gs)
        table = [(a * w[0] + b * w[1] + c * w[2], 1) for a in range(2) for b in range(2) for c in range(2)]
        return _gather(rows, table), s

    def char_params(self):
        return {"g1": self.gs[0], "g2": self.gs[1], "g3": self.gs[2], "perm": self.perm}


class OrthogonalPair(PreserverElement):
    """X -> g1 X g2^t on 2 x n matrices, g2 a similitude of the reference
    pairing: g2^t S g2 = mu S."""

    family = "orthogonal-pair"

    def __init__(self, space: Space, g1: Matrix, g2: Matrix, mu):
        if space.kind != "rect" or space.shape[0] != 2:
            raise PreserverError("orthogonal-pair acts on 2 x n matrices")
        super().__init__(space, g1.ring)
        self.g1 = _invertible(g1, self.field, 2, "g1")
        self.g2 = _invertible(g2, self.field, space.shape[1], "g2")
        self.mu = _nonzero(mu, self.field, "mu")

    def _build_action(self):
        # g1 X g2^t has (a, b) entry sum g1[a][i] X[i][j] g2[b][j]
        return _kron_action(self.field, (self.g1, self.g2))

    def char_params(self):
        return {"g1": self.g1, "g2": self.g2, "mu": self.mu}


# preservation policies


@dataclass(frozen=True)
class PreservationVerdict:
    ok: bool
    policy: str
    trials: int = 0
    error_bound: Fraction | None = None
    counterexample: list | None = None

    def to_json_obj(self):
        obj = {"ok": self.ok, "policy": self.policy, "trials": self.trials}
        if self.error_bound is not None:
            obj["error_bound"] = "%d/%d" % (self.error_bound.numerator, self.error_bound.denominator)
        if self.counterexample is not None:
            obj["counterexample"] = self.counterexample
        return obj


@cache
def sz_trial_count(field, degree: int) -> int:
    """Smallest t with (degree / set_size)^t <= 2^-60, by exact comparison."""
    size = field.sz_set_size
    if degree >= size:
        raise PreserverError("sample set no larger than the degree; no identity test")
    t = 1
    while degree**t << SZ_ERROR_EXPONENT > size**t:
        t += 1
    return t


@cache
def _raw_points(form, field):
    """(k, top, point, points) for E = form.raw_embedding(field) and k integer
    coefficients c (residues over F_p): point(c) = E c reduced, E packed once
    (_matvec), for scales_form and counterexamples; points(cs) = [E c for c
    in cs] unreduced, in [0, top] (top None over Q), the coefficients packed
    once per batch (_images), for the scalar loop.  Where E is None both
    return c and top = p - 1; sp6 has k = 14, top = 14 (p - 1)^2."""
    emb, p = form.raw_embedding(field), field.modulus
    if emb is None:
        return form.space.dim, p and p - 1, lambda c: c, lambda cs: cs
    k = len(emb[0])
    return k, p and k * (p - 1) ** 2, _matvec(emb, p), lambda cs: _images(cs, emb, p, p and p - 1)


@cache
def _lattice_reference(form: InvariantForm, field):
    """f(E alpha) at each point alpha of the degree-deg simplex lattice on the
    raw coefficients (E = form.raw_embedding(field); E alpha is alpha where E
    is None), in lattice order, built once per (form, field)."""
    emb, k = form.raw_embedding(field), form.space.dim
    cols = [[int(i == j) for j in range(k)] for i in range(k)] if emb is None else list(zip(*emb))
    return simplex_lattice(form.int_evaluator(field), cols, form.degree, field.modulus, PreserverError)


def _printed(x, p):
    """A raw point as a counterexample: its coordinates as text, reduced over F_p."""
    return [str(v if p is None else v % p) for v in x]


def _first_failure(fn, xs, rows, p, top, a, b):
    """The index of the first raw point x of xs (entries in [0, top]) with
    a f(R x) != b f(x), fn f's integer evaluator, or None, point by point."""
    for t, x, y in zip(range(len(xs)), xs, _images(xs, rows, p, top)):
        if (diff := a * fn(y) - b * fn(x)) and (p is None or diff % p):
            return t
    return None


@cache
def _selection(form, field):
    """(j, table) for each row of E = form.raw_embedding(field) over F_p: its
    one nonzero entry e is in column j, and table translates b -> e b mod p
    (None for e = 1), so E c gathers c's byte slots (sp6's E is a signed
    selection); None where E is None.  PreserverError for any other row."""
    emb = form.raw_embedding(field)
    if emb is None:
        return None
    rows = [[(j, e) for j, e in enumerate(row) if e] for row in emb]
    if any(len(row) != 1 for row in rows):
        raise PreserverError("the raw embedding of %s is not a scaled selection" % form.line)
    return [(j, None if e == 1 else byte_table(field.modulus, e)) for ((j, e),) in rows]


def _byte_failure(kernel, flat, n, select, rows, p, a, b):
    """The index of the first of n draws c, joined in flat (bytes), with a
    f(R x) != b f(x), or None, for x = E c gathered from c's slots
    (_selection; x = c where select is None): draw t is slot t of each
    byte-slot int, and one kernel call reads f(x), f(R x) as halves of 2 n slots."""
    k = len(flat) // n
    cols = [flat[j::k] for j in range(k)]
    if select is not None:
        cols = [cols[j] if table is None else cols[j].translate(table) for j, table in select]
    xs = [int.from_bytes(col, "big") for col in cols]
    out = kernel([x << 8 * n | y for x, y in zip(xs, _slot_map(rows, xs, p, n))], 2 * n)
    fx, fy = out[:n].translate(byte_table(p, b)), out[n:].translate(byte_table(p, a))
    return None if fx == fy else next(t for t in range(n) if fx[t] != fy[t])


def preserves_form(element: PreserverElement, form: InvariantForm, policy="auto", rng=None, trials=None) -> PreservationVerdict:
    """Does f(T x) == f(x) identically?

    Both policies compare a f(R x) with b f(x) for T = s R, s^deg = a / b
    (b = 1 over F_p), at raw points x = E c for E = form.raw_embedding(field)
    (x = c where E is None).  The symbolic policy is exact: it walks the
    simplex lattice of the raw coefficients once with the columns of R E
    (E's columns packed once, _images) and the scale a
    (forms.simplex_lattice), and compares that list with the cached
    reference values f(E alpha), times b where b is not 1; it needs
    characteristic 0 or above the degree and at most
    forms.LATTICE_POINT_LIMIT points.  The schwartz-zippel policy runs its
    trials in batches, one draw per trial, in order, and finds the first
    failing trial: point by point (_first_failure), or in byte slots where
    fn has a kernel at p - 1 (_byte_failure, the draws one uniform_bytes
    call).  There trials 1..T are one batch when the element's own
    constraint_satisfied predicts a preserver; any other element (and every
    element without a kernel) runs trial 1, where a violator mostly fails,
    then trials 2..T.  If trial t of a batch fails before the batch's last,
    the batch's draws up to trial t are made again from the rng state
    before the batch, so the stream ends where a per-trial loop's does.  A
    failure verdict is certain and prints the reduced raw point that
    rejected the element: the symbolic policy's first lattice point in
    lattice order, the failing trial's point.  A sampled success verdict
    carries the exact error bound (degree / set size)^trials.  auto is
    symbolic up to dimension SYMBOLIC_DIM_LIMIT and schwartz-zippel above.
    A trials count below 1 is rejected under either policy.
    """
    if element.space != form.space:
        raise PreserverError("element and form act on different spaces")
    if trials is not None and trials < 1:
        raise PreserverError("trials must be at least 1, got %d" % trials)
    field = element.field
    p = field.modulus
    if policy == "auto":
        policy = "symbolic" if form.space.dim <= SYMBOLIC_DIM_LIMIT else "schwartz-zippel"
    if policy not in ("symbolic", "schwartz-zippel"):
        raise PreserverError("unknown policy %r" % policy)
    if policy == "schwartz-zippel" and rng is None:
        raise PreserverError("schwartz-zippel policy needs a seeded rng")
    rows, s = element.action()
    fn, deg = form.int_evaluator(field), form.degree
    a, b = ratio(field, s**deg)
    if policy == "symbolic":
        emb = form.raw_embedding(field)  # residues over F_p
        refs = _lattice_reference(form, field)
        cols = list(zip(*rows)) if emb is None else _images(list(zip(*emb)), rows, p, p and p - 1)
        if b != 1:
            refs = [b * r for r in refs]
        values = simplex_lattice(fn, cols, deg, p, PreserverError, a)
        if values == refs:
            return PreservationVerdict(True, "symbolic")
        # name the first lattice point alpha where the two differ, as E alpha
        first = next(i for i, (u, v) in enumerate(zip(values, refs)) if u != v)
        combo = next(islice(combinations_with_replacement(range(len(cols)), deg), first, None))
        alpha = [combo.count(j) for j in range(len(cols))]
        return PreservationVerdict(False, "symbolic", counterexample=_printed(_raw_points(form, field)[2](alpha), p))
    if trials is None:
        trials = sz_trial_count(field, deg)
    # raw ints through the form's integer evaluator: f(M x) = s^deg f(R x)
    lo, hi = (0, p) if p is not None else (-(1 << 31), 1 << 31)
    size, top, point, points = _raw_points(form, field)
    try:  # the prediction picks the batches, never the verdict
        predicted = p is not None and element.constraint_satisfied(form)
    except (PreserverError, FormError, KeyError):  # no closed character, or none the form reads
        predicted = False
    merged = predicted and byte_kernel(fn, p, len(rows), p - 1)  # compiled only where a batch runs
    for first, n in ((1, trials),) if merged else ((1, 1), (2, trials - 1))[:trials]:  # trials 1..T, or 1 and 2..T
        state = rng.getstate() if n > 1 else None
        kernel = merged or first > 1 and p and byte_kernel(fn, p, len(rows), p - 1)
        cs = uniform_bytes(rng, p, size, n) if kernel else [uniform_ints(rng, lo, hi, size) for _ in range(n)]
        t = _byte_failure(kernel, cs, n, _selection(form, field), rows, p, a, b) if kernel else _first_failure(fn, points(cs), rows, p, top, a, b)
        if t is not None:
            if t < n - 1:  # replay: the stream ends after this trial's draw
                rng.setstate(state)
                for _ in range(t + 1):
                    uniform_ints(rng, lo, hi, size)
            c = cs[size * t : size * (t + 1)] if kernel else cs[t]
            return PreservationVerdict(False, "schwartz-zippel", first + t, None, _printed(point(c), p))
    return PreservationVerdict(True, "schwartz-zippel", trials, Fraction(deg, field.sz_set_size) ** trials)


def scales_form(element: PreserverElement, form: InvariantForm, rng, points=4):
    """The field element c with f(T x) = c f(x): s^deg fn(R x) / fn(x) for
    the element's integer action (R, s) and the form's integer evaluator fn,
    at `points` points where f is nonzero, R x read through element.matvec.
    A point draws its raw coefficients (_raw_points; sp6: its 14 kernel
    coefficients) uniformly from [-9, 9] with uniform_ints, reduced mod p
    over F_p, the same draws and points as a loop over field vectors.
    PreserverError if two ratios differ or 64 * points draws give too few
    nonzero values."""
    if element.space != form.space:
        raise PreserverError("element and form act on different spaces")
    if points < 1:
        raise PreserverError("points must be at least 1, got %d" % points)
    field = element.field
    p = field.modulus
    _, s = element.action()
    matvec = element.matvec
    size, _, point, _ = _raw_points(form, field)
    fn = form.int_evaluator(field)
    first = None
    checked = 0
    for _ in range(64 * points):
        c = uniform_ints(rng, -9, 10, size)
        x = point([v % p for v in c] if p is not None else c)
        fv = fn(x)
        if fv == 0:
            continue
        # s^deg is common to every ratio, so compare g / fv for g = fn(R x)
        # with the first point's g0 / f0 as the integer g f0 - g0 fv (mod p)
        g = fn(matvec(x))
        if first is None:
            first = g, fv
        elif (e := g * first[1] - first[0] * fv) and (p is None or e % p):
            raise PreserverError("map does not scale the form by a constant")
        checked += 1
        if checked == points:
            return s**form.degree * field.of(first[0]) / field.of(first[1])
    raise PreserverError("could not locate enough nonzero values of f")


def preserves_minimals(element: PreserverElement, target, rng, samples=100):
    """Check that the element maps sampled minimal vectors to minimal vectors.

    The image of v = x / D under s R is (s / D) R x, so the target's
    structure rule reads R x, for v's integer form x (RepVector.ints),
    through element.matvec.  Returns (ok, counterexample_coords_or_None)."""
    if samples < 1:
        raise PreserverError("samples must be at least 1, got %d" % samples)
    if element.space != (target if isinstance(target, Space) else target.space):
        raise PreserverError("element and target act on different spaces")
    field = element.field
    is_minimal = structure_rule(target, field)
    for _ in range(samples):
        v = sample_minimal(target, field, rng)
        if not is_minimal(element.matvec(v.ints()[0])):
            return False, [field.format(c) for c in v.coords]
    return True, None


# corollary registry and samplers

_COROLLARY_FORMS = {
    "symm.f": ["symm-det:2", "symm-det:3", "symm-det:4"],
    "skew.f": ["skew-pf:6", "skew-pf:8"],
    "skew.f4": ["skew-pf:4"],
    "square.f": ["square-det:2", "square-det:3", "square-det:4"],
    "cubics": ["cubic-disc"],
    "SL6": ["wedge36"],
    "Sp6": ["sp6"],
    "hyperdet": ["hyperdet"],
    "blackholes": ["mat2n:4", "mat2n:5", "mat2n:6"],
}
COROLLARY_IDS = list(_COROLLARY_FORMS)


def canonical_corollary(name: str) -> str:
    low = name.strip().lower()
    for cid in COROLLARY_IDS:
        if cid.lower() == low:
            return cid
    raise KeyError(name)


def corollary_forms(cid: str) -> list[InvariantForm]:
    return [parse_form(d) for d in _COROLLARY_FORMS[cid]]


def _draw(cid: str, form: InvariantForm, field, rng):
    """(k, need, build): one family member's matrix draws, with its free
    parameter t left open.  build(t) makes the member, and any draws after
    t; its scaling character is one exactly when t^k == need.  t is the
    scalar for the congruence, cubic and wedge families, and the
    determinant of the last matrix factor for square.f, hyperdet and
    blackholes."""
    space = form.space
    if cid in ("symm.f", "skew.f", "skew.f4"):
        n = space.params["n"]
        symm = space.kind == "symm"
        # on alternating matrices over Q, det P = -1 would need r^(n/2) = -1,
        # which has no rational root for even n/2: draw det P = 1 there
        if not symm and field.modulus is None and n // 2 % 2 == 0:
            p = unimodular_matrix(field, rng, n)
        else:
            p = invertible_matrix(field, rng, n)
        k, need = (n, field.one / (p.det() ** 2)) if symm else (n // 2, field.one / p.det())
        return k, need, lambda r: Congruence(space, r, p, cid == "skew.f4" and bool(below(rng, 2)))
    if cid == "square.f":
        n = space.params["n"]
        a = invertible_matrix(field, rng, n)

        def build(t):
            b = forced_det_matrix(field, rng, n, t)
            return (TransposeSandwich if below(rng, 2) else Sandwich)(space, a, b)

        return 1, field.one / a.det(), build
    if cid == "cubics":
        g = invertible_matrix(field, rng, 2)
        return 4, field.one / (g.det() ** 6), lambda c: CubicSubstitution(c, g)
    if cid == "SL6":
        g = invertible_matrix(field, rng, 6)
        return 4, field.one / (g.det() ** 2), lambda c: WedgePush(c, g, bool(below(rng, 2)))
    if cid == "Sp6":
        g, _ = gsp6_element(field, rng)
        return 4, field.one / (g.det() ** 2), lambda c: GSp6Push(c, g)
    if cid == "hyperdet":
        g1 = invertible_matrix(field, rng, 2)
        g2 = invertible_matrix(field, rng, 2)
        sign = field.of((1, -1)[below(rng, 2)])
        return 1, sign / (g1.det() * g2.det()), lambda t: TriplePush(
            g1, g2, forced_det_matrix(field, rng, 2, t), perm=PERMS3[below(rng, 6)])
    if cid == "blackholes":
        g2, mu = go_element(field, rng, form.gram(field))
        sign = field.of((1, -1)[below(rng, 2)])
        return 1, sign / mu, lambda t: OrthogonalPair(space, forced_det_matrix(field, rng, 2, t), g2, mu)
    raise PreserverError("no sampler for corollary %r" % cid)


def _sample(cid: str, form: InvariantForm, field, rng, pick):
    """build(t) for the first draw where t = pick(k, need) is not None."""
    for _ in range(256):
        k, need, build = _draw(cid, form, field, rng)
        t = pick(k, need)
        if t is not None:
            return build(t)
    raise PreserverError("constrained sampling stalled for corollary %r" % cid)


def sample_free_element(cid: str, form: InvariantForm, field, rng) -> PreserverElement:
    """Unconstrained family member: the scaling character may be anything."""
    return _sample(cid, form, field, rng, lambda k, need: rand_unit(field, rng, 3))


def sample_group_element(cid: str, form: InvariantForm, field, rng) -> PreserverElement:
    """Family member with scaling character exactly one: t solves t^k = need."""
    return _sample(cid, form, field, rng, lambda k, need: solve_power(field, rng, k, need))


def sample_violator(cid: str, form: InvariantForm, field, rng) -> PreserverElement:
    """Family member whose scaling character is not one."""
    for _ in range(256):
        el = sample_free_element(cid, form, field, rng)
        if not el.constraint_satisfied(form):
            return el
    raise PreserverError("could not sample a violating element for %r" % cid)


# verify driver

CONVENTIONS = {
    "pfaffian": "Pf of the standard block pairing matrix is +1",
    "wedge36": "calibrated so the reference pair point evaluates to 4 (c0 = 1/6)",
    "hyperdet": "the diagonal tensor evaluates to +1",
    "coordinates": "upper-triangle lex (symm), above-diagonal lex (alt), row-major (matrices), colex 3-subsets (wedge)",
    "stars": "involutions and factor permutations act before the group element",
}


def verify_corollary(cid: str, field, seed: int, elements: int, policy="auto") -> dict:
    """Check sampled scaling-character-one elements against every form of the
    corollary, and their predicted character (scaling_factor) against 1; a
    failure of either counts.  `elements` is the total budget, split evenly
    across the forms, so it must be at least the number of forms.
    Deterministic report for a fixed (configuration, seed)."""
    import random as _random

    forms = corollary_forms(cid)
    if elements < len(forms):
        raise PreserverError(
            "elements must be at least the number of forms (%d), got %d" % (len(forms), elements)
        )
    rng = _random.Random(seed)
    per_cell = elements // len(forms)
    cells = []
    for form in forms:
        failures, error_bound, counterexample = 0, None, None
        for _ in range(per_cell):
            el = sample_group_element(cid, form, field, rng)
            chi = el.scaling_factor(form)
            verdict = preserves_form(el, form, policy=policy, rng=rng)
            if not verdict.ok or chi != field.one:
                failures += 1
                if counterexample is None:
                    counterexample = {"element": el.to_json_obj()}
                    if not verdict.ok:
                        counterexample["point"] = verdict.counterexample
                    if chi != field.one:
                        counterexample["scaling_factor"] = field.format(chi)
            if verdict.error_bound is not None:
                error_bound = verdict.error_bound
        # per_cell >= 1, and the policy is fixed per form: the last verdict's names it
        cell = {
            "form": form.descriptor(),
            "elements": per_cell,
            "policy": verdict.policy,
            "failures": failures,
        }
        if error_bound is not None:
            cell["error_bound"] = "%d/%d" % (error_bound.numerator, error_bound.denominator)
        if counterexample is not None:
            cell["counterexample"] = counterexample
        cells.append(cell)
    return {
        "command": "verify",
        "corollary": cid,
        "field": field.descriptor,
        "seed": seed,
        "policy": policy,
        "elements_per_form": per_cell,
        "conventions": CONVENTIONS,
        "cells": cells,
        "ok": not any(cell["failures"] for cell in cells),
    }
