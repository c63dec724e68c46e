"""Three independent tests for membership in the minimal orbit cone.

- structure oracle: the line-specific closed description (rank one,
  decomposable, scalar cube, ...);
- root-spread oracle: f(t v + w) has t-degree at most a line threshold for
  every w exactly when v is minimal (threshold 1 for the determinant,
  Pfaffian and quadric lines, 2 for the binary cubic discriminant);
- radical oracle, quartic lines only: the bilinear form b_v obtained by
  polarizing f twice at v has radical of dimension dim - 1 exactly on the
  minimal cone.

The zero vector is never minimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .forms import InvariantForm, simplex_lattice
from .linalg import Matrix, clear_denominators
from .multilinear import (
    RepVector,
    Space,
    bilinear_bx,
    radical_dimension,
    rep_rank,
    wedge_annihilator_dim,
    wedge_map_matrix,
    wedge_of_vectors,
)
from .sampling import gsp6_element, isotropic_vector, rand_unit


class MinimalityError(ValueError):
    """Oracle not applicable to the requested line or policy."""


@dataclass(frozen=True)
class MinimalityVerdict:
    is_minimal: bool
    oracle: str
    witness: object = None
    trials: int = 0

    def to_json_obj(self):
        obj = {"is_minimal": self.is_minimal, "oracle": self.oracle, "trials": self.trials}
        if self.witness is not None:
            obj["witness"] = self.witness
        return obj


def _base_line(form: InvariantForm) -> str:
    return form.line.split(":")[0]


# structure oracle


def _cubic_cube_witness(field, coords):
    """(c, (p, q)) with coords = c * (p^3, 3p^2q, 3pq^2, q^3), else None."""
    a0, a1, a2, a3 = coords
    z = field.zero
    if a0 == z:
        if a1 == z and a2 == z and a3 != z:
            return a3, (z, field.one)
        return None
    q = a1 / (field.of(3) * a0)
    if a2 == field.of(3) * a0 * q * q and a3 == a0 * q * q * q:
        return a0, (field.one, q)
    return None


def _space_rank_rule(space: Space, v: RepVector):
    kind = space.kind
    field = v.field
    if v.is_zero():
        return False, None
    if kind == "vector":
        return True, None
    if kind in ("symm", "square", "rect"):
        return rep_rank(v) == 1, None
    if kind == "alt":
        return rep_rank(v) == 2, None
    if kind == "wedge":
        return wedge_annihilator_dim(v) == space.params["d"], None
    if kind == "cubic":
        w = _cubic_cube_witness(field, v.coords)
        if w is None:
            return False, None
        c, (p, q) = w
        return True, {"scale": field.format(c), "root": [field.format(p), field.format(q)]}
    if kind == "tritensor":
        t = v.coords
        flats = [
            [[t[0], t[1], t[2], t[3]], [t[4], t[5], t[6], t[7]]],
            [[t[0], t[1], t[4], t[5]], [t[2], t[3], t[6], t[7]]],
            [[t[0], t[2], t[4], t[6]], [t[1], t[3], t[5], t[7]]],
        ]
        ok = all(Matrix(field, rows).rank() == 1 for rows in flats)
        return ok, None
    raise MinimalityError("no structure rule for space %r" % space)


def minimal_by_rank(target, v: RepVector) -> MinimalityVerdict:
    """Structure oracle.  The target is a form, or a bare space for the
    representations carrying no invariant (e.g. generic rectangular matrices)."""
    if isinstance(target, Space):
        if v.space != target:
            raise MinimalityError("vector in %r, target %r" % (v.space, target))
        ok, witness = _space_rank_rule(target, v)
        return MinimalityVerdict(ok, "structure", witness)
    form = target
    if v.space != form.space:
        raise MinimalityError("vector in %r, form on %r" % (v.space, form.space))
    field = v.field
    base = _base_line(form)
    if base == "quadric":
        ok = not v.is_zero() and form.evaluate(v) == field.zero
        return MinimalityVerdict(ok, "structure", None)
    if base == "mat2n":
        if v.is_zero() or rep_rank(v) != 1:
            return MinimalityVerdict(False, "structure", None)
        rows = v.to_matrix().rows
        w = rows[0] if any(c != field.zero for c in rows[0]) else rows[1]
        s = form.gram(field)
        sw = s.apply(w)
        q = field.zero
        for a, b in zip(w, sw):
            q = q + a * b
        return MinimalityVerdict(q == field.zero, "structure", None)
    if base == "sp6":
        if not form.in_kernel(v):
            raise MinimalityError("vector has nonzero contraction")
        # the annihilator {u : u wedge v = 0} must be a 3-space, isotropic for b
        span = wedge_map_matrix(v).kernel()
        if len(span) != 3:
            return MinimalityVerdict(False, "structure", None)
        b = form.b_gram(field)
        for i in range(len(span)):
            bu = b.apply(span[i])
            for j in range(i + 1, len(span)):
                acc = field.zero
                for a, c in zip(span[j], bu):
                    acc = acc + a * c
                if acc != field.zero:
                    return MinimalityVerdict(False, "structure", None)
        return MinimalityVerdict(True, "structure", None)
    return minimal_by_rank(form.space, v)


# root-spread oracle

RRS_THRESHOLD = {"symm-det": 1, "skew-pf": 1, "square-det": 1, "quadric": 1, "cubic-disc": 2}


def _spread_coefficients(form: InvariantForm, v: RepVector):
    """w -> [c_0(w), ..., c_deg(w)] for integer points w, c_k(w) the
    coefficient of t^k in f(w + t D v) up to one nonzero constant, D v the
    integer multiple of v from clear_denominators (D = 1 over F_p).

    c_k for D v is D^k times c_k for v, so each vanishes where the other
    does.  The coefficients come from f's integer formula at t = 0 .. deg
    through the inverse Vandermonde matrix with its denominators cleared:
    integers over Q, residues mod p over F_p."""
    field = v.field
    nodes = range(form.degree + 1)
    (dv,), _ = clear_denominators(field, [v.coords])
    vinv = Matrix(field, [[field.of(t**k) for k in nodes] for t in nodes]).inv()
    rows, _ = clear_denominators(field, vinv.rows)
    fn, p = form.int_evaluator(field), field.modulus

    def coefficients(w):
        values = [fn([a + t * b for a, b in zip(w, dv)]) for t in nodes]
        cs = [sum(map(mul, row, values)) for row in rows]
        return cs if p is None else [c % p for c in cs]

    return coefficients


def minimal_by_rrs(form: InvariantForm, v: RepVector, policy="exact", rng=None, trials=64) -> MinimalityVerdict:
    """Root-spread oracle: deg_t f(t v + w) <= threshold for all w.

    c_k(w), the coefficient of t^k, is homogeneous of degree deg - k in w.
    The exact policy checks it on the simplex lattice {alpha in Z>=0^dim :
    |alpha| = deg - k} (forms.simplex_lattice), where a nonzero form of that
    degree cannot vanish identically once p > deg f, which it requires over a
    prime field; a lattice above LATTICE_POINT_LIMIT points is refused.  It
    tries k = threshold + 1 .. deg in turn and names the first nonzero one.
    The randomized policy evaluates the same coefficients at sampled integer
    w over the rationals; it is not offered over finite fields, where a
    bounded sample cannot certify a zero identity.
    """
    base = _base_line(form)
    if base not in RRS_THRESHOLD:
        raise MinimalityError("no root-spread rule for line %r" % form.line)
    if v.space != form.space:
        raise MinimalityError("vector in %r, form on %r" % (v.space, form.space))
    threshold = RRS_THRESHOLD[base]
    deg = form.degree
    field = v.field
    if v.is_zero():
        return MinimalityVerdict(False, "root-spread", None)
    dim = form.space.dim
    if policy == "exact":
        if field.modulus is not None and field.modulus <= deg:
            raise MinimalityError(
                "exact interpolation needs p > deg f; p = %d is too small for degree %d"
                % (field.modulus, deg)
            )
        coefficients = _spread_coefficients(form, v)
        units = [[int(i == j) for j in range(dim)] for i in range(dim)]
        for k in range(threshold + 1, deg + 1):
            ck = simplex_lattice(lambda alpha: coefficients(alpha)[k], units, deg - k, field.modulus, MinimalityError)
            if any(ck):
                return MinimalityVerdict(False, "root-spread", {"coefficient": k})
        return MinimalityVerdict(True, "root-spread", None)
    if policy == "randomized":
        if field.modulus is not None:
            raise MinimalityError(
                "randomized root-spread sampling over a finite field cannot certify "
                "the identity; use the exact policy"
            )
        if rng is None:
            raise MinimalityError("randomized policy needs a seeded rng")
        if trials < 1:
            raise MinimalityError("trials must be at least 1, got %d" % trials)
        coefficients = _spread_coefficients(form, v)
        for trial in range(1, trials + 1):
            w = [rng.randint(-99, 99) for _ in range(dim)]
            cs = coefficients(w)
            for k in range(threshold + 1, deg + 1):
                if cs[k]:
                    witness = {"coefficient": k, "direction": [str(x) for x in w]}
                    return MinimalityVerdict(False, "root-spread", witness, trial)
        return MinimalityVerdict(True, "root-spread", None, trials)
    raise MinimalityError("unknown policy %r" % policy)


# radical oracle

RADICAL_LINES = {"cubic-disc", "wedge36", "sp6", "mat2n", "hyperdet"}


def minimal_by_radical(form: InvariantForm, v: RepVector) -> MinimalityVerdict:
    """Radical oracle for the quartic lines: rad(b_v) has dimension dim - 1
    exactly on the minimal cone."""
    base = _base_line(form)
    if base not in RADICAL_LINES:
        raise MinimalityError("no radical rule for line %r" % form.line)
    if v.space != form.space:
        raise MinimalityError("vector in %r, form on %r" % (v.space, form.space))
    if v.is_zero():
        return MinimalityVerdict(False, "radical", None)
    field = v.field
    if base == "sp6":
        if not form.in_kernel(v):
            raise MinimalityError("vector has nonzero contraction")
        gram = bilinear_bx(form.ambient, v).matrix
        emb = form.kernel_basis(field)
        restricted = emb.transpose() @ gram @ emb
        dim = form.intrinsic_dim
        rad = dim - restricted.rank()
    else:
        dim = form.space.dim
        rad = radical_dimension(bilinear_bx(form, v))
    return MinimalityVerdict(rad == dim - 1, "radical", {"radical_dimension": rad})


# minimal-orbit samplers


def _rand_nonzero_ints(field, rng, k, lo=-4, hi=4):
    while True:
        v = [field.of(rng.randint(lo, hi)) for _ in range(k)]
        if any(x != field.zero for x in v):
            return v


def sample_minimal(target, field, rng) -> RepVector:
    """A uniform-ish nonzero point of the minimal cone for the target line."""
    form = target if isinstance(target, InvariantForm) else None
    space = target.space if form is not None else target
    base = _base_line(form) if form is not None else None
    kind = space.kind
    c = rand_unit(field, rng, 4)
    if base == "quadric":
        v = isotropic_vector(field, rng, form.gram(field))
        return RepVector(space, field, [c * x for x in v])
    if base == "mat2n":
        n = space.params["n"]
        w = isotropic_vector(field, rng, form.gram(field))
        u = _rand_nonzero_ints(field, rng, 2)
        return RepVector(space, field, [u[i] * w[j] for i in range(2) for j in range(n)])
    if base == "sp6":
        # Lambda^3(g) e_024 = g e_0 wedge g e_2 wedge g e_4
        g, _ = gsp6_element(field, rng)
        cols = list(zip(*g.rows))
        coords = wedge_of_vectors(field, 6, [cols[0], cols[2], cols[4]]).coords
        return RepVector(space, field, [c * x for x in coords])
    if kind == "vector":
        return RepVector(space, field, _rand_nonzero_ints(field, rng, space.dim))
    if kind == "symm":
        n = space.params["n"]
        u = _rand_nonzero_ints(field, rng, n)
        rows = [[c * u[i] * u[j] for j in range(n)] for i in range(n)]
        return RepVector.from_matrix(space, field, rows)
    if kind == "alt":
        n = space.params["n"]
        while True:
            u = _rand_nonzero_ints(field, rng, n)
            w = _rand_nonzero_ints(field, rng, n)
            rows = [[c * (u[i] * w[j] - u[j] * w[i]) for j in range(n)] for i in range(n)]
            v = RepVector.from_matrix(space, field, rows)
            if not v.is_zero():
                return v
    if kind in ("square", "rect"):
        m = space.params.get("m", space.params["n"])
        n = space.params["n"]
        u = _rand_nonzero_ints(field, rng, m)
        w = _rand_nonzero_ints(field, rng, n)
        return RepVector(space, field, [c * u[i] * w[j] for i in range(m) for j in range(n)])
    if kind == "wedge":
        d, n = space.params["d"], space.params["n"]
        while True:
            vecs = [_rand_nonzero_ints(field, rng, n) for _ in range(d)]
            if Matrix(field, vecs).rank() == d:
                return wedge_of_vectors(field, n, vecs).scale(c)
    if kind == "cubic":
        p = field.of(rng.randint(-3, 3))
        q = field.of(rng.randint(-3, 3))
        if p == field.zero and q == field.zero:
            p = field.one
        three = field.of(3)
        return RepVector(
            space, field, [c * p * p * p, c * three * p * p * q, c * three * p * q * q, c * q * q * q]
        )
    if kind == "tritensor":
        u = _rand_nonzero_ints(field, rng, 2)
        w = _rand_nonzero_ints(field, rng, 2)
        x = _rand_nonzero_ints(field, rng, 2)
        return RepVector(
            space, field, [u[i] * w[j] * x[k] for i in range(2) for j in range(2) for k in range(2)]
        )
    raise MinimalityError("no minimal-orbit sampler for %r" % space)

