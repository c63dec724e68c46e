"""Three independent tests for membership in the minimal orbit cone.

- structure oracle: the line-specific closed description (rank one,
  decomposable, scalar cube, ...);
- root-spread oracle: f(t v + w) has t-degree at most a line threshold for
  every w exactly when v is minimal (threshold 1 for the determinant,
  Pfaffian and quadric lines, 2 for the binary cubic discriminant);
- radical oracle, quartic lines only: the bilinear form b_v obtained by
  polarizing f twice at v has radical of dimension dim - 1 exactly on the
  minimal cone; its rank is read off the integer Gram of c_2, the t^2
  coefficient of f(u + t D v).

All three read v on its integer coordinates (RepVector.ints): residues
over F_p, D v over Q for D the least common denominator.  The structure
oracle applies each line's rule to them; the root-spread and radical
oracles read f along the line through D v with
InvariantForm.line_coefficients, so every polarization runs f's integer
formula.  Every rule is homogeneous and the cone is closed under nonzero
scalars, so any nonzero multiple of v, D v or the image R x under a map
s R, gets v's verdict.  The zero vector is never minimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from operator import mul

from .forms import InvariantForm, simplex_lattice
from .linalg import canonical, clear_denominators, int_rank
from .multilinear import RepVector, Space, bx_int_gram, full_rows, wedge_map_rows, wedge_of_vectors
from .sampling import _randints, gsp6_word, isotropic_vector, rand_unit, word_columns


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

# the three 2 x 4 flattenings of a 2x2x2 tensor, as coordinate indices
_FLATTENINGS = (((0, 1, 2, 3), (4, 5, 6, 7)), ((0, 1, 4, 5), (2, 3, 6, 7)), ((0, 2, 4, 6), (1, 3, 5, 7)))


def _is_cube(x, p):
    """x = c (s^3, 3 s^2 t, 3 s t^2, t^3) for some c != 0 and (s, t): with
    a0 = 0 only a3 may be nonzero; otherwise t / s = a1 / (3 a0), which with
    its denominators cleared reads 3 a0 a2 = a1^2 and 27 a0^2 a3 = a1^3."""
    a0, a1, a2, a3 = x
    if not a0:
        return not a1 and not a2 and bool(a3)
    checks = (3 * a0 * a2 - a1 * a1, 27 * a0 * a0 * a3 - a1 * a1 * a1)
    return not any(e % p if p is not None else e for e in checks)


def _cubic_witness(field, coords):
    """(c, (s, t)) of a cube c (s x + t y)^3, in the verdict's format."""
    a0, a1, _, a3 = coords
    z, one = field.zero, field.one
    c, root = (a3, (z, one)) if a0 == z else (a0, (one, a1 / (field.of(3) * a0)))
    return {"scale": field.format(c), "root": [field.format(r) for r in root]}


@cache
def structure_rule(target, field):
    """x -> whether the vector with integer coordinates x lies on the minimal
    cone of the target (a form, or a bare space carrying no invariant) over
    the field; x holds residues in [0, p) over F_p and any nonzero multiple
    of the vector, such as D v, over Q."""
    p = field.modulus
    if isinstance(target, InvariantForm):
        base, space = _base_line(target), target.space
        if base == "quadric":
            fn = target.int_evaluator(field)
            return lambda x: any(x) and fn(x) == 0
        if base == "mat2n":
            rank_one, n, s = structure_rule(space, field), target.n, target._s_int

            def isotropic_rank_one(x):
                # rank one, and its nonzero row w isotropic: w^t (D S) w = 0
                if not rank_one(x):
                    return False
                target.gram(field)  # S must be invertible over the field
                w = x[:n] if any(x[:n]) else x[n:]
                q = sum(a * sum(map(mul, row, w)) for a, row in zip(w, s))
                return not (q % p if p is not None else q)

            return isotropic_rank_one
        if base == "sp6":
            decomposable = structure_rule(space, field)

            def lagrangian(x):
                # u1 ^ u2 ^ u3 has contraction b(u1, u2) u3 - b(u1, u3) u2
                # + b(u2, u3) u1, zero only for an isotropic span: past the
                # contraction test, decomposable means Lagrangian
                if not target.contracts_to_zero(x, p):
                    raise MinimalityError("vector has nonzero contraction")
                return decomposable(x)

            return lagrangian
        return structure_rule(space, field)
    space, kind = target, target.kind
    if space.shape is not None:
        rank = 2 if kind == "alt" else 1
        return lambda x: any(x) and int_rank(full_rows(space, x, 0), p) == rank
    if kind == "wedge":
        # the annihilator {u : u ^ v = 0} has dimension d, n - d the rank
        rank = space.params["n"] - space.params["d"]
        return lambda x: any(x) and int_rank(wedge_map_rows(space, x, 0), p) == rank
    if kind == "cubic":
        return lambda x: any(x) and _is_cube(x, p)
    if kind == "tritensor":
        return lambda x: any(x) and all(int_rank([[x[i] for i in r] for r in flat], p) == 1 for flat in _FLATTENINGS)
    raise MinimalityError("no structure rule for space %r" % space)


def minimal_by_rank(target, v: RepVector) -> MinimalityVerdict:
    """Structure oracle.  The target is a form, or a bare space for the
    representations carrying no invariant (e.g. generic rectangular matrices)."""
    space = target if isinstance(target, Space) else target.space
    if v.space != space:
        what = "target" if space is target else "form on"
        raise MinimalityError("vector in %r, %s %r" % (v.space, what, space))
    field = v.field
    ok = structure_rule(target, field)(v.ints()[0])
    witness = _cubic_witness(field, v.coords) if ok and v.space.kind == "cubic" else None
    return MinimalityVerdict(ok, "structure", witness)


# root-spread oracle

RRS_THRESHOLD = {"symm-det": 1, "skew-pf": 1, "square-det": 1, "quadric": 1, "cubic-disc": 2}


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
    dv, _ = v.ints()  # c_k for D v is D^k c_k for v
    if policy == "exact":
        if field.modulus is not None and field.modulus <= deg:
            raise MinimalityError(
                "exact interpolation needs p > deg f; p = %d is too small for degree %d"
                % (field.modulus, deg)
            )
        coefficients, _ = form.line_coefficients(field, dv)
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
        coefficients, _ = form.line_coefficients(field, dv)
        for trial in range(1, trials + 1):
            w = _randints(rng, -99, 99, dim)
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
    exactly on the minimal cone, dim the number of raw-point columns
    (InvariantForm.raw_embedding: the unit vectors, or for sp6 the 14
    integer columns of its kernel basis, where v must lie in the kernel).
    The radical is dim - rank G for the integer Gram G of b_v on those
    columns (multilinear.bx_int_gram), a nonzero multiple of b_v's Gram."""
    base = _base_line(form)
    if base not in RADICAL_LINES:
        raise MinimalityError("no radical rule for line %r" % form.line)
    if v.space != form.space:
        raise MinimalityError("vector in %r, form on %r" % (v.space, form.space))
    if v.is_zero():
        return MinimalityVerdict(False, "radical", None)
    if base == "sp6" and not form.in_kernel(v):
        raise MinimalityError("vector has nonzero contraction")
    gram, _ = bx_int_gram(form, v)
    dim = len(gram)
    rad = dim - int_rank(gram, v.field.modulus)
    return MinimalityVerdict(rad == dim - 1, "radical", {"radical_dimension": rad})


# minimal-orbit samplers


def _rand_nonzero_ints(rng, k, field):
    """k integers from [-4, 4], drawn again until one is nonzero in the
    field; residues mod p over F_p."""
    while True:
        (v,), _ = canonical(field, [_randints(rng, -4, 4, k)])
        if any(v):
            return v


def sample_minimal(target, field, rng) -> RepVector:
    """A uniform-ish nonzero point of the minimal cone for the target line,
    built as integers x over a denominator D: (c / D) x as RepVector._exact."""
    form = target if isinstance(target, InvariantForm) else None
    space = target.space if form is not None else target
    base = _base_line(form) if form is not None else None
    kind = space.kind
    c = rand_unit(field, rng, 4)
    one = field.one

    def vector(s, ints, den=1):
        return RepVector._exact(space, field, s, den, ints)

    if base == "quadric":
        (w,), den = clear_denominators(field, [isotropic_vector(field, rng, form.gram(field))])
        return vector(c, w, den)
    if base == "mat2n":
        n = space.params["n"]
        (w,), den = clear_denominators(field, [isotropic_vector(field, rng, form.gram(field))])
        u = _rand_nonzero_ints(rng, 2, field)
        return vector(one, [u[i] * w[j] for i in range(2) for j in range(n)], den)
    if base == "sp6":
        # Lambda^3(g) e_024 = g e_0 wedge g e_2 wedge g e_4, for g = G / D:
        # only those three columns of G are built
        word, d, _ = gsp6_word(field, rng)
        ints, den = word_columns(field, word, d, (0, 2, 4))
        return wedge_of_vectors(field, 6, list(zip(*ints)), c / field.of(den**3))
    if kind == "symm":
        u = _rand_nonzero_ints(rng, space.shape[0], field)
        return vector(c, [u[i] * u[j] for i, j in space.pairs])
    if kind == "alt":
        n = space.params["n"]
        while True:
            u, w = _rand_nonzero_ints(rng, n, field), _rand_nonzero_ints(rng, n, field)
            v = vector(c, [u[i] * w[j] - u[j] * w[i] for i, j in space.pairs])
            if not v.is_zero():
                return v
    if kind in ("square", "rect"):
        m, n = space.shape
        u, w = _rand_nonzero_ints(rng, m, field), _rand_nonzero_ints(rng, n, field)
        return vector(c, [u[i] * w[j] for i in range(m) for j in range(n)])
    if kind == "wedge":
        d, n = space.params["d"], space.params["n"]
        while True:
            # the wedge is nonzero exactly when the d vectors are independent
            v = wedge_of_vectors(field, n, [_rand_nonzero_ints(rng, n, field) for _ in range(d)], c)
            if not v.is_zero():
                return v
    if kind == "cubic":
        ((s, t),), _ = canonical(field, [_randints(rng, -3, 3, 2)])
        if not s and not t:
            s = 1
        return vector(c, [s * s * s, 3 * s * s * t, 3 * s * t * t, t * t * t])
    if kind == "tritensor":
        u, w, x = (_rand_nonzero_ints(rng, 2, field) for _ in range(3))
        return vector(one, [u[i] * w[j] * x[k] for i in range(2) for j in range(2) for k in range(2)])
    raise MinimalityError("no minimal-orbit sampler for %r" % space)
