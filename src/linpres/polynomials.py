"""Sparse exact multivariate polynomials over the package's scalar fields.

Coefficients are stored raw for speed: Python ints reduced mod p over a
prime field, ints or Fractions over the rationals.  Monomial keys are
exponent tuples.  Polynomial entries plug into the same generic evaluation
code as field elements (shared ring protocol: zero, one, of).
"""

from __future__ import annotations

from fractions import Fraction

from .fields import FieldError, Residue


def _demote(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


class PolyRing:
    """Polynomial ring over a RationalField or PrimeField."""

    is_field = False

    def __init__(self, field, names):
        self.field = field
        self.names = tuple(names)
        self.nvars = len(self.names)
        self.modulus = field.modulus
        self._zero_key = (0,) * self.nvars
        self.zero = Poly(self, {})
        self.one = Poly(self, {self._zero_key: 1})

    def gens(self):
        out = []
        for i in range(self.nvars):
            key = tuple(1 if j == i else 0 for j in range(self.nvars))
            out.append(Poly(self, {key: 1}))
        return tuple(out)

    def raw(self, x):
        """Raw coefficient (int, or Fraction over Q) from a scalar-like value."""
        p = self.modulus
        if isinstance(x, Residue):
            if x.modulus != p:
                raise FieldError("mixed moduli")
            return x.value
        if isinstance(x, int):
            return x % p if p is not None else x
        if isinstance(x, Fraction):
            if p is None:
                return _demote(x)
            if x.denominator % p == 0:
                raise FieldError("denominator divisible by %d" % p)
            return x.numerator * pow(x.denominator, p - 2, p) % p
        raise FieldError("cannot coerce %r into %r" % (x, self))

    def raw_to_field(self, c):
        if self.modulus is not None:
            return Residue(c, self.modulus)
        return Fraction(c)

    def of(self, x):
        c = self.raw(x)
        return Poly(self, {self._zero_key: c} if c else {})

    def const(self, x):
        """Constant polynomial from a field element."""
        return self.of(x)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and other.field == self.field
            and other.names == self.names
        )

    def __hash__(self):
        return hash((self.field, self.names))

    def __repr__(self):
        return "PolyRing(%r, %r)" % (self.field, self.names)


class Poly:
    """Immutable sparse polynomial; terms maps exponent tuple -> raw coefficient."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, val):
        raise AttributeError("Poly is immutable")

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise FieldError("mixed polynomial rings")
            return other
        if isinstance(other, (int, Fraction, Residue)):
            return self.ring.of(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.ring.modulus
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if p is not None:
                s %= p
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.modulus
        if p is not None:
            return Poly(self.ring, {k: (p - c) % p for k, c in self.terms.items()})
        return Poly(self.ring, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.ring.modulus
        out: dict = {}
        a = self.terms
        b = other.terms
        if len(a) > len(b):
            a, b = b, a
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = tuple(x + y for x, y in zip(ka, kb))
                out[k] = out.get(k, 0) + ca * cb
        if p is not None:
            out = {k: c % p for k, c in out.items() if c % p}
        else:
            out = {k: _demote(c) for k, c in out.items() if c}
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise FieldError("negative polynomial power")
        result = self.ring.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(k) for k in self.terms)

    def coefficient(self, key) -> object:
        """Coefficient of the given exponent tuple, as a field element."""
        return self.ring.raw_to_field(self.terms.get(tuple(key), 0))

    def constant_value(self):
        if any(sum(k) for k in self.terms):
            raise FieldError("polynomial is not constant")
        return self.ring.raw_to_field(self.terms.get(self.ring._zero_key, 0))

    def evaluate(self, vals):
        """Evaluate at field elements (or raw scalars); returns a field element."""
        ring = self.ring
        if len(vals) != ring.nvars:
            raise FieldError("expected %d values" % ring.nvars)
        raw = [ring.raw(v) for v in vals]
        p = ring.modulus
        acc = 0
        if p is not None:
            for k, c in self.terms.items():
                t = c
                for v, e in zip(raw, k):
                    if e:
                        t = t * pow(v, e, p) % p
                acc = (acc + t) % p
        else:
            for k, c in self.terms.items():
                t = c
                for v, e in zip(raw, k):
                    if e:
                        t = t * v**e
                acc = acc + t
        return ring.raw_to_field(acc)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Residue)):
            other = self.ring.of(other)
        return (
            isinstance(other, Poly)
            and other.ring == self.ring
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        names = self.ring.names
        parts = []
        for k in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True):
            c = self.terms[k]
            factors = []
            for name, e in zip(names, k):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append("%s*%s" % (c, "*".join(factors)))
        return " + ".join(parts).replace("+ -", "- ")
