"""Exact scalar arithmetic: arbitrary-precision rationals and odd prime fields.

Every computation in this package is exact; there is no floating point.
The two scalar domains are the rationals (stdlib Fraction) and prime fields
F_p with p >= 5.  Characteristics 2 and 3 are rejected globally because the
degree-4 machinery divides by 24; F_3 can be requested through an explicit
flag for the one exhaustive search that is proven to avoid that machinery.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache


class FieldError(ValueError):
    """Inadmissible field parameters or malformed scalar text."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to every base above (Sorenson and Webster 2015)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3317044064679887385961981
    (about 3.3e24); larger n raise FieldError rather than risk a wrong answer."""
    if n >= _MR_EXACT_BELOW:
        raise FieldError("primality of %d is not decided exactly above 3.3e24" % n)
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Residue:
    """Element of F_p.  Immutable; arithmetic only with same-modulus residues."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        object.__setattr__(self, "value", value % modulus)
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, name, val):
        raise AttributeError("Residue is immutable")

    def _other(self, other) -> int:
        if not isinstance(other, Residue):
            return NotImplemented  # type: ignore[return-value]
        if other.modulus != self.modulus:
            raise FieldError("mixed moduli %d and %d" % (self.modulus, other.modulus))
        return other.value

    def __add__(self, other):
        v = self._other(other)
        if v is NotImplemented:
            return NotImplemented
        return Residue(self.value + v, self.modulus)

    def __sub__(self, other):
        v = self._other(other)
        if v is NotImplemented:
            return NotImplemented
        return Residue(self.value - v, self.modulus)

    def __mul__(self, other):
        v = self._other(other)
        if v is NotImplemented:
            return NotImplemented
        return Residue(self.value * v, self.modulus)

    def __truediv__(self, other):
        v = self._other(other)
        if v is NotImplemented:
            return NotImplemented
        if v == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.modulus)
        return Residue(self.value * pow(v, self.modulus - 2, self.modulus), self.modulus)

    def __neg__(self):
        return Residue(-self.value, self.modulus)

    def __pow__(self, k: int):
        if k < 0:
            return Residue(1, self.modulus) / self.__pow__(-k)
        return Residue(pow(self.value, k, self.modulus), self.modulus)

    def __eq__(self, other):
        return (
            isinstance(other, Residue)
            and other.modulus == self.modulus
            and other.value == self.value
        )

    def __hash__(self):
        return hash((self.value, self.modulus))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return "Residue(%d, %d)" % (self.value, self.modulus)


def below(rng, n: int) -> int:
    """rng.randrange(n), n >= 1, with the same value and rng state, minus its
    Python wrappers: k = n.bit_length() bits of rng.getrandbits, drawn again at or
    above n.  rng.choice(s) reads s[below(rng, len(s))], randint(a, b) a + below(rng, b - a + 1)."""
    k = n.bit_length()
    x = rng.getrandbits(k)
    while x >= n:
        x = rng.getrandbits(k)
    return x


@cache
def byte_table(p, c):
    """The bytes.translate table of b -> c b mod p on every byte b."""
    return bytes(c * b % p for b in range(256))


class RationalField:
    """The rationals.  Elements are fractions.Fraction."""

    is_field = True
    modulus = None
    zero = Fraction(0)
    one = Fraction(1)

    @property
    def descriptor(self) -> str:
        return "Q"

    def of(self, x) -> Fraction:
        """Coerce an int or Fraction (or Fraction-convertible string) to an element."""
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            try:
                return Fraction(x)
            except (ValueError, ZeroDivisionError) as exc:
                raise FieldError("bad rational %r" % (x,)) from exc
        raise FieldError("cannot coerce %r to Q" % (x,))

    def inv(self, x: Fraction) -> Fraction:
        if x == 0:
            raise ZeroDivisionError("division by zero in Q")
        return 1 / x

    def sample(self, rng: random.Random, bound: int) -> Fraction:
        """Uniform numerator in [-bound, bound], denominator in [1, bound]."""
        if bound < 1:
            raise FieldError("sample bound must be >= 1")
        return Fraction(below(rng, 2 * bound + 1) - bound, below(rng, bound) + 1)

    @property
    def sz_set_size(self) -> int:
        return 1 << 32

    def format(self, x: Fraction) -> str:
        if x.denominator == 1:
            return str(x.numerator)
        return "%d/%d" % (x.numerator, x.denominator)

    def parse(self, s: str) -> Fraction:
        return self.of(s.strip())

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "RationalField()"


class PrimeField:
    """F_p for prime p >= 5 (p = 3 only through allow_small=True)."""

    is_field = True

    def __init__(self, p: int, allow_small: bool = False):
        if not isinstance(p, int) or not is_prime(p):
            raise FieldError("modulus %r is not prime" % (p,))
        if p == 2:
            raise FieldError("characteristic 2 is never admissible")
        if p < 5 and not allow_small:
            raise FieldError(
                "characteristic 3 is excluded; pass allow_small=True only for "
                "searches proven to avoid division by 2 and 3"
            )
        self.modulus = p
        self.zero = Residue(0, p)
        self.one = Residue(1, p)

    @property
    def descriptor(self) -> str:
        return "Fp:%d" % self.modulus

    def of(self, x) -> Residue:
        p = self.modulus
        if isinstance(x, Residue):
            if x.modulus != p:
                raise FieldError("mixed moduli")
            return x
        if isinstance(x, int):
            return Residue(x, p)
        if isinstance(x, Fraction):
            if x.denominator % p == 0:
                raise FieldError("denominator divisible by %d" % p)
            return Residue(x.numerator * pow(x.denominator, p - 2, p), p)
        if isinstance(x, str):
            try:
                return self.of(Fraction(x))
            except (ValueError, ZeroDivisionError) as exc:
                raise FieldError("bad scalar %r" % (x,)) from exc
        raise FieldError("cannot coerce %r to F_%d" % (x, p))

    def inv(self, x: Residue) -> Residue:
        if x.value == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.modulus)
        return Residue(pow(x.value, self.modulus - 2, self.modulus), self.modulus)

    def sample(self, rng: random.Random, bound: int = 0) -> Residue:
        """Uniform over the whole field; the bound is ignored."""
        return Residue(below(rng, self.modulus), self.modulus)

    @property
    def sz_set_size(self) -> int:
        return self.modulus

    def elements(self):
        for v in range(self.modulus):
            yield Residue(v, self.modulus)

    def format(self, x: Residue) -> str:
        return str(x.value)

    def parse(self, s: str) -> Residue:
        return self.of(s.strip())

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("Fp", self.modulus))

    def __repr__(self):
        return "PrimeField(%d)" % self.modulus


QQ = RationalField()


def parse_field(descriptor: str):
    """Parse a field descriptor: "Q" or "Fp:<prime>"."""
    d = descriptor.strip()
    if d == "Q":
        return QQ
    if d.startswith("Fp:"):
        try:
            p = int(d[3:])
        except ValueError as exc:
            raise FieldError("bad field descriptor %r" % descriptor) from exc
        return PrimeField(p)
    raise FieldError("bad field descriptor %r (expected 'Q' or 'Fp:<prime>')" % descriptor)
