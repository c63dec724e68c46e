import random
from fractions import Fraction

import pytest

from linpres.fields import (
    FieldError,
    PrimeField,
    QQ,
    RationalField,
    Residue,
    is_prime,
    parse_field,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
    for n in range(-3, 42):
        assert is_prime(n) == (n in primes)


def test_is_prime_larger():
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)
    assert is_prime(10**9 + 7)
    assert not is_prime(561)  # Carmichael


def test_is_prime_rejects_strong_pseudoprime_to_bases_up_to_37():
    n = 399165290221 * 798330580441  # strong pseudoprime to every base 2..37
    assert n == 318665857834031151167461
    assert not is_prime(n)
    with pytest.raises(FieldError):
        parse_field("Fp:%d" % n)


def test_moduli_beyond_the_exact_primality_bound_are_rejected():
    # bases 2..41 decide primality exactly below 3317044064679887385961981
    assert is_prime(3317044064679887385961813)  # the largest prime below it
    for n in (3317044064679887385961981, 2**89 - 1):
        with pytest.raises(FieldError):
            is_prime(n)
        with pytest.raises(FieldError):
            PrimeField(n)


class TestResidue:
    def test_arithmetic_mod7(self):
        a = Residue(3, 7)
        b = Residue(5, 7)
        assert (a + b).value == 1
        assert (a - b).value == 5
        assert (a * b).value == 1
        assert (-a).value == 4
        assert (a / b) == a * Residue(3, 7)  # 5^-1 = 3 mod 7

    def test_pow(self):
        a = Residue(3, 7)
        assert (a**6).value == 1
        assert (a**0).value == 1
        assert a**-1 == Residue(5, 7)

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Residue(1, 7) / Residue(0, 7)

    def test_mixed_moduli_raise(self):
        with pytest.raises(FieldError):
            Residue(1, 7) + Residue(1, 11)

    def test_no_silent_int_mix(self):
        with pytest.raises(TypeError):
            Residue(1, 7) + 1  # type: ignore[operator]

    def test_eq_hash_bool(self):
        assert Residue(8, 7) == Residue(1, 7)
        assert Residue(1, 7) != Residue(1, 11)
        assert hash(Residue(8, 7)) == hash(Residue(1, 7))
        assert not Residue(0, 7)
        assert Residue(3, 7)

    def test_immutable(self):
        a = Residue(3, 7)
        with pytest.raises(AttributeError):
            a.value = 5  # type: ignore[misc]


class TestRationalField:
    def test_basics(self):
        assert QQ.zero == 0
        assert QQ.one == 1
        assert QQ.of(3) == Fraction(3)
        assert QQ.of(Fraction(2, 5)) == Fraction(2, 5)
        assert QQ.inv(Fraction(2, 5)) == Fraction(5, 2)
        with pytest.raises(ZeroDivisionError):
            QQ.inv(Fraction(0))

    def test_format_parse_roundtrip(self):
        for x in [Fraction(0), Fraction(7), Fraction(-3), Fraction(2, 5), Fraction(-9, 4)]:
            s = QQ.format(x)
            assert QQ.parse(s) == x
        assert QQ.format(Fraction(7)) == "7"
        assert QQ.format(Fraction(-2, 5)) == "-2/5"

    def test_parse_rejects_garbage(self):
        with pytest.raises(FieldError):
            QQ.parse("1/0")
        with pytest.raises(FieldError):
            QQ.parse("zebra")

    def test_sample_in_range(self):
        rng = random.Random(0)
        for _ in range(200):
            x = QQ.sample(rng, 10)
            assert -10 <= x.numerator <= 10 or abs(x) <= 10
            assert 1 <= x.denominator <= 10

    def test_descriptor(self):
        assert QQ.descriptor == "Q"
        assert QQ == RationalField()


class TestPrimeField:
    def test_admissibility(self):
        PrimeField(5)
        PrimeField(7)
        PrimeField(10**9 + 7)
        with pytest.raises(FieldError):
            PrimeField(4)
        with pytest.raises(FieldError):
            PrimeField(2)
        with pytest.raises(FieldError):
            PrimeField(2, allow_small=True)
        with pytest.raises(FieldError):
            PrimeField(3)
        assert PrimeField(3, allow_small=True).modulus == 3

    def test_of_fraction(self):
        F7 = PrimeField(7)
        assert F7.of(Fraction(1, 2)) == Residue(4, 7)  # 2*4 = 1 mod 7
        assert F7.of(10) == Residue(3, 7)
        with pytest.raises(FieldError):
            F7.of(Fraction(1, 7))

    def test_elements_units(self):
        F5 = PrimeField(5)
        assert [e.value for e in F5.elements()] == [0, 1, 2, 3, 4]

    def test_inv(self):
        F7 = PrimeField(7)
        for v in range(1, 7):
            assert (F7.inv(Residue(v, 7)) * Residue(v, 7)) == F7.one
        with pytest.raises(ZeroDivisionError):
            F7.inv(F7.zero)

    def test_format_parse(self):
        F7 = PrimeField(7)
        assert F7.format(Residue(3, 7)) == "3"
        assert F7.parse("10") == Residue(3, 7)
        assert F7.parse("1/2") == Residue(4, 7)

    def test_descriptor_eq(self):
        assert PrimeField(7).descriptor == "Fp:7"
        assert PrimeField(7) == PrimeField(7)
        assert PrimeField(7) != PrimeField(11)
        assert PrimeField(7) != QQ


def test_parse_field():
    assert parse_field("Q") is QQ
    assert parse_field("Fp:7") == PrimeField(7)
    with pytest.raises(FieldError):
        parse_field("Fp:6")
    with pytest.raises(FieldError):
        parse_field("Fp:3")  # small primes need the explicit flag
    with pytest.raises(FieldError):
        parse_field("R")
    with pytest.raises(FieldError):
        parse_field("Fp:x")
