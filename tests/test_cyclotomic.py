"""Cyclotomic arithmetic on int numerators against the Fraction-coefficient
class it replaced (tests/cyclotomic_oracle.py), and hashing that agrees
with equality."""

import random
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest

from cyclotomic_oracle import Cyclotomic as FractionCyclotomic
from synclcs.cyclotomic import Cyclotomic

PRIMES = [2, 3, 5, 7, 31]


def random_coeffs(rng: random.Random, p: int) -> list:
    """p coefficients: zeros, small ints and small fractions."""
    def coeff():
        kind = rng.random()
        if kind < 0.4:
            return 0
        if kind < 0.7:
            return rng.randint(-3, 3)
        return Fraction(rng.randint(-5, 5), rng.randint(1, 6))
    return [coeff() for _ in range(p)]


def random_rational(rng: random.Random):
    if rng.random() < 0.5:
        return rng.randint(-4, 4)
    return Fraction(rng.randint(-5, 5), rng.randint(1, 6))


def float_bits(x: float) -> str:
    return x.hex()  # keeps the sign of a zero


def assert_same(new, old) -> None:
    """The element and the oracle's agree in everything they show."""
    assert type(new) is Cyclotomic and type(old) is FractionCyclotomic
    assert new.p == old.p
    # canonical: no omega^(p-1) term, in lowest terms over a positive den
    assert new.nums[-1] == 0 and new.den > 0 and gcd(new.den, *new.nums) == 1
    assert all(type(n) is int for n in new.nums) and type(new.den) is int
    assert new.coeffs == old.coeffs
    assert all(type(c) is Fraction for c in new.coeffs)
    assert new.is_zero() == old.is_zero()
    assert float_bits(abs(new)) == float_bits(abs(old))
    z_new, z_old = complex(new), complex(old)
    assert (float_bits(z_new.real), float_bits(z_new.imag)) == (
        float_bits(z_old.real), float_bits(z_old.imag))
    assert repr(new) == repr(old)


def pair(p: int, coeffs) -> tuple:
    return Cyclotomic(p, coeffs), FractionCyclotomic(p, coeffs)


@pytest.mark.parametrize("p", PRIMES)
def test_arithmetic_matches_the_fraction_oracle(p):
    rng = random.Random(1000 + p)
    elements = [pair(p, random_coeffs(rng, p)) for _ in range(12)]
    elements += [(Cyclotomic.one(p), FractionCyclotomic.one(p)),
                 (Cyclotomic.omega_power(p, 1), FractionCyclotomic.omega_power(p, 1)),
                 (Cyclotomic.omega_power(p, -1), FractionCyclotomic.omega_power(p, -1)),
                 pair(p, [0] * p)]
    # adding one rational to every coefficient adds a multiple of the
    # vanishing sum of the roots: the same element from other coefficients
    for new, old in elements[:4]:
        shift = random_rational(rng)
        shifted = pair(p, [c + shift for c in old.coeffs])
        assert shifted[0] == new and shifted[1] == old
        elements.append(shifted)
    for new, old in elements:
        assert_same(new, old)
        assert_same(-new, -old)
        assert_same(new.conjugate(), old.conjugate())
        for n in range(4):
            assert_same(new ** n, old ** n)
        for q in (random_rational(rng), rng.randint(-4, 4), Fraction(rng.randint(1, 5), 7)):
            assert_same(new + q, old + q)
            assert_same(q + new, q + old)
            assert_same(new - q, old - q)
            assert_same(q - new, q - old)
            assert_same(new * q, old * q)
            assert_same(q * new, q * old)
            if q:
                assert_same(new / q, old / q)
            assert (new == q) == (old == q)
            assert (q == new) == (q == old)
        rational = pair(p, [random_rational(rng)] + [0] * (p - 1))
        assert (new == rational[0].coeffs[0]) == (old == rational[1].coeffs[0])
    for (a_new, a_old), (b_new, b_old) in zip(elements, rng.sample(elements, len(elements))):
        assert_same(a_new + b_new, a_old + b_old)
        assert_same(a_new - b_new, a_old - b_old)
        assert_same(a_new * b_new, a_old * b_old)
        assert (a_new == b_new) == (a_old == b_old)
        assert (a_new != b_new) == (a_old != b_old)


@pytest.mark.parametrize("p", PRIMES)
def test_refusals_match_the_fraction_oracle(p):
    other = 3 if p != 3 else 5
    for cls in (Cyclotomic, FractionCyclotomic):
        for length in (p - 1, p + 1):
            with pytest.raises(ValueError, match=f"need {p} coefficients, got {length}"):
                cls(p, [1] * length)
        x, y = cls.omega_power(p, 1), cls.omega_power(other, 1)
        for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: y * x):
            with pytest.raises(ValueError, match="mixed cyclotomic orders"):
                op()
        assert x != y
        for zero in (0, Fraction(0)):
            with pytest.raises(ZeroDivisionError):
                x / zero
        with pytest.raises(ValueError):
            x ** -1


def test_constructor_takes_what_fraction_takes():
    coeffs = ["1/3", 0.25, Decimal("-1.5"), Fraction(2, 9), True]
    assert_same(*pair(5, coeffs))


@pytest.mark.parametrize("p", PRIMES)
def test_rationals_hash_as_their_value(p):
    # the int entries of an identity and the cyclotomic entries of a family
    # are keys of one dict in ProjectionFamily.edge_products
    one, half = Cyclotomic.one(p), Cyclotomic(p, [Fraction(1, 2)] + [0] * (p - 1))
    zero = Cyclotomic(p, [0] * p)
    for element, value in ((one, 1), (half, Fraction(1, 2)), (zero, 0),
                           (Cyclotomic(p, [-7] + [0] * (p - 1)), -7)):
        assert element == value and hash(element) == hash(value)
        assert element in {value} and value in {element}
        assert {value: "v"}[element] == "v" and {element: "e"}[value] == "e"
    assert {(1, 0): "row"}[(one, zero)] == "row"
    # the same rational from other coefficients, and p's sum of the roots
    ones = Cyclotomic(p, [1] * p)
    assert ones == 0 and ones in {0}
    assert Cyclotomic(p, [2] * p) in {zero}
    omega = Cyclotomic.omega_power(p, 1)  # rational only at p = 2, as -1
    assert (omega in {-1}) == (omega == -1) == (p == 2)
    assert {omega: "w"}[Cyclotomic.omega_power(p, 1 + p)] == "w"
