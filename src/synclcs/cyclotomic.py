"""Exact arithmetic in the cyclotomic field Q(omega) for omega = exp(2*pi*i/p).

Scalar representations built from classical solutions must certify their
identities with residual exactly zero, which binary floats cannot deliver
for p > 2 (the float omega**p is only approximately 1).  Elements here are
stored as rational coefficient vectors over the powers omega^0..omega^(p-1),
canonicalized with the relation 1 + omega + ... + omega^(p-1) = 0 so that
equality and zero-testing are exact.

A vector is held as Python-int numerators over one positive denominator,
in lowest terms: the arithmetic builds no Fraction.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd, lcm

_PHASE_CACHE: dict[int, tuple[complex, ...]] = {}


def _phases(p: int) -> tuple[complex, ...]:
    if p not in _PHASE_CACHE:
        _PHASE_CACHE[p] = tuple(cmath.exp(2j * cmath.pi * t / p) for t in range(p))
    return _PHASE_CACHE[p]


class Cyclotomic:
    """An element of Q(omega_p), exact under +, -, *, conjugation and /int.

    `Cyclotomic(p, coeffs)` takes p coefficients that Fraction() accepts;
    `Cyclotomic(p, nums, den)` takes p ints over the positive int den.
    Either way the element is stored canonically: `nums` ints whose
    omega^(p-1) entry is 0, over `den` > 0, with gcd(nums, den) = 1."""

    __slots__ = ("p", "nums", "den")

    def __init__(self, p: int, coeffs, den: int | None = None):
        if den is None:
            fracs = [Fraction(c) for c in coeffs]
            den = lcm(*(f.denominator for f in fracs))
            coeffs = [f.numerator * (den // f.denominator) for f in fracs]
        if len(coeffs) != p:
            raise ValueError(f"need {p} coefficients, got {len(coeffs)}")
        # canonical form: force the omega^(p-1) coefficient to zero using
        # the vanishing sum of all p-th roots of unity
        last = coeffs[-1]
        if last:
            coeffs = [c - last for c in coeffs]
        if den != 1:
            g = gcd(den, *coeffs)
            if g != 1:
                den //= g
                coeffs = [c // g for c in coeffs]
        self.p = p
        self.nums = tuple(coeffs)
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients of omega^0..omega^(p-1)."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    @staticmethod
    def one(p: int) -> "Cyclotomic":
        return Cyclotomic(p, [1] + [0] * (p - 1), 1)

    @staticmethod
    def omega_power(p: int, k: int) -> "Cyclotomic":
        nums = [0] * p
        nums[k % p] = 1
        return Cyclotomic(p, nums, 1)

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.p != self.p:
                raise ValueError("mixed cyclotomic orders")
            return other
        if isinstance(other, int):
            return Cyclotomic(self.p, [other] + [0] * (self.p - 1), 1)
        if isinstance(other, Fraction):
            return Cyclotomic(self.p, [other.numerator] + [0] * (self.p - 1), other.denominator)
        return None

    def _combine(self, other, sign: int):
        """self + sign * other, for a Cyclotomic or a rational other."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, da, b, db = self.nums, self.den, other.nums, other.den
        if da == db:
            nums = ([x + y for x, y in zip(a, b)] if sign > 0
                    else [x - y for x, y in zip(a, b)])
            return Cyclotomic(self.p, nums, da)
        sa = sign * da
        return Cyclotomic(self.p, [x * db + y * sa for x, y in zip(a, b)], da * db)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Cyclotomic(self.p, [-a for a in self.nums], self.den)

    def __mul__(self, other):
        if isinstance(other, int):
            return Cyclotomic(self.p, [a * other for a in self.nums], self.den)
        if isinstance(other, Fraction):
            k = other.numerator
            return Cyclotomic(self.p, [a * k for a in self.nums], self.den * other.denominator)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.p
        out = [0] * p
        terms = [(t, b) for t, b in enumerate(other.nums) if b]
        for s, a in enumerate(self.nums):
            if a:
                for t, b in terms:
                    k = s + t
                    out[k - p if k >= p else k] += a * b
        return Cyclotomic(p, out, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            k, d = 1, other
        elif isinstance(other, Fraction):
            k, d = other.denominator, other.numerator
        else:
            return NotImplemented
        if not d:
            raise ZeroDivisionError("cyclotomic division by zero")
        if d < 0:
            k, d = -k, -d
        return Cyclotomic(self.p, [a * k for a in self.nums], self.den * d)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined here")
        result = Cyclotomic.one(self.p)
        for _ in range(n):
            result = result * self
        return result

    def conjugate(self) -> "Cyclotomic":
        p = self.p
        out = [0] * p
        for t, a in enumerate(self.nums):
            out[(p - t) % p] += a
        return Cyclotomic(p, out, self.den)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def _rational(self) -> Fraction | int | None:
        """The rational this element is, or None when it is not one."""
        nums = self.nums
        if any(nums[1:]):
            return None
        return nums[0] if self.den == 1 else Fraction(nums[0], self.den)

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):
            return self.p == other.p and self.nums == other.nums and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self._rational() == other
        return NotImplemented

    def __hash__(self):
        # a rational hashes as the int or Fraction it equals
        rational = self._rational()
        if rational is not None:
            return hash(rational)
        return hash((self.p, self.nums, self.den))

    def __complex__(self) -> complex:
        if self.is_zero():
            return 0j
        phases, den = _phases(self.p), self.den
        # n / den is the float of Fraction(n, den): both round the exact quotient
        return sum((n / den * phases[t] for t, n in enumerate(self.nums)), 0j)

    def __abs__(self) -> float:
        # exact zero stays exactly 0.0; nonzero values go through the
        # float embedding, which is only used for reporting magnitudes
        if self.is_zero():
            return 0.0
        return abs(complex(self))

    def __repr__(self):
        terms = [f"{a}*w^{t}" for t, a in enumerate(self.coeffs) if a]
        return " + ".join(terms) if terms else "0"
