"""The Fraction-coefficient class that `synclcs.cyclotomic` replaced, kept
verbatim as the oracle of its arithmetic (tests/test_cyclotomic.py).

Exact arithmetic in the cyclotomic field Q(omega) for omega = exp(2*pi*i/p).

Scalar representations built from classical solutions must certify their
identities with residual exactly zero, which binary floats cannot deliver
for p > 2 (the float omega**p is only approximately 1).  Elements here are
stored as rational coefficient vectors over the powers omega^0..omega^(p-1),
canonicalized with the relation 1 + omega + ... + omega^(p-1) = 0 so that
equality and zero-testing are exact.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

_PHASE_CACHE: dict[int, tuple[complex, ...]] = {}


def _phases(p: int) -> tuple[complex, ...]:
    if p not in _PHASE_CACHE:
        _PHASE_CACHE[p] = tuple(cmath.exp(2j * cmath.pi * t / p) for t in range(p))
    return _PHASE_CACHE[p]


class Cyclotomic:
    """An element of Q(omega_p), exact under +, -, *, conjugation and /int."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != p:
            raise ValueError(f"need {p} coefficients, got {len(coeffs)}")
        # canonical form: force the omega^(p-1) coefficient to zero using
        # the vanishing sum of all p-th roots of unity
        last = coeffs[-1]
        if last:
            coeffs = tuple(c - last for c in coeffs)
        self.p = p
        self.coeffs = coeffs

    @staticmethod
    def one(p: int) -> "Cyclotomic":
        return Cyclotomic(p, [1] + [0] * (p - 1))

    @staticmethod
    def omega_power(p: int, k: int) -> "Cyclotomic":
        coeffs = [0] * p
        coeffs[k % p] = 1
        return Cyclotomic(p, coeffs)

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.p != self.p:
                raise ValueError("mixed cyclotomic orders")
            return other
        if isinstance(other, (int, Fraction)):
            coeffs = [other] + [0] * (self.p - 1)
            return Cyclotomic(self.p, coeffs)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Cyclotomic(self.p, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Cyclotomic(self.p, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Cyclotomic(self.p, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.p, [a * other for a in self.coeffs])
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.p
        out = [Fraction(0)] * p
        for s, a in enumerate(self.coeffs):
            if not a:
                continue
            for t, b in enumerate(other.coeffs):
                if b:
                    out[(s + t) % p] += a * b
        return Cyclotomic(p, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            inv = Fraction(1, 1) / Fraction(other)
            return Cyclotomic(self.p, [a * inv for a in self.coeffs])
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined here")
        result = Cyclotomic.one(self.p)
        for _ in range(n):
            result = result * self
        return result

    def conjugate(self) -> "Cyclotomic":
        p = self.p
        out = [Fraction(0)] * p
        for t, a in enumerate(self.coeffs):
            out[(p - t) % p] += a
        return Cyclotomic(p, out)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other):
        coerced = self._coerce(other) if not isinstance(other, Cyclotomic) else other
        if coerced is None or not isinstance(coerced, Cyclotomic):
            return NotImplemented
        return self.p == coerced.p and self.coeffs == coerced.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __complex__(self) -> complex:
        if self.is_zero():
            return 0j
        phases = _phases(self.p)
        return sum((float(a) * phases[t] for t, a in enumerate(self.coeffs)), 0j)

    def __abs__(self) -> float:
        # exact zero stays exactly 0.0; nonzero values go through the
        # float embedding, which is only used for reporting magnitudes
        if self.is_zero():
            return 0.0
        return abs(complex(self))

    def __repr__(self):
        terms = [f"{a}*w^{t}" for t, a in enumerate(self.coeffs) if a]
        return " + ".join(terms) if terms else "0"
