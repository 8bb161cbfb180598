"""Exact linear algebra over the prime field Z_p.

Primality, vectors and matrices, and solving Ax = b.  All indices in
user-facing structures are 1-based; internal storage is 0-based tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import DimensionMismatch, NotPrime


# Deterministic Miller-Rabin over these bases is exact below PRIME_LIMIT
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


@lru_cache(maxsize=None)
def is_prime(p: int) -> bool:
    """Exact primality for p < PRIME_LIMIT; raises NotPrime above it."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    if p >= PRIME_LIMIT:
        raise NotPrime(f"modulus {p} is outside the certified primality range "
                       f"p < {PRIME_LIMIT}")
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    if not is_prime(p):
        raise NotPrime(f"modulus {p} is not prime")
    return p


@dataclass(frozen=True)
class ZpVector:
    """Immutable vector over Z_p, such as b or a solution of Ax = b; entries stored reduced."""

    p: int
    entries: tuple[int, ...]

    def __post_init__(self):
        check_prime(self.p)
        object.__setattr__(self, "entries", tuple(e % self.p for e in self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def entry(self, j: int) -> int:
        """1-based coordinate access."""
        return self.entries[j - 1]


def add_mod(p: int, x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """x + y mod p, entry by entry."""
    return tuple((a + b) % p for a, b in zip(x, y))


def label(x: tuple[int, ...]) -> str:
    """"(x_1,...,x_n)", a solution as check records and reports spell it."""
    return "(" + ",".join(map(str, x)) + ")"


@dataclass(frozen=True)
class ZpMatrix:
    """Immutable m x n matrix over Z_p, stored as a tuple of row tuples."""

    p: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        check_prime(self.p)
        if self.rows:
            width = len(self.rows[0])
            if any(len(r) != width for r in self.rows):
                raise DimensionMismatch("ragged matrix rows")
        object.__setattr__(
            self, "rows", tuple(tuple(e % self.p for e in r) for r in self.rows)
        )

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def apply(self, v: ZpVector) -> ZpVector:
        if v.p != self.p or len(v) != self.n:
            raise DimensionMismatch("matrix/vector shapes or moduli disagree")
        return ZpVector(
            self.p,
            tuple(sum(a * x for a, x in zip(r, v.entries)) % self.p for r in self.rows),
        )


@dataclass(frozen=True)
class AffineSolutionSet:
    """The solutions of a consistent system: particular + a kernel of
    dimension n - rank(A)."""

    particular: ZpVector
    kernel_dimension: int


def gauss_solve(A: ZpMatrix, b: ZpVector) -> AffineSolutionSet | None:
    """Solve Ax = b over Z_p, or return None when it is inconsistent.

    Elimination on sparse rows, one {column: value} dict each: a row is
    reduced by the stored rows at its leading column until it is zero or
    leads at a new column, where it is stored scaled to a leading 1.  The
    leading columns are the pivot columns of the reduced row echelon
    form, so the particular solution (free variables zero, found by back
    substitution) is the one that form yields.
    """
    if b.p != A.p:
        raise DimensionMismatch(f"moduli disagree: {A.p} vs {b.p}")
    if len(b) != A.m:
        raise DimensionMismatch(f"b has length {len(b)}, expected {A.m}")
    p = A.p
    pivots: dict[int, tuple[dict[int, int], int]] = {}  # leading column -> (row, rhs)
    for entries, rhs in zip(A.rows, b.entries):
        row = {c: a for c, a in enumerate(entries) if a}
        while row:
            lead = min(row)
            if lead not in pivots:
                inv = pow(row[lead], p - 2, p)
                pivots[lead] = ({c: a * inv % p for c, a in row.items()}, rhs * inv % p)
                break
            f, (prow, prhs) = row[lead], pivots[lead]
            for c, a in prow.items():
                v = (row.get(c, 0) - f * a) % p
                if v:
                    row[c] = v
                else:
                    del row[c]
            rhs = (rhs - f * prhs) % p
        if not row and rhs:
            return None
    x = [0] * A.n
    for lead in sorted(pivots, reverse=True):
        prow, prhs = pivots[lead]
        x[lead] = (prhs - sum(a * x[c] for c, a in prow.items() if c != lead)) % p
    return AffineSolutionSet(ZpVector(p, tuple(x)), A.n - len(pivots))
