"""Exact linear algebra over the prime field Z_p.

Solving, affine solution spaces, supports.  All indices in
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
    """Immutable vector over Z_p; entries stored reduced."""

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

    def _check(self, other: "ZpVector"):
        if self.p != other.p or len(self) != len(other):
            raise DimensionMismatch("vector shapes or moduli disagree")

    def __add__(self, other: "ZpVector") -> "ZpVector":
        self._check(other)
        return ZpVector(self.p, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "ZpVector") -> "ZpVector":
        self._check(other)
        return ZpVector(self.p, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def restrict(self, indices) -> "ZpVector":
        """Zero every coordinate outside the given 1-based index set."""
        keep = set(indices)
        return ZpVector(
            self.p,
            tuple(e if (j + 1) in keep else 0 for j, e in enumerate(self.entries)),
        )

    def label(self) -> str:
        return "(" + ",".join(str(e) for e in self.entries) + ")"

    @staticmethod
    def zero(p: int, n: int) -> "ZpVector":
        return ZpVector(p, (0,) * n)


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

    def row(self, i: int) -> ZpVector:
        """1-based row access."""
        return ZpVector(self.p, self.rows[i - 1])

    def apply(self, v: ZpVector) -> ZpVector:
        if v.p != self.p or len(v) != self.n:
            raise DimensionMismatch("matrix/vector shapes or moduli disagree")
        return ZpVector(
            self.p,
            tuple(sum(a * x for a, x in zip(r, v.entries)) % self.p for r in self.rows),
        )


def support(v: ZpVector) -> set[int]:
    """Indices of nonzero coordinates, 1-based."""
    return {j + 1 for j, e in enumerate(v.entries) if e != 0}


@dataclass(frozen=True)
class AffineSolutionSet:
    """particular + span(basis), the solution set of a consistent system."""

    particular: ZpVector
    basis: tuple[ZpVector, ...]
    ambient_dim: int

    def __post_init__(self):
        p = self.particular.p
        for b in self.basis:
            if b.p != p or len(b) != self.ambient_dim:
                raise DimensionMismatch("basis vector shape or modulus disagrees")
        if len(self.particular) != self.ambient_dim:
            raise DimensionMismatch("particular solution has wrong length")
        if self.basis:
            mat = ZpMatrix(p, tuple(b.entries for b in self.basis))
            if rank(mat) != len(self.basis):
                raise ValueError("kernel basis vectors are linearly dependent")


def _rref(A: ZpMatrix, rhs: ZpVector | None):
    """Reduced row echelon form with first-nonzero pivoting.

    Returns (rows, rhs_values, pivot_cols); deterministic, pivots chosen
    left-to-right.
    """
    p = A.p
    rows = [list(r) for r in A.rows]
    b = list(rhs.entries) if rhs is not None else [0] * A.m
    m, n = A.m, A.n
    pivot_cols: list[int] = []
    r = 0
    for c in range(n):
        pivot = next((k for k in range(r, m) if rows[k][c] % p != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        b[r], b[pivot] = b[pivot], b[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        b[r] = (b[r] * inv) % p
        for k in range(m):
            if k != r and rows[k][c] % p != 0:
                f = rows[k][c]
                rows[k] = [(x - f * y) % p for x, y in zip(rows[k], rows[r])]
                b[k] = (b[k] - f * b[r]) % p
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    return rows, b, pivot_cols


def rank(A: ZpMatrix) -> int:
    _, _, pivots = _rref(A, None)
    return len(pivots)


def gauss_solve(A: ZpMatrix, b: ZpVector) -> AffineSolutionSet | None:
    """Solve Ax = b over Z_p.

    Returns the full affine solution set (particular solution with free
    variables set to zero, plus a kernel basis ordered by ascending free
    column), or None when the system is inconsistent.
    """
    if b.p != A.p:
        raise DimensionMismatch(f"moduli disagree: {A.p} vs {b.p}")
    if len(b) != A.m:
        raise DimensionMismatch(f"b has length {len(b)}, expected {A.m}")
    p, n = A.p, A.n
    rows, rhs, pivot_cols = _rref(A, b)
    for k in range(A.m):
        if all(x == 0 for x in rows[k]) and rhs[k] % p != 0:
            return None
    particular = [0] * n
    for r, c in enumerate(pivot_cols):
        particular[c] = rhs[r]
    basis = []
    pivot_set = set(pivot_cols)
    for f in range(n):
        if f in pivot_set:
            continue
        vec = [0] * n
        vec[f] = 1
        for r, c in enumerate(pivot_cols):
            vec[c] = (-rows[r][f]) % p
        basis.append(ZpVector(p, tuple(vec)))
    return AffineSolutionSet(ZpVector(p, tuple(particular)), tuple(basis), n)
