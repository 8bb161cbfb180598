"""The linear-constraint-system model: per-row supports, per-row restricted
solution sets, the compatibility keys, and validation.

Validation records are plain dicts {"name", "level", "message"}.
validate_document decides structure only and never solves the system;
validate_system adds the semantic checks, classical solvability among them,
and is run by the validate command alone."""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from functools import cached_property

from .config import DEFAULT_ENUM_CAP
from .errors import (
    DimensionMismatch,
    EnumerationTooLarge,
    NotPrime,
    ParseError,
    RowOutOfRange,
)
from .zp import AffineSolutionSet, ZpMatrix, ZpVector, gauss_solve, is_prime


def json_typed(value, kind: type, name: str):
    """A field of a JSON document, which must be of exactly this type (so
    no boolean is an int); anything else is a parse error, never coerced."""
    if type(value) is not kind:
        raise ParseError(f"{name} must be {kind.__name__}, not {type(value).__name__}")
    return value


@dataclass(frozen=True)
class LinearSystem:
    """A game parameter: prime p, m x n matrix A and length-m vector b.

    b has length m (one entry per equation); a length-n b is rejected.
    """

    p: int
    A: ZpMatrix
    b: ZpVector

    def __post_init__(self):
        if self.A.p != self.p or self.b.p != self.p:
            raise DimensionMismatch("component moduli disagree with system modulus")
        if len(self.b) != self.A.m:
            raise DimensionMismatch(
                f"b has length {len(self.b)}, expected m = {self.A.m}"
            )

    @property
    def m(self) -> int:
        return self.A.m

    @property
    def n(self) -> int:
        return self.A.n

    @cached_property
    def solutions(self) -> AffineSolutionSet | None:
        """The solution set of Ax = b, None when inconsistent; solved once."""
        return gauss_solve(self.A, self.b)

    @cached_property
    def supports(self) -> tuple[tuple[int, ...], ...]:
        """Per row, its nonzero columns, 1-based and ascending; found once."""
        return tuple(tuple(c for c, a in enumerate(row, 1) if a) for row in self.A.rows)

    def homogeneous(self) -> "LinearSystem":
        return LinearSystem(self.p, self.A, ZpVector(self.p, (0,) * self.m))

    @staticmethod
    def from_ints(p: int, A: list[list[int]], b: list[int]) -> "LinearSystem":
        return LinearSystem(p, ZpMatrix(p, tuple(tuple(r) for r in A)), ZpVector(p, tuple(b)))

    @staticmethod
    def from_json(doc: dict) -> "LinearSystem":
        try:
            p = json_typed(doc["p"], int, "p")
            A = [[json_typed(e, int, "an entry of A") for e in json_typed(row, list, "a row of A")]
                 for row in json_typed(doc["A"], list, "A")]
            b = [json_typed(e, int, "an entry of b") for e in json_typed(doc["b"], list, "b")]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed system document: {exc}") from exc
        widths = {len(row) for row in A}
        if len(widths) > 1:
            raise ParseError("ragged rows in A")
        return LinearSystem.from_ints(p, A, b)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "A": [list(r) for r in self.A.rows],
            "b": list(self.b.entries),
        }

    def digest(self) -> str:
        blob = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def _check_row(self, i: int):
        if not 1 <= i <= self.m:
            raise RowOutOfRange(f"row {i} outside 1..{self.m}")


def row_size(sys: LinearSystem, i: int, cap: int = DEFAULT_ENUM_CAP) -> int:
    """len(row_solutions(sys, i, cap)), found without listing them: p^(s - 1)
    for s support columns; above cap it raises EnumerationTooLarge."""
    sys._check_row(i)
    s = len(sys.supports[i - 1])
    if s and sys.p ** (s - 1) > cap:
        raise EnumerationTooLarge(f"{sys.p}^{s - 1} points exceeds cap {cap}")
    return sys.p ** (s - 1) if s else int(sys.b.entry(i) == 0)


def row_solutions(
    sys: LinearSystem, i: int, cap: int = DEFAULT_ENUM_CAP
) -> list[tuple[int, ...]]:
    """All x with row_i . x = b_i and supp(x) inside the row support.

    Solutions are tuples of n ints in range(p), zero outside the support.
    The first support column is solved for, inv(a_pivot) (b_i - sum of a_c
    x_c), while the other support columns run through Z_p in lexicographic
    order, the last column fastest.  A zero row yields the zero tuple when
    b_i = 0 and nothing otherwise.
    """
    size = row_size(sys, i, cap)
    p, n = sys.p, sys.n
    row, bi = sys.A.rows[i - 1], sys.b.entry(i)
    cols = [c - 1 for c in sys.supports[i - 1]]  # 0-based
    if not cols:
        return [(0,) * n] * size
    pivot, free = cols[0], cols[1:]
    inv, x, out = pow(row[pivot], p - 2, p), [0] * n, []
    for values in itertools.product(range(p), repeat=len(free)):
        for c, v in zip(free, values):
            x[c] = v
        x[pivot] = inv * (bi - sum(row[c] * v for c, v in zip(free, values))) % p
        out.append(tuple(x))
    return out


def shared_keys(p: int, solutions, cols) -> list[int]:
    """Each solution's mixed-radix code (a Python int) on the 1-based columns
    cols: two rows' solutions are compatible iff equal on the shared cols."""
    cols, codes = sorted(cols), []
    for x in solutions:
        code = 0
        for c in cols:
            code = code * p + x[c - 1]
        codes.append(code)
    return codes


def _record(name: str, level: str, message: str) -> dict:
    """A validation record; level is "pass", "warning" or "failure"."""
    return {"name": name, "level": level, "message": message}


def validate_system(sys: LinearSystem) -> list[dict]:
    """Structural and semantic checks, one record each; solves the system
    for the last, its classical solvability."""
    records = [_record("modulus-prime", "pass", f"p = {sys.p} is prime"),
               _record("shapes", "pass", f"A is {sys.m}x{sys.n}, b has length {sys.m}")]

    for i in range(1, sys.m + 1):
        if not sys.supports[i - 1] and sys.b.entry(i) != 0:
            records.append(_record(
                "zero-row-contradiction",
                "warning",
                f"row {i} is zero with b_{i} != 0: its solution set is empty, "
                "so the game algebra is the zero algebra",
            ))

    seen: dict[tuple, int] = {}
    for i in range(1, sys.m + 1):
        key = (sys.A.rows[i - 1], sys.b.entry(i))
        if key in seen:
            records.append(_record("duplicate-rows", "warning", f"row {i} duplicates row {seen[key]}"))
        else:
            seen[key] = i

    if sys.solutions is None:
        records.append(_record("classical-solvability", "warning",
                               "system inconsistent (no classical solution)"))
    else:
        records.append(_record("classical-solvability", "pass", "system has a classical solution"))
    return records


def validate_document(doc: dict) -> tuple[LinearSystem | None, list[dict]]:
    """Structural validation of a raw system document: (system, []), or
    (None, [its failure record]) for a non-prime modulus or bad shapes,
    which become a record instead of an exception so callers can render
    it.  The semantic checks are validate_system's."""
    try:
        p = json_typed(doc["p"], int, "p")
    except (KeyError, TypeError):
        raise ParseError("missing field 'p'")
    try:
        prime = is_prime(p)
    except NotPrime as exc:  # beyond the range is_prime can certify
        return None, [_record("modulus-prime", "failure", str(exc))]
    if not prime:
        return None, [_record("modulus-prime", "failure", f"modulus {p} is not prime")]
    try:
        return LinearSystem.from_json(doc), []
    except (NotPrime, DimensionMismatch) as exc:
        return None, [_record("shapes", "failure", str(exc))]
