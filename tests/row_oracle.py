"""Oracles for `zp.gauss_solve` and `system.row_solutions`, and
`row_support`, one row's support as a set, which only tests read.

`dense_gauss_solve` is the dense solver as it was before elimination ran
on sparse rows: a full reduced row echelon form, the particular solution
and a kernel basis.  The row path is as it was before each equation was
solved in closed form: the row, restricted to its support, is a 1 x k
system that `dense_gauss_solve` solves, and `enumerate_affine` lists the
affine solution set, adding kernel basis vectors one `ZpVector` at a time;
the solutions are returned as plain tuples, as `row_solutions` gives them."""

from __future__ import annotations

import itertools

from synclcs.config import DEFAULT_ENUM_CAP
from synclcs.errors import EnumerationTooLarge
from synclcs.system import LinearSystem
from synclcs.zp import ZpMatrix, ZpVector


def row_support(sys: LinearSystem, i: int) -> set[int]:
    """Support of row i of A (1-based column indices), as a set."""
    sys._check_row(i)
    return set(sys.supports[i - 1])


def rref(A: ZpMatrix, rhs: ZpVector | None):
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
    _, _, pivots = rref(A, None)
    return len(pivots)


def dense_gauss_solve(
    A: ZpMatrix, b: ZpVector
) -> tuple[ZpVector, tuple[ZpVector, ...]] | None:
    """Solve Ax = b through the dense RREF.

    Returns the particular solution with free variables set to zero and a
    kernel basis ordered by ascending free column, or None when the
    system is inconsistent.
    """
    p, n = A.p, A.n
    rows, rhs, pivot_cols = rref(A, b)
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
    return ZpVector(p, tuple(particular)), tuple(basis)


def enumerate_affine(
    particular: ZpVector, basis: tuple[ZpVector, ...], cap: int = DEFAULT_ENUM_CAP
) -> list[ZpVector]:
    """All members of particular + span(basis), ordered by lexicographic
    coefficient tuples over the basis."""
    p = particular.p
    k = len(basis)
    if p**k > cap:
        raise EnumerationTooLarge(f"{p}^{k} points exceeds cap {cap}")
    out = []
    for coeffs in itertools.product(range(p), repeat=k):
        v = particular
        for c, bvec in zip(coeffs, basis):
            if c:
                v = ZpVector(p, tuple(a + c * e for a, e in zip(v.entries, bvec.entries)))
        out.append(v)
    return out


def gauss_row_solutions(
    sys: LinearSystem, i: int, cap: int = DEFAULT_ENUM_CAP
) -> list[tuple[int, ...]]:
    """Row i's restricted solutions, in the order of `enumerate_affine` on
    the row solved over its support by `dense_gauss_solve`."""
    p, n = sys.p, sys.n
    cols = sorted(row_support(sys, i))
    bi = sys.b.entry(i)
    if not cols:
        return [(0,) * n] if bi == 0 else []
    row = sys.A.rows[i - 1]
    restricted = ZpMatrix(p, (tuple(row[c - 1] for c in cols),))
    sol = dense_gauss_solve(restricted, ZpVector(p, (bi,)))
    assert sol is not None  # a single nonzero equation is always solvable
    out = []
    for small in enumerate_affine(*sol, cap=cap):
        full = [0] * n
        for c, val in zip(cols, small.entries):
            full[c - 1] = val
        out.append(tuple(full))
    return out
