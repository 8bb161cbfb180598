"""Oracle for `system.row_solutions`: the row path as it was before each
equation was solved in closed form.  The row, restricted to its support, is
a 1 x k system that `gauss_solve` solves, and `enumerate_affine` lists the
affine solution set, adding kernel basis vectors one `ZpVector` at a time."""

from __future__ import annotations

import itertools

from synclcs.config import DEFAULT_ENUM_CAP
from synclcs.errors import EnumerationTooLarge
from synclcs.system import LinearSystem, row_support
from synclcs.zp import AffineSolutionSet, ZpMatrix, ZpVector, gauss_solve


def scale(v: ZpVector, c: int) -> ZpVector:
    return ZpVector(v.p, tuple(c * a for a in v.entries))


def enumerate_affine(
    s: AffineSolutionSet, cap: int = DEFAULT_ENUM_CAP
) -> list[ZpVector]:
    """All members of the affine set, ordered by lexicographic coefficient
    tuples over the kernel basis."""
    p = s.particular.p
    k = len(s.basis)
    if p**k > cap:
        raise EnumerationTooLarge(f"{p}^{k} points exceeds cap {cap}")
    out = []
    for coeffs in itertools.product(range(p), repeat=k):
        v = s.particular
        for c, bvec in zip(coeffs, s.basis):
            if c:
                v = v + scale(bvec, c)
        out.append(v)
    return out


def gauss_row_solutions(
    sys: LinearSystem, i: int, cap: int = DEFAULT_ENUM_CAP
) -> list[ZpVector]:
    """Row i's restricted solutions, in the order of `enumerate_affine` on
    the row solved over its support by `gauss_solve`."""
    p, n = sys.p, sys.n
    cols = sorted(row_support(sys, i))
    bi = sys.b.entry(i)
    if not cols:
        return [ZpVector.zero(p, n)] if bi == 0 else []
    row = sys.A.row(i)
    restricted = ZpMatrix(p, (tuple(row.entry(c) for c in cols),))
    sol = gauss_solve(restricted, ZpVector(p, (bi,)))
    assert sol is not None  # a single nonzero equation is always solvable
    out = []
    for small in enumerate_affine(sol, cap=cap):
        full = [0] * n
        for c, val in zip(cols, small.entries):
            full[c - 1] = val
        out.append(ZpVector(p, tuple(full)))
    return out
