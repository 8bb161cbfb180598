"""Shared generators and independent brute-force oracles for the suite."""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

from adjacency_oracle import adjacent
from synclcs import LinearSystem, ZpVector


def random_system(rng: random.Random, p: int, m: int, n: int) -> LinearSystem:
    A = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
    b = [rng.randrange(p) for _ in range(m)]
    return LinearSystem.from_ints(p, A, b)


def random_consistent_system(rng: random.Random, p: int, m: int, n: int) -> LinearSystem:
    """Random A with b forced consistent by planting a solution."""
    A = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
    x = [rng.randrange(p) for _ in range(n)]
    b = [sum(a * v for a, v in zip(row, x)) % p for row in A]
    return LinearSystem.from_ints(p, A, b)


def planted_system(rng: random.Random, p: int, n: int, supports) -> LinearSystem:
    """Rows with the given supports (0-based columns) and seeded nonzero
    coefficients, with b = A x* for a seeded x*.  Row i has p^(|S_i| - 1)
    solutions, so the supports fix the size of the game graphs."""
    xstar = [rng.randrange(p) for _ in range(n)]
    A = [[rng.randrange(1, p) if c in cols else 0 for c in range(n)] for cols in supports]
    b = [sum(a * x for a, x in zip(row, xstar)) % p for row in A]
    return LinearSystem.from_ints(p, A, b)


def pentagram_system() -> LinearSystem:
    """Mermin's pentagram over Z_2: ten variables on five lines of four,
    the first line summing to 1.  Every variable lies on two lines, so the
    equations sum to 0 = 1 and there is no classical solution."""
    lines = ((0, 1, 2, 3), (0, 4, 5, 6), (1, 4, 7, 8), (2, 9, 5, 8), (3, 9, 7, 6))
    return LinearSystem.from_ints(2, [[int(k in line) for k in range(10)] for line in lines],
                                  [1, 0, 0, 0, 0])


def wide_modulus_system() -> LinearSystem:
    """Four one-variable rows over p = 2**64 - 59, whose residues do not fit
    an int64: each row has one solution, x_j = b_i, and two of them are
    adjacent exactly when they pin the same variable to different values."""
    p = 2**64 - 59
    return LinearSystem.from_ints(p, [[1, 0], [1, 0], [1, 0], [0, 1]],
                                  [p - 1, p - 1, p - 2, 3])


# supports of a 7-variable system over Z_7 whose game graphs have
# 343 + 49 + 49 = 441 vertices
P7_441_SUPPORTS = ([0, 1, 2, 3], [3, 4, 5], [0, 5, 6])


def brute_force_solutions(p: int, A: list[list[int]], b: list[int]) -> list[tuple[int, ...]]:
    """Exhaustive solution search over Z_p^n; the oracle for solvers."""
    n = len(A[0]) if A else 0
    out = []
    for cand in itertools.product(range(p), repeat=n):
        if all(sum(a * v for a, v in zip(row, cand)) % p == bi % p
               for row, bi in zip(A, b)):
            out.append(cand)
    return out


def brute_force_row_solutions(sys: LinearSystem, i: int) -> set[tuple[int, ...]]:
    """All length-n vectors solving row i with support inside the row
    support, by direct enumeration over the support coordinates."""
    p, n = sys.p, sys.n
    row = sys.A.rows[i - 1]
    cols = [j for j in range(n) if row[j] != 0]
    bi = sys.b.entries[i - 1]
    if not cols:
        return {(0,) * n} if bi == 0 else set()
    found = set()
    for assign in itertools.product(range(p), repeat=len(cols)):
        if sum(row[c] * v for c, v in zip(cols, assign)) % p == bi:
            full = [0] * n
            for c, v in zip(cols, assign):
                full[c] = v
            found.add(tuple(full))
    return found


def edges_preserved(G, H, bij) -> bool:
    """Independent pairwise edge-preservation check (no numpy shortcut)."""
    if set(bij.forward) != set(G.vertices) or set(bij.inverse) != set(H.vertices):
        return False
    for u in G.vertices:
        for v in G.vertices:
            if u == v:
                continue
            if adjacent(G, u, v) != adjacent(H, bij.forward[u], bij.forward[v]):
                return False
    return True


def seeded_unitary(d: int, seed: int) -> np.ndarray:
    """Haar-ish random unitary from the QR of a seeded complex Gaussian."""
    gen = np.random.default_rng(seed)
    Z = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def zvec(p: int, *entries: int) -> ZpVector:
    return ZpVector(p, tuple(entries))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0x5EED)


def json_like(*plausible):
    """Hypothesis strategy for JSON-like values: the given plausible values,
    infinities, values that coerce to integers (2.9, 2.0, "11", an object
    with digit keys), null, booleans, integers, floats, short strings, and
    nested arrays and objects of these."""
    from hypothesis import strategies as st

    coercible = (2.9, 2.0, "11", "0", {"1": 0, "0": 1})
    scalars = (st.sampled_from((math.inf, -math.inf) + coercible + plausible) | st.none()
               | st.booleans() | st.integers() | st.floats() | st.text(max_size=4))
    return scalars | st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
            st.text(max_size=3), inner, max_size=3),
        max_leaves=12)
