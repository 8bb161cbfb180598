import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjacency_oracle import support
from conftest import brute_force_solutions, random_consistent_system, random_system, zvec
from row_oracle import dense_gauss_solve, enumerate_affine, rank
from synclcs import ZpMatrix, ZpVector, gauss_solve, is_prime
from synclcs.errors import DimensionMismatch, EnumerationTooLarge, NotPrime
from synclcs.presets import magic_square_system


def test_support_reads_off_nonzeros():
    assert support((1, 1, 0)) == {1, 2}
    assert support((0, 0, 0)) == set()
    assert support((0, 4, 0, 1)) == {2, 4}


def test_entries_reduced_on_construction():
    assert zvec(3, 4, -1, 6).entries == (1, 2, 0)


def test_composite_modulus_rejected():
    with pytest.raises(NotPrime):
        ZpVector(4, (1, 2))
    with pytest.raises(NotPrime):
        ZpMatrix(1, ((0,),))


def _trial_division(n: int) -> bool:
    """The reference primality test: slow, but obviously right."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(20000) if is_prime(n)] == [
        n for n in range(20000) if _trial_division(n)
    ]


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2..7 and 2..23 respectively
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(2**61 - 1) and is_prime(2**64 - 59)


def test_is_prime_refuses_to_guess_beyond_certified_range():
    with pytest.raises(NotPrime, match="certified"):
        is_prime(2**89 - 1)
    assert not is_prime(2**89)  # an even number needs no certificate


def test_gauss_single_homogeneous_equation():
    sol = gauss_solve(ZpMatrix(2, ((1, 1),)), zvec(2, 0))
    assert sol is not None
    assert sol.particular.entries == (0, 0)
    assert sol.kernel_dimension == 1
    _, basis = dense_gauss_solve(ZpMatrix(2, ((1, 1),)), zvec(2, 0))
    assert [b.entries for b in basis] == [(1, 1)]


def test_gauss_magic_square_inconsistent_vs_brute_force():
    ms = magic_square_system()
    assert gauss_solve(ms.A, ms.b) is None
    # independent oracle: all 2^9 assignments
    assert brute_force_solutions(2, [list(r) for r in ms.A.rows],
                                 list(ms.b.entries)) == []


def test_gauss_p3_particular_and_kernel():
    A = ZpMatrix(3, ((1, 2, 0),))
    sol = gauss_solve(A, zvec(3, 1))
    assert sol is not None
    assert sol.particular.entries == (1, 0, 0)
    assert sol.kernel_dimension == 2
    _, basis = dense_gauss_solve(A, zvec(3, 1))
    for v in enumerate_affine(sol.particular, basis):
        assert A.apply(v).entries == (1,)


def test_gauss_shape_errors():
    with pytest.raises(DimensionMismatch):
        gauss_solve(ZpMatrix(2, ((1, 1),)), zvec(2, 0, 0))
    with pytest.raises(DimensionMismatch):
        gauss_solve(ZpMatrix(2, ((1, 1),)), zvec(3, 0))


def test_enumerate_affine_orders_and_sizes():
    line = enumerate_affine(zvec(2, 0, 0), (zvec(2, 1, 1),))
    assert [v.entries for v in line] == [(0, 0), (1, 1)]
    assert [v.entries for v in enumerate_affine(zvec(5, 3, 1), ())] == [(3, 1)]


def test_enumerate_affine_respects_cap():
    basis = tuple(
        ZpVector(2, tuple(1 if k == j else 0 for k in range(8))) for j in range(8)
    )
    with pytest.raises(EnumerationTooLarge):
        enumerate_affine(ZpVector(2, (0,) * 8), basis, cap=100)
    assert len(enumerate_affine(ZpVector(2, (0,) * 8), basis)) == 256


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 6), st.integers(1, 6),
       st.integers(0, 10**9))
def test_enumerated_solutions_solve_and_rank_nullity(p, m, n, seed):
    sys_ = random_consistent_system(random.Random(seed), p, m, n)
    sol = gauss_solve(sys_.A, sys_.b)
    assert sol is not None
    assert sol.kernel_dimension + rank(sys_.A) == n
    if p ** sol.kernel_dimension <= 512:
        _, basis = dense_gauss_solve(sys_.A, sys_.b)
        members = enumerate_affine(sol.particular, basis)
        assert len(members) == p ** sol.kernel_dimension
        assert len({v.entries for v in members}) == len(members)
        for v in members:
            assert sys_.A.apply(v) == sys_.b


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 10**9))
def test_inconsistency_matches_exhaustive_search(p, m, n, seed):
    sys_ = random_system(random.Random(seed), p, m, n)
    oracle = brute_force_solutions(p, [list(r) for r in sys_.A.rows],
                                   list(sys_.b.entries))
    sol = gauss_solve(sys_.A, sys_.b)
    assert (sol is None) == (oracle == [])
    if sol is not None:
        assert len(oracle) == p ** sol.kernel_dimension


SOLVER_PRIMES = [2, 3, 5, 7, 31, 2**61 - 1, 2**64 - 59]


def _seeded_system(rng: random.Random, p: int) -> tuple[ZpMatrix, ZpVector]:
    """Up to 10 x 9, with zero rows, duplicate rows and combinations of
    earlier rows; b is planted, then some entries are moved off it, so
    zero rows get b = 0 and b != 0 and many systems are inconsistent."""
    m, n = rng.randint(0, 10), rng.randint(0, 9)
    few = [0, 0, 1, p - 1, 2 % p]  # small values make dependent rows likely at large p
    A = []
    for i in range(m):
        kind = rng.randrange(6)
        if kind == 0:
            A.append([0] * n)
        elif kind == 1 and A:
            A.append(list(rng.choice(A)))
        elif kind == 2 and A:
            u, v, c = rng.choice(A), rng.choice(A), rng.randrange(p)
            A.append([(a + c * b) % p for a, b in zip(u, v)])
        else:
            A.append([rng.choice(few) if rng.random() < 0.7 else rng.randrange(p)
                      for _ in range(n)])
    x = [rng.randrange(p) for _ in range(n)]
    b = [sum(a * v for a, v in zip(row, x)) % p for row in A]
    if rng.random() < 0.5:
        for i in range(m):
            if rng.random() < 0.3:
                b[i] = rng.randrange(p)
    return ZpMatrix(p, tuple(map(tuple, A))), ZpVector(p, tuple(b))


@pytest.mark.parametrize("p", SOLVER_PRIMES)
def test_sparse_solver_matches_dense_oracle(p):
    rng = random.Random(p)
    edge = [
        (ZpMatrix(p, ()), zvec(p)),                     # m = 0 (so n = 0)
        (ZpMatrix(p, ((), ())), zvec(p, 0, 0)),         # n = 0, consistent
        (ZpMatrix(p, ((), ())), zvec(p, 0, 1)),         # n = 0, inconsistent
        (ZpMatrix(p, ((0, 0, 0),)), zvec(p, 0)),        # zero row, b = 0
        (ZpMatrix(p, ((0, 0, 0),)), zvec(p, 1)),        # zero row, b != 0
        (ZpMatrix(p, ((1, 2, 0), (1, 2, 0))), zvec(p, 1, 1)),  # duplicate rows
        (ZpMatrix(p, ((1, 2, 0), (1, 2, 0))), zvec(p, 1, 2)),  # ... contradicting
    ]
    outcomes = set()
    for A, b in edge + [_seeded_system(rng, p) for _ in range(100)]:
        sol, ref = gauss_solve(A, b), dense_gauss_solve(A, b)
        if ref is None:
            assert sol is None
        else:
            assert (sol.particular, sol.kernel_dimension) == (ref[0], len(ref[1]))
            assert A.apply(sol.particular) == b
        outcomes.add((sol is None, A.m == 0 or A.n == 0))
    assert outcomes == {(False, False), (True, False), (False, True), (True, True)}


def test_wide_equation_solves_quickly():
    # one equation in 600 variables: 17.1 s at the dense solver, in a
    # re-check of the kernel basis' independence
    A, b = ZpMatrix(2, ((1,) * 600,)), zvec(2, 1)
    start = time.perf_counter()
    sol = gauss_solve(A, b)
    assert time.perf_counter() - start < 1.0
    assert sol.kernel_dimension == 599
    assert sol.particular.entries == (1,) + (0,) * 599


def test_long_chain_solves_quickly():
    # x1 + x_j = 0 for j = 2..301: 2.06 s in the dense O(m^2 n) RREF
    n = 301
    A = ZpMatrix(2, tuple(tuple(1 if c in (0, j) else 0 for c in range(n)) for j in range(1, n)))
    start = time.perf_counter()
    sol = gauss_solve(A, ZpVector(2, (0,) * (n - 1)))
    assert time.perf_counter() - start < 1.0
    assert sol.kernel_dimension == 1
    assert sol.particular == ZpVector(2, (0,) * n)
