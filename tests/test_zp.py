import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_solutions, random_consistent_system, random_system, zvec
from row_oracle import enumerate_affine
from synclcs import (
    AffineSolutionSet,
    ZpMatrix,
    ZpVector,
    gauss_solve,
    is_prime,
    rank,
    support,
)
from synclcs.errors import DimensionMismatch, EnumerationTooLarge, NotPrime
from synclcs.presets import magic_square_system


def test_support_reads_off_nonzeros():
    assert support(zvec(2, 1, 1, 0)) == {1, 2}
    assert support(zvec(3, 0, 0, 0)) == set()
    assert support(zvec(5, 0, 4, 0, 1)) == {2, 4}


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
    assert [b.entries for b in sol.basis] == [(1, 1)]


def test_gauss_magic_square_inconsistent_vs_brute_force():
    ms = magic_square_system()
    assert gauss_solve(ms.A, ms.b) is None
    # independent oracle: all 2^9 assignments
    assert brute_force_solutions(2, [list(r) for r in ms.A.rows],
                                 list(ms.b.entries)) == []


def test_gauss_p3_particular_and_kernel():
    sol = gauss_solve(ZpMatrix(3, ((1, 2, 0),)), zvec(3, 1))
    assert sol is not None
    assert sol.particular.entries == (1, 0, 0)
    assert len(sol.basis) == 2
    A = ZpMatrix(3, ((1, 2, 0),))
    for v in enumerate_affine(sol):
        assert A.apply(v).entries == (1,)


def test_gauss_shape_errors():
    with pytest.raises(DimensionMismatch):
        gauss_solve(ZpMatrix(2, ((1, 1),)), zvec(2, 0, 0))
    with pytest.raises(DimensionMismatch):
        gauss_solve(ZpMatrix(2, ((1, 1),)), zvec(3, 0))


def test_enumerate_affine_orders_and_sizes():
    sol = AffineSolutionSet(zvec(2, 0, 0), (zvec(2, 1, 1),), 2)
    assert [v.entries for v in enumerate_affine(sol)] == [(0, 0), (1, 1)]
    point = AffineSolutionSet(zvec(5, 3, 1), (), 2)
    assert [v.entries for v in enumerate_affine(point)] == [(3, 1)]


def test_enumerate_affine_respects_cap():
    basis = tuple(
        ZpVector(2, tuple(1 if k == j else 0 for k in range(8))) for j in range(8)
    )
    big = AffineSolutionSet(ZpVector.zero(2, 8), basis, 8)
    with pytest.raises(EnumerationTooLarge):
        enumerate_affine(big, cap=100)
    assert len(enumerate_affine(big)) == 256


def test_dependent_kernel_basis_rejected():
    with pytest.raises(ValueError):
        AffineSolutionSet(zvec(2, 0, 0), (zvec(2, 1, 1), zvec(2, 1, 1)), 2)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 6), st.integers(1, 6),
       st.integers(0, 10**9))
def test_enumerated_solutions_solve_and_rank_nullity(p, m, n, seed):
    import random

    sys_ = random_consistent_system(random.Random(seed), p, m, n)
    sol = gauss_solve(sys_.A, sys_.b)
    assert sol is not None
    assert len(sol.basis) + rank(sys_.A) == n
    if p ** len(sol.basis) <= 512:
        members = enumerate_affine(sol)
        assert len(members) == p ** len(sol.basis)
        assert len({v.entries for v in members}) == len(members)
        for v in members:
            assert sys_.A.apply(v) == sys_.b


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 10**9))
def test_inconsistency_matches_exhaustive_search(p, m, n, seed):
    import random

    sys_ = random_system(random.Random(seed), p, m, n)
    oracle = brute_force_solutions(p, [list(r) for r in sys_.A.rows],
                                   list(sys_.b.entries))
    sol = gauss_solve(sys_.A, sys_.b)
    assert (sol is None) == (oracle == [])
    if sol is not None:
        assert len(oracle) == p ** len(sol.basis)
