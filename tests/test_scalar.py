"""The by-value suite of `synclcs.scalar` against the object-array engine of
`rep_oracle`, which certified scalar representations as 1x1 matrices of
cyclotomic scalars: every record must agree in name, residual bits,
tolerance and detail, in order, and the blocks must be the engine's."""

import random

import numpy as np
import pytest

import rep_oracle
from conftest import planted_system, random_consistent_system
from synclcs import LinearSystem, ZpVector, gauss_solve, run_check_suite, scalar_rep_from_solution
from synclcs.cyclotomic import Cyclotomic
from synclcs.errors import DimensionMismatch, NotASolution
from synclcs.group import build_presentation
from synclcs.reporting import CheckBlock, Checks
from synclcs.scalar import ScalarRepresentation, relation_residuals

TOL = 1e-9


def records(checks) -> list:
    return [(r.name, r.residual.hex(), r.tolerance, r.detail) for r in checks]


def layout(checks: Checks) -> list:
    return [part.families if type(part) is CheckBlock else part.name for part in checks.parts]


def assert_parity(sys_: LinearSystem, x: ZpVector, tol: float = TOL) -> Checks:
    got = run_check_suite(scalar_rep_from_solution(sys_, x), sys_, tol)
    expected = rep_oracle.run_check_suite(rep_oracle.scalar_rep_from_solution(sys_, x), sys_, tol)
    assert records(got) == records(expected)
    assert layout(got) == layout(expected)
    assert len(got) == len(expected)
    return got


def particular(sys_: LinearSystem) -> ZpVector:
    return gauss_solve(sys_.A, sys_.b).particular


@pytest.mark.parametrize("p", [2, 3, 5, 7, 31])
def test_seeded_solvable_systems(p):
    # rows of at most 4, 3 and 2 variables for p below 7, below 31 and 31
    rng, widest, certified = random.Random(p), 4 if p < 7 else 3 if p < 31 else 2, 0
    while certified < 5:
        m, n = rng.randint(1, 3), rng.randint(1, widest + 1)
        sys_ = random_consistent_system(rng, p, m, n)
        if max(len(s) for s in sys_.supports) <= widest:
            checks = assert_parity(sys_, particular(sys_))
            assert all(r.residual == 0.0 for r in checks)
            certified += 1


def test_zero_duplicated_and_proportional_rows_and_unused_variables():
    # rows 2 and 5 are zero (b = 0), row 3 repeats row 1, row 4 is 2 x row 1
    # and variable 5 is in no row
    sys_ = LinearSystem.from_ints(3, [[1, 2, 0, 0, 0], [0] * 5, [1, 2, 0, 0, 0],
                                      [2, 1, 0, 0, 0], [0] * 5, [0, 1, 1, 1, 0]],
                                  [1, 0, 1, 2, 0, 2])
    x = particular(sys_)
    assert_parity(sys_, x)
    # the unused variable takes any value
    assert_parity(sys_, ZpVector(3, x.entries[:4] + (2,)))
    proportional = LinearSystem.from_ints(5, [[1, 3, 0], [2, 1, 0], [0, 0, 4]], [2, 4, 1])
    assert_parity(proportional, particular(proportional))


def test_no_variables():
    # `repcheck --rep scalar:` with no values, on zero-width rows and on no rows
    for sys_ in (LinearSystem.from_ints(3, [[], []], [0, 0]), LinearSystem.from_ints(2, [], [])):
        checks = assert_parity(sys_, ZpVector(sys_.p, ()))
        assert all(r.residual == 0.0 for r in checks)


@pytest.mark.parametrize("name, p, n, supports", [
    ("p3-324v", 3, 6, [[c for c in range(6) if c != r] for r in range(4)]),
    ("p5-175v", 5, 6, [[0, 1, 2, 3], [2, 3, 4], [0, 4, 5]]),
    ("p7-105v", 7, 5, [[0, 1, 2], [2, 3, 4], [0, 3]]),
], ids=["p3-324v", "p5-175v", "p7-105v"])
def test_benchmark_shapes(name, p, n, supports):
    # the entries of the benchmark's exact-scalar workload
    sys_ = planted_system(random.Random(1), p, n, supports)
    checks = assert_parity(sys_, particular(sys_))
    assert checks.parts[0].name.startswith("relation:")


def test_a_vector_that_solves_no_row():
    # built directly, the representation skips the solution check, so the
    # residuals are not 0: row 2 (zero, b = 1) has no solution, rows 1, 3 and
    # 4 have no entry equal to 1, and the phases are 0, which project by the
    # spectral formula; residual bits must still be the engine's
    sys_ = LinearSystem.from_ints(3, [[1, 1, 0], [0, 0, 0], [1, 1, 0], [0, 1, 2]], [1, 1, 1, 2])
    x = ZpVector(3, (0, 0, 0))
    images = {}
    for name, k in {"g1": 0, "g2": 0, "g3": 0, "J": 1}.items():
        images[name] = np.empty((1, 1), dtype=object)
        images[name][0, 0] = Cyclotomic.omega_power(3, k)
    got = run_check_suite(ScalarRepresentation(3, x), sys_, TOL)
    expected = rep_oracle.run_check_suite(rep_oracle.make_representation(3, images), sys_, TOL)
    assert records(got) == records(expected)
    assert layout(got) == layout(expected)
    residuals = {r.residual for r in got}
    assert {0.0, 1.0} < residuals and any(0 < r < 1 for r in residuals)


def test_relation_checks_refuse_a_missing_generator():
    sys_ = LinearSystem.from_ints(2, [[1, 1]], [0])
    wider = LinearSystem.from_ints(2, [[1, 1, 0]], [0])
    rep = scalar_rep_from_solution(sys_, ZpVector(2, (1, 1)))
    with pytest.raises(DimensionMismatch, match="missing generator g3"):
        relation_residuals(rep, build_presentation(wider))


def test_scalar_representation_is_built_only_from_solutions():
    sys_ = LinearSystem.from_ints(3, [[1, 1]], [1])
    rep = scalar_rep_from_solution(sys_, ZpVector(3, (2, 2)))
    assert isinstance(rep, ScalarRepresentation)
    assert (rep.p, rep.n, rep.dim, rep.exact) == (3, 2, 1, True)
    assert rep.exponents == {"g1": 2, "g2": 2, "J": 1}
    with pytest.raises(NotASolution):
        scalar_rep_from_solution(sys_, ZpVector(3, (0, 0)))
    with pytest.raises(DimensionMismatch):
        scalar_rep_from_solution(sys_, ZpVector(3, (1,)))
