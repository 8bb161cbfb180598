import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjacency_oracle import compatible, is_row_solution, row, support
from conftest import brute_force_row_solutions, json_like, random_system
from row_oracle import gauss_row_solutions, row_support
from synclcs import (
    LinearSystem,
    row_solutions,
    validate_document,
    validate_system,
)
from synclcs.errors import (
    DimensionMismatch,
    EnumerationTooLarge,
    NotASolution,
    ParseError,
    RowOutOfRange,
)
from synclcs.presets import magic_square_system, one_eq_system, p3_demo_system


def test_b_must_have_length_m():
    # a right-hand side of length n is a common slip; reject it loudly
    with pytest.raises(DimensionMismatch):
        LinearSystem.from_ints(2, [[1, 1, 0], [0, 1, 1]], [0, 0, 0])


def test_row_support_examples():
    sys_ = LinearSystem.from_ints(2, [[1, 1, 0], [0, 1, 1]], [0, 0])
    assert row_support(sys_, 1) == {1, 2}
    assert row_support(magic_square_system(), 6) == {3, 6, 9}
    zero_row = LinearSystem.from_ints(3, [[0, 0]], [0])
    assert row_support(zero_row, 1) == set()


def _system_with_zero_and_duplicate_rows(rng, p, width):
    """Seeded rows with at most `width` nonzero entries, two zero rows (b = 0
    and b != 0), a copy of one row and a copy with another b, shuffled."""
    n = rng.randint(width, 5)
    rows = [[0] * n for _ in range(rng.randint(1, 3))]
    for row in rows:
        for c in rng.sample(range(n), rng.randint(1, width)):
            row[c] = rng.randrange(1, p)
    b = [rng.randrange(p) for _ in rows]
    k = rng.randrange(len(rows))
    pairs = list(zip(rows, b)) + [([0] * n, 0), ([0] * n, rng.randrange(1, p)),
                                  (rows[k], b[k]), (rows[k], rng.randrange(p))]
    rng.shuffle(pairs)
    return LinearSystem.from_ints(p, [row for row, _ in pairs], [bi for _, bi in pairs])


def _zero_rows_with_nonzero_b(sys_):
    """The rows of A that are zero while b is not, read off the entries."""
    return [i for i, (row, bi) in enumerate(zip(sys_.A.rows, sys_.b.entries), 1)
            if not any(row) and bi]


def _warnings(records):
    return [r for r in records if r["level"] == "warning"]


def _ok(records):
    return all(r["level"] != "failure" for r in records)


@pytest.mark.parametrize("p", [2, 3, 7, 2**64 - 59])
def test_supports_are_the_sorted_row_supports(p, capsys, tmp_path):
    from synclcs.cli import main

    rng = random.Random(p)
    for trial in range(30):
        # analyze enumerates each row's solutions, so its rows stay within the cap
        analyze = trial % 3 == 0
        sys_ = _system_with_zero_and_duplicate_rows(rng, p, (2 if p <= 7 else 1) if analyze else 5)
        assert sys_.supports == tuple(tuple(sorted(support(row(sys_.A, i))))
                                      for i in range(1, sys_.m + 1))
        assert [row_support(sys_, i) for i in range(1, sys_.m + 1)] == [
            set(cols) for cols in sys_.supports]
        zero_rows = _zero_rows_with_nonzero_b(sys_)
        assert zero_rows
        report = validate_system(sys_)
        assert [r["message"] for r in _warnings(report) if r["name"] == "zero-row-contradiction"] == [
            f"row {i} is zero with b_{i} != 0: its solution set is empty, "
            "so the game algebra is the zero algebra" for i in zero_rows]
        assert any(r["name"] == "duplicate-rows" for r in _warnings(report))
        if analyze:
            path = tmp_path / f"system{trial}.json"
            path.write_text(json.dumps(sys_.to_json()))
            assert main(["analyze", str(path)]) == 0
            out = json.loads(capsys.readouterr().out)
            assert [row["support"] for row in out["rows"]] == [list(c) for c in sys_.supports]
            assert out["warnings"] == [
                {"row": i, "message": "zero row with nonzero right-hand side"} for i in zero_rows]


def test_row_index_bounds():
    sys_ = one_eq_system()
    with pytest.raises(RowOutOfRange):
        row_solutions(sys_, 2)
    with pytest.raises(RowOutOfRange):
        row_solutions(sys_, 0)


def test_row_solutions_one_eq():
    assert row_solutions(one_eq_system(), 1) == [(0, 0), (1, 1)]


def test_row_solutions_p3_demo():
    sols = row_solutions(p3_demo_system(), 1)
    assert len(sols) == 3  # 3^(2-1)
    assert set(sols) == {(1, 0, 0), (0, 2, 0), (2, 1, 0)}


def test_row_solutions_magic_square_row():
    sols = row_solutions(magic_square_system(), 1)
    assert len(sols) == 4
    for v in sols:
        assert sum(v[:3]) % 2 == 0
        assert v[3:] == (0,) * 6


def test_zero_row_solutions():
    sys0 = LinearSystem.from_ints(2, [[0, 0]], [0])
    assert row_solutions(sys0, 1) == [(0, 0)]
    sys1 = LinearSystem.from_ints(2, [[0, 0]], [1])
    assert row_solutions(sys1, 1) == []


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 5), st.integers(0, 10**9))
def test_row_solution_count_vs_brute_force(p, n, seed):
    sys_ = random_system(random.Random(seed), p, 1, n)
    sols = set(row_solutions(sys_, 1))
    assert sols == brute_force_row_solutions(sys_, 1)
    V = row_support(sys_, 1)
    if V:
        assert len(sols) == p ** (len(V) - 1)
    for v in row_solutions(sys_, 1):
        assert set(j + 1 for j, e in enumerate(v) if e) <= V


def _outcome(solve, sys_, i, cap):
    """Row i's solutions as entry tuples, in order, or the cap's message."""
    try:
        return list(solve(sys_, i, cap))
    except EnumerationTooLarge as exc:
        return str(exc)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 31, 2**61 - 1, 2**64 - 59])
def test_row_solutions_equal_the_gauss_path(p):
    # sparse rows, so that wide moduli meet one-column supports, which have
    # a single solution, as well as rows over the cap; and a zero row with
    # b = 0 and one with b != 0
    rng = random.Random(p)
    for _ in range(60):
        n = rng.randint(1, 5)
        A = [[rng.randrange(1, p) if rng.random() < 0.5 else 0 for _ in range(n)]
             for _ in range(3)] + [[0] * n] * 2
        b = [rng.randrange(p) for _ in range(3)] + [0, rng.randrange(1, p)]
        sys_ = LinearSystem.from_ints(p, A, b)
        for i in range(1, 6):
            expected = _outcome(gauss_row_solutions, sys_, i, 1000)
            assert _outcome(row_solutions, sys_, i, 1000) == expected
            if isinstance(expected, list):
                # each solution is a plain tuple of n ints, reduced mod p
                for x in row_solutions(sys_, i, 1000):
                    assert type(x) is tuple and len(x) == n
                    assert all(type(e) is int and 0 <= e < p for e in x)


def test_row_solutions_cap_is_inclusive():
    sys_ = LinearSystem.from_ints(3, [[2, 1, 0, 1, 2]], [1])  # 3^3 points
    assert len(row_solutions(sys_, 1, 27)) == 27
    assert _outcome(row_solutions, sys_, 1, 26) == "3^3 points exceeds cap 26"
    for cap in (27, 26):
        assert _outcome(row_solutions, sys_, 1, cap) == _outcome(gauss_row_solutions, sys_, 1, cap)


def test_compatible_same_row_is_equality():
    sys_ = one_eq_system()
    a, b = row_solutions(sys_, 1)
    assert compatible(sys_, 1, 1, a, a)
    assert not compatible(sys_, 1, 1, a, b)


def test_compatible_shared_coordinate():
    sys_ = LinearSystem.from_ints(2, [[1, 1, 0], [1, 0, 1]], [0, 0])
    x = (1, 1, 0)
    y = (1, 0, 1)
    assert compatible(sys_, 1, 2, x, y)  # agree at the shared k=1
    assert not compatible(sys_, 1, 2, (0, 0, 0), y)


def test_compatible_rejects_non_solutions():
    sys_ = one_eq_system()
    with pytest.raises(NotASolution):
        compatible(sys_, 1, 1, (1, 0), (0, 0))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 10**9))
def test_compatible_symmetry(p, m, n, seed):
    rnd = random.Random(seed)
    sys_ = random_system(rnd, p, m, n)
    i = rnd.randrange(1, m + 1)
    j = rnd.randrange(1, m + 1)
    si, sj = row_solutions(sys_, i), row_solutions(sys_, j)
    if not si or not sj:
        return
    x, y = rnd.choice(si), rnd.choice(sj)
    assert compatible(sys_, i, j, x, y) == compatible(sys_, j, i, y, x)
    if i == j:
        assert compatible(sys_, i, i, x, y) == (x == y)


def test_is_row_solution_membership():
    sys_ = p3_demo_system()
    assert is_row_solution(sys_, 1, (1, 0, 0))
    assert not is_row_solution(sys_, 1, (1, 0, 1))  # support leaks
    assert not is_row_solution(sys_, 1, (2, 0, 0))  # wrong value
    assert not is_row_solution(sys_, 1, (4, 0, 0))  # not reduced mod p


def test_validate_magic_square():
    report = validate_system(magic_square_system())
    assert _ok(report)
    assert any("inconsistent" in r["message"] for r in _warnings(report))


def test_validate_zero_row_contradiction():
    report = validate_system(LinearSystem.from_ints(2, [[0, 0]], [1]))
    assert _ok(report)
    assert any(r["name"] == "zero-row-contradiction" for r in _warnings(report))


def test_validate_duplicate_rows():
    report = validate_system(LinearSystem.from_ints(2, [[1, 1], [1, 1]], [0, 0]))
    assert any(r["name"] == "duplicate-rows" for r in _warnings(report))


def test_validate_document_rejects_composite_modulus():
    system, report = validate_document({"p": 4, "A": [[1, 1]], "b": [0]})
    assert system is None
    assert [(r["name"], r["level"]) for r in report] == [("modulus-prime", "failure")]


def test_validate_document_bad_b_length():
    system, report = validate_document({"p": 2, "A": [[1, 1]], "b": [0, 1]})
    assert system is None
    assert [(r["name"], r["level"]) for r in report] == [("shapes", "failure")]


def test_from_json_rejects_ragged_rows():
    with pytest.raises(ParseError):
        LinearSystem.from_json({"p": 2, "A": [[1, 1], [1]], "b": [0, 0]})


def test_json_roundtrip_and_digest_stability():
    ms = magic_square_system()
    again = LinearSystem.from_json(ms.to_json())
    assert again == ms
    assert again.digest() == ms.digest()


@settings(max_examples=300, deadline=None)
@given(json_like(), st.dictionaries(st.sampled_from(["p", "A", "b"]),
                                    json_like(2, 5, [[1, 1]], [0], ["11", {"1": 0, "0": 1}],
                                              [True, "0"], [[1, 2.0, 0], [0, 1, 1]]),
                                    max_size=2))
def test_validate_document_fails_closed(junk, fields):
    # documents malformed as a whole or in up to two fields end in a
    # ParseError, never in another exception; what is accepted was written
    # as integers, not coerced to them
    for doc in (junk, dict({"p": 3, "A": [[1, 2, 0], [0, 1, 1]], "b": [1, 2]}, **fields)):
        try:
            system, _ = validate_document(doc)
        except ParseError:
            continue
        assert type(doc["p"]) is int
        if system is not None:
            assert all(type(row) is list for row in doc["A"])
            assert all(type(v) is int for v in [*itertools.chain(*doc["A"]), *doc["b"]])
