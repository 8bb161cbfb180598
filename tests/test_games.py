import itertools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closure_game import (
    RuleGame,
    best_search,
    build_iso_game,
    check_synchronous,
    closure_synclcs_game,
    game_value,
    is_perfect,
    perfect_search,
    rule_table,
)
from conftest import pentagram_system, random_system
from row_oracle import row_support
from synclcs import (
    DeterministicStrategy,
    LinearSystem,
    best_deterministic_strategy,
    build_game_graph,
    build_synclcs_game,
    find_perfect_deterministic,
    gauss_solve,
    row_solutions,
)
from synclcs.errors import SearchBudgetExceeded
from synclcs.presets import magic_square_system, one_eq_system, p3_demo_system


def test_synclcs_rule_single_row():
    g = build_synclcs_game(one_eq_system())
    zero, ones = g.outputs
    assert g.wins(zero, zero, 1, 1)
    assert not g.wins(zero, ones, 1, 1)
    assert g.wins(ones, ones, 1, 1)


def test_synclcs_rule_magic_square_cross_row():
    ms = magic_square_system()
    g = build_synclcs_game(ms)
    zero = (0,) * 9
    # the zero vector solves both row 1 and column 1 (= input 4) and
    # trivially agrees with itself at the shared cell
    assert g.wins(zero, zero, 1, 4)


def test_nonsolution_output_always_loses():
    sys_ = one_eq_system()
    g = build_synclcs_game(sys_)
    bad = (1, 0)  # not a solution of x1 + x2 = 0
    for y in g.outputs:
        for i in g.inputs:
            for j in g.inputs:
                assert not g.wins(bad, y, i, j)


def test_outputs_are_sparse_union_of_row_solutions():
    ms = magic_square_system()
    g = build_synclcs_game(ms)
    union = {x for i in g.inputs for x in row_solutions(ms, i)}
    assert set(g.outputs) == union
    assert len(g.outputs) == len(union)


def test_check_synchronous():
    assert check_synchronous(build_synclcs_game(magic_square_system()))
    one = one_eq_system()
    iso = build_iso_game(build_game_graph(one), build_game_graph(one, homogeneous=True))
    assert check_synchronous(iso)
    broken = RuleGame(inputs=(1,), outputs=("a", "b"), rule=lambda x, y, i, j: True)
    assert not check_synchronous(broken)


def test_is_perfect_single_row():
    g = build_synclcs_game(one_eq_system())
    zero = g.outputs[0]
    assert is_perfect(DeterministicStrategy({1: zero}), g)


def test_restricted_global_solution_is_perfect():
    sys_ = LinearSystem.from_ints(3, [[1, 2, 0], [0, 1, 1]], [1, 2])
    sol = gauss_solve(sys_.A, sys_.b)
    assert sol is not None
    xstar = sol.particular
    g = build_synclcs_game(sys_)
    strat = DeterministicStrategy({
        i: tuple(e if j in row_support(sys_, i) else 0 for j, e in enumerate(xstar.entries, 1))
        for i in g.inputs
    })
    assert is_perfect(strat, g)
    assert game_value(strat, g) == 1


def test_strategy_must_be_total():
    g = build_synclcs_game(magic_square_system())
    with pytest.raises(ValueError):
        is_perfect(DeterministicStrategy({1: g.outputs[0]}), g)


def test_find_perfect_first_enumerated_solution():
    sys_ = LinearSystem.from_ints(2, [[1, 1]], [1])
    g = build_synclcs_game(sys_)
    strat = find_perfect_deterministic(g)
    assert strat is not None
    assert strat.assignment[1] == (1, 0)


def test_find_perfect_magic_square_exhausts_to_none():
    g = build_synclcs_game(magic_square_system())
    assert find_perfect_deterministic(g) is None


def test_find_perfect_iso_k2_identity_ordered():
    one = one_eq_system()
    G = build_game_graph(one)
    H = build_game_graph(one, homogeneous=True)
    iso = build_iso_game(G, H)
    strat, _ = perfect_search(iso)
    assert strat is not None
    # first inputs are the G-side vertices in order; the search picks the
    # first workable H vertex, which is the identity-ordered bijection here
    assert strat.assignment[("G", G.vertices[0])] == ("H", H.vertices[0])
    assert strat.assignment[("H", H.vertices[0])] == ("G", G.vertices[0])


def test_search_budget_is_distinct_from_none():
    g = build_synclcs_game(magic_square_system())
    with pytest.raises(SearchBudgetExceeded):
        find_perfect_deterministic(g, budget=3)


def test_magic_square_best_value_vs_exhaustive_oracle():
    ms = magic_square_system()
    g = build_synclcs_game(ms)
    # oracle: any output outside a row's solution set loses every pair
    # involving that row, so exhausting over per-row solutions is exact
    per_row = [row_solutions(ms, i) for i in g.inputs]
    best = 0
    for choice in itertools.product(*per_row):
        wins = sum(
            1
            for a, i in enumerate(g.inputs)
            for c, j in enumerate(g.inputs)
            if g.wins(choice[a], choice[c], i, j)
        )
        best = max(best, wins)
    assert Fraction(best, 36) == Fraction(34, 36)
    strat, value = best_deterministic_strategy(g)
    assert value == Fraction(34, 36)
    assert game_value(strat, g) == value


def test_all_losing_strategy_has_value_zero():
    sys_ = one_eq_system()
    g = build_synclcs_game(sys_)
    bad = (1, 0)
    assert game_value(DeterministicStrategy({1: bad}), g) == 0


def test_rule_symmetry(rng):
    for _ in range(10):
        sys_ = random_system(rng, rng.choice([2, 3]), rng.randint(1, 4), rng.randint(1, 4))
        g = build_synclcs_game(sys_)
        for _ in range(50):
            i = rng.choice(g.inputs)
            j = rng.choice(g.inputs)
            x = rng.choice(g.outputs)
            y = rng.choice(g.outputs)
            assert g.wins(x, y, i, j) == g.wins(y, x, j, i)


def test_perfect_strategy_exists_iff_consistent(rng):
    for _ in range(25):
        sys_ = random_system(rng, rng.choice([2, 3]), rng.randint(1, 4), rng.randint(1, 4))
        g = build_synclcs_game(sys_)
        strat = find_perfect_deterministic(g)
        consistent = gauss_solve(sys_.A, sys_.b) is not None
        assert (strat is not None) == consistent
        if strat is not None:
            assert is_perfect(strat, g)
            assert game_value(strat, g) == 1


def test_value_one_iff_perfect(rng):
    sys_ = p3_demo_system()
    g = build_synclcs_game(sys_)
    for x in g.outputs:
        s = DeterministicStrategy({1: x})
        assert (game_value(s, g) == 1) == is_perfect(s, g)


def test_rule_table_export():
    g = build_synclcs_game(one_eq_system())
    table = rule_table(g)
    # winning entries only; symmetric and diagonal-complete
    assert {(row["i"], row["x"], row["j"], row["y"]) for row in table} == {
        ("1", "(0,0)", "1", "(0,0)"),
        ("1", "(1,1)", "1", "(1,1)"),
    }
    import json

    json.dumps(table)  # JSON-serializable


# ------------------------------------------- compiled searches vs closures


def _grid_square(p: int, size: int) -> LinearSystem:
    """size x size grid over Z_p: rows sum to 0, columns to 0 except the
    last, which sums to 1; no classical solution for any p."""
    cells = range(size * size)
    A = [[int(k // size == r) for k in cells] for r in range(size)]
    A += [[int(k % size == c) for k in cells] for c in range(size)]
    return LinearSystem.from_ints(p, A, [0] * (2 * size - 1) + [1])


@st.composite
def small_systems(draw):
    """Up to 4 rows x 5 variables over Z_2, Z_3 or Z_5, zero rows and
    m = 0 included; each row has at most 16 solutions, so the closure
    searches stay fast."""
    # sampled_from draws uniformly, where integers() favours small values
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.sampled_from([5, 4, 3, 2, 1]))
    m = draw(st.sampled_from([4, 3, 2, 1, 0]))
    A = []
    for _ in range(m):
        width = min(n, draw(st.sampled_from(range({2: 5, 3: 3, 5: 2}[p], -1, -1))))
        cols = draw(st.sets(st.integers(0, n - 1), min_size=width, max_size=width))
        A.append([draw(st.integers(1, p - 1)) if c in cols else 0 for c in range(n)])
    b = draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m))
    return LinearSystem.from_ints(p, A, b)


def _assignment(strategy):
    return None if strategy is None else strategy.assignment


def _assert_same_as_closure_searches(sys_):
    game, oracle = build_synclcs_game(sys_), closure_synclcs_game(sys_)
    assert game.outputs == oracle.outputs
    # the rule read from the tables, on every (x, y, i, j), with the first
    # vector that solves no row (when one exists) and inputs 0 and m + 1
    solving = set(game.outputs)
    outside = next((v for v in itertools.product(range(sys_.p), repeat=sys_.n)
                    if v not in solving), None)
    vectors = game.outputs + (() if outside is None else (outside,))
    inputs = (0, *game.inputs, sys_.m + 1)
    cases = [(x, y, i, j) for i in inputs for j in inputs for x in vectors for y in vectors]
    assert [game.wins(*c) for c in cases] == [oracle.wins(*c) for c in cases]
    perfect, perfect_nodes = perfect_search(oracle)
    best, value, best_nodes = best_search(oracle)
    assert _assignment(find_perfect_deterministic(game)) == _assignment(perfect)
    got, got_value = best_deterministic_strategy(game)
    assert (_assignment(got), got_value) == (_assignment(best), value)
    # the budget trips at the node the closure search would reach
    found = find_perfect_deterministic(game, budget=perfect_nodes)
    assert _assignment(found) == _assignment(perfect)
    assert best_deterministic_strategy(game, budget=best_nodes)[1] == value
    if perfect_nodes:
        with pytest.raises(SearchBudgetExceeded):
            find_perfect_deterministic(game, budget=perfect_nodes - 1)
    if best_nodes:
        with pytest.raises(SearchBudgetExceeded):
            best_deterministic_strategy(game, budget=best_nodes - 1)


@settings(max_examples=200, deadline=None)
@given(small_systems())
def test_compiled_searches_match_closure_searches(sys_):
    _assert_same_as_closure_searches(sys_)


@pytest.mark.parametrize("sys_", [
    magic_square_system(), pentagram_system(), _grid_square(3, 3), _grid_square(2, 4),
], ids=["magic-square", "pentagram", "square-3x3-z3", "square-4x4-z2"])
def test_compiled_searches_match_closure_searches_on_squares(sys_):
    _assert_same_as_closure_searches(sys_)


def test_compiled_tables_stay_linear_in_the_outputs():
    # two 8-variable rows over Z_3 on one support, x1+...+x8 = 0 and = 1:
    # every key of one row is the whole solution, and no key has a partner
    # in the other row, so the search exhausts through all 2,187 keys
    sys_ = LinearSystem.from_ints(3, [[1] * 8, [1] * 8], [0, 1])
    tracemalloc.start()
    try:
        rows = [row_solutions(sys_, i) for i in (1, 2)]
        enumerated = tracemalloc.get_traced_memory()[1]
        del rows
        tracemalloc.reset_peak()
        game = build_synclcs_game(sys_)
        assert find_perfect_deterministic(game) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one |S_1| x |S_2| bitset table would take 2187 * 2187 / 8 bytes,
    # 598 KB, in each direction
    assert peak - enumerated < 600_000


def _joined_bitset(flags) -> int:
    """The bitset as a string of one "1" or "0" per flag, read in base 2."""
    return int("".join("1" if f else "0" for f in flags)[::-1] or "0", 2)


@given(st.lists(st.booleans(), max_size=200), st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_bitset_matches_the_joined_digits(flags, step):
    import numpy as np

    from synclcs.games import _bitset

    array = np.array(flags, dtype=bool)
    # a list, a contiguous bool array and strided slices of one
    for case in (flags, array, array[::step], array[::-1], array.reshape(-1, 1)[:, 0]):
        assert _bitset(case) == _joined_bitset(case)
    assert _bitset(f for f in flags) == _joined_bitset(flags)
