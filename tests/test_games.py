import itertools
from fractions import Fraction

import pytest

from conftest import random_system, zvec
from synclcs import (
    DeterministicStrategy,
    LinearSystem,
    SynchronousGame,
    best_deterministic_strategy,
    build_game_graph,
    build_iso_game,
    build_synclcs_game,
    check_synchronous,
    find_perfect_deterministic,
    game_value,
    gauss_solve,
    is_perfect,
    row_solutions,
    row_support,
)
from synclcs.errors import EnumerationTooLarge, SearchBudgetExceeded
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
    zero = zvec(2, *([0] * 9))
    # the zero vector solves both row 1 and column 1 (= input 4) and
    # trivially agrees with itself at the shared cell
    assert g.wins(zero, zero, 1, 4)


def test_nonsolution_output_always_loses():
    sys_ = one_eq_system()
    g = build_synclcs_game(sys_)
    bad = zvec(2, 1, 0)  # not a solution of x1 + x2 = 0
    for y in g.outputs:
        for i in g.inputs:
            for j in g.inputs:
                assert not g.wins(bad, y, i, j)


def test_outputs_are_sparse_union_of_row_solutions():
    ms = magic_square_system()
    g = build_synclcs_game(ms)
    union = {x.entries for i in g.inputs for x in row_solutions(ms, i)}
    assert {o.entries for o in g.outputs} == union
    assert len(g.outputs) == len(union)


def test_check_synchronous():
    assert check_synchronous(build_synclcs_game(magic_square_system()))
    one = one_eq_system()
    iso = build_iso_game(build_game_graph(one), build_game_graph(one, homogeneous=True))
    assert check_synchronous(iso)
    broken = SynchronousGame(inputs=(1,), outputs=("a", "b"),
                             rule=lambda x, y, i, j: True)
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
        i: xstar.restrict(row_support(sys_, i)) for i in g.inputs
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
    assert strat.assignment[1].entries == (1, 0)


def test_find_perfect_magic_square_exhausts_to_none():
    g = build_synclcs_game(magic_square_system())
    assert find_perfect_deterministic(g) is None


def test_find_perfect_iso_k2_identity_ordered():
    one = one_eq_system()
    G = build_game_graph(one)
    H = build_game_graph(one, homogeneous=True)
    iso = build_iso_game(G, H)
    strat = find_perfect_deterministic(iso)
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
    bad = zvec(2, 1, 0)
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
    table = g.rule_table()
    # winning entries only; symmetric and diagonal-complete
    assert {(row["i"], row["x"], row["j"], row["y"]) for row in table} == {
        ("1", "(0,0)", "1", "(0,0)"),
        ("1", "(1,1)", "1", "(1,1)"),
    }
    import json

    json.dumps(table)  # JSON-serializable
    with pytest.raises(EnumerationTooLarge):
        g.rule_table(max_entries=1)
