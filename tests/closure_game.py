"""Oracles for the games module: the syncLCS game as a rule closure over
per-row solution sets, and the perfect-strategy and best-value searches
that evaluate a game's rule for every pair they try.  The library searches
run on compiled tables; these evaluate `SynchronousGame.wins` directly,
and report how many nodes they visited."""

from __future__ import annotations

from fractions import Fraction

from synclcs import (
    DeterministicStrategy,
    LinearSystem,
    SynchronousGame,
    ZpVector,
    row_solutions,
    row_support,
)
from synclcs.errors import SearchBudgetExceeded


def closure_synclcs_game(sys: LinearSystem) -> SynchronousGame:
    """The syncLCS game with the same inputs and outputs as
    `build_synclcs_game`, deciding each pair from stored solution sets."""
    solutions = {i: row_solutions(sys, i) for i in range(1, sys.m + 1)}
    solution_sets = {i: frozenset(s.entries for s in sol) for i, sol in solutions.items()}
    supports = {i: row_support(sys, i) for i in solutions}
    outputs, seen = [], set()
    for i in range(1, sys.m + 1):
        for x in solutions[i]:
            if x.entries not in seen:
                seen.add(x.entries)
                outputs.append(x)
    if not outputs:
        outputs = [ZpVector.zero(sys.p, sys.n)]

    def rule(x, y, i, j) -> bool:
        if i not in solution_sets or j not in solution_sets:
            return False
        if x.entries not in solution_sets[i] or y.entries not in solution_sets[j]:
            return False
        return all(x.entries[k - 1] == y.entries[k - 1] for k in supports[i] & supports[j])

    return SynchronousGame(tuple(range(1, sys.m + 1)), tuple(outputs), rule, "synclcs")


def perfect_search(g: SynchronousGame, budget: int = 10**9):
    """(strategy or None, nodes): backtracking in index order, one node
    per output tried."""
    inputs, assignment, nodes = g.inputs, {}, 0

    def backtrack(k: int):
        nonlocal nodes
        if k == len(inputs):
            return DeterministicStrategy(dict(assignment))
        i = inputs[k]
        for x in g.outputs:
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(f"strategy search exceeded {budget} nodes")
            if not g.wins(x, x, i, i):
                continue
            if all(g.wins(assignment[j], x, j, i) and g.wins(x, assignment[j], i, j)
                   for j in inputs[:k]):
                assignment[i] = x
                found = backtrack(k + 1)
                if found is not None:
                    return found
                del assignment[i]
        return None

    return backtrack(0), nodes


def behavior_signature(g: SynchronousGame, i, x) -> tuple:
    sig = [g.wins(x, x, i, i)]
    for j in g.inputs:
        for y in g.outputs:
            sig.append(g.wins(x, y, i, j))
            sig.append(g.wins(y, x, j, i))
    return tuple(sig)


def best_search(g: SynchronousGame, budget: int = 10**9):
    """(strategy, value, nodes): branch and bound over the first output
    of each behavior signature, one node per candidate tried."""
    inputs = g.inputs
    if not inputs:
        return DeterministicStrategy({}), Fraction(1), 0
    candidates = {}
    for i in inputs:
        seen, cands = set(), []
        for x in g.outputs:
            sig = behavior_signature(g, i, x)
            if sig not in seen:
                seen.add(sig)
                cands.append(x)
        candidates[i] = cands
    total_pairs = len(inputs) ** 2
    best_wins, best_assignment, assignment, nodes = -1, {}, {}, 0

    def dfs(k: int, wins: int):
        nonlocal best_wins, best_assignment, nodes
        if k == len(inputs):
            if wins > best_wins:
                best_wins, best_assignment = wins, dict(assignment)
            return
        if wins + (total_pairs - k * k) <= best_wins:
            return
        i = inputs[k]
        for x in candidates[i]:
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(f"value search exceeded {budget} nodes")
            gained = 1 if g.wins(x, x, i, i) else 0
            for j in inputs[:k]:
                gained += g.wins(assignment[j], x, j, i) + g.wins(x, assignment[j], i, j)
            assignment[i] = x
            dfs(k + 1, wins + gained)
            del assignment[i]

    dfs(0, 0)
    return DeterministicStrategy(best_assignment), Fraction(best_wins, total_pairs), nodes


def rule_table(g: SynchronousGame) -> list[dict]:
    """Every winning (i, j, x, y), labelled."""
    def label(obj) -> str:
        return obj.label() if isinstance(obj, ZpVector) else str(obj)

    return [{"i": label(i), "j": label(j), "x": label(x), "y": label(y)}
            for i in g.inputs for j in g.inputs
            for x in g.outputs for y in g.outputs if g.wins(x, y, i, j)]


def check_synchronous(g: SynchronousGame) -> bool:
    """Same question, different answers lose."""
    return not any(g.wins(x, y, i, i) or g.wins(y, x, i, i)
                   for i in g.inputs
                   for a, x in enumerate(g.outputs) for y in g.outputs[a + 1:])


def is_perfect(s: DeterministicStrategy, g: SynchronousGame) -> bool:
    for i in g.inputs:
        if i not in s.assignment:
            raise ValueError(f"strategy not total: missing input {i!r}")
    return all(g.wins(s.assignment[i], s.assignment[j], i, j)
               for i in g.inputs for j in g.inputs)


def game_value(s: DeterministicStrategy, g: SynchronousGame) -> Fraction:
    """Winning probability under uniform question pairs, exact."""
    wins = sum(1 for i in g.inputs for j in g.inputs
               if g.wins(s.assignment[i], s.assignment[j], i, j))
    return Fraction(wins, len(g.inputs) ** 2)
