"""Oracles for the games module: games given by a rule closure, namely the
syncLCS game over per-row solution sets and the synchronous graph
isomorphism game, and the perfect-strategy and best-value searches that
evaluate a game's rule for every pair they try.  The library's game is its
compiled tables; these evaluate `wins` directly, and report how many nodes
they visited."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable

from adjacency_oracle import adjacent, has_vertex
from row_oracle import row_support
from synclcs import (
    DeterministicStrategy,
    GameGraph,
    LinearSystem,
    SynchronousGame,
    row_solutions,
)
from synclcs.errors import SearchBudgetExceeded
from synclcs.graphs import ADJACENT, DISTINCT, EQUAL


@dataclass(frozen=True)
class RuleGame:
    """A synchronous game given by a total predicate rule(x, y, i, j)."""

    inputs: tuple[Hashable, ...]
    outputs: tuple[Hashable, ...]
    rule: Callable[[Hashable, Hashable, Hashable, Hashable], bool]

    def wins(self, x, y, i, j) -> bool:
        return bool(self.rule(x, y, i, j))


Game = RuleGame | SynchronousGame  # the helpers below read inputs, outputs and wins


def closure_synclcs_game(sys: LinearSystem) -> RuleGame:
    """The syncLCS game with the same inputs and outputs as
    `build_synclcs_game`, deciding each pair from stored solution sets."""
    solutions = {i: row_solutions(sys, i) for i in range(1, sys.m + 1)}
    solution_sets = {i: frozenset(sol) for i, sol in solutions.items()}
    supports = {i: row_support(sys, i) for i in solutions}
    outputs, seen = [], set()
    for i in range(1, sys.m + 1):
        for x in solutions[i]:
            if x not in seen:
                seen.add(x)
                outputs.append(x)
    if not outputs:
        outputs = [(0,) * sys.n]

    def rule(x, y, i, j) -> bool:
        if i not in solution_sets or j not in solution_sets:
            return False
        if x not in solution_sets[i] or y not in solution_sets[j]:
            return False
        return all(x[k - 1] == y[k - 1] for k in supports[i] & supports[j])

    return RuleGame(tuple(range(1, sys.m + 1)), tuple(outputs), rule)


def relationship(G: GameGraph, u, v) -> int:
    """EQUAL, ADJACENT or DISTINCT (distinct and not adjacent)."""
    if u == v:
        return EQUAL
    return ADJACENT if adjacent(G, u, v) else DISTINCT


def build_iso_game(G: GameGraph, H: GameGraph) -> RuleGame:
    """The synchronous graph isomorphism game on V(G) disjoint-union V(H).

    Inputs and outputs are graph-tagged vertices.  A pair of answers wins
    when each answer lies in the opposite graph from its question and the
    relationship (equal / adjacent / distinct non-adjacent) of the two
    G-side vertices matches that of the two H-side vertices.  The pairing
    into sides covers both the "questions share a graph" and "answers
    share a graph" orientations symmetrically.
    """
    tagged = tuple(("G", v) for v in G.vertices) + tuple(("H", v) for v in H.vertices)

    def rule(x, y, v, w) -> bool:
        if x[0] == v[0] or y[0] == w[0]:
            return False
        alice_g, alice_h = (v[1], x[1]) if v[0] == "G" else (x[1], v[1])
        bob_g, bob_h = (w[1], y[1]) if w[0] == "G" else (y[1], w[1])
        if not (has_vertex(G, alice_g) and has_vertex(G, bob_g)
                and has_vertex(H, alice_h) and has_vertex(H, bob_h)):
            return False
        return relationship(G, alice_g, bob_g) == relationship(H, alice_h, bob_h)

    return RuleGame(tagged, tagged, rule)


def perfect_search(g: Game, budget: int = 10**9):
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


def behavior_signature(g: Game, i, x) -> tuple:
    sig = [g.wins(x, x, i, i)]
    for j in g.inputs:
        for y in g.outputs:
            sig.append(g.wins(x, y, i, j))
            sig.append(g.wins(y, x, j, i))
    return tuple(sig)


def best_search(g: Game, budget: int = 10**9):
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


def rule_table(g: Game) -> list[dict]:
    """Every winning (i, j, x, y), labelled; a solution, a tuple of ints,
    as "(x_1,...,x_n)"."""
    def label(obj) -> str:
        if isinstance(obj, tuple) and all(type(e) is int for e in obj):
            return "(" + ",".join(str(e) for e in obj) + ")"
        return str(obj)

    return [{"i": label(i), "j": label(j), "x": label(x), "y": label(y)}
            for i in g.inputs for j in g.inputs
            for x in g.outputs for y in g.outputs if g.wins(x, y, i, j)]


def check_synchronous(g: Game) -> bool:
    """Same question, different answers lose."""
    return not any(g.wins(x, y, i, i) or g.wins(y, x, i, i)
                   for i in g.inputs
                   for a, x in enumerate(g.outputs) for y in g.outputs[a + 1:])


def is_perfect(s: DeterministicStrategy, g: Game) -> bool:
    for i in g.inputs:
        if i not in s.assignment:
            raise ValueError(f"strategy not total: missing input {i!r}")
    return all(g.wins(s.assignment[i], s.assignment[j], i, j)
               for i in g.inputs for j in g.inputs)


def game_value(s: DeterministicStrategy, g: Game) -> Fraction:
    """Winning probability under uniform question pairs, exact."""
    wins = sum(1 for i in g.inputs for j in g.inputs
               if g.wins(s.assignment[i], s.assignment[j], i, j))
    return Fraction(wins, len(g.inputs) ** 2)
