"""Generic synchronous games, the syncLCS instance, and deterministic
perfect-strategy analysis."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Hashable

from .config import DEFAULT_ENUM_CAP, DEFAULT_SEARCH_BUDGET
from .errors import EnumerationTooLarge, SearchBudgetExceeded
from .system import LinearSystem, row_solutions, row_support
from .zp import ZpVector


@dataclass(frozen=True, eq=False)
class SynchronousGame:
    """A two-player game with shared input/output sets and rule lambda.

    The rule is a total predicate rule(x, y, i, j) in {0,1}; synchrony
    demands rule(x, y, i, i) = 0 whenever x != y.
    """

    inputs: tuple[Hashable, ...]
    outputs: tuple[Hashable, ...]
    rule: Callable[[Hashable, Hashable, Hashable, Hashable], bool]
    name: str = ""

    def wins(self, x, y, i, j) -> bool:
        return bool(self.rule(x, y, i, j))

    def rule_table(self, max_entries: int = DEFAULT_ENUM_CAP) -> list[dict]:
        """Materialized rule table for export; guarded by an entry cap."""
        total = (len(self.inputs) * len(self.outputs)) ** 2
        if total > max_entries:
            raise EnumerationTooLarge(f"rule table has {total} entries, cap {max_entries}")
        table = []
        for i in self.inputs:
            for j in self.inputs:
                for x in self.outputs:
                    for y in self.outputs:
                        if self.wins(x, y, i, j):
                            table.append({"i": _label(i), "j": _label(j),
                                          "x": _label(x), "y": _label(y)})
        return table


def _label(obj) -> str:
    return obj.label() if isinstance(obj, ZpVector) else str(obj)


@dataclass
class DeterministicStrategy:
    """A total map from inputs to outputs, shared by both players."""

    assignment: dict = field(default_factory=dict)

    def answer(self, i):
        return self.assignment[i]


def build_synclcs_game(sys: LinearSystem, cap: int = DEFAULT_ENUM_CAP) -> SynchronousGame:
    """The synchronous game verifying a shared solution of Ax = b.

    Inputs are the rows 1..m; outputs are stored sparsely as the union of
    the per-row solution sets (any vector outside every set loses against
    everything, so omitting those is behavior-preserving).  When every row
    solution set is empty the zero vector is kept as a designated losing
    output so strategies remain total.
    """
    p, n = sys.p, sys.n
    solutions = {i: row_solutions(sys, i, cap) for i in range(1, sys.m + 1)}
    solution_sets = {i: frozenset(s.entries for s in sol) for i, sol in solutions.items()}
    supports = {i: row_support(sys, i) for i in range(1, sys.m + 1)}
    shared = {
        (i, j): sorted(supports[i] & supports[j])
        for i in supports
        for j in supports
    }

    outputs: list[ZpVector] = []
    seen = set()
    for i in range(1, sys.m + 1):
        for x in solutions[i]:
            if x.entries not in seen:
                seen.add(x.entries)
                outputs.append(x)
    if not outputs:
        outputs = [ZpVector.zero(p, n)]

    def rule(x, y, i, j) -> bool:
        if i not in solution_sets or j not in solution_sets:
            return False
        if x.entries not in solution_sets[i] or y.entries not in solution_sets[j]:
            return False
        return all(x.entries[k - 1] == y.entries[k - 1] for k in shared[(i, j)])

    return SynchronousGame(
        inputs=tuple(range(1, sys.m + 1)),
        outputs=tuple(outputs),
        rule=rule,
        name="synclcs",
    )


def check_synchronous(g: SynchronousGame) -> bool:
    """Exhaustive synchrony check: same question, different answers lose."""
    for i in g.inputs:
        for a, x in enumerate(g.outputs):
            for y in g.outputs[a + 1:]:
                if g.wins(x, y, i, i) or g.wins(y, x, i, i):
                    return False
    return True


def is_perfect(s: DeterministicStrategy, g: SynchronousGame) -> bool:
    for i in g.inputs:
        if i not in s.assignment:
            raise ValueError(f"strategy not total: missing input {i!r}")
    return all(
        g.wins(s.assignment[i], s.assignment[j], i, j)
        for i in g.inputs
        for j in g.inputs
    )


def game_value(s: DeterministicStrategy, g: SynchronousGame) -> Fraction:
    """Winning probability under uniform question pairs, exact."""
    wins = sum(
        1
        for i in g.inputs
        for j in g.inputs
        if g.wins(s.assignment[i], s.assignment[j], i, j)
    )
    return Fraction(wins, len(g.inputs) ** 2)


def find_perfect_deterministic(
    g: SynchronousGame, budget: int = DEFAULT_SEARCH_BUDGET
) -> DeterministicStrategy | None:
    """Backtracking search for a perfect strategy.

    Inputs are filled in index order, outputs tried in index order, and a
    candidate is pruned as soon as any pair with an already-assigned input
    loses.  Returns None only after exhausting the whole (pruned) tree;
    running out of budget raises instead, so None is a certificate.
    """
    inputs = g.inputs
    assignment: dict = {}
    nodes = 0

    def backtrack(k: int) -> DeterministicStrategy | None:
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
            ok = True
            for j in inputs[:k]:
                y = assignment[j]
                if not (g.wins(y, x, j, i) and g.wins(x, y, i, j)):
                    ok = False
                    break
            if not ok:
                continue
            assignment[i] = x
            found = backtrack(k + 1)
            if found is not None:
                return found
            del assignment[i]
        return None

    return backtrack(0)


def _behavior_signature(g: SynchronousGame, i, x) -> tuple:
    """How output x at input i interacts with every (input, output) pair.

    Two outputs with identical signatures are interchangeable in any
    strategy, which collapses the search space for best-value search.
    """
    sig = [g.wins(x, x, i, i)]
    for j in g.inputs:
        for y in g.outputs:
            sig.append(g.wins(x, y, i, j))
            sig.append(g.wins(y, x, j, i))
    return tuple(sig)


def best_deterministic_strategy(
    g: SynchronousGame, budget: int = DEFAULT_SEARCH_BUDGET
) -> tuple[DeterministicStrategy, Fraction]:
    """Exact optimum over deterministic strategies (branch and bound).

    Candidates per input are deduplicated by behavior signature, then a
    depth-first search with an optimistic win-count bound finds the exact
    maximum.  Deterministic: first strategy reaching the optimum in
    index order is returned.
    """
    inputs = g.inputs
    if not inputs:
        return DeterministicStrategy({}), Fraction(1)
    candidates: dict = {}
    for i in inputs:
        seen_sigs = set()
        cands = []
        for x in g.outputs:
            sig = _behavior_signature(g, i, x)
            if sig not in seen_sigs:
                seen_sigs.add(sig)
                cands.append(x)
        candidates[i] = cands

    total_pairs = len(inputs) ** 2
    best_wins = -1
    best_assignment: dict = {}
    assignment: dict = {}
    nodes = 0

    def dfs(k: int, wins: int):
        nonlocal best_wins, best_assignment, nodes
        if k == len(inputs):
            if wins > best_wins:
                best_wins = wins
                best_assignment = dict(assignment)
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
                y = assignment[j]
                gained += 1 if g.wins(y, x, j, i) else 0
                gained += 1 if g.wins(x, y, i, j) else 0
            assignment[i] = x
            dfs(k + 1, wins + gained)
            del assignment[i]

    dfs(0, 0)
    return DeterministicStrategy(best_assignment), Fraction(best_wins, total_pairs)
