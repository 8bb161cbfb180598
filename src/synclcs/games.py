"""The syncLCS game, compiled to integers, and the perfect-strategy and
best-value searches that run on it: per input k, the outputs x that win
(x, x, i, i), in output order (`rows[k]`), and per (j, a, k) the bitset
over `rows[k]` of the outputs that win both orders against the a-th output
of `rows[j]` (`compatible`).  Those are the outputs with an equal
`system.shared_keys` code, as in the game graphs, on the support two rows
share; each nonempty bitset is built on first use and kept, once per
(row, shared support, key), and a key with no partner reads 0 after a scan
of the row's keys, with nothing kept.  The searches rely on the rule being
symmetric, wins(x, y, i, j) = wins(y, x, j, i), and on an output that
loses (x, x, i, i) losing every pair at input i.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from typing import Hashable

from .config import DEFAULT_ENUM_CAP, DEFAULT_SEARCH_BUDGET
from .errors import SearchBudgetExceeded
from .system import LinearSystem, row_solutions, shared_keys


@dataclass(frozen=True, eq=False)
class SynchronousGame:
    """A two-player game with shared input and output sets, given by its
    compiled `tables`: the answers (x, y) to (i, j) win when x solves row
    i, y solves row j and the two agree on the columns the rows share, so
    wins(x, y, i, i) = 0 whenever x != y (synchrony)."""

    inputs: tuple[Hashable, ...]
    outputs: tuple[Hashable, ...]
    tables: KeyTables = field(repr=False)
    name: str = ""

    @cached_property
    def _positions(self) -> dict:
        """(input, output) -> (input index k, position in tables.rows[k])."""
        return {(i, self.outputs[t]): (k, a)
                for k, (i, row) in enumerate(zip(self.inputs, self.tables.rows))
                for a, t in enumerate(row)}

    def wins(self, x, y, i, j) -> bool:
        """The rule, read from the tables; an output that does not solve its
        input's row, or an unknown input, loses."""
        pos = self._positions
        if (i, x) not in pos or (j, y) not in pos:
            return False
        (k, a), (l, b) = pos[i, x], pos[j, y]
        return bool(self.tables.compatible(k, a, l) >> b & 1)


@dataclass
class DeterministicStrategy:
    """A total map from inputs to outputs, shared by both players."""

    assignment: dict = field(default_factory=dict)


class KeyTables:
    """The syncLCS game on integers: rows[k] holds the indices of the
    outputs that solve row k+1, and keys(k, cols) the `shared_keys` of each
    of them on the 1-based columns cols.  Keys and nonempty bitsets are
    cached by the columns two rows share, not by the pair of rows, so their
    count does not grow with the square of the number of rows."""

    def __init__(self, p: int, supports: list, rows: list, outputs: list):
        self.supports, self.rows, self._shared, self._hits = supports, rows, {}, {}
        self.keys = cache(lambda k, cols: shared_keys(p, [outputs[t] for t in rows[k]], cols))

    def _matching(self, key: int, k: int, cols: frozenset) -> int:
        bits = self._hits.get((key, k, cols))
        if bits is None:
            codes = self.keys(k, cols)
            if key not in codes:
                return 0
            bits = self._hits[key, k, cols] = sum(1 << a for a, c in enumerate(codes) if c == key)
        return bits

    def compatible(self, j: int, a: int, k: int) -> int:
        cols = self.supports[j] & self.supports[k]
        cols = self._shared.setdefault(cols, cols)  # one object per column set in the caches
        return self._matching(self.keys(j, cols)[a], k, cols)


def build_synclcs_game(sys: LinearSystem, cap: int = DEFAULT_ENUM_CAP) -> SynchronousGame:
    """The synchronous game verifying a shared solution of Ax = b.

    Inputs are the rows 1..m; outputs are stored sparsely as the union of
    the per-row solution sets (any vector outside every set loses against
    everything, so omitting those is behavior-preserving).  When every row
    solution set is empty the zero vector is kept as a designated losing
    output so strategies remain total.  The game carries its KeyTables.
    """
    inputs = tuple(range(1, sys.m + 1))
    supports = [frozenset(cols) for cols in sys.supports]
    index, outputs, rows = {}, [], []  # index: solution -> position in outputs
    for i in inputs:
        row = []
        for x in row_solutions(sys, i, cap):
            t = index.setdefault(x, len(outputs))
            if t == len(outputs):
                outputs.append(x)
            row.append(t)
        rows.append(sorted(row))
    if not outputs:
        outputs = [(0,) * sys.n]
    return SynchronousGame(inputs, tuple(outputs), KeyTables(sys.p, supports, rows, outputs),
                           "synclcs")


def find_perfect_deterministic(
    g: SynchronousGame, budget: int = DEFAULT_SEARCH_BUDGET
) -> DeterministicStrategy | None:
    """Backtracking search for a perfect strategy.

    Inputs are filled in index order, outputs tried in index order, and a
    candidate is pruned as soon as any pair with an already-assigned input
    loses.  Returns None only after exhausting the whole (pruned) tree;
    running out of budget raises instead, so None is a certificate.  The
    search steps only through the outputs its bitsets leave, but counts a
    node for every output in index order, as if each had been tried.
    """
    if not g.inputs:
        return DeterministicStrategy({})
    tables = g.tables
    rows, last, m = tables.rows, len(g.outputs) - 1, len(g.inputs)
    # per filled input: untried bitset, last output counted, position in rows[k] chosen
    frames: list[list[int]] = []

    def allowed(k: int) -> int:
        bits = (1 << len(rows[k])) - 1
        for j, (_, _, a) in enumerate(frames[:k]):
            if bits:
                bits &= tables.compatible(j, a, k)
        return bits

    frames.append([allowed(0), -1, -1])
    nodes = 0
    while frames:
        k = len(frames) - 1
        bits, counted, _ = frames[-1]
        a = (bits & -bits).bit_length() - 1
        t = rows[k][a] if bits else last
        nodes += t - counted
        if nodes > budget:
            raise SearchBudgetExceeded(f"strategy search exceeded {budget} nodes")
        if not bits:
            frames.pop()
            continue
        frames[-1] = [bits & (bits - 1), t, a]
        if k + 1 == m:
            return DeterministicStrategy(
                {g.inputs[j]: g.outputs[rows[j][b]] for j, (_, _, b) in enumerate(frames)})
        frames.append([allowed(k + 1), -1, -1])
    return None


def best_deterministic_strategy(
    g: SynchronousGame, budget: int = DEFAULT_SEARCH_BUDGET
) -> tuple[DeterministicStrategy, Fraction]:
    """Exact optimum over deterministic strategies (branch and bound).

    Candidates per input are deduplicated by behavior signature, then a
    depth-first search with an optimistic win-count bound finds the exact
    maximum.  Deterministic: first strategy reaching the optimum in
    index order is returned.  The signature of an output that wins
    (x, x, i, i) lists, per input j, the bitset of the outputs of rows[j]
    it wins against; every other output has the signature None.
    """
    inputs = g.inputs
    if not inputs:
        return DeterministicStrategy({}), Fraction(1)
    tables = g.tables
    m = len(inputs)
    candidates = []  # per input: (output, position in rows[k] or None, signature)
    for k, row in enumerate(tables.rows):
        position, seen, found = {t: a for a, t in enumerate(row)}, set(), []
        for t in range(len(g.outputs)):
            a = position.get(t)
            sig = None if a is None else tuple(tables.compatible(k, a, j) for j in range(m))
            if sig not in seen:
                seen.add(sig)
                found.append((t, a, sig))
        candidates.append(found)
    total_pairs = m * m
    best_wins, best = -1, []
    picks: list[tuple] = []  # candidate chosen at each filled input
    frames = [(iter(candidates[0]), 0)]  # per filled input: untried candidates, wins so far
    nodes = 0
    while frames:
        k = len(frames) - 1
        untried, wins = frames[-1]
        cand = next(untried, None)
        if cand is None:
            frames.pop()
            if picks:
                picks.pop()
            continue
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(f"value search exceeded {budget} nodes")
        sig = cand[2]
        if sig is not None:
            # x wins (x, x, i, i), and both orders of each pair it wins
            wins += 1 + 2 * sum(sig[j] >> b & 1 for j, (_, b, other) in enumerate(picks)
                                if other is not None)
        if k + 1 == m:
            if wins > best_wins:
                best_wins, best = wins, picks + [cand]
        elif wins + total_pairs - (k + 1) ** 2 > best_wins:
            picks.append(cand)
            frames.append((iter(candidates[k + 1]), wins))
    assignment = {i: g.outputs[t] for i, (t, _, _) in zip(inputs, best)}
    return DeterministicStrategy(assignment), Fraction(best_wins, total_pairs)
