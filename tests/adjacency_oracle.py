"""Oracles for `GameGraph` adjacency.  The compatibility predicate on a
pair of row solutions, by its definition, with the row-membership test and
the vector helpers it rests on.  The dense build as it was before the
graph was compiled from row keys: it compares every vertex pair on every
column ("both rows use column c and disagree there"), one |V| x |V| mask
per column, so it takes O(n |V|^2) time; its pair counts are R^T adj R,
with R the vertex-by-row incidence matrix.  And the numpy counts and edge
list of the key blocks, as the library computed them before it counted
keys with Python ints and listed edges from the keys."""

from __future__ import annotations

import numpy as np

from row_oracle import row_support
from synclcs.errors import NotASolution
from synclcs.graphs import GameGraph
from synclcs.system import LinearSystem
from synclcs.zp import ZpMatrix


def support(v: tuple[int, ...]) -> set[int]:
    """Indices of nonzero coordinates, 1-based."""
    return {j + 1 for j, e in enumerate(v) if e != 0}


def row(A: ZpMatrix, i: int) -> tuple[int, ...]:
    """Row i of A, 1-based."""
    return A.rows[i - 1]


def dot(p: int, u: tuple[int, ...], v: tuple[int, ...]) -> int:
    """The scalar product mod p of two vectors of one length."""
    return sum(a * b for a, b in zip(u, v)) % p


def is_row_solution(sys: LinearSystem, i: int, x: tuple[int, ...]) -> bool:
    """Membership test for the restricted solution set of row i: n ints in
    range(p), zero off the row support, solving the row."""
    sys._check_row(i)
    if len(x) != sys.n or not all(type(e) is int and 0 <= e < sys.p for e in x):
        return False
    if not support(x) <= row_support(sys, i):
        return False
    return dot(sys.p, row(sys.A, i), x) == sys.b.entry(i)


def compatible(sys: LinearSystem, i: int, j: int, x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    """True iff x and y agree on every shared support coordinate.

    x must solve row i and y row j; anything else raises NotASolution.
    """
    if not is_row_solution(sys, i, x):
        raise NotASolution(f"x is not a restricted solution of row {i}")
    if not is_row_solution(sys, j, y):
        raise NotASolution(f"y is not a restricted solution of row {j}")
    shared = row_support(sys, i) & row_support(sys, j)
    return all(x[k - 1] == y[k - 1] for k in shared)


def has_vertex(G: GameGraph, v) -> bool:
    """Whether v is a (row, solution) vertex of G."""
    return v in G._index


def adjacent(G: GameGraph, u, v) -> bool:
    """Whether vertices u and v of G are joined, read from its dense adjacency."""
    return bool(G.adj[G._index[u], G._index[v]])


def per_column_adjacency(G: GameGraph) -> np.ndarray:
    """The adjacency of G's vertices, one numpy comparison per column."""
    d, n, p = G.order(), G.system.n, G.system.p
    # entries are < p; left to itself numpy would round those above int64
    # to float64, so they stay Python ints in an object array
    dtype = np.int64 if p <= 2**63 else object
    values = np.array([x for _, x in G.vertices], dtype=dtype).reshape(d, n)
    uses = np.array([[a != 0 for a in G.system.A.rows[i - 1]] for i, _ in G.vertices],
                    dtype=bool).reshape(d, n)
    adj = np.zeros((d, d), dtype=bool)
    for c in range(n):
        col = values[:, c]
        adj |= np.outer(uses[:, c], uses[:, c]) & (col[:, None] != col[None, :])
    return adj


def incidence_pair_counts(G: GameGraph, adj: np.ndarray) -> np.ndarray:
    """Ordered vertex-pair counts, shape (3, m, m), indexed EQUAL, ADJACENT,
    DISTINCT, from a dense adjacency: ADJACENT is R^T adj R."""
    rows = np.array([i for i, _ in G.vertices], dtype=int)
    R = np.zeros((G.order(), G.system.m), dtype=np.int64)
    R[np.arange(G.order()), rows - 1] = 1
    sizes = R.sum(axis=0)
    equal = np.diag(sizes)
    adjacent = R.T @ adj.astype(np.int64) @ R
    return np.stack([equal, adjacent, np.outer(sizes, sizes) - equal - adjacent])


# The key-block counts and edge list as the library computed them with
# numpy: per-row key counts by bincount and agreeing pairs by a matrix
# product, and the edges from the dense adjacency.


def numpy_pair_counts(G: GameGraph) -> np.ndarray:
    """Ordered vertex-pair counts, shape (3, m, m), from the key blocks."""
    sizes = np.array([len(G.rows.get(i, ())) for i in range(1, G.system.m + 1)])
    equal, total = np.diag(sizes), np.outer(sizes, sizes)
    agree = total.copy()  # rows that share no column agree on every pair
    for P, Q, a, b, keys in G._key_blocks():
        a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
        P, Q = np.array(P) - 1, np.array(Q) - 1
        # counts[r, key]: the solutions of the r-th row with that key
        cp, cq = (np.bincount(np.repeat(np.arange(len(R)), sizes[R]) * keys + ids,
                              minlength=len(R) * keys).reshape(len(R), keys)
                  for R, ids in ((P, a), (Q, b)))
        agree[np.ix_(P, Q)] = cp @ cq.T
    return np.stack([equal, total - agree, agree - equal])


def numpy_edge_count(G: GameGraph) -> int:
    """Half the ordered pairs with unequal keys, by bincount."""
    return sum(len(a) * len(b) - int(np.bincount(a, minlength=keys) @ np.bincount(
        b, minlength=keys)) for _, _, a, b, keys in G._key_blocks()) // 2


def dense_edges(G: GameGraph) -> np.ndarray:
    """Index pairs a < b of the edges, in row-major order, shape (edges, 2)."""
    return np.argwhere(np.triu(G.adj, 1))
