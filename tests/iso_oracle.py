"""Oracle for the graphs module: the isomorphism search as it was before
its candidate sets became bitsets with an undo trail.  It copies the whole
|V|x|V| boolean candidate mask at every level, so its memory grows as
|V|^3 along a branch; it chooses vertices and tries candidates in the same
order as `isomorphism_search`, so both must report the same outcome, node
count, refinement rounds and bijection."""

from __future__ import annotations

import numpy as np

from synclcs.config import DEFAULT_SEARCH_BUDGET
from synclcs.errors import SearchBudgetExceeded
from synclcs.graphs import (
    GameGraph,
    IsoSearchResult,
    VertexBijection,
    _wl_refine,
    is_isomorphism,
)


def mask_copy_search(
    G: GameGraph, H: GameGraph, budget: int = DEFAULT_SEARCH_BUDGET
) -> IsoSearchResult:
    """Backtracking isomorphism search with refinement and forward checking.

    Every unmapped vertex keeps a candidate mask (same refinement color,
    adjacency pattern consistent with everything mapped so far); each step
    assigns the vertex with the fewest candidates and narrows the other
    masks, backtracking as soon as any of them empties.  None is returned
    only with the tree exhausted; budget exhaustion raises instead.
    """
    if G.order() != H.order():
        return IsoSearchResult(None, "order-mismatch", 0, 0)
    if sorted(G.adj.sum(axis=1)) != sorted(H.adj.sum(axis=1)):
        return IsoSearchResult(None, "wl-distinguished", 0, 1)
    n = G.order()
    if n == 0:
        return IsoSearchResult(VertexBijection({}, {}), "found", 0, 0)
    refined = _wl_refine(G, H)
    if refined is None:
        return IsoSearchResult(None, "wl-distinguished", 0, 0)
    colors_g, colors_h, rounds = refined
    cand = np.array(colors_g)[:, None] == np.array(colors_h)[None, :]
    mapping = np.full(n, -1, dtype=int)  # G index -> H index
    nodes = 0
    # frames: (G vertex, its untried H candidates, the masks it was
    # chosen under, the vertices unmapped at that point); cand holds the
    # masks of a newly extended mapping, None after a backtrack
    stack = []
    while True:
        if cand is not None:
            unmapped = np.nonzero(mapping < 0)[0]
            if unmapped.size == 0:
                break
            counts = cand[unmapped].sum(axis=1)
            if counts.min() > 0:
                a = int(unmapped[int(np.argmin(counts))])
                stack.append((a, iter(np.nonzero(cand[a])[0]), cand, unmapped))
        if not stack:
            return IsoSearchResult(None, "exhausted", nodes, rounds)
        a, untried, masks, unmapped = stack[-1]
        q = next(untried, None)
        if q is None:
            mapping[a] = -1
            stack.pop()
            cand = None
            continue
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(f"isomorphism search exceeded {budget} nodes")
        mapping[a] = q
        cand = masks.copy()
        cand[:, q] = False
        cand[a] = False
        cand[unmapped] &= G.adj[unmapped, a][:, None] == H.adj[q]
    forward = {G.vertices[a]: H.vertices[mapping[a]] for a in range(n)}
    bij = VertexBijection.from_forward(forward)
    assert is_isomorphism(G, H, bij)
    return IsoSearchResult(bij, "found", nodes, rounds)
