"""Oracle for the graphs module: the isomorphism search as it was before
its candidate sets became bitsets with an undo trail, and the refinement
as it was before it ran on arrays.  The search copies the whole |V|x|V|
boolean candidate mask at every level, so its memory grows as |V|^3 along
a branch; it chooses vertices and tries candidates in the same order as
`isomorphism_search`, so both must report the same outcome, node count,
refinement rounds and bijection.  The refinement builds one `Counter` of
(neighbor color, common-neighbor count) pairs per vertex per round and
numbers the signatures in sorted order; `graphs._wl_refine` must give the
same partitions, up to the names of the colors, and the same rounds."""

from __future__ import annotations

from collections import Counter

import numpy as np

from synclcs.config import DEFAULT_SEARCH_BUDGET
from synclcs.errors import SearchBudgetExceeded
from synclcs.graphs import (
    GameGraph,
    IsoSearchResult,
    VertexBijection,
    is_isomorphism,
)


def _wl_signatures(adj: np.ndarray):
    """The refinement signature of every vertex under a coloring: its own
    color and the multiset of (neighbor color, common-neighbor count)."""
    # float32 runs the product through BLAS; it is exact for counts below
    # 2**24, far more vertices than a dense adjacency matrix can hold
    counts = adj.astype(np.float32)
    common = counts @ counts
    neighbors = [(nb, common[a, nb].astype(int))
                 for a, nb in enumerate(np.nonzero(row)[0] for row in adj)]

    def signatures(colors: list[int]) -> list:
        color = np.array(colors)
        return [(colors[a], tuple(sorted(Counter(zip(color[nb].tolist(), cn.tolist())).items())))
                for a, (nb, cn) in enumerate(neighbors)]

    return signatures


def _wl_refine(G: GameGraph, H: GameGraph):
    """Joint 1-dimensional Weisfeiler-Leman color refinement, with edge
    signatures enriched by common-neighbor counts.

    Common-neighbor counts are preserved by any isomorphism, so the
    enriched refinement is still sound; it splits the row-clique graphs
    built here far more finely than plain neighbor-color multisets.
    Returns (colors_G, colors_H, rounds) with comparable color ids, or
    None as soon as the color multisets diverge (a sound non-isomorphism
    certificate).
    """
    sig_g, sig_h = _wl_signatures(G.adj), _wl_signatures(H.adj)
    cg, ch = [0] * G.order(), [0] * H.order()
    rounds = 0
    while True:
        sg, sh = sig_g(cg), sig_h(ch)
        palette = {sig: k for k, sig in enumerate(sorted(set(sg) | set(sh)))}
        new_g = [palette[s] for s in sg]
        new_h = [palette[s] for s in sh]
        rounds += 1
        if Counter(new_g) != Counter(new_h):
            return None
        stable = len(set(new_g)) == len(set(cg)) and len(set(new_h)) == len(set(ch))
        cg, ch = new_g, new_h
        if stable and rounds > 1:
            return cg, ch, rounds



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
