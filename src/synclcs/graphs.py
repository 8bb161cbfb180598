"""Incompatibility graphs of a linear system, brute-force isomorphism
search, and the translation isomorphism.

Vertices, edges and the neighbour bitsets come from the row keys, and the
vertex-pair counts from the row supports alone, with Python ints.  A pair
of graphs within `SMALL_ISO_EDGES` is refined, searched and verified on
its bitsets; only the dense adjacency of a larger pair imports numpy."""

from __future__ import annotations

from array import array
from bisect import insort
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count
from operator import add, itemgetter

from .config import DEFAULT_ENUM_CAP, DEFAULT_SEARCH_BUDGET
from .errors import NotASolution, SearchBudgetExceeded
from .games import _bitset
from .system import LinearSystem, row_solutions, shared_keys
from .zp import ZpVector, label

# how two vertices of one graph relate
EQUAL, ADJACENT, DISTINCT = 0, 1, 2


def row_pair_counts(sys: LinearSystem, sizes: list[int]) -> list[list[list[int]]]:
    """The ordered vertex-pair counts of the graph on sys's rows (G(A,0) for
    sys.homogeneous()), row i with sizes[i-1] solutions, as Python ints from
    the supports alone: [r][i-1][k-1] counts the pairs (u in row i, v in row
    k) that relate as r.  Rows i and k agree (are equal or compatible) on
    |S_i||S_k| / p^|C| pairs, C their shared columns, unless they share one
    nonzero support of s columns: then on their common solutions, all |S_i|
    when a_k = l a_i and b_k = l b_i, none when only a_k = l a_i, and
    p^(s - 2) otherwise.  Agreeing pairs are EQUAL when u = v, else DISTINCT."""
    p = sys.p
    masks = [sum(1 << c for c in V) for V in sys.supports]
    scaled = []  # each row's coefficients and b_i, scaled to a leading 1
    for row, bi, V in zip(sys.A.rows, sys.b.entries, sys.supports):
        inv = pow(row[V[0] - 1], p - 2, p) if V else 0
        scaled.append([a * inv % p for a in (*row, bi)])
    agree = [[si * sk // p ** (mi & mk).bit_count() if mi != mk or not mi
              else si if ei == ek  # one equation
              else 0 if ei[:-1] == ek[:-1]  # parallel equations
              else si // p
              for sk, mk, ek in zip(sizes, masks, scaled)]
             for si, mi, ei in zip(sizes, masks, scaled)]
    equal = [[si if i == k else 0 for k in range(len(sizes))] for i, si in enumerate(sizes)]
    return [equal,
            [[si * sk - ag for sk, ag in zip(sizes, row)] for si, row in zip(sizes, agree)],
            [[ag - eq for ag, eq in zip(row, eqs)] for row, eqs in zip(agree, equal)]]


def count_edges(counts: list[list[list[int]]]) -> int:
    """The edges of a graph of these `row_pair_counts`: half its ADJACENT pairs."""
    return sum(map(sum, counts[ADJACENT])) // 2


@dataclass(frozen=True, eq=False)
class GameGraph:
    """Vertices are (row, solution) pairs; edges join incompatible pairs.

    Vertices with equal solutions under different rows stay distinct.  No
    self-loops; adjacency is symmetric.  The graph is G(system) or, when
    homogeneous, G(system with b = 0).  `rows` maps each row with a solution
    to its solutions, tuples of ints, in `row_solutions` order: the pivot is
    solved for as the free columns run in lexicographic order, which is not
    ascending (x1 + x2 = 0 over Z_3 gives (0,0), (2,1), (1,2)); vertices
    follow it.  So `sorted_edges` sorts each row's solutions for the checks."""

    system: LinearSystem
    homogeneous: bool
    rows: dict[int, list[tuple[int, ...]]]

    @cached_property
    def vertices(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        return tuple((i, x) for i, xs in self.rows.items() for x in xs)

    @cached_property
    def _index(self) -> dict:
        return {v: k for k, v in enumerate(self.vertices)}

    @cached_property
    def _positions(self) -> dict[int, range]:
        """The vertex indices of each row's solutions, one span per row."""
        spans, end = {}, 0
        for i, xs in self.rows.items():
            spans[i] = range(end, end + len(xs))
            end += len(xs)
        return spans

    def order(self) -> int:
        return len(self.vertices)

    def _key_blocks(self):
        """(P, Q, a, b, keys): for the rows P of one support and each set C of
        columns it shares, Q lists the rows whose support meets it in exactly
        C, and the int lists a and b number the keys on C of the solutions of
        P's and of Q's rows, row after row, 0 to keys - 1.  Each ordered pair
        of rows that share a column is in one block."""
        groups: dict[frozenset, list[int]] = {}
        for i in self.rows:
            groups.setdefault(frozenset(self.system.supports[i - 1]), []).append(i)
        for support, P in groups.items():
            meets: dict[frozenset, list[int]] = {}
            for other, Q in groups.items():
                if support & other:
                    meets.setdefault(support & other, []).extend(Q)
            for cols, Q in meets.items():
                ids: dict[int, int] = {}
                a, b = ([ids.setdefault(key, len(ids)) for key in shared_keys(
                    self.system.p, [x for i in rows for x in self.rows[i]], cols)]
                        for rows in (P, Q))
                yield P, Q, a, b, len(ids)

    def _row_slices(self, rows: list[int], ids: list[int]) -> dict[int, list[int]]:
        """Each row's part of ids, the key ids of the rows' solutions row
        after row."""
        out, start = {}, 0
        for i in rows:
            out[i] = ids[start:start + len(self.rows[i])]
            start += len(self.rows[i])
        return out

    @cached_property
    def pair_counts(self) -> list[list[list[int]]]:
        """The `row_pair_counts` of this graph, [r][i-1][k-1]."""
        target = self.system.homogeneous() if self.homogeneous else self.system
        return row_pair_counts(target, [len(self.rows.get(i, ())) for i in range(1, target.m + 1)])

    def edge_count(self) -> int:
        """Half the ADJACENT pairs of `pair_counts`, in O(m^2), with no key walked."""
        return count_edges(self.pair_counts)

    @cached_property
    def bits(self) -> list[int]:
        """Each vertex's neighbours as an int, bit v set for vertex v, built
        from the row keys: a solution of row i is adjacent to the solutions
        of each row k sharing a column with row i that differ from it there."""
        bits = [0] * self.order()
        for P, Q, a, b, _ in self._key_blocks():
            keys_q = self._row_slices(Q, b).items()
            apart: dict[int, int] = {}  # key -> the vertices of Q's rows without it
            for u, key in zip((u for i in P for u in self._positions[i]), a):
                if key not in apart:
                    apart[key] = sum(_bitset(other != key for other in keys_k) << self._positions[k].start
                                     for k, keys_k in keys_q)
                bits[u] |= apart[key]
        return bits

    @cached_property
    def adj(self):
        """The dense |V| x |V| boolean numpy adjacency, filled on first use."""
        import numpy as np

        adj = np.zeros((self.order(), self.order()), dtype=bool)
        for P, Q, a, b, _ in self._key_blocks():
            u, v = (np.array([k for i in rows for k in self._positions[i]], dtype=np.intp)
                    for rows in (P, Q))
            adj[np.ix_(u, v)] = np.array(a)[:, None] != np.array(b)[None, :]
        return adj

    def edges(self) -> tuple[array, array]:
        """The index pairs a < b of the edges, in row-major order, as two int
        columns (a, b), built from the row keys: a vertex's neighbours after
        it are the rest of its row, then, row by row, the solutions of each
        later row that share a column with it and differ there."""
        return self._edges(self._positions)

    def sorted_edges(self) -> tuple[array, array]:
        """The edges (a, b), a's (row, solution) below b's, ordered by a's pair,
        then b's: the edges with each row's solutions sorted, numbered as here."""
        by_key = GameGraph(self.system, self.homogeneous,
                           {i: sorted(xs) for i, xs in self.rows.items()})
        return by_key._edges({i: sorted(span, key=lambda k: self.vertices[k])
                              for i, span in self._positions.items()})

    def _edges(self, positions: dict) -> tuple[array, array]:
        """`edges()` with each row's vertices numbered by positions[row]."""
        code = "i" if self.order() < 2**31 else "q"
        later: dict[int, list] = {i: [] for i in self.rows}  # (k, row i's keys, row k's keys)
        for P, Q, a, b, _ in self._key_blocks():
            keys_q = self._row_slices(Q, b)
            for i, keys_i in self._row_slices(P, a).items():
                later[i] += [(k, keys_i, keys_k) for k, keys_k in keys_q.items() if k > i]
        us, vs = array(code), array(code)
        for i, span in positions.items():
            tail = array(code, span)
            pieces = []
            for k, keys_i, keys_k in sorted(later[i], key=itemgetter(0)):
                apart: dict[int, array] = {}  # key -> the positions of row k without it
                for key in keys_i:
                    if key not in apart:
                        apart[key] = array(code, (v for v, other in zip(positions[k], keys_k)
                                                  if other != key))
                pieces.append([apart[key] for key in keys_i])
            for t, vertex in enumerate(span):
                start = len(vs)
                vs += tail[t + 1:]
                for piece in pieces:
                    vs += piece[t]
                us += array(code, (vertex,)) * (len(vs) - start)
        return us, vs

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """"i:(x_1,...,x_n)" of each vertex, in vertex order, as check
        record names spell it."""
        return tuple(f"{i}:{label(x)}" for i, x in self.vertices)


def build_game_graph(
    sys: LinearSystem, homogeneous: bool = False, cap: int = DEFAULT_ENUM_CAP
) -> GameGraph:
    """Graph on (row, solution) pairs, edges on shared-coordinate conflicts:
    u ~ v when both rows use some column c and the solutions differ at c."""
    target = sys.homogeneous() if homogeneous else sys
    rows = {i: xs for i in range(1, target.m + 1) if (xs := row_solutions(target, i, cap))}
    return GameGraph(sys, homogeneous, rows)


@dataclass
class VertexBijection:
    forward: dict
    inverse: dict

    def __post_init__(self):
        if len(self.forward) != len(self.inverse):
            raise ValueError("forward and inverse sizes differ")
        for v, w in self.forward.items():
            if self.inverse.get(w) != v:
                raise ValueError("maps are not mutually inverse")

    @staticmethod
    def from_forward(forward: dict) -> "VertexBijection":
        inverse = {w: v for v, w in forward.items()}
        if len(inverse) != len(forward):
            raise ValueError("forward map is not injective")
        return VertexBijection(forward, inverse)


# Graph pairs of at most this many directed edges (2 * edge_count(), of the
# larger graph) are refined, searched and verified on `bits`, in Python
# ints, so no numpy is imported for them; larger pairs use the dense `adj`,
# whose refinement runs its common-neighbour counts through BLAS.  On a
# 2-CPU VM (Python 3.11, numpy 2.4) the bitset path cost 0.5-0.8 us more
# per directed edge than the dense one, and numpy's import 62 ms, so the
# two cross near 90,000 directed edges.
SMALL_ISO_EDGES = 80_000


def _small(G: GameGraph, H: GameGraph) -> bool:
    return 2 * max(G.edge_count(), H.edge_count()) <= SMALL_ISO_EDGES


_FLAGS = bytes.maketrans(b"01", b"\x00\x01")  # a binary digit as a bool's byte


def _flags(bits: list[int]) -> list[bytes]:
    """Each of the |V| bitsets as |V| bytes, byte v 1 when bit v is set, else 0."""
    return [format(row, f"0{len(bits)}b")[::-1].encode().translate(_FLAGS) for row in bits]


def is_isomorphism(G: GameGraph, H: GameGraph, bij: VertexBijection) -> bool:
    """Full edge-preservation verification over all vertex pairs: on `bits`
    for a small pair, each G row's image must be the H row of the image of
    its vertex; else on `adj`."""
    if set(bij.forward) != set(G.vertices) or set(bij.inverse) != set(H.vertices):
        return False  # bij is a bijection, so the orders agree too
    perm = [H._index[bij.forward[v]] for v in G.vertices]
    if _small(G, H):
        inverse = sorted(range(len(perm)), key=perm.__getitem__)
        h_rows = _flags(H.bits)
        return all(bytes(map(row.__getitem__, inverse)) == h_rows[q]
                   for row, q in zip(_flags(G.bits), perm))
    import numpy as np

    perm = np.array(perm, dtype=np.intp)
    return bool(np.array_equal(G.adj, H.adj[np.ix_(perm, perm)]))


def _array_signatures(adj, K: int):
    """The signatures of one refinement round on the dense adjacency: each
    vertex's color and the bytes of its sorted edge codes, numpy ints of
    one width, from every directed edge of adj listed once, row after row,
    with its common-neighbor count."""
    import numpy as np

    # a round codes the colors of one whose multisets agreed, at most |V|
    # of them, so every code is below K * K
    dtype = np.int32 if K * K <= 2**31 else np.int64
    # float32 runs the product through BLAS; it is exact for counts below
    # 2**24, far more vertices than a dense adjacency matrix can hold
    counts = adj.astype(np.float32)
    common = counts @ counts
    del counts
    rows, nb = np.nonzero(adj)
    cn = common[rows, nb].astype(dtype)
    del common
    offsets = np.searchsorted(rows, np.arange(len(adj) + 1)).tolist()
    nb = nb.astype(dtype)

    def signatures(colors: list[int]) -> list:
        codes = np.array(colors, dtype)[nb]
        codes *= K
        codes += cn
        out = []
        for a, color in enumerate(colors):
            row = codes[offsets[a]:offsets[a + 1]]
            row.sort()
            out.append((color, row.tobytes()))
        return out

    return signatures


def _bit_signatures(bits: list[int], K: int):
    """The signatures of one refinement round on neighbour bitsets: each
    vertex's color and its sorted edge codes, a tuple of ints."""
    neighbors = [list(compress(count(), flags)) for flags in _flags(bits)]
    common = [[(row & bits[b]).bit_count() for b in nb] for row, nb in zip(bits, neighbors)]

    def signatures(colors: list[int]) -> list:
        coded = [color * K for color in colors]
        return [(color, tuple(sorted(map(add, map(coded.__getitem__, nb), cn))))
                for color, nb, cn in zip(colors, neighbors, common)]

    return signatures


def _wl_refine(G: GameGraph, H: GameGraph):
    """Joint 1-dimensional Weisfeiler-Leman color refinement, with edge
    signatures enriched by common-neighbor counts.

    Common-neighbor counts are preserved by any isomorphism, so the
    enriched refinement is still sound; it splits the row-clique graphs
    built here far more finely than plain neighbor-color multisets.
    Each round codes every edge of a vertex as color[neighbor] * K +
    common, with K above every count so the code is injective, sorts the
    codes of each vertex, and numbers the signatures (own color, sorted
    codes) of G and H through one palette.  A small pair (`SMALL_ISO_EDGES`)
    is refined on `bits`, with common(a, b) = (bits[a] & bits[b]).bit_count();
    a larger one on `adj`, through BLAS.  The codes are the same ints, so
    both number the same signatures alike.  Returns (colors_G, colors_H,
    rounds) with comparable color ids, or None as soon as the color
    multisets diverge (a sound non-isomorphism certificate).
    """
    K = max(G.order(), H.order()) + 1
    if _small(G, H):
        signatures_of = [_bit_signatures(X.bits, K) for X in (G, H)]
    else:
        signatures_of = [_array_signatures(X.adj, K) for X in (G, H)]
    colors = [[0] * X.order() for X in (G, H)]
    classes, rounds = 1, 0
    while True:
        palette = {}
        colors = [[palette.setdefault(sig, len(palette)) for sig in signatures(c)]
                  for signatures, c in zip(signatures_of, colors)]
        rounds += 1
        if sorted(colors[0]) != sorted(colors[1]):
            return None
        stable = len(palette) == classes
        classes = len(palette)
        if stable and rounds > 1:
            return colors[0], colors[1], rounds


@dataclass
class IsoSearchResult:
    bijection: VertexBijection | None
    outcome: str  # "found" | "exhausted" | "order-mismatch" | "wl-distinguished"
    nodes: int
    wl_rounds: int


def _bits(mask: int):
    """The indices of the set bits of mask, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _search_rows(G: GameGraph, H: GameGraph) -> tuple[list, list[int]]:
    """G's adjacency rows a byte per flag, and H's as ints: from `bits` for a
    small pair, else from `adj`, H's rows packed 8 flags to a byte."""
    if _small(G, H):
        return _flags(G.bits), H.bits
    import numpy as np

    packed = np.packbits(H.adj, axis=1, bitorder="little")
    return [row.tobytes() for row in G.adj], [int.from_bytes(row.tobytes(), "little") for row in packed]


def isomorphism_search(
    G: GameGraph, H: GameGraph, budget: int = DEFAULT_SEARCH_BUDGET
) -> IsoSearchResult:
    """Backtracking isomorphism search with refinement and forward checking.

    Every unmapped G vertex keeps its candidates as a bitset over the H
    vertices: same refinement color, adjacency pattern consistent with
    everything mapped so far.  Each step maps the first unmapped vertex
    with the fewest candidates to each of them in ascending order, and
    narrows every other set by the H row of the image (when adjacent in G,
    as the vertex's G row, one byte per vertex, says) or by its complement,
    backtracking as soon as one of them empties.  The sets a step changes
    keep their old values on one undo trail, which a frame pops back to
    its mark before its next candidate, so memory is |V|^2 bytes for the G
    rows, and O(|V|^2/8) for the H rows, the sets and the changed rows on
    the trail.  A small pair (`SMALL_ISO_EDGES`) takes every row from
    `bits` and imports no numpy; a larger one builds `adj`, |V|^2 bytes
    more.  A found bijection is verified edge-preserving before return.
    None is returned only with the tree exhausted; budget exhaustion
    raises instead.
    """
    if G.order() != H.order():
        return IsoSearchResult(None, "order-mismatch", 0, 0)
    g_rows, h_rows = _search_rows(G, H)
    if sorted(row.count(1) for row in g_rows) != sorted(map(int.bit_count, h_rows)):
        return IsoSearchResult(None, "wl-distinguished", 0, 1)
    n = G.order()
    if n == 0:
        return IsoSearchResult(VertexBijection({}, {}), "found", 0, 0)
    refined = _wl_refine(G, H)
    if refined is None:
        return IsoSearchResult(None, "wl-distinguished", 0, 0)
    colors_g, colors_h, rounds = refined
    by_color: dict[int, int] = {}
    for q, c in enumerate(colors_h):
        by_color[c] = by_color.get(c, 0) | 1 << q
    cand = [by_color[c] for c in colors_g]  # G index -> bitset of H indices
    full = (1 << n) - 1
    unmapped = list(range(n))  # ascending
    mapping = [-1] * n  # G index -> H index
    nodes = 0
    # trail: (G vertex, its candidates before a step narrowed them);
    # frames: (G vertex, its untried H candidates, the trail length when
    # it was chosen); extended is false after a backtrack or a step that
    # emptied a candidate set
    trail, stack, extended = [], [], True
    while True:
        if extended:
            if not unmapped:
                break
            counts = [cand[u].bit_count() for u in unmapped]
            a = unmapped.pop(counts.index(min(counts)))
            stack.append((a, _bits(cand[a]), len(trail)))
        if not stack:
            return IsoSearchResult(None, "exhausted", nodes, rounds)
        a, untried, mark = stack[-1]
        while len(trail) > mark:
            u, old = trail.pop()
            cand[u] = old
        q = next(untried, None)
        if q is None:
            stack.pop()
            insort(unmapped, a)
            extended = False
            continue
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(f"isomorphism search exceeded {budget} nodes")
        mapping[a] = q
        on = h_rows[q]
        off = full & ~(on | 1 << q)
        extended = True
        row = g_rows[a]
        for u in unmapped:
            old = cand[u]
            new = old & (on if row[u] else off)
            if new != old:
                trail.append((u, old))
                cand[u] = new
                if not new:
                    extended = False
                    break
    forward = {G.vertices[a]: H.vertices[mapping[a]] for a in range(n)}
    bij = VertexBijection.from_forward(forward)
    if not is_isomorphism(G, H, bij):
        raise AssertionError("search result failed edge preservation")
    return IsoSearchResult(bij, "found", nodes, rounds)


def translate_isomorphism(G: GameGraph, H: GameGraph, xstar: ZpVector) -> VertexBijection:
    """The explicit isomorphism (i, x) -> (i, (x - xstar) on the row support)
    from the inhomogeneous graph G to the homogeneous one H of its system,
    for any global solution xstar.  The output is verified edge-preserving
    before return.
    """
    sys, xs = G.system, xstar.entries
    if sys.A.apply(xstar) != sys.b:
        raise NotASolution("xstar does not solve the system")
    forward = {(i, x): (i, tuple((e - s) % sys.p if a else 0
                                 for a, e, s in zip(sys.A.rows[i - 1], x, xs)))
               for i, x in G.vertices}
    bij = VertexBijection.from_forward(forward)
    if not is_isomorphism(G, H, bij):
        raise AssertionError("translation map failed edge preservation")
    return bij


def _vertex_labels(G: GameGraph) -> list[str]:
    """"i:x_1...x_n" of each vertex, the entries comma-separated when p > 7."""
    sep = "" if G.system.p <= 7 else ","
    return [f"{i}:{sep.join(map(str, x))}" for i, x in G.vertices]


def export_dot(G: GameGraph, edges: tuple[array, array] | None = None) -> str:
    """Graphviz DOT text with deterministic vertex and edge order."""
    labels = _vertex_labels(G)
    lines = ["graph game_graph {", *(f'  "{label}";' for label in labels)]
    lines += [f'  "{labels[a]}" -- "{labels[bq]}";' for a, bq in zip(*(edges or G.edges()))]
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(G: GameGraph, edges: tuple[array, array] | None = None) -> dict:
    """Adjacency export: vertex labels plus an index-pair edge list."""
    return {
        "vertices": _vertex_labels(G),
        "edges": [[a, b] for a, b in zip(*(edges or G.edges()))],
        "provenance": {"system_digest": G.system.digest(),
                       "rhs": "0" if G.homogeneous else "b"},
    }
