import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest

from adjacency_oracle import (
    adjacent,
    compatible,
    dense_edges,
    has_vertex,
    incidence_pair_counts,
    numpy_edge_count,
    numpy_pair_counts,
    per_column_adjacency,
)
from closure_game import build_iso_game, check_synchronous
from conftest import (
    P7_441_SUPPORTS,
    edges_preserved,
    pentagram_system,
    planted_system,
    random_consistent_system,
    random_system,
    wide_modulus_system,
    zvec,
)
from iso_oracle import _wl_refine as counter_wl_refine
from iso_oracle import mask_copy_search
from synclcs import (
    LinearSystem,
    build_game_graph,
    export_dot,
    gauss_solve,
    graph_to_json,
    is_isomorphism,
    isomorphism_search,
    translate_isomorphism,
)
from synclcs import graphs
from synclcs.errors import NotASolution, SearchBudgetExceeded
from synclcs.graphs import SMALL_ISO_EDGES, VertexBijection, _search_rows, _wl_refine
from synclcs.presets import magic_square_system, one_eq_system


def test_one_equation_graph_is_k2():
    G = build_game_graph(one_eq_system())
    assert G.order() == 2
    assert G.edge_count() == 1
    (i, x), (j, y) = G.vertices
    assert {x, y} == {(0, 0), (1, 1)}
    assert adjacent(G, (i, x), (j, y))


def test_magic_square_graph_counts():
    ms = magic_square_system()
    G = build_game_graph(ms)
    H = build_game_graph(ms, homogeneous=True)
    assert G.order() == 24 and H.order() == 24
    assert not any(G.adj[k, k] for k in range(24))
    assert (G.adj == G.adj.T).all()


def test_disjoint_supports_have_no_edges():
    ms = magic_square_system()
    G = build_game_graph(ms)
    # grid rows 1 and 2 share no variable
    row1 = [v for v in G.vertices if v[0] == 1]
    row2 = [v for v in G.vertices if v[0] == 2]
    assert all(not adjacent(G, u, v) for u in row1 for v in row2)


def _widened_systems(rng):
    """p up to 7 and up to 4 rows x 5 variables, each system with b and with
    b = 0; row supports are capped so each row has at most 25 solutions and
    the pairwise oracle stays fast.  For every p one system gets a zero row
    and one a duplicated row."""
    for p in (2, 3, 5, 7):
        max_support = max(k for k in range(1, 6) if p ** (k - 1) <= 25)
        for case in range(4):
            m, n = rng.randint(2, 4), rng.randint(1, 5)
            A = []
            for _ in range(m):
                cols = rng.sample(range(n), rng.randint(1, min(n, max_support)))
                A.append([rng.randrange(1, p) if c in cols else 0 for c in range(n)])
            b = [rng.randrange(p) for _ in range(m)]
            if case == 0:
                A[0] = [0] * n
            if case == 1:
                A[1], b[1] = A[0], b[0]
            yield LinearSystem.from_ints(p, A, b)
            yield LinearSystem.from_ints(p, A, [0] * m)


def test_adjacency_negates_compatibility(rng):
    for sys_ in _widened_systems(rng):
        G = build_game_graph(sys_)
        for u in G.vertices:
            for v in G.vertices:
                if u == v:
                    continue
                i, x = u
                j, y = v
                assert adjacent(G, u, v) == (not compatible(sys_, i, j, x, y))
                if i == j:
                    assert adjacent(G, u, v)  # same-row distinct solutions conflict


def _star_system(m: int) -> LinearSystem:
    """m rows x_1 + x_j = 0 over Z_2, j = 2..m+1: every pair of rows shares
    x_1, so one key block spans all the other rows."""
    return LinearSystem.from_ints(2, [[1] + [int(j == i) for j in range(m)] for i in range(m)],
                                  [0] * m)


def test_row_keys_match_per_column_build(rng):
    for sys_ in [*_widened_systems(rng), wide_modulus_system(), _star_system(300)]:
        for homogeneous in (False, True):
            G = build_game_graph(sys_, homogeneous=homogeneous)
            adj = per_column_adjacency(G)
            # the counts come from the row keys alone, before adj is built
            assert G.edge_count() == np.count_nonzero(adj) // 2
            assert np.array_equal(G.pair_counts, incidence_pair_counts(G, adj))
            assert "adj" not in G.__dict__
            assert np.array_equal(np.column_stack(G.edges()).reshape(-1, 2),
                                  np.argwhere(np.triu(adj, 1)))
            assert "adj" not in G.__dict__
            assert np.array_equal(G.adj, adj)


def _parity_systems(rng):
    """Seeded systems over p in {2, 3, 5, 7, 31, 2^64 - 59} with up to 4 rows
    of up to 5 columns, rows of at most 400 solutions, each with b and with
    b = 0; every system has a zero row, a duplicated row or a proportional
    row, or an unused column, in turn."""
    for p in (2, 3, 5, 7, 31, 2**64 - 59):
        max_support = max(k for k in range(1, 6) if p ** (k - 1) <= 400)
        for case in range(6):
            m, n = rng.randint(2, 4), rng.randint(2, 5)
            A = []
            for _ in range(m):
                cols = rng.sample(range(n - (case == 3)), rng.randint(1, min(n - 1, max_support)))
                A.append([rng.randrange(1, p) if c in cols else 0 for c in range(n)])
            b = [rng.randrange(p) for _ in range(m)]
            if case == 0:
                A[0] = [0] * n
            if case == 1:
                A[1], b[1] = A[0], b[0]
            if case == 2:
                k = rng.randrange(2, p) if p > 2 else 1
                A[1] = [a * k % p for a in A[0]]
                b[1] = b[0] * k % p if rng.random() < 0.5 else b[1]
            yield LinearSystem.from_ints(p, A, b)
            yield LinearSystem.from_ints(p, A, [0] * m)


def test_key_counts_and_edges_match_the_numpy_ones(rng):
    # pair counts and edge counts from Python ints, and the edges listed
    # from the keys, against the numpy counts and the dense adjacency
    for sys_ in [*_parity_systems(rng), wide_modulus_system(), _star_system(300)]:
        for homogeneous in (False, True):
            G = build_game_graph(sys_, homogeneous=homogeneous)
            counts = G.pair_counts
            assert all(type(c) is int for layer in counts for row in layer for c in row)
            assert np.array_equal(np.array(counts, dtype=object), numpy_pair_counts(G))
            assert G.edge_count() == numpy_edge_count(G)
            lefts, rights = G.edges()
            assert len(lefts) == len(rights) == G.edge_count()
            assert np.array_equal(np.column_stack((lefts, rights)).reshape(-1, 2), dense_edges(G))


def test_sorted_edges_are_the_dense_edges_in_key_order(rng):
    # each edge once, its lower (row, solution) on the left, ordered by the
    # left vertex's pair and then the right's
    for sys_ in [*_widened_systems(rng), wide_modulus_system()]:
        for homogeneous in (False, True):
            G = build_game_graph(sys_, homogeneous=homogeneous)
            V = G.vertices
            expected = sorted(tuple(sorted((V[a], V[b]))) for a, b in dense_edges(G).tolist())
            lefts, rights = G.sorted_edges()
            assert [(V[a], V[b]) for a, b in zip(lefts, rights)] == expected


def test_distinct_rows_same_vector_stay_distinct_vertices():
    sys_ = LinearSystem.from_ints(2, [[1, 1, 0], [0, 1, 1]], [0, 0])
    G = build_game_graph(sys_)
    zero = (0, 0, 0)
    assert has_vertex(G, (1, zero)) and has_vertex(G, (2, zero))
    assert G.order() == 4


def test_iso_game_rules():
    one = one_eq_system()
    G = build_game_graph(one)
    H = build_game_graph(one, homogeneous=True)
    iso = build_iso_game(G, H)
    assert check_synchronous(iso)
    g0 = ("G", G.vertices[0])
    g1 = ("G", G.vertices[1])
    h0 = ("H", H.vertices[0])
    h1 = ("H", H.vertices[1])
    # an answer in the same graph as the question always loses
    assert not iso.wins(g1, h0, g0, h0)
    # same question, different answers lose (synchrony)
    assert not iso.wins(h0, h1, g0, g0)
    # a consistent bijection wins: equal -> equal, adjacent -> adjacent
    assert iso.wins(h0, h0, g0, g0)
    assert iso.wins(h0, h1, g0, g1)
    # adjacency mismatch loses: g0 ~ g1 but h0 = h0
    assert not iso.wins(h0, h0, g0, g1)


def test_find_isomorphism_identity_on_same_graph():
    H = build_game_graph(magic_square_system(), homogeneous=True)
    bij = isomorphism_search(H, H).bijection
    assert bij is not None
    assert is_isomorphism(H, H, bij)


def test_magic_square_graphs_not_isomorphic():
    ms = magic_square_system()
    G = build_game_graph(ms)
    H = build_game_graph(ms, homogeneous=True)
    result = isomorphism_search(G, H)
    assert result.bijection is None
    assert result.outcome == "exhausted"
    assert result.nodes > 0


def test_inhomogeneous_k2_matches_homogeneous_k2():
    sys_ = LinearSystem.from_ints(2, [[1, 1]], [1])
    G = build_game_graph(sys_)
    H = build_game_graph(sys_, homogeneous=True)
    bij = isomorphism_search(G, H).bijection
    assert bij is not None
    assert is_isomorphism(G, H, bij)


def test_order_mismatch_is_immediate_none():
    sys_ = LinearSystem.from_ints(2, [[0, 0]], [1])  # empty inhomogeneous graph
    G = build_game_graph(sys_)
    H = build_game_graph(sys_, homogeneous=True)
    assert G.order() == 0 and H.order() == 1
    result = isomorphism_search(G, H)
    assert result.outcome == "order-mismatch"
    assert result.bijection is None


def test_search_budget_exceeded_raises():
    ms = magic_square_system()
    G = build_game_graph(ms)
    H = build_game_graph(ms, homogeneous=True)
    with pytest.raises(SearchBudgetExceeded):
        isomorphism_search(G, H, budget=10)


def _graph_pair(sys_):
    return build_game_graph(sys_), build_game_graph(sys_, homogeneous=True)


def test_translate_identity_when_homogeneous():
    sys_ = one_eq_system()  # b = 0 already
    bij = translate_isomorphism(*_graph_pair(sys_), zvec(2, 0, 0))
    assert all(bij.forward[v] == v for v in bij.forward)


def test_translate_one_equation_example():
    sys_ = LinearSystem.from_ints(2, [[1, 1]], [1])
    bij = translate_isomorphism(*_graph_pair(sys_), zvec(2, 1, 0))
    assert bij.forward[(1, (1, 0))] == (1, (0, 0))
    assert bij.forward[(1, (0, 1))] == (1, (1, 1))


def test_translate_rejects_non_solutions():
    with pytest.raises(NotASolution):
        translate_isomorphism(*_graph_pair(one_eq_system()), zvec(2, 1, 0))


def test_translate_verified_on_random_consistent_systems(rng):
    for _ in range(15):
        sys_ = random_consistent_system(rng, rng.choice([2, 3]),
                                        rng.randint(1, 4), rng.randint(1, 4))
        sol = gauss_solve(sys_.A, sys_.b)
        G, H = _graph_pair(sys_)
        bij = translate_isomorphism(G, H, sol.particular)
        assert edges_preserved(G, H, bij)


def _dot_node_lines(dot: str) -> list[str]:
    return [ln for ln in dot.splitlines() if ln.endswith(";") and "--" not in ln]


def test_export_dot_k2():
    dot = export_dot(build_game_graph(one_eq_system()))
    assert dot.startswith("graph game_graph {")
    assert len(_dot_node_lines(dot)) == 2
    assert dot.count("--") == 1
    assert '"1:00"' in dot and '"1:11"' in dot


def test_export_dot_empty_graph():
    dot = export_dot(build_game_graph(LinearSystem.from_ints(2, [[0, 0]], [1])))
    assert dot == "graph game_graph {\n}\n"


def test_export_dot_magic_square_edge_count():
    G = build_game_graph(magic_square_system())
    dot = export_dot(G)
    assert dot.count("--") == G.edge_count()
    assert len(_dot_node_lines(dot)) == 24


def test_graph_json_export():
    G = build_game_graph(one_eq_system())
    doc = graph_to_json(G)
    assert doc["vertices"] == ["1:00", "1:11"]
    assert doc["edges"] == [[0, 1]]
    assert doc["provenance"]["rhs"] == "b"


def test_classical_chain_on_random_systems(rng):
    for _ in range(20):
        sys_ = random_system(rng, rng.choice([2, 3]), rng.randint(1, 3), rng.randint(1, 3))
        consistent = gauss_solve(sys_.A, sys_.b) is not None
        G = build_game_graph(sys_)
        H = build_game_graph(sys_, homogeneous=True)
        assert (isomorphism_search(G, H).bijection is not None) == consistent


_DEEP_ROWS = [[1, 1, 1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1, 1, 1], [1, 0, 0, 0, 0, 0, 0, 1]]

_DEEP_SEARCH = f"""
import json, sys
from synclcs import LinearSystem, build_game_graph, isomorphism_search
sys_ = LinearSystem.from_ints(3, {_DEEP_ROWS}, [0, 0, 0])
G, H = build_game_graph(sys_), build_game_graph(sys_, homogeneous=True)
import numpy  # the search's arrays; numpy's own import runs deeper than 100 frames
sys.setrecursionlimit(100)
result = isomorphism_search(G, H)
print(json.dumps([G.order(), result.outcome, result.nodes]))
"""


def test_search_depth_is_not_bounded_by_recursion_limit():
    # one search level per vertex: 165 levels under a limit of 100 frames
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", _DEEP_SEARCH], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [165, "found", 165]


# ------------------------------------------- bitset search vs mask copies


# bounds that send every graph pair one way: to the dense `adj` and BLAS,
# or to the neighbour bitsets
ARRAY_PATH, BIT_PATH = -1, 2**62


def _forced(bound: int):
    """graphs.SMALL_ISO_EDGES set to bound inside a with block."""
    return patch.object(graphs, "SMALL_ISO_EDGES", bound)


def _assert_same_as_mask_copy_search(sys_):
    # on both sides of the size bound
    G, H = _graph_pair(sys_)
    want = mask_copy_search(G, H)
    for bound in (ARRAY_PATH, BIT_PATH):
        with _forced(bound):
            got = isomorphism_search(G, H)
        assert (got.outcome, got.nodes, got.wl_rounds) == (want.outcome, want.nodes, want.wl_rounds)
        assert (got.bijection is None) == (want.bijection is None)
        if want.bijection is not None:
            assert got.bijection.forward == want.bijection.forward
    return got


@pytest.mark.parametrize("sys_, outcome, nodes", [
    (magic_square_system(), "exhausted", 9600),
    (pentagram_system(), "exhausted", 12200),
    (LinearSystem.from_ints(3, _DEEP_ROWS, [0, 0, 0]), "found", 165),
    (planted_system(random.Random(7), 7, 7, P7_441_SUPPORTS), "found", 441),
], ids=["magic-square", "pentagram", "deep-165v", "p7-441v"])
def test_search_matches_mask_copy_search(sys_, outcome, nodes):
    got = _assert_same_as_mask_copy_search(sys_)
    assert (got.outcome, got.nodes) == (outcome, nodes)


def test_search_matches_mask_copy_search_on_random_systems(rng):
    # the systems of test_classical_chain_on_random_systems
    for _ in range(20):
        _assert_same_as_mask_copy_search(
            random_system(rng, rng.choice([2, 3]), rng.randint(1, 3), rng.randint(1, 3)))


# ------------------------------------- array refinement vs Counter signatures


def _joint_partition(refined):
    """The joint partition of G's and H's vertices that a refinement result
    colors, each color renamed by its first appearance, and its rounds."""
    if refined is None:
        return None
    colors_g, colors_h, rounds = refined
    names = {}
    return [names.setdefault(c, len(names)) for c in [*colors_g, *colors_h]], len(colors_g), rounds


def _assert_same_refinement(G, H):
    got = _joint_partition(_wl_refine(G, H))
    assert got == _joint_partition(counter_wl_refine(G, H))
    return got


@pytest.mark.parametrize("sys_", [
    magic_square_system(),
    pentagram_system(),
    LinearSystem.from_ints(3, _DEEP_ROWS, [0, 0, 0]),
    planted_system(random.Random(7), 7, 7, P7_441_SUPPORTS),
    planted_system(random.Random(2), 7, 8, [[0, 1, 2, 3], [3, 4, 5, 6], [0, 6, 7, 1]]),
], ids=["magic-square", "pentagram", "deep-165v", "p7-441v", "p7-1029v"])
def test_wl_refine_matches_counter_refinement(sys_):
    assert _assert_same_refinement(*_graph_pair(sys_)) is not None


def test_wl_refine_matches_counter_refinement_on_random_systems(rng):
    distinguished = 0
    for _ in range(240):
        sys_ = random_system(rng, rng.choice([2, 3]), rng.randint(1, 4), rng.randint(1, 4))
        G, H = _graph_pair(sys_)
        if _assert_same_refinement(G, H) is None and G.order() == H.order():
            distinguished += 1
    assert distinguished >= 20


@pytest.mark.parametrize("bound", [ARRAY_PATH, BIT_PATH], ids=["adj", "bits"])
def test_both_refinements_match_counter_refinement(rng, bound):
    # p7-441v is above the default bound, the others below it
    systems = [magic_square_system(), pentagram_system(), LinearSystem.from_ints(3, _DEEP_ROWS, [0, 0, 0]),
               planted_system(random.Random(7), 7, 7, P7_441_SUPPORTS)]
    systems += [random_system(rng, rng.choice([2, 3]), rng.randint(1, 4), rng.randint(1, 4))
                for _ in range(60)]
    with _forced(bound):
        for sys_ in systems:
            _assert_same_refinement(*_graph_pair(sys_))


def test_wl_refine_matches_counter_refinement_when_every_vertex_is_split():
    # a seeded random graph that refinement splits into singletons, so the
    # colors in the codes reach n - 1, and a relabelled copy, on both sides
    # of the size bound
    gen = np.random.default_rng(3)
    n = 40
    adj = np.triu(gen.random((n, n)) < 0.5, 1)
    adj |= adj.T
    perm = gen.permutation(n)
    G, H = (SimpleNamespace(adj=a, order=lambda: n, edge_count=lambda: int(adj.sum()) // 2,
                            bits=_row_ints(a))
            for a in (adj, adj[np.ix_(perm, perm)]))
    for bound in (ARRAY_PATH, BIT_PATH):
        with _forced(bound):
            partition, _, _ = _assert_same_refinement(G, H)
        assert len(set(partition)) == n


# ------------------------------------------ neighbour bitsets vs dense rows


def _row_ints(adj) -> list[int]:
    """Each row of a dense adjacency as an int, bit v set when entry v is."""
    return [sum(1 << int(v) for v in np.flatnonzero(row)) for row in adj]


def test_bits_are_the_adjacency_rows(rng):
    # no row of the empty system has a solution with b, and one row has one
    # with b = 0
    empty = LinearSystem.from_ints(3, [[0, 0]], [1])
    for sys_ in [*_parity_systems(rng), wide_modulus_system(), _star_system(300), empty,
                 planted_system(random.Random(7), 7, 7, P7_441_SUPPORTS)]:
        for homogeneous in (False, True):
            G = build_game_graph(sys_, homogeneous=homogeneous)
            bits = G.bits
            assert "adj" not in G.__dict__
            assert all(type(row) is int for row in bits)
            want = per_column_adjacency(G)
            assert bits == _row_ints(want)
            # adj, unpacked from bits, is a writeable C-contiguous bool array
            assert G.adj.dtype == bool and G.adj.flags.c_contiguous and G.adj.flags.writeable
            assert np.array_equal(G.adj, want)
    assert build_game_graph(empty).bits == []


def test_search_rows_from_bits_equal_those_from_adj(rng):
    # G's rows a byte per flag and H's as ints, on both sides of the bound
    for sys_ in [*_parity_systems(rng), planted_system(random.Random(7), 7, 7, P7_441_SUPPORTS)]:
        G, H = _graph_pair(sys_)
        with _forced(BIT_PATH):
            small = _search_rows(G, H)
        assert "adj" not in G.__dict__ and "adj" not in H.__dict__
        with _forced(ARRAY_PATH):
            large = _search_rows(G, H)
        assert small == large
        assert large == ([row.tobytes() for row in per_column_adjacency(G)],
                         _row_ints(per_column_adjacency(H)))


def test_a_large_pair_allocates_adj_before_any_bitset():
    # numpy refusing the |V| x |V| array must stop the search before either
    # graph lists a neighbour
    G, H = _graph_pair(planted_system(random.Random(7), 7, 7, P7_441_SUPPORTS))
    n = G.order()
    empty = np.empty

    def refusing(shape, *args, **kwargs):
        if tuple(shape) == (n, n):
            raise MemoryError(f"refused {shape}")
        return empty(shape, *args, **kwargs)

    with _forced(ARRAY_PATH), patch.object(np, "empty", refusing):
        with pytest.raises(MemoryError, match="refused"):
            isomorphism_search(G, H)
    assert "bits" not in G.__dict__ and "bits" not in H.__dict__


def _swapped(bij: VertexBijection, u, v) -> VertexBijection:
    forward = dict(bij.forward)
    forward[u], forward[v] = forward[v], forward[u]
    return VertexBijection.from_forward(forward)


def test_bit_and_dense_verification_agree(rng):
    # found and translation bijections, and each with two images swapped
    verdicts = set()
    for _ in range(30):
        sys_ = random_consistent_system(rng, rng.choice([2, 3]), rng.randint(1, 4), rng.randint(1, 4))
        G, H = _graph_pair(sys_)
        found = isomorphism_search(G, H).bijection
        for bij in (found, translate_isomorphism(G, H, gauss_solve(sys_.A, sys_.b).particular)):
            cases = [bij]
            if G.order() >= 2:
                cases.append(_swapped(bij, *rng.sample(G.vertices, 2)))
            for case in cases:
                want = edges_preserved(G, H, case)
                for bound in (ARRAY_PATH, BIT_PATH):
                    with _forced(bound):
                        assert is_isomorphism(G, H, case) == want
                verdicts.add(want)
    assert verdicts == {True, False}


@pytest.mark.parametrize("sys_, small", [
    (magic_square_system(), True),
    (pentagram_system(), True),
    (planted_system(random.Random(7), 7, 7, P7_441_SUPPORTS), False),
], ids=["magic-square", "pentagram", "p7-441v"])
def test_small_pairs_are_searched_on_bits_alone(sys_, small):
    G, H = _graph_pair(sys_)
    assert (2 * G.edge_count() <= SMALL_ISO_EDGES) == small
    isomorphism_search(G, H)
    if sys_.solutions is not None:
        translate_isomorphism(G, H, sys_.solutions.particular)
    for X in (G, H):
        # adj, on a large pair, is unpacked from bits
        assert ("bits" in X.__dict__, "adj" in X.__dict__) == (True, not small)


_UNVERIFIED_SEARCH = """
import sys
from synclcs import graphs
from synclcs.presets import one_eq_system
G, H = graphs.build_game_graph(one_eq_system()), graphs.build_game_graph(one_eq_system(), True)
graphs.is_isomorphism = lambda *args: False
try:
    graphs.isomorphism_search(G, H)
except AssertionError as exc:
    print(sys.flags.optimize, exc)
"""


def test_search_verifies_its_bijection_under_optimize():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", _UNVERIFIED_SEARCH], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1 search result failed edge preservation\n"


def test_search_budget_trips_at_the_mask_copy_node_count():
    G, H = _graph_pair(magic_square_system())
    nodes = mask_copy_search(G, H).nodes
    for search in (isomorphism_search, mask_copy_search):
        with pytest.raises(SearchBudgetExceeded):
            search(G, H, budget=nodes - 1)
        assert search(G, H, budget=nodes).outcome == "exhausted"


def test_search_verdict_matches_vf2_and_gauss(rng):
    # VF2 ran past 60 s on the 21-vertex pair of a 4-variable system over
    # Z_3, so the systems keep to 3 variables
    nx = pytest.importorskip("networkx")

    def nx_graph(G):
        g = nx.Graph()
        g.add_nodes_from(range(G.order()))
        g.add_edges_from(zip(*G.edges()))
        return g

    verdicts = set()
    for _ in range(100):
        sys_ = random_system(rng, rng.choice([2, 3]), rng.randint(1, 3), rng.randint(1, 3))
        G, H = _graph_pair(sys_)
        consistent = gauss_solve(sys_.A, sys_.b) is not None
        assert nx.is_isomorphic(nx_graph(G), nx_graph(H)) == consistent
        assert (isomorphism_search(G, H).bijection is not None) == consistent
        verdicts.add(consistent)
    assert verdicts == {True, False}


def test_search_memory_stays_quadratic():
    # on this system the mask-copy search of iso_oracle peaks at about
    # 84 MiB, and the bitset search at about 6.4 MiB (7.4 MiB with the
    # Counter refinement).  Refinement on int64 edge arrays reads 8.9 MiB,
    # and 11.7 MiB when it keeps np.nonzero's int64 neighbors
    G, H = _graph_pair(planted_system(random.Random(7), 7, 7, P7_441_SUPPORTS))
    tracemalloc.start()
    try:
        result = isomorphism_search(G, H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.outcome == "found"
    assert peak < 8 * 2**20
