"""The one certification suite, and the scalar representation of a
classical solution, certified by value.

`run_check_suite` lays out every check once, in order, from the relation
records and the residuals of a family: `reps.ProjectionFamily` for complex
float matrices, `ScalarFamily` for g_j -> omega^{x*_j}, J -> omega, a
solution x* of Ax = b.  There g_j has the one eigenvalue omega^{x*_j}, so
the spectral projection f_j(s) is delta(x*_j, s), a family entry is the
indicator of x = x* on the row support, a phase sum over a row is the sum
of its nonzero terms, and a relation word is one omega-power.
These Cyclotomic and int scalars are computed by value: exact values are
canonical and exact sums do not depend on their order.  Each residual is
still the Frobenius norm of the 1x1 matrix [d], math.sqrt(abs(d) ** 2), so
the checks are those of the matrix family on 1x1 images.  Nothing here
loads numpy.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain
from operator import mul
from typing import ClassVar

from .config import DEFAULT_ENUM_CAP, DEFAULT_TOL
from .cyclotomic import Cyclotomic
from .errors import DimensionMismatch, JNotIdentified, NotASolution, UnitarityViolation
from .graphs import EQUAL, GameGraph, build_game_graph
from .group import GroupPresentation, build_presentation
from .reporting import CheckBlock, CheckRecord, Checks
from .system import LinearSystem
from .zp import ZpVector, add_mod


def _norm(d) -> float:
    """The Frobenius norm of the 1x1 matrix [d]: exactly 0.0 when d is 0."""
    return math.sqrt(abs(d) ** 2)


@dataclass(frozen=True, eq=False)
class ScalarRepresentation:
    """g_j -> omega^{x*_j} and J -> omega for a solution xstar, in exact
    cyclotomic scalars; `images` holds each generator's value."""

    p: int
    xstar: ZpVector

    dim: ClassVar[int] = 1
    exact: ClassVar[bool] = True

    @property
    def n(self) -> int:
        return len(self.xstar)

    @cached_property
    def exponents(self) -> dict[str, int]:
        """k with image omega^k, of every generator."""
        return {**{f"g{j}": x for j, x in enumerate(self.xstar.entries, 1)}, "J": 1}

    @cached_property
    def images(self) -> dict[str, Cyclotomic]:
        return {gen: Cyclotomic.omega_power(self.p, k) for gen, k in self.exponents.items()}

    def relation_records(self, pres: GroupPresentation, tol: float) -> list[CheckRecord]:
        return relation_residuals(self, pres, tol)

    def family(self, sys: LinearSystem, tol: float, cap: int) -> ScalarFamily:
        G, xstar = build_game_graph(sys, cap=cap), self.xstar.entries
        # E(i, x): the product of delta(x*_j, x_j) over the row support
        return ScalarFamily(self, G, [math.prod(int(x[j - 1] == xstar[j - 1])
                                                for j in sys.supports[i - 1]) for i, x in G.vertices])


def scalar_rep_from_solution(sys: LinearSystem, xstar: ZpVector) -> ScalarRepresentation:
    """The 1-dimensional representation g_j -> omega^{x*_j}, J -> omega.

    Exists exactly when xstar solves the system; carried in exact
    cyclotomic arithmetic so every certified identity has residual 0.
    Each image is checked unitary, and J's image omega, as a matrix
    representation's are."""
    if xstar.p != sys.p or len(xstar) != sys.n:
        raise DimensionMismatch(f"solution has {len(xstar)} entries mod {xstar.p}, "
                                f"system has {sys.n} variables mod {sys.p}")
    if sys.A.apply(xstar) != sys.b:
        raise NotASolution("xstar does not solve the system")
    rep = ScalarRepresentation(sys.p, xstar)
    for name, value in rep.images.items():
        residual = _norm(value * value.conjugate() - 1)
        if not residual <= DEFAULT_TOL:
            raise UnitarityViolation(f"image of {name} is not unitary (residual {residual:.3e})")
    j_residual = _norm(rep.images["J"] - Cyclotomic.omega_power(sys.p, 1))
    if not j_residual <= DEFAULT_TOL:
        raise JNotIdentified(f"image(J) differs from omega*I by {j_residual:.3e}")
    return rep


def relation_residuals(
    rep: ScalarRepresentation, pres: GroupPresentation, tol: float = DEFAULT_TOL
) -> list[CheckRecord]:
    """The distance of every relation word from 1: a word's value, the
    product of its factors' omega-powers, is omega to the sum of their
    exponents, exactly, as exact values are canonical; 1 for the empty word."""
    exponents, p = rep.exponents, rep.p
    for gen in pres.generators:
        if gen not in exponents:
            raise DimensionMismatch(f"representation missing generator {gen}")
    records = []
    for rel in pres.relations:
        value = Cyclotomic.omega_power(p, sum(exponents[gen] * e for gen, e in rel.word.factors))
        records.append(rel.record(_norm(value - 1), tol))
    return records


@cache
def _omega_exponents(p: int) -> dict[Cyclotomic, int]:
    return {Cyclotomic.omega_power(p, k): k for k in range(p)}


def _eigenprojection(p: int, phase, s: int):
    """(1/p) sum_{t<p} (omega^{-s} phase)^t, the spectral projection of the
    1x1 image [phase] onto its omega^s-eigenspace: delta(k, s) when phase
    is omega^k, and the sum itself otherwise."""
    k = _omega_exponents(p).get(phase)
    if k is not None:
        return int(k == s)
    term = Cyclotomic.omega_power(p, -s) * phase
    total, factor = 1 + term, term
    for _ in range(2, p):
        term = term * factor
        total = total + term
    return total / p


@dataclass(eq=False)
class ScalarFamily:
    """E(i, x), 1 where x is x* on the row support and 0 elsewhere, per
    vertex of G(A,b), and the residuals of `reps.ProjectionFamily`, by
    value; a phase sum or a value block adds up the row's nonzero entries."""

    rep: ScalarRepresentation
    graph: GameGraph  # G(A,b): its vertices index the entries
    entries: list

    def entry(self, i: int, x: tuple[int, ...]):
        return self.entries[self.graph._index[i, x]]

    @cached_property
    def _nonzero(self) -> dict[int, list]:
        """(x, E(i, x)) of each nonzero entry, per row, in vertex order."""
        entries, positions = self.entries, self.graph._positions
        return {i: [(x, entries[k]) for x, k in zip(xs, positions[i]) if entries[k]]
                for i, xs in self.graph.rows.items()}

    @cached_property
    def _values(self) -> tuple[int, list[int], list[float]]:
        """(k, the id of each entry among its k distinct values, the norm of
        the product of the values of ids a and b at a * k + b)."""
        values = list(dict.fromkeys(self.entries))
        return (len(values), [values.index(e) for e in self.entries],
                [_norm(x * y) for x in values for y in values])

    @cached_property
    def entry_residuals(self) -> tuple[list[float], list[float]]:
        return ([_norm(e * e - e) for e in self.entries],
                [_norm(e.conjugate() - e) for e in self.entries])

    def edge_residuals(self, lefts, rights) -> array:
        """As `reps.ProjectionFamily.edge_residuals`, one product per ordered
        pair of distinct entry values; the pairs met fill `edge_codes`."""
        k, ids, products = self._values
        codes = [ids[a] * k + ids[b] for a, b in zip(lefts, rights)]
        self.edge_codes = set(codes)
        return array("d", [products[c] for c in codes])

    @cached_property
    def edge_codes(self) -> set[int]:
        """id_a * k + id_b of each edge (a, b) of graph.sorted_edges()."""
        k, ids, _ = self._values
        return {ids[a] * k + ids[b] for a, b in zip(*self.graph.sorted_edges())}

    @property
    def maxima(self) -> tuple[float, float, float]:
        """The largest entry residuals and edge product, in either order."""
        (idem, adj), (k, _, products) = self.entry_residuals, self._values
        return (max(idem, default=0.0), max(adj, default=0.0),
                max((max(products[c], products[c % k * k + c // k]) for c in self.edge_codes),
                    default=0.0))

    @cached_property
    def row_sum_residuals(self) -> dict[int, float]:
        positions = self.graph._positions
        return {i: _norm(sum(self.entries[k] for k in positions[i]) - 1) for i in self.graph.rows}

    def value_block_residuals(self, j: int, rows: list[int]) -> list[float]:
        nonzero, out = self._nonzero, []
        for t in range(self.rep.p):
            blocks = [sum(e for x, e in nonzero[i] if x[j - 1] == t) for i in rows]
            out.append(max((_norm(block - blocks[0]) for block in blocks[1:]), default=0.0))
        return out

    @cached_property
    def generator_map_residuals(self) -> tuple[dict, list[float]]:
        """As `reps.ProjectionFamily.generator_map_residuals`, each round
        trip the product of the projections of the phis onto its values."""
        rep, G, nonzero = self.rep, self.graph, self._nonzero
        p, supports = rep.p, G.system.supports
        by_variable, phis = {}, {}
        for j in sorted({j for i in G.rows for j in supports[i - 1]}):
            rows = [i for i in G.rows if j in supports[i - 1]]
            sums = [sum((e * Cyclotomic.omega_power(p, x[j - 1]) for x, e in nonzero[i]), 0)
                    for i in rows]
            phis[j] = phi = sums[0]
            image = rep.images[f"g{j}"]
            by_variable[j] = (rows, max((_norm(total - phi) for total in sums[1:]), default=0.0),
                              [_norm(total - image) for total in sums])
        projection = cache(lambda j, s: _eigenprojection(p, phis[j], s))
        roundtrip = [_norm(math.prod(projection(j, y[j - 1]) for j in supports[i - 1]) - e)
                     for (i, y), e in zip(G.vertices, self.entries)]
        return by_variable, roundtrip

    def partition_residuals(self, H: GameGraph) -> tuple[list[float], list[float]]:
        """Both partition sums at a vertex of row i are row i's sum, or the
        zero sum when row i has no solution, in any order."""
        row_sums = self.row_sum_residuals
        by_row = {i: row_sums[i] if i in row_sums else _norm(0 - 1) for i in H.rows}
        return [by_row[i] for i, _ in H.vertices], [by_row[i] for i, _ in self.graph.vertices]

    def zero_column_residuals(self) -> list[float]:
        zero, p = (0,) * self.graph.system.n, self.rep.p
        return [_norm(self.entry(i, add_mod(p, x, zero)) - e)
                for (i, x), e in zip(self.graph.vertices, self.entries)]


# The check families, each read from a family's residuals: a
# `reps.ProjectionFamily` or a `ScalarFamily`.


def projection_family_checks(fam, tol: float = DEFAULT_TOL) -> Checks:
    """Idempotency, self-adjointness, orthogonality on incompatible pairs,
    and the per-row resolutions of identity.  Orthogonality has a check per
    edge, in `GameGraph.sorted_edges` order, the lower (row, solution) on
    the left, so its block holds the labels of each pair's ends, not
    names, and its residuals as an array of doubles, which reads back
    Python floats."""
    labels = fam.graph.labels
    lefts, rights = fam.graph.sorted_edges()
    orthogonal = fam.edge_residuals(lefts, rights)
    return Checks([
        CheckBlock(("psi-idempotent", "psi-selfadjoint"), (labels,), fam.entry_residuals, tol),
        CheckBlock(("psi-orthogonal",), ([labels[a] for a in lefts], [labels[b] for b in rights]),
                   (orthogonal,), tol),
        *(CheckRecord(f"psi-rowsum:{i}", residual, tol)
          for i, residual in fam.row_sum_residuals.items()),
    ])


def phi_welldefinedness_checks(fam, tol: float = DEFAULT_TOL) -> list[CheckRecord]:
    """Cross-row agreement of phi(g_j) and of every value block: the sums
    over solutions with a fixed value at j must not depend on which
    containing row is used.  The worst disagreement with the lowest row is
    reported rather than an average, which would mask a failure."""
    records = []
    for j, (rows, residual, _) in fam.generator_map_residuals[0].items():
        records.append(CheckRecord(f"phi-welldefined:g{j}", residual, tol, detail={"rows": rows}))
        records += [CheckRecord(f"phi-valueblock:g{j}:t={t}", block, tol)
                    for t, block in enumerate(fam.value_block_residuals(j, rows))]
    return records


def check_mutual_inverse(fam, tol: float = DEFAULT_TOL) -> Checks:
    """Both round trips of the generator maps between the family and the
    representation it was built from.

    (a) reconstructing each g_ell from weighted family sums over every row
    containing ell must return the original image; (b) evaluating the
    spectral-projection product built from the reconstructed generators
    must return each family entry.
    """
    by_variable, roundtrip = fam.generator_map_residuals
    checks = [
        CheckRecord(f"roundtrip-generator:g{ell}:row{i}", residual, tol)
        for ell, (rows, _, residuals) in by_variable.items()
        for i, residual in zip(rows, residuals)
    ]
    checks.append(CheckBlock(("roundtrip-projection",), (fam.graph.labels,), (roundtrip,), tol))
    return Checks(checks)


def iso_generator_images(fam, cap: int = DEFAULT_ENUM_CAP) -> GameGraph:
    """G(A,0).  A pair of vertices (i, x) of G(A,b) and (j, y) of G(A,0)
    indexes the isomorphism-game generator E((i,x),(j,y)): the family entry
    at x + y when i == j, zero across rows.  The stages read fam's residuals."""
    return build_game_graph(fam.graph.system, homogeneous=True, cap=cap)


def iso_partition_checks(fam, H: GameGraph, tol: float = DEFAULT_TOL) -> Checks:
    """Both partition-of-unity identities: summing E over all vertices of
    either graph, the other one held fixed, gives the identity.

    Only same-row pairs are nonzero, and translation by a homogeneous
    solution permutes S_i(A,b), so both sums at a vertex of row i add up
    the family entries of row i."""
    over_g, over_h = fam.partition_residuals(H)
    return Checks([
        CheckBlock(("iso-sum-over-inhomogeneous",), (H.labels,), (over_g,), tol),
        CheckBlock(("iso-sum-over-homogeneous",), (fam.graph.labels,), (over_h,), tol)])


def check_iso_relations(fam, H: GameGraph, tol: float = DEFAULT_TOL) -> list[CheckRecord]:
    """Rule orthogonality plus idempotency/self-adjointness of every E.

    A quadruple of generators must multiply to zero whenever the two
    inhomogeneous-graph vertices relate (equal / adjacent / distinct
    non-adjacent) differently from the two homogeneous-graph vertices.
    Quadruples with a structurally zero factor vanish exactly and are only
    counted.  For the rest, the product is family(i, x+y) family(i', x'+y'),
    and the translated pairs (x+y, x'+y') arising from rule-zero quadruples
    are exactly the adjacent vertex pairs of the inhomogeneous graph: a
    mismatch in how the pairs relate forces a coordinate conflict in the
    sums, and conversely any conflicting pair is reached by taking both
    homogeneous parts zero.  So the edge products of the family, in both orders,
    cover every rule-zero quadruple.  Likewise the nonzero generators of
    row i are exactly its family entries, each repeated |S_i(A,0)| times,
    so idempotency and self-adjointness are those of the family entries.
    Every residual is read from the family; nothing is multiplied here.
    The quadruple counts are exact Python ints, from the pair counts.
    """
    G = fam.graph
    idem_max, adj_max, product_max = fam.maxima
    flat_g, flat_h = ([list(chain.from_iterable(rows)) for rows in X.pair_counts] for X in (G, H))
    nonzero = sum(map(mul, flat_g[EQUAL], flat_h[EQUAL]))
    # rule-zero quadruples (G pair and H pair related differently) over the
    # full generator grid, and over same-row generators, whose factors are
    # both structurally nonzero
    total_g, total_h = [sum(c) for c in flat_g], [sum(c) for c in flat_h]
    zero_quadruples = sum(total_g) * sum(total_h) - sum(map(mul, total_g, total_h))
    blocks_g, blocks_h = [sum(c) for c in zip(*flat_g)], [sum(c) for c in zip(*flat_h)]
    nonzero_mismatches = (sum(map(mul, blocks_g, blocks_h))
                          - sum(sum(map(mul, cg, ch)) for cg, ch in zip(flat_g, flat_h)))
    n_gen = G.order() * H.order()
    return [
        CheckRecord("iso-idempotent", idem_max, tol,
                    detail={"generators": n_gen, "nonzero": nonzero}),
        CheckRecord("iso-selfadjoint", adj_max, tol,
                    detail={"generators": n_gen, "nonzero": nonzero}),
        CheckRecord(
            "iso-rule-orthogonality", product_max, tol,
            detail={
                "zero_quadruples": zero_quadruples,
                "with_nonzero_factors": nonzero_mismatches,
                "trivially_zero": zero_quadruples - nonzero_mismatches,
                "distinct_products": G.edge_count(),
            },
        ),
    ]


def psi_iso_consistency_checks(fam, tol: float = DEFAULT_TOL) -> Checks:
    """The reverse generator map into the isomorphism-game algebra: for
    each (i, x), summing E over the homogeneous zero-solution column per
    row, of which only the row-i term is not zero, recovers the family
    entry.  Structural by construction; this guards the implementation."""
    return Checks([CheckBlock(("iso-zero-column",), (fam.graph.labels,),
                              (fam.zero_column_residuals(),), tol)])


def run_check_suite(rep, sys: LinearSystem, tol: float = DEFAULT_TOL,
                    cap: int = DEFAULT_ENUM_CAP) -> Checks:
    """The full certification pipeline, in order: group relations, family
    invariants, generator-map well-definedness, both round trips, the
    partition identities of the isomorphism-game family, its rule
    orthogonality, and its zero column, from the relation records and the
    family of a `reps.Representation` or a `ScalarRepresentation`."""
    checks = Checks(rep.relation_records(build_presentation(sys), tol))
    fam = rep.family(sys, tol, cap)
    checks += projection_family_checks(fam, tol)
    checks += phi_welldefinedness_checks(fam, tol)
    checks += check_mutual_inverse(fam, tol)
    H = iso_generator_images(fam, cap)
    checks += iso_partition_checks(fam, H, tol)
    checks += check_iso_relations(fam, H, tol)
    checks += psi_iso_consistency_checks(fam, tol)
    return checks
