"""Finite-dimensional *-representation engine.

Builds projection families from solution-group representations through the
spectral projections f_j(s), evaluates the generator map back from family
sums, and certifies numerically every identity linking the game algebra,
the quotient group algebra, and the isomorphism-game algebra.

Representations from classical solutions use exact cyclotomic scalars, so
their residuals are exactly zero; matrix representations use complex
floats and are judged against a Frobenius-norm tolerance.

Exact values are canonical and exact sums do not depend on their order,
so the exact path certifies by value: a sum that permutes a row's family
entries is the row sum, and a product of two entries is computed once per
pair of distinct entry values.  Float sums and products keep the order
and operands of the direct formulas, which decide their bits.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .config import DEFAULT_ENUM_CAP, DEFAULT_TOL
from .cyclotomic import Cyclotomic
from .errors import (
    DimensionMismatch,
    InvariantViolation,
    JNotIdentified,
    NonCommutingFactors,
    NotASolution,
    ParseError,
    UnitarityViolation,
    VariableUnused,
)
from .graphs import EQUAL, GameGraph, build_game_graph
from .group import build_presentation, relation_residuals
from .matops import dagger, eye_like, frob, is_exact
from .reporting import CheckRecord
from .system import LinearSystem, is_row_solution, json_typed, row_support
from .zp import ZpVector, check_prime

OMEGA_CONVENTION = "exp(2*pi*i/p)"


def omega_pow(p: int, k: int, exact: bool):
    """omega^k for omega = exp(2*pi*i/p): exact cyclotomic, or complex."""
    if exact:
        return Cyclotomic.omega_power(p, k)
    return cmath.exp(2j * cmath.pi * (k % p) / p)


@dataclass(eq=False)
class Representation:
    """Unitary matrix images for g_1..g_n and J, all of one dimension,
    with image(J) = omega * I for the principal p-th root of unity omega:
    the representation factors through the quotient identifying J with
    omega, where the game algebra lives.
    """

    p: int
    dim: int
    images: dict[str, np.ndarray]
    exact: bool

    @property
    def n(self) -> int:
        return sum(1 for k in self.images if k != "J")

    def image(self, name: str) -> np.ndarray:
        return self.images[name]

    def omega_pow(self, k: int):
        return omega_pow(self.p, k, self.exact)


def make_representation(
    p: int,
    images: dict[str, np.ndarray],
    tol: float = DEFAULT_TOL,
) -> Representation:
    """Validate unitarity and the J = omega*I identification."""
    check_prime(p)
    if "J" not in images:
        raise ParseError("representation must include an image for J")
    dims = {M.shape for M in images.values()}
    if len(dims) != 1:
        raise DimensionMismatch("generator images have mixed dimensions")
    (d1, d2), = dims
    if d1 != d2:
        raise DimensionMismatch("generator images must be square")
    exact = any(is_exact(M) for M in images.values())
    for name, M in images.items():
        residual = frob(M @ dagger(M) - eye_like(M))
        if not residual <= tol:
            raise UnitarityViolation(
                f"image of {name} is not unitary (residual {residual:.3e})"
            )
    jmat = images["J"]
    j_residual = frob(jmat - eye_like(jmat) * omega_pow(p, 1, exact))
    if not j_residual <= tol:
        raise JNotIdentified(f"image(J) differs from omega*I by {j_residual:.3e}")
    return Representation(p, d1, dict(images), exact)


def scalar_rep_from_solution(sys: LinearSystem, xstar: ZpVector) -> Representation:
    """The 1-dimensional representation g_j -> omega^{x*_j}, J -> omega.

    Exists exactly when xstar solves the system; carried in exact
    cyclotomic arithmetic so every certified identity has residual 0.
    """
    if xstar.p != sys.p or len(xstar) != sys.n:
        raise DimensionMismatch(f"solution has {len(xstar)} entries mod {xstar.p}, "
                                f"system has {sys.n} variables mod {sys.p}")
    if sys.A.apply(xstar) != sys.b:
        raise NotASolution("xstar does not solve the system")
    p = sys.p

    def one_by_one(value) -> np.ndarray:
        M = np.empty((1, 1), dtype=object)
        M[0, 0] = value
        return M

    images = {
        f"g{j}": one_by_one(Cyclotomic.omega_power(p, xstar.entry(j)))
        for j in range(1, sys.n + 1)
    }
    images["J"] = one_by_one(Cyclotomic.omega_power(p, 1))
    return make_representation(p, images)


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_magic_square_rep() -> Representation:
    """The canonical 4-dimensional operator solution of the magic square.

    Two-qubit Pauli products arranged so each grid row and the first two
    grid columns multiply to +I while the last column multiplies to -I;
    J maps to -I.
    """
    table = [
        ("IZ", "ZI", "ZZ"),
        ("XI", "IX", "XX"),
        ("XZ", "ZX", "YY"),
    ]
    images = {}
    for r in range(3):
        for c in range(3):
            name = table[r][c]
            images[f"g{3 * r + c + 1}"] = np.kron(_PAULI[name[0]], _PAULI[name[1]])
    images["J"] = -np.eye(4, dtype=complex)
    return make_representation(2, images)


def conjugate_representation(
    rep: Representation, U: np.ndarray, tol: float = DEFAULT_TOL
) -> Representation:
    """Simultaneous unitary conjugation M -> U M U* of all images."""
    images = {name: U @ M @ dagger(U) for name, M in rep.images.items()}
    return make_representation(rep.p, images, tol=tol)


def f_projection(rep: Representation, j: int, s) -> np.ndarray:
    """Spectral projection (1/p) sum_t (omega^{-s} g_j)^t onto the
    omega^s-eigenspace of the image of g_j."""
    return _spectral_projection(rep.image(f"g{j}"), s, rep.p, rep.exact)


def _spectral_projection(g: np.ndarray, s: int, p: int, exact: bool) -> np.ndarray:
    """(1/p) sum_{t<p} (omega^{-s} g)^t for a unitary g of order p."""
    M = g * omega_pow(p, -s, exact)
    total = eye_like(M)
    term = eye_like(M)
    for _ in range(1, p):
        term = term @ M
        total = total + term
    return total / p


def psi_image(
    rep: Representation,
    sys: LinearSystem,
    i: int,
    x: ZpVector,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Image of the game-algebra generator for (row i, solution x): the
    product of the per-variable spectral projections over the row support.

    The product is only order-independent when the row's generator images
    commute, so that is verified rather than assumed.
    """
    if not is_row_solution(sys, i, x):
        raise NotASolution(f"x is not a restricted solution of row {i}")
    cols = sorted(row_support(sys, i))
    _check_row_commutes(rep, i, cols, tol)
    return _spectral_product(eye_like(rep.image("J")), cols, x,
                             lambda j, s: f_projection(rep, j, s))


def _check_row_commutes(rep: Representation, i: int, cols: list[int], tol: float):
    """Raise NonCommutingFactors unless the images of row i's variables commute."""
    for a, jcol in enumerate(cols):
        for ell in cols[a + 1:]:
            gj, gl = rep.image(f"g{jcol}"), rep.image(f"g{ell}")
            residual = frob(gj @ gl - gl @ gj)
            if residual > tol:
                raise NonCommutingFactors(
                    f"images of g{jcol}, g{ell} fail to commute in row {i} "
                    f"(residual {residual:.3e})"
                )


def _spectral_product(identity: np.ndarray, cols: list[int], x: ZpVector,
                      projection) -> np.ndarray:
    """identity @ projection(j, x_j) @ ... over the columns j in cols."""
    result = identity
    for j in cols:
        result = result @ projection(j, x.entry(j))
    return result


@dataclass(eq=False)
class ProjectionFamily:
    """The matrices standing for the game-algebra generators, one per
    (row, solution) pair, built through the spectral projections.

    The residuals, edge products, row sums and phase sums that several
    check families read are computed once, from the entries as they stand
    at first use."""

    rep: Representation
    graph: GameGraph  # G(A,b): its system, rows and vertices index the entries
    entries: dict  # (i, ZpVector) -> matrix, in vertex order

    def entry(self, i: int, x: ZpVector) -> np.ndarray:
        return self.entries[(i, x)]

    @cached_property
    def entry_residuals(self) -> np.ndarray:
        """(idempotency, self-adjointness) residual of each entry, in entry
        order; shape (entries, 2)."""
        out = np.zeros((len(self.entries), 2))
        for k, E in enumerate(self.entries.values()):
            out[k] = frob(E @ E - E), frob(dagger(E) - E)
        return out

    @cached_property
    def edge_products(self) -> np.ndarray:
        """frob(E_u E_v) and frob(E_v E_u) for each edge (u, v) of
        graph.edges(), in that order; shape (edges, 2).

        Each vertex is keyed by the first vertex with an equal entry when
        the family is exact (equal canonical entries have equal products),
        and by itself when it is float; one product is computed per
        distinct ordered key pair."""
        entries = list(self.entries.values())
        n = len(entries)
        if self.rep.exact:
            first = {}
            keys = [first.setdefault(tuple(E.flat), k) for k, E in enumerate(entries)]
        else:
            keys = range(n)
        u, v = np.array(keys, dtype=np.int64)[self.graph.edges()].T
        # one code per ordered key pair: (u, v) of every edge, then (v, u)
        codes, inverse = np.unique(np.concatenate([u * n + v, v * n + u]), return_inverse=True)
        lefts, rights = np.divmod(codes, n)
        norms = [frob(entries[a] @ entries[b]) for a, b in zip(lefts.tolist(), rights.tolist())]
        return np.array(norms, dtype=float)[inverse].reshape(2, -1).T

    @cached_property
    def row_sums(self) -> dict[int, np.ndarray]:
        """row_sums[i] = sum over x in S_i of family(i, x), in vertex order,
        for every row that has a solution."""
        zero, sums = np.zeros_like(self.rep.image("J")), {}
        for i, sols in self.graph.solutions_by_row().items():
            total = zero
            for x in sols:
                total = total + self.entry(i, x)
            sums[i] = total
        return sums

    @cached_property
    def phase_sums(self) -> dict[int, dict[int, np.ndarray]]:
        """phase_sums[j][i] = sum over x in S_i of omega^{x_j} family(i, x),
        for every variable j and every row i containing it, rows ascending."""
        rep, sums = self.rep, {}
        for i, sols in self.graph.solutions_by_row().items():
            for j in sorted(row_support(self.graph.system, i)):
                total = np.zeros_like(rep.image("J"))
                for x in sols:
                    total = total + self.entry(i, x) * rep.omega_pow(x.entry(j))
                sums.setdefault(j, {})[i] = total
        return sums


def _assemble_family(
    rep: Representation, sys: LinearSystem, tol: float, cap: int
) -> ProjectionFamily:
    graph = build_game_graph(sys, cap=cap)
    identity = eye_like(rep.image("J"))
    projection = cache(lambda j, s: f_projection(rep, j, s))
    entries = {}
    for i, sols in graph.solutions_by_row().items():
        cols = sorted(row_support(sys, i))
        _check_row_commutes(rep, i, cols, tol)
        for x in sols:
            entries[(i, x)] = _spectral_product(identity, cols, x, projection)
    return ProjectionFamily(rep, graph, entries)


def projection_family_checks(
    fam: ProjectionFamily, tol: float = DEFAULT_TOL
) -> list[CheckRecord]:
    """Idempotency, self-adjointness, orthogonality on incompatible pairs,
    and the per-row resolutions of identity."""
    G = fam.graph
    records = []
    for label, (idem, adj) in zip(G.labels, fam.entry_residuals.tolist()):
        records.append(CheckRecord(f"psi-idempotent:{label}", idem, tol))
        records.append(CheckRecord(f"psi-selfadjoint:{label}", adj, tol))

    # incompatible pairs in sorted-key order, the lower key on the left
    order = sorted(range(G.order()), key=lambda k: (G.vertices[k][0], G.vertices[k][1].entries))
    pairs = np.argsort(order)[G.edges()]  # sorted-key positions of each edge's ends
    products = fam.edge_products
    residuals = np.where(pairs[:, 0] < pairs[:, 1], products[:, 0], products[:, 1])
    pairs.sort(axis=1)
    ranked = np.lexsort(pairs.T[::-1])
    lefts, rights = np.array([G.labels[k] for k in order], dtype=object)[pairs[ranked].T]
    for left, right, residual in zip(lefts, rights, residuals[ranked].tolist()):
        records.append(CheckRecord(f"psi-orthogonal:{left}|{right}", residual, tol))

    for i, total in fam.row_sums.items():
        records.append(CheckRecord(
            f"psi-rowsum:{i}", frob(total - eye_like(total)), tol))
    return records


def build_projection_family(
    rep: Representation,
    sys: LinearSystem,
    tol: float = DEFAULT_TOL,
    cap: int = DEFAULT_ENUM_CAP,
) -> ProjectionFamily:
    """Build the family and enforce all of its defining checks.

    The first failing check aborts.
    """
    fam = _assemble_family(rep, sys, tol, cap)
    for rec in projection_family_checks(fam, tol):
        if not rec.passed:
            raise InvariantViolation(rec.name, rec.residual, rec.tolerance)
    return fam


@dataclass
class PhiImage:
    """Result of evaluating the generator map on variable j: the canonical
    matrix (from the lowest row containing j) plus the worst disagreement
    with the same sum taken over every other containing row."""

    matrix: np.ndarray
    row: int
    rows: list[int]
    cross_row_discrepancy: float


def phi_image(fam: ProjectionFamily, j: int) -> PhiImage:
    """phi(g_j) = sum over x in S_i of omega^{x_j} * family(i, x), where i
    is the lowest row whose support contains j; all other containing rows
    are evaluated too and the maximum discrepancy reported rather than
    averaged (averaging would mask well-definedness failures)."""
    per_row = fam.phase_sums.get(j)
    if not per_row:
        raise VariableUnused(f"variable {j} appears in no row")
    rows = list(per_row)
    canonical = rows[0]
    discrepancy = max(
        (frob(per_row[i] - per_row[canonical]) for i in rows[1:]), default=0.0
    )
    return PhiImage(per_row[canonical], canonical, rows, discrepancy)


def p_block(fam: ProjectionFamily, i: int, j: int, t: int) -> np.ndarray:
    """Sum of family entries of row i whose solution has value t at j."""
    total = np.zeros_like(fam.rep.image("J"))
    for x in fam.graph.solutions_by_row()[i]:
        if x.entry(j) == t % fam.rep.p:
            total = total + fam.entry(i, x)
    return total


def phi_welldefinedness_checks(
    fam: ProjectionFamily, tol: float = DEFAULT_TOL
) -> list[CheckRecord]:
    """Cross-row agreement of phi(g_j) and of every value block: the sums
    over solutions with a fixed value at j must not depend on which
    containing row is used."""
    records = []
    for j in sorted(fam.phase_sums):
        result = phi_image(fam, j)
        records.append(CheckRecord(
            f"phi-welldefined:g{j}", result.cross_row_discrepancy, tol,
            detail={"rows": result.rows}))
        for t in range(fam.rep.p):
            blocks = [p_block(fam, i, j, t) for i in result.rows]
            residual = max(
                (frob(bq - blocks[0]) for bq in blocks[1:]), default=0.0
            )
            records.append(CheckRecord(
                f"phi-valueblock:g{j}:t={t}", residual, tol))
    return records


def check_mutual_inverse(
    fam: ProjectionFamily, tol: float = DEFAULT_TOL
) -> list[CheckRecord]:
    """Both round trips of the generator maps between the family and the
    representation it was built from.

    (a) reconstructing each g_ell from weighted family sums over every row
    containing ell must return the original image; (b) evaluating the
    spectral-projection product built from the reconstructed generators
    must return each family entry.
    """
    rep, sums = fam.rep, fam.phase_sums
    records = [
        CheckRecord(f"roundtrip-generator:g{ell}:row{i}",
                    frob(total - rep.image(f"g{ell}")), tol)
        for ell in sorted(sums) for i, total in sums[ell].items()
    ]

    # phi(g_j) is the phase sum of the lowest row containing j
    projection = cache(lambda j, s: _spectral_projection(
        next(iter(sums[j].values())), s, rep.p, rep.exact))
    identity = eye_like(rep.image("J"))
    G = fam.graph
    cols = {i: sorted(row_support(G.system, i)) for i in G.solutions_by_row()}
    for (i, y), label in zip(G.vertices, G.labels):
        result = _spectral_product(identity, cols[i], y, projection)
        records.append(CheckRecord(
            f"roundtrip-projection:{label}", frob(result - fam.entry(i, y)), tol))
    return records


@dataclass(eq=False)
class IsoGeneratorFamily:
    """Matrices for the isomorphism-game generators, indexed by pairs of a
    vertex (i, x) of G(A,b) and a vertex (j, y) of G(A,0): the family
    entry at the translated solution x + y when i == j (adding a
    homogeneous row solution keeps the inhomogeneous-row solution set),
    and zero across different rows."""

    family: ProjectionFamily
    hom_graph: GameGraph  # G(A,0)
    zero: np.ndarray

    @property
    def g_vertices(self) -> tuple:
        return self.family.graph.vertices

    @property
    def h_vertices(self) -> tuple:
        return self.hom_graph.vertices

    def entry(self, vg, vh) -> np.ndarray:
        (i, x), (j, y) = vg, vh
        return self.family.entry(i, x + y) if i == j else self.zero

    def is_structurally_zero(self, vg, vh) -> bool:
        return vg[0] != vh[0]


def iso_generator_images(
    fam: ProjectionFamily, cap: int = DEFAULT_ENUM_CAP
) -> IsoGeneratorFamily:
    """The isomorphism-game family of fam, over G(A,b) and G(A,0)."""
    H = build_game_graph(fam.graph.system, homogeneous=True, cap=cap)
    return IsoGeneratorFamily(fam, H, np.zeros_like(fam.rep.image("J")))


def iso_partition_checks(
    iso: IsoGeneratorFamily, tol: float = DEFAULT_TOL
) -> list[CheckRecord]:
    """Both partition-of-unity identities: summing E over all vertices of
    either graph, the other one held fixed, gives the identity.

    Only same-row pairs are nonzero, and translation by a homogeneous
    solution permutes S_i(A,b), so both sums at a vertex of row i add up
    the family entries of row i.  Exact sums do not depend on their order,
    so every residual of row i is that of its row sum (zero when row i has
    no solution).  Float sums run in the vertex order of the summed graph.
    """
    fam, G, H = iso.family, iso.family.graph, iso.hom_graph
    identity = eye_like(iso.zero)
    if fam.rep.exact:
        by_row = {i: frob(fam.row_sums.get(i, iso.zero) - identity)
                  for i in H.solutions_by_row()}
        over_g = [by_row[i] for i, _ in H.vertices]
        over_h = [by_row[i] for i, _ in G.vertices]
    else:
        sums_g = {vh: iso.zero for vh in H.vertices}
        sums_h = {vg: iso.zero for vg in G.vertices}
        hom_solutions = H.solutions_by_row()
        for i, x in G.vertices:
            for y in hom_solutions[i]:
                E = iso.entry((i, x), (i, y))
                sums_g[(i, y)] = sums_g[(i, y)] + E
                sums_h[(i, x)] = sums_h[(i, x)] + E
        over_g = [frob(total - identity) for total in sums_g.values()]
        over_h = [frob(total - identity) for total in sums_h.values()]
    return [
        CheckRecord(f"{family}:{label}", residual, tol)
        for family, labels, residuals in (("iso-sum-over-inhomogeneous", H.labels, over_g),
                                          ("iso-sum-over-homogeneous", G.labels, over_h))
        for label, residual in zip(labels, residuals)
    ]


def _pair_counts(graph: GameGraph) -> np.ndarray:
    """Ordered vertex-pair counts of one graph, shape (3, m, m): entry
    [r, i-1, k-1] counts the pairs (u in row i, v in row k) whose
    relationship is r, indexed EQUAL, ADJACENT, DISTINCT."""
    rows = np.array([i for i, _ in graph.vertices], dtype=int)
    R = np.zeros((graph.order(), graph.system.m), dtype=np.int64)
    R[np.arange(graph.order()), rows - 1] = 1
    sizes = R.sum(axis=0)
    equal = np.diag(sizes)
    adjacent = R.T @ graph.adj @ R
    # object entries: the quadruple counts grow as |V|^4
    return np.stack([equal, adjacent, np.outer(sizes, sizes) - equal - adjacent]
                    ).astype(object)


def check_iso_relations(
    iso: IsoGeneratorFamily, tol: float = DEFAULT_TOL
) -> list[CheckRecord]:
    """Rule orthogonality plus idempotency/self-adjointness of every E.

    A quadruple of generators must multiply to zero whenever the two
    inhomogeneous-graph vertices relate (equal / adjacent / distinct
    non-adjacent) differently from the two homogeneous-graph vertices.
    Quadruples with a structurally zero factor vanish exactly and are only
    counted.  For the rest, the product is family(i, x+y) family(i', x'+y'),
    and the translated pairs (x+y, x'+y') arising from rule-zero quadruples
    are exactly the adjacent vertex pairs of the inhomogeneous graph: a
    relationship mismatch forces a coordinate conflict in the sums, and
    conversely any conflicting pair is reached by taking both homogeneous
    parts zero.  So the edge products of the family, in both orders,
    cover every rule-zero quadruple.  Likewise the nonzero generators of
    row i are exactly its family entries, each repeated |S_i(A,0)| times,
    so idempotency and self-adjointness are those of the family entries.
    Every residual is read from the family; nothing is multiplied here.
    """
    fam, G, H = iso.family, iso.family.graph, iso.hom_graph

    idem_max, adj_max = fam.entry_residuals.max(axis=0, initial=0.0).tolist()
    counts_g, counts_h = _pair_counts(G), _pair_counts(H)
    nonzero = int((counts_g[EQUAL] * counts_h[EQUAL]).sum())

    # rule-zero quadruples (G pair and H pair related differently) over the
    # full generator grid, and over same-row generators, whose factors are
    # both structurally nonzero
    total_g, total_h = counts_g.sum(axis=(1, 2)), counts_h.sum(axis=(1, 2))
    zero_quadruples = int(total_g.sum() * total_h.sum() - (total_g * total_h).sum())
    blocks_g, blocks_h = counts_g.sum(axis=0), counts_h.sum(axis=0)
    nonzero_mismatches = int((blocks_g * blocks_h).sum() - (counts_g * counts_h).sum())

    product_max = float(fam.edge_products.max(initial=0.0))
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
                "distinct_products": len(fam.edge_products),
            },
        ),
    ]


def psi_iso_consistency_checks(
    iso: IsoGeneratorFamily, tol: float = DEFAULT_TOL
) -> list[CheckRecord]:
    """The reverse generator map into the isomorphism-game algebra: for
    each (i, x), summing E over the homogeneous zero-solution column per
    row recovers the family entry.  Structural by construction; this
    guards the implementation."""
    records = []
    fam = iso.family
    sys = fam.graph.system
    zero_vec = ZpVector.zero(sys.p, sys.n)  # solves every homogeneous row
    for (i, x), label in zip(iso.g_vertices, fam.graph.labels):
        total = iso.zero
        for k in range(1, sys.m + 1):
            total = total + iso.entry((i, x), (k, zero_vec))
        records.append(CheckRecord(
            f"iso-zero-column:{label}", frob(total - fam.entry(i, x)), tol))
    return records


def run_check_suite(
    rep: Representation,
    sys: LinearSystem,
    tol: float = DEFAULT_TOL,
    cap: int = DEFAULT_ENUM_CAP,
) -> list[CheckRecord]:
    """The full certification pipeline, in order: group relations, family
    invariants, generator-map well-definedness, both round trips, the
    partition identities of the isomorphism-game family, and its rule
    orthogonality."""
    records = relation_residuals(rep, build_presentation(sys), tol)
    fam = _assemble_family(rep, sys, tol, cap)
    records += projection_family_checks(fam, tol)
    records += phi_welldefinedness_checks(fam, tol)
    records += check_mutual_inverse(fam, tol)
    iso = iso_generator_images(fam, cap)
    records += iso_partition_checks(iso, tol)
    records += check_iso_relations(iso, tol)
    records += psi_iso_consistency_checks(iso, tol)
    return records


def representation_to_json(rep: Representation) -> dict:
    """Serialize to the matrix JSON schema (floats; exact entries embed)."""

    def encode(M: np.ndarray) -> list:
        Z = M.astype(complex)
        return np.stack([Z.real, Z.imag], -1).tolist()

    names = [f"g{j}" for j in range(1, rep.n + 1)] + ["J"]
    return {
        "p": rep.p,
        "dim": rep.dim,
        "omega_convention": OMEGA_CONVENTION,
        "generators": {name: encode(rep.images[name]) for name in names},
    }


def save_representation(rep: Representation, path: str):
    with open(path, "w") as fh:
        json.dump(representation_to_json(rep), fh, indent=2)
        fh.write("\n")


def representation_from_json(doc: dict, tol: float = DEFAULT_TOL) -> Representation:
    try:
        p = json_typed(doc["p"], int, "p")
        dim = json_typed(doc["dim"], int, "dim")
        convention = doc["omega_convention"]
        generators = doc["generators"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed representation document: {exc}") from exc
    if not isinstance(generators, dict):
        raise ParseError("generators must be a JSON object")
    if convention != OMEGA_CONVENTION:
        raise ParseError(
            f"unsupported omega convention {convention!r}; "
            f"expected {OMEGA_CONVENTION!r}"
        )
    if "J" not in generators:
        raise ParseError("missing generator J")
    n = len(generators) - 1
    expected = {f"g{j}" for j in range(1, n + 1)} | {"J"}
    if set(generators) != expected:
        raise ParseError(f"generator names must be g1..g{n} and J")
    images = {}
    for name, rows in generators.items():
        try:
            parts = np.array(rows, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"matrix for {name} is not numeric: {exc}") from exc
        if parts.shape != (dim, dim, 2):
            raise ParseError(f"matrix for {name} is not {dim}x{dim} of [re, im] pairs")
        if not np.isfinite(parts).all():
            raise ParseError(f"matrix for {name} has a non-finite or null entry")
        M = np.empty((dim, dim), dtype=complex)
        M.real, M.imag = parts[..., 0], parts[..., 1]
        images[name] = M
    return make_representation(p, images, tol)


def load_representation(path: str, tol: float = DEFAULT_TOL) -> Representation:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    return representation_from_json(doc, tol)
